"""Serving-layer observability: health, Prometheus exposition, tracing."""

import json

from repro.obs.schema import validate_jsonl


class TestHealthz:
    def test_reports_liveness_from_the_scheduler(self, serve_harness):
        client = serve_harness().client()
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["queue_depth"] == 0
        assert health["in_flight"] == 0
        # Inline mode (workers=0): liveness is the dispatcher task.
        assert health["workers_alive"] == 1

    def test_health_report_and_gauges_read_the_scheduler(
            self, serve_harness):
        harness = serve_harness()
        client = harness.client()
        scheduler = harness.app.scheduler
        health = client.healthz()
        assert (health["queue_depth"], health["in_flight"],
                health["workers_alive"]) == (scheduler.queue_depth(),
                                             scheduler.in_flight,
                                             scheduler.workers_alive())
        _, samples = parse_exposition(scrape(client))
        assert samples["repro_serve_queue_depth"] == 0
        assert samples["repro_serve_workers_alive"] == 1


def scrape(client) -> str:
    status, _, body = client.request("GET", "/metrics?format=prometheus")
    assert status == 200
    return body


def parse_exposition(text: str) -> tuple[dict, dict]:
    """``({family: type}, {series: value})`` of a Prometheus text body."""
    kinds, samples = {}, {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            kinds[name] = kind
        elif line and not line.startswith("#"):
            series, value = line.rsplit(" ", 1)
            samples[series] = float(value)
    return kinds, samples


class TestMetricsAgreement:
    """The JSON view and the exposition read the same registry."""

    def test_json_and_prometheus_agree(self, serve_harness, msvc_blob):
        harness = serve_harness()
        client = harness.client()
        client.disassemble(msvc_blob)
        assert client.disassemble(msvc_blob)["cached"] is True
        client.lint(msvc_blob)
        assert client.request("GET", "/nope")[0] == 404

        _, prom = parse_exposition(scrape(client))
        snap = client.metrics()

        def sample(name, **labels):
            rendered = ",".join(f'{key}="{value}"'
                                for key, value in sorted(labels.items()))
            return prom.get(f"{name}{{{rendered}}}" if labels else name,
                            0.0)

        # The JSON scrape came second, so it also counts the first one.
        assert snap["requests"].pop("/metrics:200") == 1
        assert snap["latency"].pop("/metrics")["count"] == 1
        assert snap["requests"] == {
            "/nope:404": 1, "/v1/disassemble:200": 2, "/v1/lint:200": 1}
        for key, count in snap["requests"].items():
            endpoint, status = key.rsplit(":", 1)
            assert sample("repro_serve_requests_total",
                          endpoint=endpoint, status=status) == count
        for endpoint, summary in snap["latency"].items():
            assert sample("repro_serve_request_seconds_count",
                          endpoint=endpoint) == summary["count"]
        assert snap["jobs"]["submitted"] == snap["jobs"]["completed"] == 2
        for outcome, count in snap["jobs"].items():
            assert sample("repro_serve_jobs_total",
                          outcome=outcome) == count
        assert snap["batching"]["batches"] \
            == sample("repro_serve_batches_total")
        assert snap["batching"]["batched_jobs"] \
            == sample("repro_serve_batched_jobs_total")
        assert (snap["cache"]["hits"], snap["cache"]["misses"]) == (1, 2)
        for outcome in ("hits", "misses", "evictions"):
            assert sample("repro_serve_cache_total",
                          outcome=outcome) == snap["cache"][outcome]
        assert sample("repro_serve_cache_entries") \
            == snap["cache"]["entries"]

        scheduler = harness.app.scheduler
        health = client.healthz()
        assert health["queue_depth"] == scheduler.queue_depth()
        assert health["in_flight"] == scheduler.in_flight
        assert health["workers_alive"] == scheduler.workers_alive()

    def test_back_to_back_scrapes_count_nothing_twice(self, serve_harness,
                                                      msvc_blob):
        client = serve_harness().client()
        client.disassemble(msvc_blob)
        client.disassemble(msvc_blob)

        def counters(text):
            kinds, samples = parse_exposition(text)
            # Each scrape is itself a request to /metrics.
            return {series: value for series, value in samples.items()
                    if kinds.get(series.split("{")[0]) == "counter"
                    and 'endpoint="/metrics"' not in series}

        first = counters(scrape(client))
        assert first['repro_serve_cache_total{outcome="hits"}'] == 1
        assert counters(scrape(client)) == first


class TestPrometheusExposition:
    def test_metrics_endpoint_speaks_prometheus(self, serve_harness,
                                                msvc_blob):
        client = serve_harness().client()
        client.disassemble(msvc_blob)
        status, headers, body = client.request(
            "GET", "/metrics?format=prometheus")
        assert status == 200
        assert headers["content-type"] \
            == "text/plain; version=0.0.4; charset=utf-8"
        assert isinstance(body, str)
        assert "# TYPE repro_serve_requests_total counter" in body
        assert ('repro_serve_requests_total{endpoint="/v1/disassemble"'
                ',status="200"} 1') in body
        assert "repro_serve_workers_alive 1" in body
        assert "repro_serve_cache_total" in body
        # Inline mode runs jobs in-process, so the pipeline's global
        # registry (superset cache, trace counters) rides along.
        assert "repro_superset_cache_total" in body

    def test_json_metrics_shape_is_unchanged(self, serve_harness,
                                             msvc_blob):
        client = serve_harness().client()
        client.disassemble(msvc_blob)
        snap = client.metrics()
        assert isinstance(snap, dict)
        assert set(snap) >= {"requests", "jobs", "batching", "cache",
                             "latency", "worker_phases_s"}


class TestServeTracing:
    def test_trace_export_covers_the_request_lifecycle(
            self, serve_harness, msvc_blob, tmp_path):
        path = tmp_path / "serve.jsonl"
        harness = serve_harness(trace_path=str(path))
        client = harness.client()
        client.disassemble(msvc_blob)
        client.healthz()
        harness.drain()

        summary = validate_jsonl(path)
        spans = [json.loads(line)
                 for line in path.read_text().splitlines()]
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)

        # One request span per HTTP round trip, each a root.
        requests = by_name["request"]
        assert len(requests) == 2
        assert all(s["parent_id"] is None for s in requests)
        endpoints = {s["attrs"]["endpoint"] for s in requests}
        assert endpoints == {"/v1/disassemble", "/healthz"}

        # The job lifecycle hangs off the disassemble request span.
        disasm = next(s for s in requests
                      if s["attrs"]["endpoint"] == "/v1/disassemble")
        (job,) = by_name["job"]
        assert job["parent_id"] == disasm["span_id"]
        (wait,) = by_name["queue-wait"]
        assert wait["parent_id"] == disasm["span_id"]
        # A batch may cover jobs from several requests, so the batch
        # span is deliberately a root of the trace.
        (batch,) = by_name["worker-batch"]
        assert batch["attrs"]["jobs"] == 1
        assert batch["parent_id"] is None
        # The pipeline's own phases nest under the job span.
        assert "disassemble" in by_name
        assert "superset" in by_name

        assert summary["traces"] == 1
        assert summary["roots"] == 3            # 2 requests + the batch
        assert summary["dangling_parents"] == 0

    def test_untraced_server_writes_nothing(self, serve_harness,
                                            msvc_blob, tmp_path,
                                            monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        harness = serve_harness()
        assert harness.app.tracer is None
        client = harness.client()
        body = client.disassemble(msvc_blob)
        assert body["result"]
