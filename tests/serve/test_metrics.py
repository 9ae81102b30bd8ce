"""Tests for serving metrics and the JSONL access log."""

import io
import json

from repro.serve.access_log import AccessLog
from repro.serve.cache import ResultCache
from repro.serve.metrics import ServeMetrics
from repro.serve.scheduler import JobScheduler


def snapshot(metrics: ServeMetrics, cache: ResultCache | None = None
             ) -> dict:
    cache = cache if cache is not None else ResultCache(
        lookups=metrics.cache_lookups)
    return metrics.snapshot(JobScheduler(metrics=metrics), cache)


class TestServeMetrics:
    def test_request_counting_and_latency(self):
        metrics = ServeMetrics()
        metrics.record_request("/healthz", 200, 0.001)
        metrics.record_request("/v1/disassemble", 200, 0.5)
        metrics.record_request("/v1/disassemble", 429, 0.002)
        snap = snapshot(metrics)
        assert snap["requests"] == {"/healthz:200": 1,
                                    "/v1/disassemble:200": 1,
                                    "/v1/disassemble:429": 1}
        assert snap["latency"]["/v1/disassemble"] == {
            "count": 2, "total_s": 0.502, "mean_s": 0.251}

    def test_request_latency_is_a_histogram(self):
        metrics = ServeMetrics()
        metrics.record_request("/healthz", 200, 0.002)
        scheduler = JobScheduler(metrics=metrics)
        text = metrics.render_live(scheduler, ResultCache())
        assert "# TYPE repro_serve_request_seconds histogram" in text
        assert ('repro_serve_request_seconds_bucket{endpoint="/healthz",'
                'le="0.001"} 0') in text
        assert ('repro_serve_request_seconds_bucket{endpoint="/healthz",'
                'le="0.005"} 1') in text
        assert 'repro_serve_request_seconds_count{endpoint="/healthz"} 1' \
            in text

    def test_batching_and_queue_stats(self):
        metrics = ServeMetrics()
        metrics.record_batch(3)
        metrics.record_batch(5)
        metrics.record_queue_depth(7)
        metrics.record_queue_depth(2)
        snap = snapshot(metrics)
        assert snap["batching"] == {"batches": 2, "batched_jobs": 8,
                                    "mean_batch_size": 4.0}
        assert snap["queue"] == {"depth": 0, "peak": 7, "in_flight": 0}

    def test_worker_phases_add_each_dump_total_included(self):
        metrics = ServeMetrics()
        assert snapshot(metrics)["worker_phases_s"] == {"total": 0.0}
        metrics.record_worker_phases({"superset": 0.5, "scoring": 0.25,
                                      "total": 0.75})
        metrics.record_worker_phases({"superset": 0.5, "total": 0.5})
        phases = snapshot(metrics)["worker_phases_s"]
        assert phases == {"superset": 1.0, "scoring": 0.25, "total": 1.25}

    def test_snapshot_reads_cache_stats_from_the_cache(self):
        metrics = ServeMetrics()
        cache = ResultCache(max_entries=4, lookups=metrics.cache_lookups)
        cache.get("k")
        cache.put("k", "payload")
        cache.get("k")
        assert snapshot(metrics, cache)["cache"] == {
            "entries": 1, "max_entries": 4, "hits": 1, "misses": 1,
            "evictions": 0}
        assert metrics.cache_lookups.value(outcome="hits") == 1


class TestAccessLog:
    def test_writes_one_sorted_json_object_per_line(self):
        stream = io.StringIO()
        log = AccessLog(stream=stream)
        log.record(id="r1", status=200, endpoint="/healthz")
        log.record(id="r2", status=404, endpoint="/nope")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["id"] == "r1"
        assert first["status"] == 200
        assert "ts" in first
        keys = list(json.loads(lines[1]))
        assert keys == sorted(keys)
        assert log.lines_written == 2

    def test_file_target_appends_jsonl(self, tmp_path):
        path = tmp_path / "logs" / "access.jsonl"
        log = AccessLog(path=path)
        log.record(id="r1", status=200)
        log.close()
        log = AccessLog(path=path)
        log.record(id="r2", status=200)
        log.close()
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["id"] for r in records] == ["r1", "r2"]

    def test_disabled_log_writes_nothing(self):
        stream = io.StringIO()
        log = AccessLog(stream=stream, enabled=False)
        log.record(id="r1")
        assert stream.getvalue() == ""

    def test_write_failure_disables_instead_of_raising(self):
        stream = io.StringIO()
        log = AccessLog(stream=stream)
        stream.close()
        log.record(id="r1")          # must not raise
        assert log.enabled is False
        log.record(id="r2")          # still quiet after self-disable

    def test_close_is_idempotent_and_silences_record(self):
        stream = io.StringIO()
        log = AccessLog(stream=stream)
        log.close()
        log.close()
        log.record(id="r1")
        assert log.enabled is False
