"""serve-open: a live ``repro serve --workers 1`` driven open-loop.

Requests leave on a fixed schedule (:data:`RATE` per second, a fixed
share of the measured capacity) whether or not earlier ones have
finished, over at most ``nproc`` keep-alive connections from one
asyncio thread.  Latency runs
from when a request was *due*, so a stall also charges the requests
queued behind it.  If the generator itself falls behind its schedule by
more than :data:`LAG_LIMIT_MS`, the run is invalid and reports nothing.
The host-speed kernel (:mod:`hostspeed`) runs in this process only
while no request is outstanding and the next one is at least
:data:`IDLE_MARGIN_S` away, so it never overlaps the server's work.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import signal
import statistics
import sys
import time
from pathlib import Path

import common
import inputs
from checks import parse_result
import hostspeed
from hostspeed import HostSpeed
from outcome import Outcome

#: Closed-loop capacity of ``repro serve --workers 1`` on the serve-open
#: mix, requests per second: the median over seeds 1-5 of
#: ``perfbench/capacity.py`` on a 2-vCPU x86-64 host, pinned to one CPU
#: as the benchmark runs (range in the README, "serve-open load").
CAPACITY_RPS = 10.5
#: Share of that capacity offered.  Arrivals are evenly spaced, so at
#: 0.35 the gap between requests is over twice the median service time
#: of the slowest kind (cold or lint), and only a slowdown of that size
#: makes requests queue.
LOAD_SHARE = 0.35
#: Offered load, requests per second.
RATE = LOAD_SHARE * CAPACITY_RPS
#: Requests every run sends at least; a run also lasts at least
#: ``--seconds``.  Fixes the latency sample count and tail percentile.
MIN_REQUESTS = 60
#: Latency limit for goodput, reference ms from the request's due time.
SERVE_LIMIT_MS = 2_000.0
#: The p99 generator lag above which the run is invalid, ms.
LAG_LIMIT_MS = 50.0
#: Client-side deadline per request, s (a miss counts as failed).
REQUEST_TIMEOUT_S = 30.0
#: The kernel starts only this long before the next due time, s.
IDLE_MARGIN_S = 0.05
#: Seconds allowed for the server to start and answer its warm-up.
STARTUP_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, run_dir: Path, trace_path: Path | None) -> None:
        extra = {"REPRO_TRACE": str(trace_path)} if trace_path else {}
        self.child = common.Child(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--access-log", str(run_dir / "access.jsonl")],
            common.program_env(**extra), run_dir / "serve.stderr")
        self.port = 0

    def start(self, warmup: bytes) -> None:
        """Wait for the listen line, ``/healthz`` and one warm-up job."""
        line = self.child.proc.stdout.readline().decode()
        if not line.startswith("serving on "):
            raise common.ChildError(f"server did not start: {line!r}")
        self.port = int(line.split()[2].rsplit(":", 1)[1])
        status, _ = self.request("GET", "/healthz")
        if status != 200:
            raise common.ChildError(f"/healthz answered {status}")
        status, _ = self.request("POST", "/v1/disassemble",
                                 {"binary_b64": _b64(warmup)})
        if status != 200:
            raise common.ChildError(f"warm-up request answered {status}")

    def request(self, method: str, path: str, body: dict | None = None):
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=STARTUP_TIMEOUT_S)
        try:
            conn.request(method, path,
                         body=json.dumps(body) if body is not None else None,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """Peak RSS of the front end plus its worker processes."""
        pid = self.child.proc.pid
        return common.vm_hwm_mb(pid) + sum(
            common.vm_hwm_mb(child) for child in common.child_pids(pid))

    def stop(self) -> None:
        """Graceful drain (flushes the span file when tracing).

        Worker processes the server failed to reap (it was killed after
        the drain timeout) are killed too, so none outlives the run.
        """
        workers = []
        if self.child.proc.poll() is None:
            workers = common.child_pids(self.child.proc.pid)
            self.child.proc.send_signal(signal.SIGTERM)
        self.child.close(timeout=30.0)
        if self.child.proc.returncode != -signal.SIGKILL:
            return
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def _b64(blob: bytes) -> str:
    return base64.b64encode(blob).decode("ascii")


def _body(request: inputs.Request) -> bytes:
    body = {"binary_b64": _b64(request.blob),
            "timeout_ms": int(REQUEST_TIMEOUT_S * 1000)}
    if request.base:
        body["base"] = request.base
    return json.dumps(body).encode()


async def _drive(port: int, schedule: list[inputs.Request],
                 connections: int, host: HostSpeed
                 ) -> tuple[list[dict], list[float]]:
    """Send every request on schedule; returns outcomes and lags (ms)."""
    queue: asyncio.Queue = asyncio.Queue()
    outcomes: list[dict] = [{} for _ in schedule]
    lags: list[float] = []
    loop = asyncio.get_running_loop()
    origin = loop.time() + 0.05
    # Requests released and not yet answered, and the next due time.
    state = {"outstanding": 0, "next_due": origin}

    async def generate() -> None:
        for index, request in enumerate(schedule):
            due = origin + request.due
            state["next_due"] = due
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(max(0.0, loop.time() - due) * 1e3)
            state["outstanding"] += 1
            queue.put_nowait((index, due))
        state["next_due"] = float("inf")
        for _ in range(connections):
            queue.put_nowait(None)

    async def send() -> None:
        reader = writer = None
        while (item := await queue.get()) is not None:
            index, due = item
            request = schedule[index]
            payload = _body(request)
            try:
                if writer is None:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port)
                writer.write(
                    f"POST {request.endpoint} HTTP/1.1\r\n"
                    f"Host: 127.0.0.1\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n".encode()
                    + payload)
                await writer.drain()
                status, body = await asyncio.wait_for(
                    _read_response(reader), REQUEST_TIMEOUT_S)
                outcomes[index] = {"status": status, "body": body,
                                   "ms": (loop.time() - due) * 1e3,
                                   "ended": time.perf_counter()}
            except (OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError, ValueError) as error:
                outcomes[index] = {"status": 0, "body": b"",
                                   "ms": (loop.time() - due) * 1e3,
                                   "error": f"{type(error).__name__}"}
                if writer is not None:
                    writer.close()
                reader = writer = None
            state["outstanding"] -= 1
            room = state["next_due"] - loop.time() - IDLE_MARGIN_S
            if state["outstanding"] == 0 and room > 0:
                host.sample(min(outcomes[index]["ms"] / 1e3,
                                room / hostspeed.SHARE))
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    await asyncio.gather(generate(),
                         *(send() for _ in range(connections)))
    return outcomes, lags


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    while (line := await reader.readline()) not in (b"\r\n", b"\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, await reader.readexactly(length)


def _references(schedule) -> tuple[dict, dict]:
    """In-process results (by blob) and lint reports (by blob)."""
    from repro import Disassembler
    from repro.binary.container import Binary
    from repro.lint import LintConfig, lint_disassembly

    disassembler = Disassembler()
    results, reports = {}, {}
    for request in schedule:
        blob = request.blob
        lint = request.endpoint == "/v1/lint"
        if blob in (reports if lint else results):
            continue
        rich = disassembler.disassemble_rich(Binary.from_bytes(blob))
        results[blob] = json.loads(rich.result.to_json())
        if lint:
            reports[blob] = json.loads(lint_disassembly(
                rich.result, rich.superset, config=LintConfig(),
                facts=rich.facts).to_json())
    return results, reports


def serve_open(run_dir: Path, seed: int, seconds: float, traced: bool,
               probes: int) -> Outcome:
    from repro.binary.container import Binary

    count = max(MIN_REQUESTS, int(RATE * seconds))
    schedule, truths = inputs.serve_open(seed, RATE, count)
    outcome = Outcome("serve-open", latency_limit_ms=SERVE_LIMIT_MS,
                      planned_ops=len(schedule), wall_is_schedule=True)
    run_dir.mkdir(parents=True, exist_ok=True)
    outcome.details["inputs_sha256"] = common.digest(
        [r.endpoint.encode() + r.blob + r.base.encode() for r in schedule])
    outcome.details["offered_rps"] = RATE
    outcome.details["offered_share_of_capacity"] = LOAD_SHARE
    outcome.details["mix"] = {kind: sum(r.kind == kind for r in schedule)
                              for kind, _ in inputs.SERVE_MIX}
    results, reports = _references(schedule)
    for blob, truth in truths.items():
        outcome.accuracy.add(parse_result(json.dumps(results[blob])), truth)
    warmup = inputs.warmup_case().blob

    trace_path = run_dir / "serve-trace.jsonl" if traced else None
    server = None
    for probe in range(probes):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        server = Server(run_dir, trace_path)
        try:
            server.start(warmup)
        except (OSError, ValueError, common.ChildError) as error:
            server.stop()
            raise common.ChildError(f"serve set-up failed: {error}")
        outcome.add_setup(time.perf_counter() - started)
    try:
        _, before = server.request("GET", "/metrics")
        outcomes, lags = asyncio.run(_drive(server.port, schedule,
                                            min(2, os.cpu_count() or 1),
                                            outcome.host))
        _, after = server.request("GET", "/metrics")
        outcome.peak_rss_mb = server.peak_rss_mb()
    finally:
        server.stop()

    lag_p99 = common.percentile(lags, 99.0)
    outcome.details["generator_lag_ms"] = {"p50": statistics.median(lags),
                                           "p99": lag_p99, "max": max(lags)}
    if lag_p99 > LAG_LIMIT_MS:
        raise common.InvalidRun(f"generator lag p99 {lag_p99:.1f} ms > "
                                f"{LAG_LIMIT_MS} ms")
    last_done = 0.0
    for index, (request, result) in enumerate(zip(schedule, outcomes)):
        outcome.attempted += 1
        label = f"{request.kind}#{index}"
        if result.get("status") != 200:
            outcome.fail(f"{label}: status {result.get('status')} "
                         f"{result.get('error', '')}".strip(),
                         wrong_output=False)
            continue
        body = json.loads(result["body"])
        if request.endpoint == "/v1/lint":
            ok = body.get("report") == reports[request.blob]
        else:
            ok = body.get("result") == results[request.blob]
        if not ok:
            outcome.fail(f"{label}: response differs from the in-process "
                         f"result", wrong_output=True)
            continue
        ended = result["ended"]
        outcome.add_latency(result["ms"], ended - result["ms"] / 1e3, ended)
        outcome.kb_done += len(Binary.from_bytes(request.blob).text.data) \
            / 1024
        last_done = max(last_done, request.due + result["ms"] / 1e3)
    # The timed window runs from the first due time to the last answer.
    outcome.wall_s = last_done or len(schedule) / RATE
    if traced:
        outcome.layers = _layers(trace_path, schedule, before, after, lags)
    return outcome


def _layers(trace_path: Path, schedule, before: dict, after: dict,
            lags: list[float]) -> dict[str, float]:
    """Serve-layer numbers from ``/metrics`` deltas and the server's spans."""
    def delta(*keys: str) -> float:
        a, b = after, before
        for key in keys:
            a, b = a.get(key, {}), b.get(key, {})
        return float(a or 0) - float(b or 0)

    spans = [json.loads(line) for line in
             trace_path.read_text().splitlines()] \
        if trace_path.exists() else []
    queue_wait = [s["dur_us"] / 1e3 for s in spans
                  if s["name"] == "queue-wait"]
    jobs = [s for s in spans if s["name"] == "job"]
    incremental = sum(1 for s in spans if s["name"] == "disassemble"
                      and s["attrs"].get("incremental"))
    near = sum(1 for r in schedule if r.kind == "near")
    lint_jobs = {s["span_id"] for s in jobs
                 if s["attrs"].get("kind") == "lint"}
    lint_kb = sum(s["attrs"].get("bytes", 0) / 1024 for s in spans
                  if s["name"] == "disassemble"
                  and s.get("parent_id") in lint_jobs)
    lint_ms = sum(s["dur_us"] / 1e3 for s in spans
                  if s["name"].startswith("lint:"))
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    batches = delta("batching", "batches")
    # A number whose source is absent is left out (listed as not
    # measured) rather than read as 0.
    layers = {"serve.generator_lag_ms": common.percentile(lags, 99.0)}
    if queue_wait:
        layers["serve.queue_wait_ms_p50"] = statistics.median(queue_wait)
    if jobs:
        layers["serve.worker_ms_p50"] = statistics.median(
            s["dur_us"] / 1e3 for s in jobs)
    if hits + misses:
        layers["serve.cache_hit_ratio"] = hits / (hits + misses)
    if near and spans:
        layers["serve.base_hit_ratio"] = incremental / near
    if batches:
        layers["serve.batch_size_mean"] = \
            delta("batching", "batched_jobs") / batches
    if lint_kb:
        layers["lint.ms_per_kb"] = lint_ms / lint_kb
    return layers
