"""Closed-loop capacity of ``repro serve --workers 1`` on the serve-open mix.

Usage::

    python3 perfbench/capacity.py --seeds 1,2,3 --requests 60

Run from the root of a checkout.  For each seed it starts a fresh server,
sends the serve-open request mix (:data:`inputs.SERVE_MIX`, same input
sizes) back to back over one keep-alive connection, each request only
after the previous answer, and prints the requests answered per second.
That is the rate the single worker sustains; serve-open's offered rate
(:data:`serveopen.RATE`) is a fixed fraction of it.  This script is not
part of the benchmark's timed runs.
"""

from __future__ import annotations

import argparse
import http.client
import json
import statistics
import sys
import time

import common
import inputs
import serveopen


def capacity(seed: int, requests: int, run_dir) -> dict:
    """Answered requests per second, closed loop, one connection."""
    schedule, _ = inputs.serve_open(seed, 1.0, requests)
    server = serveopen.Server(run_dir, None)
    try:
        server.start(inputs.warmup_case().blob)
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=serveopen.REQUEST_TIMEOUT_S)
        service_ms: dict[str, list[float]] = {}
        started = time.perf_counter()
        for request in schedule:
            t0 = time.perf_counter()
            conn.request("POST", request.endpoint,
                         body=serveopen._body(request),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            response.read()
            if response.status != 200:
                raise common.ChildError(f"{request.kind}: status "
                                        f"{response.status}")
            service_ms.setdefault(request.kind, []).append(
                (time.perf_counter() - t0) * 1e3)
        wall = time.perf_counter() - started
        conn.close()
    finally:
        server.stop()
    return {"seed": seed, "requests": len(schedule),
            "capacity_rps": len(schedule) / wall,
            "median_ms": {kind: round(statistics.median(values), 1)
                          for kind, values in service_ms.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--requests", type=int, default=60)
    args = parser.parse_args(argv)
    common.pin_to_one_cpu()            # as the benchmark runs
    common.use_program_env()
    common.MODEL_CACHE.mkdir(parents=True, exist_ok=True)
    from repro.stats.training import default_models
    default_models()
    rates = []
    for seed in (int(s) for s in args.seeds.split(",")):
        run_dir = common.WORK / "capacity" / f"seed{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        row = capacity(seed, args.requests, run_dir)
        rates.append(row["capacity_rps"])
        print(json.dumps(row), flush=True)
    print(json.dumps({"median_capacity_rps": statistics.median(rates),
                      "min": min(rates), "max": max(rates),
                      "offered_rps": serveopen.RATE,
                      "offered_share": serveopen.RATE
                      / statistics.median(rates)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
