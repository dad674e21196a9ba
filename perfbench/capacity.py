#!/usr/bin/env python3
"""Reference data, not a gated workload: the ``asyncio`` shape's capacity by pace.

Runs ``etx://a3.d1.c4?workload=bank&trace=off&runtime=asyncio&pace=P`` as a
closed loop over four clients for each pace in :data:`PACES`, one fresh
interpreter per pace, and writes ``perfbench/reference/asyncio_capacity.json``::

    python3 perfbench/capacity.py            # one to two minutes on 2 CPUs

``pace`` rescales wall time: at pace 0.05 a 2000 ms client back-off lasts
100 wall ms.  Once a request's CPU cost outruns the back-off in paced time,
clients retry requests that are still being served, every retry adds work,
and messages per request climb (the retry-storm knee).  Each row also gives
the same DSN's message count on the simulator, where CPU time costs nothing.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "reference" / "asyncio_capacity.json"

DSN = "etx://a3.d1.c4?workload=bank&trace=off&seed=1"
#: Pace -> requests per client.
PACES = {0.2: 100, 0.1: 100, 0.05: 20, 0.02: 20, 0.01: 20}


def measure(dsn: str, requests: int) -> dict:
    """One closed-loop run of ``dsn``; its figures and verdict."""
    sys.path.insert(0, str(SRC))
    from repro import api
    from repro.core.types import reset_request_counter

    reset_request_counter()
    scenario = api.Scenario.from_dsn(dsn)
    system = api.build(scenario)
    try:
        cpu, wall = time.process_time(), time.perf_counter()
        stats = api.load_generator_for(scenario).run(system, requests)
        cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
        system.run(until=system.sim.now + 5_000.0)
        spec = system.check_spec(check_termination=stats.undelivered == 0)
        # The highest percentile with ten samples beyond it.
        tail = 1.0 - 10.0 / max(stats.count, 20)
        return {
            "requests": requests * scenario.num_clients,
            "delivered": stats.count,
            "latency_p50_ms": stats.p50,
            "tail_percentile": 100.0 * tail,
            "latency_tail_ms": stats.percentile(tail),
            "latency_max_ms": stats.max_latency,
            "cpu_ms_per_req": 1000.0 * cpu / max(stats.count, 1),
            "wall_s": wall,
            "msgs": system.stats.sent,
            "msgs_per_req": system.stats.sent / max(stats.count, 1),
            "mean_attempts": stats.mean_attempts,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "spec": spec.summary(),
            "spec_ok": spec.ok,
        }
    finally:
        system.close()


def _child(dsn: str, requests: int) -> dict:
    done = subprocess.run([sys.executable, __file__, "--one", dsn, str(requests)],
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    if sys.argv[1:2] == ["--one"]:
        print(json.dumps(measure(sys.argv[2], int(sys.argv[3]))))
        return 0
    rows = []
    for pace, requests in PACES.items():
        row = {"pace": pace, "dsn": f"{DSN}&runtime=asyncio&pace={pace}"}
        row.update(_child(row["dsn"], requests))
        row["sim_msgs"] = _child(DSN, requests)["msgs"]
        rows.append(row)
        print(f"pace {pace:<5} {row['delivered']}/{row['requests']} delivered  "
              f"p50 {row['latency_p50_ms']:9.1f} p{row['tail_percentile']:g} "
              f"{row['latency_tail_ms']:9.1f} virtual ms  "
              f"cpu {row['cpu_ms_per_req']:7.2f} ms/req  msgs {row['msgs']} "
              f"(sim {row['sim_msgs']})  rss {row['peak_rss_mb']:.0f} MB  {row['spec']}",
              flush=True)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps({
        "about": "asyncio closed loop, 4 clients, by pace; latencies in virtual ms "
                 "(wall = virtual x pace); measured on a 2-CPU container, Python "
                 f"{sys.version.split()[0]}",
        "rows": rows,
    }, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
