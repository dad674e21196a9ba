#!/usr/bin/env python3
"""Run one workload of the benchmark and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics in untraced segments.
``--trace 1`` runs untraced reference segments, then one segment with every
layer's functions wrapped in spans (``spans.py``), and prints the per-layer
metrics; the spans are written to ``perfbench/out/spans_<workload>.{json,bin}``.

Every segment must pass the correctness gate: all requests delivered, an
all-clean specification verdict, and, on the simulator, exactly the same
delivered, event and message counts as every other segment of its sub-seed.
A segment that fails is counted in ``failed`` and not measured.  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from calibration import Speedometer  # noqa: E402
from workloads import WORKLOADS, Workload, dsn_for  # noqa: E402

#: End-to-end metric -> unit.
END_TO_END_UNITS = {
    "wall_req_per_s": "req/s",
    "cpu_ms_per_req": "ms",
    "latency_p50_ms": "virtual_ms",
    "latency_tail_ms": "virtual_ms",
    "virtual_req_per_s": "req/s",
    "delivered_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Virtual milliseconds the simulation runs on after the last delivery, so
#: decides and acknowledgements land before the specification is checked.
SETTLE_MS = 5_000.0
#: Interpreter launches timed for ``setup_s`` (after one that warms caches).
SETUP_SAMPLES = 7
#: Segments that repeat a sub-seed, at the least, so that every run checks
#: reproducibility (and a traced run has untraced references).
MIN_REPEATS = 1

_SETUP = ("import sys; sys.path.insert(0, sys.argv[1]); from repro import api; "
          "api.build(api.Scenario.from_dsn(sys.argv[2])).close()")


@dataclass
class Segment:
    subseed: int
    requested: int
    delivered: int
    latencies: list[float]
    elapsed_ms: float
    wall_s: float
    cpu_s: float
    ok: bool
    verdict: str
    counts: dict[str, Any]
    #: How much slower than reference speed the machine ran around this
    #: segment (see ``calibration.py``); wall and CPU figures are divided by it.
    slowdown: float = 1.0

    @property
    def fingerprint(self) -> tuple[int, int, int]:
        return self.delivered, self.counts["events"], self.counts["messages"]


def measure_setup(dsn: str) -> float:
    """Median wall time, at reference speed, of a fresh interpreter that imports
    ``repro`` and builds ``dsn``."""
    samples = []
    speed = Speedometer()
    for _ in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP, str(SRC), dsn], check=True,
                       stdout=subprocess.DEVNULL)
        samples.append((time.perf_counter() - start) / speed.slowdown())
    return statistics.median(samples[1:])


def run_segment(workload: Workload, seed: int, subseed: int,
                tracer: Any = None, events: Optional[dict[str, list]] = None,
                speed: Optional[Speedometer] = None) -> Segment:
    """Build the workload's scenario, drive one segment of load, check the verdict.

    The time ``speed`` spends sampling during the load phase is taken out of
    the segment's wall and CPU time.
    """
    from repro import api
    from repro.core.types import reset_request_counter

    if tracer is not None:
        from spans import ROOT
        tracer.install()
        tracer.enter(tracer.name_id(ROOT, "bench"))
    try:
        reset_request_counter()
        scenario = api.Scenario.from_dsn(dsn_for(workload, seed, subseed))
        system = api.build(scenario)
        try:
            counts: dict[str, Any] = {"inflight_peak": 0}
            if events is not None:
                _subscribe(system, events, counts)
            generator = api.load_generator_for(scenario)
            spent = (speed.spent_wall, speed.spent_cpu) if speed else (0.0, 0.0)
            cpu = time.process_time()
            wall = time.perf_counter()
            stats = generator.run(system, workload.requests)
            wall = time.perf_counter() - wall
            cpu = time.process_time() - cpu
            if speed:
                wall -= speed.spent_wall - spent[0]
                cpu -= speed.spent_cpu - spent[1]
            system.run(until=system.sim.now + SETTLE_MS)
            requested = workload.requests * scenario.num_clients
            spec = system.check_spec(check_termination=stats.undelivered == 0)
            counts.update(_counts(system, stats))
        finally:
            system.close()
    finally:
        if tracer is not None:
            tracer.exit()
            tracer.uninstall()
    return Segment(subseed=subseed, requested=requested, delivered=stats.count,
                   latencies=list(stats.latencies), elapsed_ms=stats.elapsed,
                   wall_s=wall, cpu_s=cpu,
                   ok=spec.ok and stats.count == requested, verdict=spec.summary(),
                   counts=counts)


def _subscribe(system: Any, events: dict[str, list], counts: dict[str, Any]) -> None:
    from layers import SUBSCRIBED

    for category in SUBSCRIBED:
        system.trace.subscribe(category, events[category].append)
    monitor = getattr(system.deployment, "spec_monitor", None)
    if monitor is not None:
        def sample(_event: Any) -> None:
            counts["inflight_peak"] = max(counts["inflight_peak"], monitor.in_flight)
        for category in ("as_compute", "client_deliver"):
            system.trace.subscribe(category, sample)


def _counts(system: Any, stats: Any) -> dict[str, Any]:
    """Counters of one finished segment, read through public attributes."""
    network = system.network.stats
    processes = list(system.network.processes.values())
    stores = [server.store for server in (getattr(system, "db_servers", None) or {}).values()]
    return {
        "events": system.sim.events_processed,
        "messages": network.sent,
        "dropped": network.dropped_loss + network.dropped_partition
                   + network.dropped_dest_down,
        "by_type": dict(network.by_type_sent),
        "mailbox_peak": max((p.mailbox_peak for p in processes), default=0),
        "shed": sum(p.shed_messages for p in processes),
        "commits": sum(db.commits for db in stats.by_database.values()),
        "aborts": sum(db.aborts for db in stats.by_database.values()),
        "forced_writes": sum(store.storage.stats.forced_writes for store in stores),
        "lock_conflicts": sum(store.locks.conflicts for store in stores),
        "mean_attempts": stats.mean_attempts,
        "retention": system.trace.retention,
    }


def _percentile(values: list[float], fraction: float) -> float:
    from repro.metrics.percentiles import percentile
    return percentile(sorted(values), fraction)


class Gate:
    """The correctness gate: verdicts, deliveries and per-sub-seed reproducibility."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.first: dict[int, Segment] = {}
        self.attempted = 0
        self.failed = 0
        self.passed: list[Segment] = []

    def check(self, segment: Segment) -> bool:
        self.attempted += segment.requested
        ok = segment.ok
        if not ok:
            print(f"gate: sub-seed {segment.subseed}: {segment.delivered}/"
                  f"{segment.requested} delivered, {segment.verdict}", file=sys.stderr)
        if ok and self.workload.simulated:
            first = self.first.setdefault(segment.subseed, segment)
            if first.fingerprint != segment.fingerprint:
                print(f"gate: sub-seed {segment.subseed} did not reproduce: "
                      f"{segment.fingerprint} != {first.fingerprint}", file=sys.stderr)
                ok = False
        if ok:
            self.passed.append(segment)
        else:
            self.failed += segment.requested
        return ok


def measured_segment(workload: Workload, seed: int, subseed: int,
                     speed: Speedometer) -> Segment:
    """One untraced segment and, on the simulator, the machine's slowdown around it.

    On asyncio the load phase waits on real timers, samples inside the event
    loop would delay them, and its CPU time per request did not follow the
    calibration (7.0-8.3 ms at slowdowns from 1.7 to 3.4), so its figures
    stay unscaled.
    """
    if not workload.simulated:
        return run_segment(workload, seed, subseed)
    with speed.sampling():
        segment = run_segment(workload, seed, subseed, speed=speed)
    segment.slowdown = speed.slowdown()
    return segment


def reference_wall(segment: Segment) -> float:
    """Load-phase wall seconds at reference speed."""
    return segment.wall_s / segment.slowdown


def end_to_end(workload: Workload, gate: Gate, setup_s: float) -> dict[str, float]:
    segments = gate.passed
    if workload.simulated:
        # Virtual figures are a function of the sub-seed: pool each one once.
        pooled = list({s.subseed: s for s in reversed(segments)}.values())
    else:
        pooled = segments
    latencies = [x for s in pooled for x in s.latencies]
    delivered = sum(s.delivered for s in pooled)
    delivered_all = sum(s.delivered for s in segments)
    return {
        "wall_req_per_s": delivered_all / sum(reference_wall(s) for s in segments),
        "cpu_ms_per_req": 1000.0 * sum(s.cpu_s / s.slowdown for s in segments)
                          / delivered_all,
        "latency_p50_ms": _percentile(latencies, 0.5),
        "latency_tail_ms": _percentile(latencies, workload.tail),
        "virtual_req_per_s": delivered / (sum(s.elapsed_ms for s in pooled) / 1000.0),
        "delivered_frac": delivered_all / sum(s.requested for s in segments),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_untraced(workload: Workload, seed: int, seconds: float) -> tuple[Gate, dict]:
    setup_s = measure_setup(dsn_for(workload, seed))
    gate = Gate(workload)
    subseeds = workload.subseeds if workload.simulated else 1
    deadline = time.perf_counter() + seconds
    speed = Speedometer()
    index = 0
    while index < subseeds + MIN_REPEATS or time.perf_counter() < deadline:
        gate.check(measured_segment(workload, seed, index % subseeds, speed))
        index += 1
    if not gate.passed:
        return gate, {}
    if workload.simulated:
        slowdowns = [s.slowdown for s in gate.passed]
        print(f"speed: {len(slowdowns)} segments, slowdown median "
              f"{statistics.median(slowdowns):.3f} (min {min(slowdowns):.3f}, "
              f"max {max(slowdowns):.3f})", file=sys.stderr)
    return gate, end_to_end(workload, gate, setup_s)


def run_traced(workload: Workload, seed: int, seconds: float) -> tuple[Gate, dict]:
    from layers import SUBSCRIBED, per_layer_metrics
    from spans import SpanTracer, span_costs

    gate = Gate(workload)
    deadline = time.perf_counter() + seconds / 2
    speed = Speedometer()
    while len(gate.passed) < MIN_REPEATS or time.perf_counter() < deadline:
        if not gate.check(measured_segment(workload, seed, 0, speed)) and not gate.passed:
            return gate, {}
    reference = list(gate.passed)
    tracer = SpanTracer()
    events: dict[str, list] = {category: [] for category in SUBSCRIBED}
    # No samples inside a traced segment: their time would land in its spans.
    traced = run_segment(workload, seed, 0, tracer=tracer, events=events)
    if workload.simulated:
        traced.slowdown = speed.slowdown()
    if not gate.check(traced):
        return gate, {}
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(str(out / f"spans_{workload.name}"))
    untraced_wall = statistics.median(reference_wall(s) for s in reference)
    events_per_s = statistics.median(s.counts["events"] / reference_wall(s)
                                     for s in reference)
    return gate, per_layer_metrics(traced, tracer, events, events_per_s,
                                   reference_wall(traced) / untraced_wall, span_costs())


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        parser.error(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    # One CPU for the whole run, set-up interpreters included, so that the
    # calibration runs see the contention the measured work sees.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    if args.trace:
        from layers import PER_LAYER_UNITS as units
        gate, values = run_traced(workload, args.seed, args.seconds)
    else:
        units = END_TO_END_UNITS
        gate, values = run_untraced(workload, args.seed, args.seconds)
    correct = gate.failed == 0 and bool(values)
    for name, value in values.items():
        print(f"{workload.name:8s} {name:36s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
