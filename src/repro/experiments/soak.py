"""Experiment E10 -- soak run: sustained open-loop load with flat memory.

Before the streaming observability refactor this experiment was impossible:
the trace grew by dozens of events per request and the spec checker re-scanned
the whole history, so a 100k-request run both exhausted memory and spent its
wall-clock in post-hoc scanning.  With the event-bus pipeline the run keeps

* the **stored trace** bounded (``trace=ring:N`` keeps a flight-recorder
  suffix, ``off`` stores nothing),
* the **online spec monitor** at O(in-flight) heavy state, retiring
  transactions as they terminally resolve, while still producing the full
  e-Transaction verdict at the end,
* the metrics (throughput, percentiles, per-database outcomes, latency
  components) streaming off the same bus.

The experiment samples the observability state at checkpoints during the run
(stored-trace size, spec-monitor in-flight transactions) so flat memory is a
measured fact in the report, not a claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.api.drivers import build
from repro.api.runner import load_generator_for
from repro.api.scenario import Scenario
from repro.core.types import reset_request_counter
from repro.sim.tracing import RETENTION_RING, parse_retention

# Eight shards absorb ~42 committed transactions per virtual second (each
# database's execute stage costs ~190 ms of simulated engine time), so an
# offered load of 32/s soaks the stack at ~76% utilisation without the
# unbounded queueing an over-saturated open loop would build up.
DEFAULT_SOAK_DSN = ("etx://a3.d8.c64?rate=32&arrival=poisson&seed=11"
                    "&workload=bank&placement=hash&xshard=0.1&trace=off")


@dataclass
class SoakSample:
    """One observability checkpoint taken during the run."""

    time: float                 # virtual ms since the run started
    events_processed: int       # simulator callbacks so far
    trace_stored: int           # events currently held by the recorder
    spec_in_flight: int         # transactions the monitor has not retired
    spec_retired: int           # transactions whose state machines were freed
    mailbox_backlog: int        # buffered messages across every process


@dataclass
class SoakReport:
    """Everything one soak run measured."""

    dsn: str
    requested: int
    delivered: int
    undelivered: int
    throughput: float           # committed requests per virtual second
    p50: float
    p95: float
    p99: float
    elapsed_virtual_ms: float
    wall_seconds: float
    events_processed: int
    events_per_second: float    # simulator callbacks per wall second
    spec_ok: bool
    spec_summary: str
    checked_properties: list[str] = field(default_factory=list)
    trace_retention: str = "off"
    trace_stored_final: int = 0
    samples: list[SoakSample] = field(default_factory=list)

    @property
    def trace_bounded(self) -> bool:
        """Whether the stored trace stayed within its retention bound."""
        mode, capacity = parse_retention(self.trace_retention)
        if mode == "off":
            bound = 0
        elif mode == RETENTION_RING:
            bound = capacity
        else:
            return False  # full retention grows with the run, by design
        return all(sample.trace_stored <= bound for sample in self.samples) \
            and self.trace_stored_final <= bound

    @property
    def spec_memory_flat(self) -> bool:
        """Whether the monitor's in-flight table stayed flat (no leak).

        "Flat" = the largest in-flight population seen at any checkpoint in
        the second half of the run is no bigger than twice the largest seen
        in the first half (plus a small allowance for ramp-up) -- a growing
        table would trend with the request count instead.
        """
        if len(self.samples) < 4:
            return True
        half = len(self.samples) // 2
        first = max(s.spec_in_flight for s in self.samples[:half])
        second = max(s.spec_in_flight for s in self.samples[half:])
        return second <= 2 * max(first, 8)

    @property
    def ok(self) -> bool:
        """Spec-clean, everything delivered, memory demonstrably bounded."""
        return self.spec_ok and self.undelivered == 0 \
            and self.trace_bounded and self.spec_memory_flat

    def to_json(self) -> dict:
        """Machine-readable BENCH payload (written to benchmarks/out)."""
        return {
            "dsn": self.dsn,
            "requested": self.requested,
            "delivered": self.delivered,
            "undelivered": self.undelivered,
            "throughput_per_s": round(self.throughput, 1),
            "p50_ms": round(self.p50, 2),
            "p95_ms": round(self.p95, 2),
            "p99_ms": round(self.p99, 2),
            "elapsed_virtual_s": round(self.elapsed_virtual_ms / 1000.0, 1),
            "wall_seconds": round(self.wall_seconds, 3),
            "events_processed": self.events_processed,
            "events_per_second": round(self.events_per_second),
            "spec_ok": self.spec_ok,
            "checked_properties": list(self.checked_properties),
            "trace_retention": self.trace_retention,
            "trace_stored_final": self.trace_stored_final,
            "trace_bounded": self.trace_bounded,
            "spec_memory_flat": self.spec_memory_flat,
            "max_spec_in_flight": max((s.spec_in_flight for s in self.samples),
                                      default=0),
            "max_trace_stored": max((s.trace_stored for s in self.samples),
                                    default=0),
            "max_mailbox_backlog": max((s.mailbox_backlog for s in self.samples),
                                       default=0),
            "samples": [
                {"t_virtual_ms": round(s.time, 1),
                 "events": s.events_processed,
                 "trace_stored": s.trace_stored,
                 "spec_in_flight": s.spec_in_flight,
                 "spec_retired": s.spec_retired,
                 "mailbox_backlog": s.mailbox_backlog}
                for s in self.samples
            ],
        }

    def summary(self) -> str:
        """Compact multi-line report (what the CLI prints)."""
        lines = [
            f"soak       {self.dsn}",
            f"requests   {self.delivered}/{self.requested} delivered"
            f"   throughput {self.throughput:.1f} req/s of virtual time",
            f"latency    p50 {self.p50:.1f}   p95 {self.p95:.1f}"
            f"   p99 {self.p99:.1f} ms",
            f"engine     {self.events_processed} events in"
            f" {self.wall_seconds:.1f}s wall"
            f" ({self.events_per_second:,.0f} events/s)",
            f"memory     trace[{self.trace_retention}] stored"
            f" {self.trace_stored_final}"
            f" (bounded: {self.trace_bounded})   spec in-flight max "
            f"{max((s.spec_in_flight for s in self.samples), default=0)}"
            f" (flat: {self.spec_memory_flat})   mailbox backlog max "
            f"{max((s.mailbox_backlog for s in self.samples), default=0)}",
            f"spec       {self.spec_summary}",
        ]
        return "\n".join(lines)


def run(dsn: Union[str, Scenario] = DEFAULT_SOAK_DSN, requests: int = 100_000,
        checkpoints: int = 20, settle: float = 5_000.0,
        max_events: Optional[int] = None) -> SoakReport:
    """Soak one scenario with ``requests`` total open-loop arrivals.

    ``requests`` is the total offered load, dealt round-robin over the
    scenario's clients; the scenario must be an open loop (``rate > 0``) --
    a closed loop adapts its offered load to the system and cannot soak it.
    """
    scenario = Scenario.from_dsn(dsn) if isinstance(dsn, str) else dsn
    if scenario.rate <= 0:
        raise ValueError("a soak run needs an open-loop scenario (rate > 0)")
    per_client, remainder = divmod(requests, scenario.num_clients)
    if remainder:
        per_client += 1
    total = per_client * scenario.num_clients
    if max_events is None:
        max_events = max(5_000_000, 200 * total)

    reset_request_counter()
    system = build(scenario)
    sim = system.sim
    monitor = system.spec_monitor
    trace = system.trace

    samples: list[SoakSample] = []
    start_virtual = sim.now
    expected_duration = total / scenario.rate * 1000.0  # virtual ms
    interval = expected_duration / max(checkpoints, 1)

    processes = system.network.processes

    def sample() -> None:
        samples.append(SoakSample(
            time=sim.now - start_virtual,
            events_processed=sim.events_processed,
            trace_stored=len(trace),
            spec_in_flight=monitor.in_flight,
            spec_retired=monitor.retired,
            mailbox_backlog=sum(p.mailbox_size for p in processes.values()),
        ))

    for checkpoint in range(1, checkpoints + 1):
        sim.schedule(checkpoint * interval, sample, name="soak:sample")

    generator = load_generator_for(scenario, max_events=max_events)
    wall_start = time.perf_counter()
    statistics = generator.run(system, per_client)
    if settle > 0:
        system.run(until=sim.now + settle)
    wall = time.perf_counter() - wall_start
    sample()  # final checkpoint after the drain

    report = system.check_spec(
        check_termination=statistics.undelivered == 0)
    return SoakReport(
        dsn=scenario.to_dsn(),
        requested=total,
        delivered=statistics.count,
        undelivered=statistics.undelivered,
        throughput=statistics.throughput,
        p50=statistics.p50,
        p95=statistics.p95,
        p99=statistics.p99,
        elapsed_virtual_ms=statistics.elapsed,
        wall_seconds=wall,
        events_processed=sim.events_processed,
        events_per_second=sim.events_processed / wall if wall > 0 else 0.0,
        spec_ok=report.ok,
        spec_summary=report.summary(),
        checked_properties=list(report.checked_properties),
        trace_retention=scenario.trace,
        trace_stored_final=len(trace),
        samples=samples,
    )
