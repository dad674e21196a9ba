"""The benchmark's workloads: one scenario DSN each, plus how much work a run does.

Every workload is a DSN of the public ``repro.api`` and a request count per
client.  The benchmark's ``--seed`` reaches the program only through the DSN's
``seed=`` parameter (see :func:`dsn_for`).

A run is a sequence of *segments*.  Each segment builds the scenario afresh,
drives ``requests`` requests per client through ``load_generator_for(...).run``,
settles, and checks the specification.  On the simulator, segment ``i`` uses
sub-seed ``i % subseeds``: the first ``subseeds`` segments are distinct inputs
whose virtual figures are pooled, and every later segment repeats one of them,
so its delivered, event and message counts must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Fault schedule of ``faults``.  The middle tier loses ``a3`` for good
#: (crash-stop) because a recovered app server never heartbeats again under
#: ``fd=heartbeat`` (``tests/test_perfbench.py``,
#: ``test_heartbeat_recovery_after_app_server_crash_for``); ``crash_for`` on an
#: app server joins the schedule once that is fixed.
FAULTS = ("false_suspicion@10000:a2:a1:300", "partition@20000:a1~d2", "heal@20400",
          "crash_for@30000:d3:800", "crash@40000:a3", "reshard@50000:d4->d8")


@dataclass(frozen=True)
class Workload:
    name: str
    dsn: str
    #: Requests per client in one segment (a closed loop issues them back to
    #: back; an open loop injects ``requests * clients`` arrivals at ``rate``).
    requests: int
    #: Distinct sub-seeds whose virtual figures are pooled (simulator only).
    subseeds: int
    #: The percentile reported as ``latency_tail_ms``: one with at least ten
    #: samples beyond it that repeats, across seeds, within its bound.
    tail: float

    @property
    def simulated(self) -> bool:
        return "runtime=asyncio" not in self.dsn


#: Why each workload exists: ``README.md`` and ``BENCHMARK.json``.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="paper",
        dsn="etx://a3.d1.c8?workload=bank&timing=paper",
        requests=40, subseeds=1, tail=0.95),
    Workload(
        name="soak",
        dsn="etx://a3.d8.c64?rate=32&workload=bank&placement=hash&xshard=0.1&trace=off",
        requests=5, subseeds=32, tail=0.9),
    Workload(
        name="faults",
        dsn="etx://a3.d4.c8?rate=3&workload=bank&placement=hash&xshard=0.2"
            "&fd=heartbeat&trace=ring:4096&" + "&".join(f"fault={f}" for f in FAULTS),
        requests=30, subseeds=5, tail=0.95),
    Workload(
        name="asyncio",
        dsn="etx://a3.d1.c2?workload=bank&trace=off&runtime=asyncio&pace=0.05",
        requests=25, subseeds=1, tail=0.75),
)}


def dsn_for(workload: Workload, seed: int, subseed: int = 0) -> str:
    """The DSN of one segment: the benchmark seed and sub-seed folded into ``seed=``."""
    return f"{workload.dsn}&seed={seed * 1000 + subseed}"
