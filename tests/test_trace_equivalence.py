"""Trace equivalence: the timer-wheel kernel against the frozen heap kernel.

The regression oracle for the timer-wheel rebuild: both serial kernels
must produce *byte-identical* traces -- same events, same timestamps,
same payloads.  Two sweeps enforce it:

* every committed corpus artifact (``tests/corpus/``) replayed with the
  exact evaluation parameters recorded in the artifact -- faulted
  schedules exercise cancellation, crash timers and recovery paths that
  clean runs never reach;
* a seed sweep across all four protocol schemes, so the FIFO-within-
  timestamp contract is pinned for each protocol's own scheduling mix.

Kernel selection happens inside :func:`repro.runtime.base.create_kernel`
at build time, so the tests toggle the ``REPRO_KERNEL`` environment
variable around each build.
"""

import glob
import os
from contextlib import contextmanager

import pytest

from repro import api
from repro.api.runner import load_generator_for
from repro.campaign.artifacts import Counterexample
from repro.core.types import reset_request_counter
from repro.workload.generator import ClosedLoop

CORPUS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "corpus", "*.json")))

SEEDS = range(20)
SCHEMES = {
    "etx": "etx://a3.d2.c2?workload=bank&placement=mod&xshard=0.5&seed={seed}",
    "2pc": "2pc://a1.d1.c1?workload=travel&seed={seed}",
    "pb": "pb://a2.d1.c1?workload=bank&timing=paper&seed={seed}",
    "baseline": "baseline://a1.d1.c1?workload=bank&timing=paper&seed={seed}",
}


@contextmanager
def _kernel(kind: str):
    previous = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = kind
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_KERNEL"]
        else:
            os.environ["REPRO_KERNEL"] = previous


def _fingerprint(system) -> list[tuple]:
    """The full trace as comparable plain data (every field, repr'd)."""
    return [
        (event.time, event.category, event.process,
         tuple(sorted((key, repr(value)) for key, value in event.data.items())))
        for event in system.trace
    ]


def _scenario_trace(dsn: str, requests: int = 2) -> list[tuple]:
    reset_request_counter()
    system = api.build(api.Scenario.from_dsn(dsn))
    ClosedLoop().run(system, requests)
    fingerprint = _fingerprint(system)
    system.close()
    return fingerprint


def _replay_trace(path: str) -> tuple[list[tuple], tuple[str, ...]]:
    """Replay a corpus artifact exactly as ``campaign.replay`` does.

    Same steps as :func:`repro.campaign.runner.evaluate_schedule`, but the
    system object is kept so the full trace can be fingerprinted alongside
    the observed violations.
    """
    artifact = Counterexample.load(path)
    scenario = artifact.scenario(os.path.dirname(os.path.abspath(path)))
    reset_request_counter()
    system = api.build(scenario)
    generator = load_generator_for(scenario, horizon_per_request=artifact.horizon)
    generator.run(system, artifact.requests)
    if artifact.settle > 0:
        system.run(until=system.sim.now + artifact.settle)
    report = system.check_spec(check_termination=True)
    return _fingerprint(system), tuple(str(v) for v in report.violations)


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(path) for path in CORPUS])
def test_corpus_replay_is_byte_identical_across_kernels(path):
    """Every committed artifact replays identically under both kernels."""
    with _kernel("heap"):
        heap_trace, heap_violations = _replay_trace(path)
    with _kernel("wheel"):
        wheel_trace, wheel_violations = _replay_trace(path)
    assert wheel_violations == heap_violations
    assert wheel_trace == heap_trace


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_seed_sweep_is_byte_identical_across_kernels(scheme):
    """20 seeds per protocol scheme: old and new kernel traces match."""
    template = SCHEMES[scheme]
    for seed in SEEDS:
        dsn = template.format(seed=seed)
        with _kernel("heap"):
            heap_trace = _scenario_trace(dsn)
        with _kernel("wheel"):
            wheel_trace = _scenario_trace(dsn)
        assert wheel_trace == heap_trace, f"trace divergence for {dsn}"


def test_corpus_is_present():
    """The equivalence suite must never silently run over an empty corpus."""
    assert len(CORPUS) >= 8
