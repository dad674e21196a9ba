"""Self-tests of the benchmark, plus a known protocol bug it ran into.

Run with ``PYTHONPATH=src python -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from layers import PER_LAYER_UNITS  # noqa: E402
from run import END_TO_END_UNITS, run_segment  # noqa: E402
from spans import LAYERS, SpanTracer, span_costs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro import api  # noqa: E402
from repro.sim.errors import SimulationLimitExceeded  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_names_units_and_limits(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25, metric
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and "\n" not in workload["why"]
        assert len(workload["why"]) <= 200


def test_declared_metrics_match_the_runner(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


@pytest.mark.parametrize("trace, units", [(0, END_TO_END_UNITS), (1, PER_LAYER_UNITS)])
def test_runner_emits_exactly_the_declared_metrics(spec, trace, units):
    done = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "paper", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    if trace == 0:
        assert result["metrics"]["delivered_frac"]["value"] == 1.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_shares_sum_to_one(name):
    workload = dataclasses.replace(WORKLOADS[name], requests=2)
    tracer = SpanTracer()
    segment = run_segment(workload, seed=5, subseed=0, tracer=tracer)
    assert segment.ok, segment.verdict
    shares = tracer.self_shares(span_costs(calls=2_000, rounds=1))
    assert set(shares) == set(LAYERS)
    assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(share >= 0.0 for share in shares.values())
    # The tracer restored every function it wrapped.
    from repro.net.network import Network
    from repro.sim.process import Thread
    assert not hasattr(Thread.resume, "__wrapped__")
    assert not hasattr(Network.send, "__wrapped__")


def test_runner_fails_without_the_program(tmp_path, spec):
    """In a directory holding only the benchmark, the runner exits non-zero
    without printing a result."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    copy = tmp_path / "perfbench"
    copy.mkdir()
    for path in BENCH.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    done = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


#: The heartbeat reproducer needs 1,669 events with ``fd=oracle``.
EVENT_CAP = 50_000


@pytest.mark.xfail(strict=True, raises=SimulationLimitExceeded,
                   reason="Process.crash kills every thread, and nothing calls "
                          "HeartbeatFailureDetector.reinstall on recovery, so a "
                          "recovered app server never heartbeats or listens again "
                          "and clients retry forever")
def test_heartbeat_recovery_after_app_server_crash_for():
    scenario = api.Scenario.from_dsn(
        "etx://a3.d1.c1?seed=7&workload=bank&trace=off&fd=heartbeat"
        "&fault=crash_for@1000:a1:3000")
    system = api.build(scenario)
    try:
        stats = api.load_generator_for(scenario, max_events=EVENT_CAP).run(system, 20)
    finally:
        system.close()
    assert stats.count == 20
