"""Tests for the single-decree consensus among application servers."""

import pytest

from repro.consensus.synod import ConsensusHost
from repro.net.network import Network
from repro.sim.errors import ThreadError
from repro.sim.process import Process
from repro.sim.scheduler import Simulator


def build_group(n=3, seed=0, fast_path_owner="a1", loss=0.0):
    """Create ``n`` application-server processes each hosting consensus."""
    sim = Simulator(seed=seed)
    network = Network(sim, loss_probability=loss)
    names = [f"a{i + 1}" for i in range(n)]
    hosts = {}
    for name in names:
        process = network.register(Process(sim, name))
        host = ConsensusHost(process, names, fast_path_owner=fast_path_owner)
        host.install()
        hosts[name] = host
    return sim, network, hosts


def decided_everywhere(hosts, instance):
    values = {name: host.decision(instance) for name, host in hosts.items()
              if host.process.up}
    return values


def test_single_proposer_fast_path_decides_own_value():
    sim, network, hosts = build_group()
    future = hosts["a1"].propose("x", "value-from-a1")
    assert sim.run_until(lambda: future.resolved, until=1_000.0)
    assert future.value == "value-from-a1"
    sim.run(until=200.0)
    values = decided_everywhere(hosts, "x")
    assert set(values.values()) == {"value-from-a1"}


def test_fast_path_takes_one_round_trip():
    sim, network, hosts = build_group()
    future = hosts["a1"].propose("x", 42)
    sim.run_until(lambda: future.resolved, until=1_000.0)
    # Decision at the proposer after accept (1 hop) + accepted (1 hop): one
    # round trip of the 1.75 ms default link latency.
    assert sim.now == pytest.approx(3.5, abs=0.2)


def test_non_owner_proposer_uses_prepare_phase_and_decides():
    sim, network, hosts = build_group()
    future = hosts["a2"].propose("y", "from-a2")
    assert sim.run_until(lambda: future.resolved, until=2_000.0)
    assert future.value == "from-a2"


def test_concurrent_proposals_agree_on_single_value():
    sim, network, hosts = build_group(seed=5)
    futures = {name: host.propose("j1", f"value-{name}") for name, host in hosts.items()}
    assert sim.run_until(lambda: all(f.resolved for f in futures.values()), until=5_000.0)
    decided = {f.value for f in futures.values()}
    assert len(decided) == 1
    assert decided.pop() in {f"value-{name}" for name in hosts}


def test_agreement_holds_across_many_seeds():
    for seed in range(12):
        sim, network, hosts = build_group(seed=seed)
        futures = {name: host.propose("k", f"v-{name}") for name, host in hosts.items()}
        assert sim.run_until(lambda: all(f.resolved for f in futures.values()),
                             until=10_000.0), f"no decision for seed {seed}"
        assert len({f.value for f in futures.values()}) == 1, f"disagreement for seed {seed}"


def test_decision_propagates_to_non_proposers():
    sim, network, hosts = build_group()
    hosts["a1"].propose("z", "decided-value")
    sim.run(until=500.0)
    for name, host in hosts.items():
        assert host.decision("z") == "decided-value", f"{name} did not learn the decision"


def test_proposing_after_decision_returns_decision():
    sim, network, hosts = build_group()
    hosts["a1"].propose("w", "first")
    sim.run(until=500.0)
    late = hosts["a3"].propose("w", "second")
    sim.run(until=600.0)
    assert late.resolved
    assert late.value == "first"


def test_decision_survives_minority_crash():
    sim, network, hosts = build_group()
    hosts["a3"].process.crash()
    future = hosts["a1"].propose("inst", "v")
    assert sim.run_until(lambda: future.resolved, until=5_000.0)
    assert future.value == "v"


def test_no_decision_without_majority():
    sim, network, hosts = build_group()
    hosts["a2"].process.crash()
    hosts["a3"].process.crash()
    future = hosts["a1"].propose("inst", "v")
    sim.run(until=2_000.0)
    assert not future.resolved


def test_value_written_by_crashed_primary_is_preserved_if_accepted_by_majority():
    # a1 decides (its accept reached a majority) then crashes before a2 proposes
    # a different value; a2 must learn a1's value, never overwrite it.
    sim, network, hosts = build_group()
    first = hosts["a1"].propose("inst", "primary-value")
    sim.run_until(lambda: first.resolved, until=1_000.0)
    hosts["a1"].process.crash()
    second = hosts["a2"].propose("inst", "cleaner-value")
    assert sim.run_until(lambda: second.resolved, until=5_000.0)
    assert second.value == "primary-value"


def test_fast_path_rejected_after_higher_ballot_promise():
    # a2 runs a full prepare/accept round first; a1's later ballot-0 fast path
    # must not overwrite the decided value.
    sim, network, hosts = build_group()
    second = hosts["a2"].propose("inst", "from-a2")
    sim.run_until(lambda: second.resolved, until=5_000.0)
    first = hosts["a1"].propose("inst", "from-a1")
    assert sim.run_until(lambda: first.resolved, until=5_000.0)
    assert first.value == "from-a2"


def test_consensus_over_lossy_network_with_reliable_retries():
    sim, network, hosts = build_group(seed=9, loss=0.2)
    futures = [hosts["a1"].propose("inst", "v1"), hosts["a2"].propose("inst", "v2")]
    assert sim.run_until(lambda: all(f.resolved for f in futures), until=50_000.0)
    assert len({f.value for f in futures}) == 1


def test_request_decision_lets_laggard_learn():
    sim, network, hosts = build_group()
    # a3 is partitioned away while the decision is made.
    network.partition(["a1", "a2"], ["a3"])
    future = hosts["a1"].propose("inst", "v")
    sim.run_until(lambda: future.resolved, until=5_000.0)
    assert hosts["a3"].decision("inst") is None
    network.heal_partition()
    hosts["a3"].request_decision("inst")
    sim.run(until=sim.now + 100.0)
    assert hosts["a3"].decision("inst") == "v"


def test_quorum_size():
    for n, expected in [(1, 1), (3, 2), (5, 3), (7, 4)]:
        sim, network, hosts = build_group(n=n)
        assert list(hosts.values())[0].quorum == expected


def test_host_must_be_member():
    sim = Simulator()
    network = Network(sim)
    process = network.register(Process(sim, "outsider"))
    with pytest.raises(ValueError):
        ConsensusHost(process, ["a1", "a2"])


def test_decided_instances_listing():
    sim, network, hosts = build_group()
    hosts["a1"].propose(("regA", 1), "a1")
    hosts["a1"].propose(("regD", 1), ("result", "commit"))
    sim.run(until=1_000.0)
    assert hosts["a2"].learned_since(0) == [("regA", 1), ("regD", 1)]
    assert hosts["a2"].learned_since(1) == [("regD", 1)]


class _UnprintableValue:
    def __repr__(self):
        raise RuntimeError("repr exploded")


def test_value_whose_repr_raises_surfaces_instead_of_tracing_unprintable():
    """A broken ``__repr__`` under a consensus trace is a bug, not a trace entry."""
    sim, network, hosts = build_group()
    assert sim.trace.wants("consensus_decide")
    future = hosts["a1"].propose("x", _UnprintableValue())
    with pytest.raises(ThreadError) as failure:
        sim.run_until(lambda: future.resolved, until=1_000.0)
    assert isinstance(failure.value.__cause__, RuntimeError)
    assert not any(event.data.get("value") == "<unprintable>" for event in sim.trace)
