"""Tests for wo-register arrays (local reference and consensus-backed)."""

import pytest

from repro.consensus.synod import ConsensusHost
from repro.net.network import Network
from repro.registers.base import BOTTOM
from repro.registers.consensus_backed import ConsensusRegisterArray
from repro.registers.local import LocalRegisterArray, LocalRegisterStore
from repro.sim.process import Process
from repro.sim.scheduler import Simulator


# ----------------------------------------------------------------- local store


def test_local_register_initially_bottom():
    sim = Simulator()
    store = LocalRegisterStore(sim, "regA")
    view = LocalRegisterArray(store)
    assert view.read(1) is BOTTOM
    assert not view.is_written(1)
    assert view.known_indices() == []


def test_local_register_write_once_semantics():
    sim = Simulator()
    store = LocalRegisterStore(sim, "regA")
    first = LocalRegisterArray(store, owner="a1")
    second = LocalRegisterArray(store, owner="a2")
    f1 = first.write(1, "a1")
    f2 = second.write(1, "a2")
    sim.run()
    assert f1.value == "a1"
    assert f2.value == "a1"  # the second writer observes the first value
    assert first.read(1) == "a1"
    assert store.lost_writes == 1
    assert store.write_attempts == 2


def test_local_register_independent_indices():
    sim = Simulator()
    store = LocalRegisterStore(sim, "regD")
    view = LocalRegisterArray(store)
    view.write(1, ("r1", "commit"))
    view.write(2, ("r2", "abort"))
    sim.run()
    assert view.read(1) == ("r1", "commit")
    assert view.read(2) == ("r2", "abort")
    assert view.known_indices() == [1, 2]


def test_local_register_learned_since_is_a_cursor_in_write_order():
    sim = Simulator()
    reg_a = LocalRegisterArray(LocalRegisterStore(sim, "regA", operation_latency=1.0))
    reg_d = LocalRegisterArray(LocalRegisterStore(sim, "regD", operation_latency=1.0))
    for index in (5, 2, 9):
        reg_a.write(index, f"a1-{index}")
    reg_a.write(2, "a2-2")  # a lost write learns nothing new
    reg_d.write(7, ("r7", "commit"))
    sim.run()
    assert reg_a.learned_since(0) == [5, 2, 9]
    assert reg_a.learned_since(2) == [9]
    assert reg_a.learned_since(3) == []
    assert reg_d.learned_since(0) == [7]
    reg_a.write(1, "a1-1")
    sim.run()
    assert reg_a.learned_since(3) == [1]
    assert reg_a.known_indices() == [1, 2, 5, 9]

def test_local_register_operation_latency():
    sim = Simulator()
    store = LocalRegisterStore(sim, "regA", operation_latency=4.5)
    view = LocalRegisterArray(store)
    future = view.write(1, "x")
    assert not future.resolved
    sim.run()
    assert future.resolved
    assert sim.now == pytest.approx(4.5)


def test_local_register_negative_latency_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        LocalRegisterStore(sim, "regA", operation_latency=-1.0)


def test_bottom_is_falsy_and_singleton():
    from repro.registers.base import _Bottom

    assert not BOTTOM
    assert _Bottom() is BOTTOM
    assert repr(BOTTOM) == "⊥"


# ------------------------------------------------------------ consensus-backed


def build_consensus_registers(n=3, seed=0):
    sim = Simulator(seed=seed)
    network = Network(sim)
    names = [f"a{i + 1}" for i in range(n)]
    arrays = {}
    for name in names:
        process = network.register(Process(sim, name))
        host = ConsensusHost(process, names, fast_path_owner="a1")
        host.install()
        arrays[name] = {
            "regA": ConsensusRegisterArray(host, "regA"),
            "regD": ConsensusRegisterArray(host, "regD"),
        }
    return sim, network, arrays


def test_consensus_register_write_and_read():
    sim, network, arrays = build_consensus_registers()
    future = arrays["a1"]["regA"].write(1, "a1")
    assert sim.run_until(lambda: future.resolved, until=1_000.0)
    assert future.value == "a1"
    sim.run(until=200.0)
    for name in arrays:
        assert arrays[name]["regA"].read(1) == "a1"


def test_consensus_register_write_once_across_servers():
    sim, network, arrays = build_consensus_registers(seed=3)
    f1 = arrays["a1"]["regD"].write(5, ("result-1", "commit"))
    f2 = arrays["a2"]["regD"].write(5, (None, "abort"))
    assert sim.run_until(lambda: f1.resolved and f2.resolved, until=5_000.0)
    assert f1.value == f2.value
    assert f1.value in {("result-1", "commit"), (None, "abort")}


def test_consensus_register_arrays_are_namespaced():
    sim, network, arrays = build_consensus_registers()
    arrays["a1"]["regA"].write(1, "owner")
    arrays["a1"]["regD"].write(1, ("res", "commit"))
    sim.run(until=1_000.0)
    assert arrays["a2"]["regA"].read(1) == "owner"
    assert arrays["a2"]["regD"].read(1) == ("res", "commit")
    assert arrays["a2"]["regA"].known_indices() == [1]
    assert arrays["a2"]["regD"].known_indices() == [1]


def test_consensus_register_unwritten_reads_bottom():
    sim, network, arrays = build_consensus_registers()
    assert arrays["a1"]["regA"].read(99) is BOTTOM


def test_consensus_register_refresh_after_partition():
    sim, network, arrays = build_consensus_registers()
    network.partition(["a1", "a2"], ["a3"])
    future = arrays["a1"]["regA"].write(1, "a1")
    sim.run_until(lambda: future.resolved, until=1_000.0)
    assert arrays["a3"]["regA"].read(1) is BOTTOM
    network.heal_partition()
    arrays["a3"]["regA"].refresh(1)
    sim.run(until=sim.now + 100.0)
    assert arrays["a3"]["regA"].read(1) == "a1"


def test_consensus_register_learned_since_is_a_cursor_in_learn_order():
    sim, network, arrays = build_consensus_registers()
    writer, reader = arrays["a1"], arrays["a2"]
    for index in (5, 2, 9):
        writer["regA"].write(index, f"a1-{index}")
        sim.run(until=sim.now + 100.0)  # one decision at a time: learn order = write order
        writer["regD"].write(index, ("res", "commit"))
        sim.run(until=sim.now + 100.0)
    for view in (writer, reader):
        assert view["regA"].learned_since(0) == [5, 2, 9]
        assert view["regA"].learned_since(1) == [2, 9]
        assert view["regA"].learned_since(3) == []
        assert view["regD"].learned_since(0) == [5, 2, 9]
    cursor = reader["regA"].learned_since(0)
    cursor.append(99)  # the answer is a copy, not the array's log
    arrays["a3"]["regA"].write(1, "a3")
    sim.run(until=sim.now + 1_000.0)
    assert reader["regA"].learned_since(3) == [1]
    assert reader["regD"].learned_since(3) == []
    assert reader["regA"].known_indices() == [1, 2, 5, 9]
    assert reader["regA"].host.learned_since(0) == [
        ("regA", 5), ("regD", 5), ("regA", 2), ("regD", 2), ("regA", 9), ("regD", 9),
        ("regA", 1)]
