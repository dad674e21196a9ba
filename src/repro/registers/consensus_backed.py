"""Consensus-backed wo-register arrays (the paper's construction).

Every application server holds a :class:`ConsensusRegisterArray` per logical
register array (``regA``, ``regD``).  Writing cell ``j`` proposes the value in
consensus instance ``(array_name, j)`` among the application servers; the
decided value is the register's content.  Reading returns the locally learned
decision or ⊥ -- with the guarantee (inherited from the ``decide`` broadcast
and the optional :meth:`refresh` query) that once a value is written, repeated
reads at a correct server eventually return it.
"""

from __future__ import annotations

from typing import Any

from repro.consensus.synod import ConsensusHost
from repro.registers.base import BOTTOM, WriteOnceRegisterArray
from repro.sim.waits import SimFuture


class ConsensusRegisterArray(WriteOnceRegisterArray):
    """A named array of wo-registers backed by a :class:`ConsensusHost`."""

    def __init__(self, host: ConsensusHost, array_name: str):
        self.host = host
        self.array_name = array_name
        # This array's cells in learn order, followed from the host's learn
        # log (which interleaves every array the host serves).
        self._learned: list[int] = []
        self._host_cursor = 0

    def _instance(self, index: int):
        return (self.array_name, index)

    def write(self, index: int, value: Any) -> SimFuture:
        return self.host.propose(self._instance(index), value)

    def read(self, index: int) -> Any:
        decision = self.host.decision(self._instance(index))
        return BOTTOM if decision is None else decision

    def refresh(self, index: int) -> None:
        """Ask peers for a possibly missed decision (helps recovered servers)."""
        self.host.request_decision(self._instance(index))

    def _follow(self) -> list[int]:
        """This array's learn log, caught up with the host's."""
        fresh = self.host.learned_since(self._host_cursor)
        if fresh:
            self._host_cursor += len(fresh)
            name = self.array_name
            self._learned.extend(instance[1] for instance in fresh
                                 if isinstance(instance, tuple) and len(instance) == 2
                                 and instance[0] == name)
        return self._learned

    def learned_since(self, position: int) -> list[int]:
        return self._follow()[position:]

    def known_indices(self) -> list[int]:
        return sorted(self._follow())
