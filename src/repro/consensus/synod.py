"""Single-decree quorum consensus among the application servers.

Each application server hosts a :class:`ConsensusHost`.  A host plays three
roles for every consensus *instance* (one instance per wo-register cell):

* **acceptor** -- answers prepare/accept requests under the classic quorum
  rules (never accept below a promise, report previously accepted values),
* **proposer** -- drives an instance to a decision when the local server calls
  :meth:`ConsensusHost.propose`,
* **learner** -- records decisions and resolves the futures returned to
  proposers; decisions are disseminated with a ``decide`` broadcast and served
  to late askers.

Fast path.  The paper's analytic evaluation assumes that "in a nice run, it
takes only a round trip message for the first primary to write into the
register" (Appendix 3).  We reproduce that with a reserved ballot 0 that only
the instance's *fast-path owner* (the default primary application server) may
use: it skips the prepare phase and sends ``accept`` directly.  Safety is
preserved because ballot 0 belongs to exactly one proposer, and any acceptor
that has promised a higher ballot rejects it.

Liveness.  Competing proposers (several servers cleaning the same result after
a suspicion) retry with strictly increasing ballots and randomised backoff;
with a majority of application servers up, some proposal eventually goes
uncontested and decides.  This matches the paper's assumption set: a majority
of correct application servers and finitely many false suspicions.

Acceptor promises and learned decisions are kept in the host object across
crashes (conceptually on stable storage); in-flight proposer attempts are
volatile and die with the process, as in the paper's crash-stop model for the
middle tier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.consensus.interfaces import ConsensusProtocol, InstanceId
from repro.net.message import Message, is_type
from repro.sim.process import Process
from repro.sim.scheduler import ScheduledEvent
from repro.sim.waits import SimFuture

Ballot = tuple[int, int]
"""(round number, proposer index); compared lexicographically."""

_NO_BALLOT: Ballot = (-1, -1)


@dataclass(slots=True)
class AcceptorState:
    """Durable acceptor-side state of one instance."""

    promised: Ballot = _NO_BALLOT
    accepted_ballot: Optional[Ballot] = None
    accepted_value: Any = None


@dataclass(slots=True)
class _ProposalAttempt:
    """Volatile proposer-side state of one in-flight attempt."""

    instance: InstanceId
    value: Any
    ballot: Ballot
    phase: str = "prepare"  # "prepare" | "accept"
    promises: dict[str, tuple[Optional[Ballot], Any]] = field(default_factory=dict)
    accepted_from: set[str] = field(default_factory=set)
    chosen_value: Any = None
    retry_timer: Optional[ScheduledEvent] = None
    attempt_number: int = 0
    highest_rejection: int = 0


class ConsensusHost(ConsensusProtocol):
    """Multi-instance consensus endpoint hosted on one application server.

    Parameters
    ----------
    process:
        The hosting application-server process.
    members:
        Names of *all* application servers (the acceptor group).
    fast_path_owner:
        The server allowed to use the reserved ballot 0 (the default primary);
        ``None`` disables the fast path entirely.
    retry_backoff:
        Base backoff (virtual time) between proposal attempts; the actual
        delay is randomised and grows linearly with the attempt number.
    attempt_timeout:
        Time after which an attempt that gathered no quorum is abandoned and
        retried with a higher ballot.
    """

    MSG_TYPE = "Consensus"

    def __init__(self, process: Process, members: list[str],
                 fast_path_owner: Optional[str] = None,
                 retry_backoff: float = 8.0, attempt_timeout: float = 40.0):
        if process.name not in members:
            raise ValueError(f"host {process.name!r} must be one of the members {members!r}")
        self.process = process
        self.members = list(members)
        self.fast_path_owner = fast_path_owner
        self.retry_backoff = retry_backoff
        self.attempt_timeout = attempt_timeout
        self._index = self.members.index(process.name)
        self._rng = process.rng(f"consensus:{process.name}")
        # Durable (survives crashes -- conceptually stable storage).
        self._acceptors: dict[InstanceId, AcceptorState] = {}
        self._decisions: dict[InstanceId, Any] = {}
        # The same instances in learn order, append-only: learners follow new
        # decisions from a cursor instead of rescanning ``_decisions``.
        self._learned: list[InstanceId] = []
        # Volatile.
        self._attempts: dict[InstanceId, _ProposalAttempt] = {}
        self._futures: dict[InstanceId, SimFuture] = {}
        self._attempt_counters: dict[InstanceId, int] = {}

    # ------------------------------------------------------------------ setup

    def install(self) -> None:
        """Spawn the message-dispatcher thread (call from ``on_start``)."""
        self.process.spawn(self._dispatcher(), name="consensus-dispatcher")

    def on_crash(self) -> None:
        """Drop volatile proposer state (call from the process's crash hook)."""
        for attempt in self._attempts.values():
            if attempt.retry_timer is not None:
                attempt.retry_timer.cancel()
        self._attempts.clear()
        self._futures.clear()

    # ------------------------------------------------------------ public API

    @property
    def quorum(self) -> int:
        """Majority size of the acceptor group."""
        return len(self.members) // 2 + 1

    def propose(self, instance: InstanceId, value: Any) -> SimFuture:
        if instance in self._decisions:
            # Already decided: hand back a pre-resolved future without
            # parking it in ``_futures`` (``_learn`` already drained the
            # instance's entry, and re-adding one would retain it forever).
            future = self._futures.pop(instance, SimFuture())
            future.resolve(self._decisions[instance])
            return future
        future = self._futures.get(instance)
        if future is None:
            future = SimFuture()
            self._futures[instance] = future
        if instance not in self._attempts:
            self._start_attempt(instance, value)
        return future

    def decision(self, instance: InstanceId) -> Optional[Any]:
        return self._decisions.get(instance)

    def learned_since(self, position: int) -> list[InstanceId]:
        return self._learned[position:]

    def request_decision(self, instance: InstanceId) -> None:
        """Ask the other members whether the instance is already decided.

        Used by learners that may have missed the ``decide`` broadcast (for
        example after a recovery).  Harmless if nobody knows.
        """
        if instance in self._decisions:
            return
        self._broadcast({"instance": instance, "kind": "query"})

    # -------------------------------------------------------------- proposer

    def _start_attempt(self, instance: InstanceId, value: Any) -> None:
        counter = self._attempt_counters.get(instance, 0)
        use_fast_path = (counter == 0 and self.fast_path_owner == self.process.name)
        if use_fast_path:
            ballot: Ballot = (0, self._index)
        else:
            counter = max(counter, 0) + 1
            ballot = (counter, self._index)
        self._attempt_counters[instance] = max(counter, 1) if not use_fast_path else 1
        attempt = _ProposalAttempt(instance=instance, value=value, ballot=ballot,
                                   attempt_number=counter)
        self._attempts[instance] = attempt
        trace = self.process.trace
        if trace.wants("consensus_propose"):
            trace.record("consensus_propose", self.process.name,
                         instance=_printable(instance), ballot=ballot,
                         fast_path=use_fast_path)
        if use_fast_path:
            attempt.phase = "accept"
            attempt.chosen_value = value
            self._broadcast({"instance": instance, "kind": "accept",
                             "ballot": ballot, "value": value})
        else:
            attempt.phase = "prepare"
            self._broadcast({"instance": instance, "kind": "prepare", "ballot": ballot})
        self._arm_attempt_timeout(attempt)

    def _arm_attempt_timeout(self, attempt: _ProposalAttempt) -> None:
        instance = attempt.instance

        def timeout() -> None:
            if not self.process.up:
                return
            current = self._attempts.get(instance)
            if current is not attempt or instance in self._decisions:
                return
            self._retry(instance, attempt)

        attempt.retry_timer = self.process.sim.schedule(
            self.attempt_timeout, timeout, name=f"consensus-timeout:{self.process.name}"
        )

    def _retry(self, instance: InstanceId, failed: _ProposalAttempt) -> None:
        if failed.retry_timer is not None:
            failed.retry_timer.cancel()
        if instance in self._decisions or not self.process.up:
            return
        # Choose a ballot above both our own counter and any rejection we saw.
        counter = max(self._attempt_counters.get(instance, 0), failed.highest_rejection) + 1
        self._attempt_counters[instance] = counter
        delay = self._rng.uniform(0.5, 1.5) * self.retry_backoff * max(1, failed.attempt_number)

        def launch() -> None:
            if not self.process.up or instance in self._decisions:
                return
            if self._attempts.get(instance) is not failed:
                return
            ballot = (counter, self._index)
            attempt = _ProposalAttempt(instance=instance, value=failed.value, ballot=ballot,
                                       attempt_number=counter)
            self._attempts[instance] = attempt
            attempt.phase = "prepare"
            trace = self.process.trace
            if trace.wants("consensus_retry"):
                trace.record("consensus_retry", self.process.name,
                             instance=_printable(instance), ballot=ballot)
            self._broadcast({"instance": instance, "kind": "prepare", "ballot": ballot})
            self._arm_attempt_timeout(attempt)

        self.process.sim.schedule(delay, launch, name=f"consensus-retry:{self.process.name}")

    # ------------------------------------------------------------ dispatcher

    def _dispatcher(self):
        while True:
            message = yield self.process.receive(is_type(self.MSG_TYPE))
            self._handle(message)

    def _handle(self, message: Message) -> None:
        if not self.process.up:
            return
        payload = message._payload
        kind = payload["kind"]
        instance = payload["instance"]
        sender = message.sender
        if kind == "prepare":
            self._on_prepare(instance, sender, tuple(payload["ballot"]))
        elif kind == "accept":
            self._on_accept(instance, sender, tuple(payload["ballot"]), payload["value"])
        elif kind == "promise":
            self._on_promise(instance, sender, payload)
        elif kind == "accepted":
            self._on_accepted(instance, sender, tuple(payload["ballot"]))
        elif kind in ("nack_prepare", "nack_accept"):
            self._on_nack(instance, tuple(payload["ballot"]), tuple(payload["promised"]))
        elif kind == "decide":
            self._learn(instance, payload["value"])
        elif kind == "query":
            if instance in self._decisions:
                self._send(sender, {"instance": instance, "kind": "decide",
                                    "value": self._decisions[instance]})

    # --------------------------------------------------------------- acceptor

    def _acceptor(self, instance: InstanceId) -> AcceptorState:
        state = self._acceptors.get(instance)
        if state is None:
            state = AcceptorState()
            self._acceptors[instance] = state
        return state

    def _on_prepare(self, instance: InstanceId, sender: str, ballot: Ballot) -> None:
        if instance in self._decisions:
            self._send(sender, {"instance": instance, "kind": "decide",
                                "value": self._decisions[instance]})
            return
        state = self._acceptor(instance)
        if ballot > state.promised:
            state.promised = ballot
            self._send(sender, {
                "instance": instance, "kind": "promise", "ballot": ballot,
                "accepted_ballot": state.accepted_ballot,
                "accepted_value": state.accepted_value,
            })
        else:
            self._send(sender, {"instance": instance, "kind": "nack_prepare",
                                "ballot": ballot, "promised": state.promised})

    def _on_accept(self, instance: InstanceId, sender: str, ballot: Ballot, value: Any) -> None:
        if instance in self._decisions:
            self._send(sender, {"instance": instance, "kind": "decide",
                                "value": self._decisions[instance]})
            return
        state = self._acceptor(instance)
        if ballot >= state.promised:
            state.promised = ballot
            state.accepted_ballot = ballot
            state.accepted_value = value
            self._send(sender, {"instance": instance, "kind": "accepted", "ballot": ballot})
        else:
            self._send(sender, {"instance": instance, "kind": "nack_accept",
                                "ballot": ballot, "promised": state.promised})

    # ----------------------------------------------------- proposer responses

    def _current_attempt(self, instance: InstanceId, ballot: Ballot) -> Optional[_ProposalAttempt]:
        attempt = self._attempts.get(instance)
        if attempt is None or attempt.ballot != ballot:
            return None
        return attempt

    def _on_promise(self, instance: InstanceId, sender: str, payload: dict) -> None:
        ballot = tuple(payload["ballot"])
        attempt = self._current_attempt(instance, ballot)
        if attempt is None or attempt.phase != "prepare":
            return
        accepted_ballot = payload.get("accepted_ballot")
        accepted_ballot = tuple(accepted_ballot) if accepted_ballot is not None else None
        attempt.promises[sender] = (accepted_ballot, payload.get("accepted_value"))
        if len(attempt.promises) < self.quorum:
            return
        # Quorum of promises: adopt the value accepted at the highest ballot, if any.
        best_ballot: Optional[Ballot] = None
        chosen = attempt.value
        for prior_ballot, prior_value in attempt.promises.values():
            if prior_ballot is not None and (best_ballot is None or prior_ballot > best_ballot):
                best_ballot = prior_ballot
                chosen = prior_value
        attempt.phase = "accept"
        attempt.chosen_value = chosen
        attempt.accepted_from.clear()
        self._broadcast({"instance": instance, "kind": "accept",
                         "ballot": attempt.ballot, "value": chosen})

    def _on_accepted(self, instance: InstanceId, sender: str, ballot: Ballot) -> None:
        attempt = self._current_attempt(instance, ballot)
        if attempt is None or attempt.phase != "accept":
            return
        attempt.accepted_from.add(sender)
        if len(attempt.accepted_from) < self.quorum:
            return
        self._broadcast({"instance": instance, "kind": "decide", "value": attempt.chosen_value})
        self._learn(instance, attempt.chosen_value)

    def _on_nack(self, instance: InstanceId, ballot: Ballot, promised: Ballot) -> None:
        attempt = self._current_attempt(instance, ballot)
        if attempt is None:
            return
        attempt.highest_rejection = max(attempt.highest_rejection, promised[0])
        self._retry(instance, attempt)

    # ---------------------------------------------------------------- learner

    def _learn(self, instance: InstanceId, value: Any) -> None:
        if instance not in self._decisions:
            self._decisions[instance] = value
            self._learned.append(instance)
            trace = self.process.trace
            if trace.wants("consensus_decide"):
                trace.record("consensus_decide", self.process.name,
                             instance=_printable(instance), value=_printable(value))
        attempt = self._attempts.pop(instance, None)
        if attempt is not None and attempt.retry_timer is not None:
            attempt.retry_timer.cancel()
        future = self._futures.pop(instance, None)
        if future is not None:
            future.resolve(self._decisions[instance])
        # The decision is the only durable fact a decided instance still
        # needs: every acceptor/proposer path checks ``_decisions`` before
        # touching this state, so keeping it would only grow the host by a
        # few objects per instance for the rest of the run.
        self._acceptors.pop(instance, None)
        self._attempt_counters.pop(instance, None)

    # -------------------------------------------------------------- messaging

    def _send(self, destination: str, payload: dict) -> None:
        # Takes ownership of ``payload``: every call site passes a freshly
        # built dict, so there is nothing to defensively copy.
        self.process.send(destination, Message(self.MSG_TYPE, payload=payload))

    def _broadcast(self, payload: dict) -> None:
        # One template message, copy-on-write siblings per member: the
        # payload dict is shared (nobody mutates consensus payloads) instead
        # of duplicated per destination.
        template = Message(self.MSG_TYPE, payload=payload)
        send = self.process.send
        for member in self.members:
            send(member, template.copy())


def _printable(value: Any) -> Any:
    """Compact representation for the trace."""
    return value if isinstance(value, (int, float, str, bool, tuple)) else repr(value)
