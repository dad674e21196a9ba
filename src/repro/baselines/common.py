"""Shared scaffolding for the comparison protocols.

The three baselines (unreliable baseline, presumed-nothing 2PC, primary-backup
replication) reuse the same three-tier skeleton as the e-Transaction
deployment: one or more clients (the protocol-agnostic client of Figure 2),
a set of application servers provided by the concrete baseline, and the
database servers of :mod:`repro.core.dataserver`.  Only the middle tier
changes between protocols, which is exactly the point of the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from repro.core import messages as msg
from repro.core.client import Client, IssuedRequest
from repro.core.dataserver import DatabaseServer
from repro.core.sharding import (
    KNOWN_PLACEMENTS,
    PLACEMENT_REPLICATE,
    Sharding,
    merge_participant_values,
    request_participants,
    validate_participants,
)
from repro.core.spec import SpecMonitor, SpecReport
from repro.core.timing import DatabaseTiming, ProtocolTiming
from repro.core.types import VOTE_YES, Decision, Request
from repro.failure.detectors import PerfectFailureDetector
from repro.failure.injection import FaultSchedule
from repro.metrics.latency import LatencyComponentStream
from repro.metrics.stream import DatabaseOutcomeStream
from repro.net.latency import PerLinkLatency, three_tier_latency
from repro.net.message import Message
from repro.runtime.base import RuntimeSpec, create_kernel, create_network
from repro.sim.process import Process
from repro.sim.tracing import parse_retention
from repro.storage.kvstore import TransactionError

COMMIT_ONE_PHASE = "CommitOnePhase"
ACK_COMMIT = "AckCommit"


class RequestDeduplication:
    """At-most-once guard for the serial application-server loops.

    A client that waits longer than its back-off re-broadcasts the *same*
    result identifier -- routine once many clients queue at one server.  A
    transaction manager that re-executed the duplicate would re-run a
    committed transaction (and crash the database's prepare).  The mixin
    remembers completed decisions and replays them for duplicates.  The
    memory is volatile: a crash forgets it, so a retry that races a server
    crash still double-executes on the unreliable baseline -- exactly the
    at-most-once violation the paper's comparison is about.
    """

    def _init_dedup(self) -> None:
        self._completed_decisions: dict[Any, Decision] = {}

    def _record_decision(self, key: Any, decision: Any) -> None:
        """Remember the decision sent to the client for ``key``."""
        self._completed_decisions[key] = decision

    def _replay_duplicate(self, key: Any) -> bool:
        """Resend the recorded decision if ``key`` already completed."""
        decision = self._completed_decisions.get(key)
        if decision is None:
            return False
        client, j = key
        self.trace.record("as_result_resent", self.name, client=client, j=j,
                          outcome=decision.outcome)
        self.send(client, msg.result_message(j, decision))
        return True

    def on_crash(self) -> None:
        self._completed_decisions.clear()


class ParticipantRouting:
    """Shared participant-set routing for the comparison middle tiers.

    The three baselines fan Execute/Prepare/Decide out to exactly the same
    participant set as the e-Transaction application server
    (:attr:`repro.core.types.Request.participants`, empty = every database),
    so partitioned-tier comparisons between the four protocols stay
    apples-to-apples.  Mix into a :class:`~repro.sim.process.Process` with a
    ``db_server_names`` attribute.
    """

    def participants_of(self, request: Request) -> list[str]:
        """The database servers taking part in this request's transaction."""
        return request_participants(request, self.db_server_names)

    @staticmethod
    def merge_values(values: dict[str, Any], participants: list[str]) -> Any:
        """One business value out of the per-participant answers."""
        return merge_participant_values(values, participants)


class OnePhaseDatabaseServer(DatabaseServer):
    """A database server that additionally accepts one-phase commits.

    The unreliable baseline of Figure 7(a) skips the voting phase entirely and
    simply asks the database to commit -- the XA one-phase-commit optimisation.
    """

    def on_start(self, recovery: bool) -> None:
        super().on_start(recovery)
        self.spawn(self._serve_one_phase_commit(), name="db-commit-1p")

    def _serve_one_phase_commit(self):
        from repro.net.message import is_type

        while True:
            message = yield self.receive(is_type(COMMIT_ONE_PHASE))
            key = message["j"]
            try:
                io_cost = self.resource.commit_one_phase(key)
                outcome = "commit"
            except TransactionError:
                # The store refused the commit (unknown, aborted or misrouted
                # transaction).  Anything else is a bug and must surface.
                io_cost = 0.0
                outcome = "abort"
            if io_cost > 0:
                yield self.sleep(self.timing.commit_cpu + io_cost + self.timing.end)
            if outcome == "commit":
                # A one-phase commit fuses the vote and the decision: record
                # the implicit yes-vote so the spec checker sees a database
                # never commits a result it did not (implicitly) vote for.
                self.trace.record("db_vote", self.name, j=key, vote=VOTE_YES,
                                  one_phase=True)
            self.trace.record("db_decide", self.name, j=key, outcome=outcome,
                              requested="commit", one_phase=True)
            self.send(message.sender, Message(ACK_COMMIT, payload={"j": key}))


@dataclass
class BaselineConfig:
    """Deployment knobs shared by the comparison protocols."""

    num_app_servers: int = 1
    num_db_servers: int = 1
    num_clients: int = 1
    seed: int = 0
    loss_probability: float = 0.0
    client_app_latency: float = 2.5
    app_app_latency: float = 2.25
    app_db_latency: float = 0.5
    db_timing: DatabaseTiming = field(default_factory=DatabaseTiming)
    protocol_timing: ProtocolTiming = field(default_factory=ProtocolTiming)
    coordinator_log_latency: float = 12.5
    initial_data: dict[str, Any] = field(default_factory=dict)
    business_logic: Callable[[Request], Callable[[Any], Any]] = None  # type: ignore[assignment]
    placement: str = PLACEMENT_REPLICATE
    trace_retention: str = "full"
    runtime: RuntimeSpec = field(default_factory=RuntimeSpec)

    def __post_init__(self) -> None:
        if self.business_logic is None:
            from repro.core.deployment import default_business_logic

            self.business_logic = default_business_logic
        if self.num_app_servers < 1 or self.num_db_servers < 1 or self.num_clients < 1:
            raise ValueError("a deployment needs at least one process per tier")
        if self.placement not in KNOWN_PLACEMENTS:
            raise ValueError(f"unknown placement {self.placement!r}; known: "
                             f"{', '.join(KNOWN_PLACEMENTS)}")
        parse_retention(self.trace_retention)  # fail fast on bad policies

    @property
    def sharding(self) -> Sharding:
        """Key-placement map of the database tier under this config."""
        return Sharding(tuple(self.db_server_names), self.placement)

    @property
    def client_names(self) -> list[str]:
        return [f"c{i + 1}" for i in range(self.num_clients)]

    @property
    def app_server_names(self) -> list[str]:
        return [f"a{i + 1}" for i in range(self.num_app_servers)]

    @property
    def db_server_names(self) -> list[str]:
        return [f"d{i + 1}" for i in range(self.num_db_servers)]


class BaseThreeTierDeployment:
    """Common deployment machinery; subclasses provide the middle tier."""

    db_server_class: type[DatabaseServer] = DatabaseServer

    def __init__(self, config: Optional[BaselineConfig] = None, **overrides: Any):
        if config is None:
            config = BaselineConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config
        self.sharding = config.sharding
        self.sim = create_kernel(config.runtime, seed=config.seed)
        self.sim.trace.set_retention(config.trace_retention)
        # Streaming observers subscribe before any process runs, so they see
        # the complete event stream regardless of the retention policy.
        self.spec_monitor = SpecMonitor.attach(
            self.sim.trace, config.db_server_names, config.client_names)
        self.db_outcomes = DatabaseOutcomeStream(
            self.sim.trace, config.db_server_names)
        self.latency_components = LatencyComponentStream(self.sim.trace)
        self.network = create_network(
            config.runtime, self.sim, latency=self._build_latency(),
            loss_probability=config.loss_probability,
            process_names=(config.app_server_names + config.db_server_names
                           + config.client_names))
        self.failure_detector = PerfectFailureDetector(self.network)
        self.db_servers: dict[str, DatabaseServer] = {}
        self.app_servers: dict[str, Process] = {}
        self.clients: dict[str, Client] = {}
        self._build_db_servers()
        self._build_app_servers()
        self._build_clients()
        self._start_all()

    # ------------------------------------------------------------------- build

    def _build_latency(self) -> PerLinkLatency:
        config = self.config
        return three_tier_latency(config.client_names, config.app_server_names,
                                  config.db_server_names,
                                  client_app_latency=config.client_app_latency,
                                  app_app_latency=config.app_app_latency,
                                  app_db_latency=config.app_db_latency)

    def _build_db_servers(self) -> None:
        for name in self.config.db_server_names:
            server = self.db_server_class(
                self.sim, name, self.config.app_server_names,
                business_logic=self.config.business_logic,
                timing=self.config.db_timing,
                initial_data=self.sharding.shard_data(name, self.config.initial_data),
                owns_key=self.sharding.owner_predicate(name))
            self.network.register(server)
            self.db_servers[name] = server

    def _build_app_servers(self) -> None:
        raise NotImplementedError

    def _build_clients(self) -> None:
        for name in self.config.client_names:
            client = Client(self.sim, name, self.config.app_server_names,
                            timing=self.config.protocol_timing,
                            default_primary=self.config.app_server_names[0])
            self.network.register(client)
            self.clients[name] = client

    def _start_all(self) -> None:
        # Only locally hosted processes spawn threads; in a distributed
        # asyncio run the rest are TCP peers served by another OS process.
        for group in (self.db_servers, self.app_servers, self.clients):
            for process in group.values():
                if self.network.hosts(process.name):
                    process.start()

    # --------------------------------------------------------------- execution

    @property
    def client(self) -> Client:
        """The first (often only) client."""
        return self.clients[self.config.client_names[0]]

    @property
    def trace(self):
        """The shared trace recorder of this run."""
        return self.sim.trace

    def apply_faults(self, schedule: FaultSchedule) -> None:
        """Schedule a fault-injection plan against this deployment."""
        if self.config.runtime.distributed:
            schedule = schedule.restricted_to(set(self.config.runtime.only))
        schedule.apply(self.sim, self.network)

    def close(self) -> None:
        """Release runtime resources (TCP sockets, event loop); idempotent."""
        self.network.close()
        self.sim.close()

    def issue(self, request: Request, client: Optional[str] = None) -> IssuedRequest:
        """Issue a request from the named (or first) client."""
        validate_participants(request, self.config.db_server_names)
        target = self.clients[client] if client is not None else self.client
        return target.issue(request)

    def run(self, until: Optional[float] = None) -> float:
        """Run the simulation."""
        return self.sim.run(until=until)

    def run_request(self, request: Request, client: Optional[str] = None,
                    horizon: float = 1_000_000.0) -> IssuedRequest:
        """Issue ``request`` and run until delivery (or the horizon)."""
        issued = self.issue(request, client)
        self.sim.run_until(lambda: issued.delivered, until=horizon)
        return issued

    def check_spec(self, check_termination: bool = True) -> SpecReport:
        """Check the e-Transaction properties of the run so far.

        The baselines are *not expected* to satisfy all of them under faults --
        that is the paper's argument; the checker quantifies which ones break
        and when.  Answered by the online :class:`~repro.core.spec.SpecMonitor`
        (byte-identical to the post-hoc :func:`~repro.core.spec.check_run`).

        A distributed run sees only its local slice of the trace, so it
        returns an explicitly empty verdict rather than phantom violations
        (see :meth:`repro.core.deployment.EtxDeployment.check_spec`).
        """
        if self.config.runtime.distributed:
            return SpecReport(checked_properties=[])
        return self.spec_monitor.report(check_termination=check_termination)
