"""Protocol drivers: one build recipe per middle-tier protocol.

A :class:`ProtocolDriver` knows how to turn a :class:`~repro.api.scenario.Scenario`
into a fully wired deployment.  Drivers live in a registry
(:func:`register_protocol`), so the four paper protocols and any later
additions are constructed through exactly one code path -- :func:`build` --
and every consumer (experiments, examples, CLI, tests) sees the same uniform
:class:`RunningSystem` surface: ``issue`` / ``run`` / ``run_request`` /
``apply_faults`` / ``check_spec`` / ``stats``.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import Any, Callable, Iterator, Optional

from repro.api.scenario import Scenario, ScenarioError, register_scheme
from repro.api.workloads import ShardContext, WorkloadBinding, bind_workload
from repro.baselines.baseline import BaselineDeployment
from repro.baselines.common import BaselineConfig
from repro.baselines.primary_backup import PrimaryBackupDeployment
from repro.baselines.twopc import TwoPCDeployment
from repro.core.client import IssuedRequest
from repro.core.deployment import DeploymentConfig, EtxDeployment
from repro.core.spec import SpecReport
from repro.core.timing import DatabaseTiming, ProtocolTiming
from repro.core.types import Request
from repro.failure.injection import FaultSchedule
from repro.runtime.base import RuntimeSpec


class RunningSystem:
    """A built protocol stack behind one protocol-agnostic facade.

    Wraps the underlying deployment (``EtxDeployment`` or one of the baseline
    deployments) and exposes the uniform run surface; every other attribute
    (``sim``, ``trace``, ``network``, ``db_servers``, ...) is delegated to the
    wrapped deployment, so existing idioms keep working.
    """

    def __init__(self, scenario: Scenario, deployment: Any,
                 workload: WorkloadBinding, db_timing: DatabaseTiming):
        self.scenario = scenario
        self.deployment = deployment
        self.workload = workload
        self.db_timing = db_timing

    def __getattr__(self, name: str) -> Any:
        if name == "deployment":  # guard against recursion before __init__ ran
            raise AttributeError(name)
        return getattr(self.deployment, name)

    def __repr__(self) -> str:
        return f"RunningSystem({self.scenario.to_dsn()!r})"

    # ------------------------------------------------------- uniform surface

    def issue(self, request: Request, client: Optional[str] = None) -> IssuedRequest:
        """Issue a request from the named (or first) client."""
        return self.deployment.issue(request, client)

    def run(self, until: Optional[float] = None) -> float:
        """Advance the simulation (until the queue drains or ``until``)."""
        return self.deployment.run(until=until)

    def run_request(self, request: Request, client: Optional[str] = None,
                    horizon: float = 1_000_000.0) -> IssuedRequest:
        """Issue ``request`` and run until its result is delivered."""
        return self.deployment.run_request(request, client, horizon=horizon)

    def apply_faults(self, schedule: FaultSchedule) -> None:
        """Schedule a fault-injection plan against the deployment."""
        self.deployment.apply_faults(schedule)

    def check_spec(self, check_termination: bool = True) -> SpecReport:
        """Check the e-Transaction properties over the current trace."""
        return self.deployment.check_spec(check_termination=check_termination)

    @property
    def stats(self):
        """Network traffic statistics of the run."""
        return self.deployment.network.stats

    def standard_request(self) -> Request:
        """A fresh instance of the scenario workload's standard request."""
        return self.workload.make_request()

    def close(self) -> None:
        """Release the deployment's runtime resources (sockets, event loop).

        A no-op for simulator-backed systems; asyncio-backed systems close
        their TCP servers, connections and event loop.  Idempotent.
        """
        self.deployment.close()


class ProtocolDriver:
    """Build recipe for one protocol; subclass and register.

    ``ignored_fields`` names the :class:`Scenario` fields this protocol does
    not consume; a scenario that sets one of them away from its default is
    rejected rather than silently mis-describing the run.
    """

    name: str = ""
    aliases: tuple[str, ...] = ()
    default_app_servers: int = 1
    min_app_servers: int = 1
    ignored_fields: tuple[str, ...] = ()

    def build(self, scenario: Scenario, *,
              business_logic: Callable[[Request], Callable[[Any], Any]],
              initial_data: dict[str, Any],
              db_timing: DatabaseTiming,
              protocol_timing: ProtocolTiming,
              runtime: RuntimeSpec) -> Any:
        """Return a fully wired deployment for ``scenario``."""
        raise NotImplementedError

    def validate(self, scenario: Scenario) -> None:
        """Reject scenarios this protocol cannot run (or cannot honour)."""
        if scenario.num_app_servers < self.min_app_servers:
            raise ScenarioError(
                f"protocol {self.name!r} needs at least {self.min_app_servers} "
                f"application server(s), got {scenario.num_app_servers}")
        defaults = {f.name: f.default for f in dataclass_fields(scenario)}
        for field_name in self.ignored_fields:
            if getattr(scenario, field_name) != defaults[field_name]:
                raise ScenarioError(
                    f"protocol {self.name!r} does not support "
                    f"{field_name!r}; remove it from the scenario")


_REGISTRY: dict[str, ProtocolDriver] = {}


def register_protocol(name: str, driver: ProtocolDriver,
                      aliases: tuple[str, ...] = ()) -> None:
    """Register ``driver`` under ``name`` (and DSN scheme aliases)."""
    register_scheme(name, *aliases,
                    default_app_servers=driver.default_app_servers)
    _REGISTRY[name] = driver


def get_protocol(name: str) -> ProtocolDriver:
    """The registered driver for ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ScenarioError(f"no driver registered for protocol {name!r}; "
                            f"registered: {', '.join(sorted(_REGISTRY))}") from None


def registered_protocols() -> list[str]:
    """Canonical names of every registered protocol."""
    return sorted(_REGISTRY)


def iter_drivers() -> Iterator[tuple[str, ProtocolDriver]]:
    """(name, driver) pairs, sorted by name."""
    return iter(sorted(_REGISTRY.items()))


# ------------------------------------------------------- built-in drivers


class EtxDriver(ProtocolDriver):
    """The paper's asynchronous-replication (e-Transaction) protocol."""

    name = "etx"
    aliases = ("ar",)
    default_app_servers = 3
    ignored_fields = ("coordinator_log_latency",)

    def build(self, scenario, *, business_logic, initial_data, db_timing,
              protocol_timing, runtime):
        has_reshards = any(fault.kind == "reshard" for fault in scenario.faults)
        config = DeploymentConfig(
            runtime=runtime,
            num_app_servers=scenario.num_app_servers,
            num_db_servers=scenario.num_db_servers,
            num_clients=scenario.num_clients,
            register_mode=scenario.register_mode,
            seed=scenario.seed,
            loss_probability=scenario.loss_probability,
            use_reliable_channels=scenario.use_reliable_channels,
            detection_delay=scenario.detection_delay,
            failure_detector=scenario.failure_detector,
            heartbeat_interval=scenario.heartbeat_interval,
            heartbeat_timeout=scenario.heartbeat_timeout,
            client_app_latency=scenario.client_app_latency,
            app_app_latency=scenario.app_app_latency,
            app_db_latency=scenario.app_db_latency,
            db_timing=db_timing,
            protocol_timing=protocol_timing,
            initial_data=initial_data,
            business_logic=business_logic,
            placement=scenario.placement,
            trace_retention=scenario.trace,
            enable_reshard=has_reshards,
            num_standby_db_servers=len(scenario.standby_db_server_names),
            mailbox_limit=scenario.mailbox,
        )
        return EtxDeployment(config)


class _BaselineFamilyDriver(ProtocolDriver):
    """Shared config assembly for the three comparison protocols.

    The comparison stacks have no register mode, tunable failure detector or
    reliable-channel layer -- those are e-Transaction machinery -- so the
    corresponding scenario fields are rejected instead of ignored.
    """

    deployment_class: type = BaselineDeployment
    ignored_fields = ("register_mode", "failure_detector", "use_reliable_channels",
                      "detection_delay", "heartbeat_interval", "heartbeat_timeout",
                      "mailbox")

    def validate(self, scenario: Scenario) -> None:
        super().validate(scenario)
        # Online resharding is e-Transaction machinery: it rides on the epoch
        # directory the comparison stacks do not have.
        if any(fault.kind == "reshard" for fault in scenario.faults):
            raise ScenarioError(
                f"protocol {self.name!r} does not support online resharding; "
                f"remove the reshard fault from the scenario")

    def _config(self, scenario, *, business_logic, initial_data, db_timing,
                protocol_timing, runtime) -> BaselineConfig:
        return BaselineConfig(
            runtime=runtime,
            num_app_servers=scenario.num_app_servers,
            num_db_servers=scenario.num_db_servers,
            num_clients=scenario.num_clients,
            seed=scenario.seed,
            loss_probability=scenario.loss_probability,
            client_app_latency=scenario.client_app_latency,
            app_app_latency=scenario.app_app_latency,
            app_db_latency=scenario.app_db_latency,
            db_timing=db_timing,
            protocol_timing=protocol_timing,
            coordinator_log_latency=scenario.coordinator_log_latency,
            initial_data=initial_data,
            business_logic=business_logic,
            placement=scenario.placement,
            trace_retention=scenario.trace,
        )

    def build(self, scenario, *, business_logic, initial_data, db_timing,
              protocol_timing, runtime):
        config = self._config(scenario, business_logic=business_logic,
                              initial_data=initial_data, db_timing=db_timing,
                              protocol_timing=protocol_timing, runtime=runtime)
        return self.deployment_class(config)


class BaselineDriver(_BaselineFamilyDriver):
    """Unreliable baseline (Figure 7a): one-phase commit, no reliability."""

    name = "baseline"
    deployment_class = BaselineDeployment
    ignored_fields = _BaselineFamilyDriver.ignored_fields + ("coordinator_log_latency",)


class TwoPCDriver(_BaselineFamilyDriver):
    """Presumed-nothing two-phase commit (Figure 7b)."""

    name = "2pc"
    aliases = ("twopc",)
    deployment_class = TwoPCDeployment


class PrimaryBackupDriver(_BaselineFamilyDriver):
    """Primary-backup replication (Figure 7c)."""

    name = "pb"
    aliases = ("primary-backup",)
    default_app_servers = 2
    min_app_servers = 2
    deployment_class = PrimaryBackupDeployment
    ignored_fields = _BaselineFamilyDriver.ignored_fields + ("coordinator_log_latency",)


register_protocol(EtxDriver.name, EtxDriver(), aliases=EtxDriver.aliases)
register_protocol(TwoPCDriver.name, TwoPCDriver(), aliases=TwoPCDriver.aliases)
register_protocol(PrimaryBackupDriver.name, PrimaryBackupDriver(),
                  aliases=PrimaryBackupDriver.aliases)
register_protocol(BaselineDriver.name, BaselineDriver())


# ----------------------------------------------------------------- facade


def _resolve_db_timing(scenario: Scenario) -> DatabaseTiming:
    if scenario.timing == "paper":
        from repro.experiments.calibration import paper_database_timing

        return paper_database_timing()
    return DatabaseTiming()


def build(scenario: Scenario, *,
          workload: Any = None,
          business_logic: Optional[Callable[[Request], Callable[[Any], Any]]] = None,
          initial_data: Optional[dict[str, Any]] = None,
          db_timing: Optional[DatabaseTiming] = None,
          protocol_timing: Optional[ProtocolTiming] = None,
          runtime: Optional[RuntimeSpec] = None) -> RunningSystem:
    """Build (and start) the system a scenario describes.

    The keyword overrides exist for programmatic callers that need objects a
    DSN cannot carry -- a custom workload instance, timing objects, raw
    business logic, or a :class:`RuntimeSpec` naming the local subset of a
    distributed run; anything omitted comes from the scenario itself.  The
    scenario's fault schedule is applied before returning.
    """
    driver = get_protocol(scenario.protocol)
    driver.validate(scenario)
    shard_context = ShardContext(sharding=scenario.sharding,
                                 cross_shard_fraction=scenario.xshard,
                                 seed=scenario.seed)
    binding = bind_workload(workload if workload is not None else scenario.workload,
                            context=shard_context)
    resolved_db_timing = db_timing if db_timing is not None \
        else _resolve_db_timing(scenario)
    if protocol_timing is None:
        protocol_timing = ProtocolTiming(client_backoff=scenario.client_backoff)
    deployment = driver.build(
        scenario,
        business_logic=business_logic if business_logic is not None
        else binding.business_logic,
        initial_data=dict(initial_data) if initial_data is not None
        else dict(binding.initial_data),
        db_timing=resolved_db_timing,
        protocol_timing=protocol_timing,
        runtime=runtime if runtime is not None else scenario.runtime_spec,
    )
    system = RunningSystem(scenario, deployment, binding, resolved_db_timing)
    schedule = scenario.fault_schedule()
    if len(schedule):
        system.apply_faults(schedule)
    return system
