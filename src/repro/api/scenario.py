"""Declarative scenario descriptions and their DSN string form.

A :class:`Scenario` captures everything needed to build and run one protocol
stack -- tier sizes, protocol, register mode, failure detector, latency
topology, loss, timings, workload and fault schedule -- as plain data.  Every
scenario has a DSN (data-source-name) form modelled on database connection
strings::

    etx://a3.d1.c1?fd=heartbeat&loss=0.01&seed=7
    etx://a3.d1.c8?rate=50&arrival=poisson&seed=7
    etx://a3.d1.c4?runtime=asyncio&pace=0.2
    etx://a3.d1.c4?runtime=asyncio&host=10.0.0.5&port=7000
    etx://a3.d8.c64?xshard=0.1&placement=hash&workload=bank
    2pc://a1.d1?workload=bank&timing=paper&log=25
    pb://a2.d1?workload=bank&clients=4&think=250
    baseline://a1.d1?fault=crash@215:a1

The scheme selects the protocol (``etx``/``ar``, ``2pc``/``twopc``,
``pb``/``primary-backup``, ``baseline``; extensible via
:func:`register_scheme`).  The host part gives the tier sizes as dot-separated
tokens ``a<N>`` (application servers), ``d<N>`` (database servers) and
``c<N>`` (clients), in any order; omitted tiers fall back to the protocol's
defaults.  Query parameters tune everything else; ``fault`` may repeat, every
other parameter may appear at most once (a duplicate is ambiguous and
rejected, as in database DSNs).

``Scenario.from_dsn`` and ``Scenario.to_dsn`` round-trip:
``Scenario.from_dsn(s.to_dsn()) == s`` for every scenario.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Optional, Sequence
from urllib.parse import parse_qsl

from repro.baselines.common import BaselineConfig
from repro.core.deployment import DeploymentConfig
from repro.core.sharding import KNOWN_PLACEMENTS, PLACEMENT_REPLICATE, Sharding
from repro.core.timing import ProtocolTiming
from repro.failure import injection
from repro.failure.injection import (
    FaultAction,
    FaultSchedule,
    validate_downtime,
    validate_partition_groups,
    validate_suspicion,
)
from repro.runtime.base import (
    KNOWN_RUNTIMES,
    MAX_PORT,
    RUNTIME_SIM,
    RuntimeSpec,
)
from repro.sim.tracing import parse_retention

REGISTER_CONSENSUS = "consensus"
REGISTER_LOCAL = "local"
FD_ORACLE = "oracle"
FD_HEARTBEAT = "heartbeat"

TIMING_DEFAULT = "default"
TIMING_PAPER = "paper"

ARRIVAL_POISSON = "poisson"
ARRIVAL_UNIFORM = "uniform"


class ScenarioError(ValueError):
    """A malformed scenario DSN or an invalid scenario field."""


# ------------------------------------------------------------------ schemes

_SCHEME_ALIASES: dict[str, str] = {}
_DEFAULT_APP_SERVERS: dict[str, int] = {}


def register_scheme(name: str, *aliases: str, default_app_servers: int = 1) -> None:
    """Make ``name`` (and ``aliases``) valid DSN schemes for protocol ``name``."""
    _SCHEME_ALIASES[name] = name
    for alias in aliases:
        _SCHEME_ALIASES[alias] = name
    _DEFAULT_APP_SERVERS[name] = default_app_servers


def known_schemes() -> list[str]:
    """Every scheme (including aliases) the DSN parser accepts."""
    return sorted(_SCHEME_ALIASES)


def default_app_servers(protocol: str) -> int:
    """Middle-tier size used when a DSN omits the ``a<N>`` host token."""
    return _DEFAULT_APP_SERVERS.get(protocol, 1)


# Schemes are registered by their protocol drivers via
# :func:`repro.api.register_protocol` (see ``repro.api.drivers`` for the four
# paper protocols), keeping one source of truth for names, aliases and
# default tier sizes.  Importing any ``repro.api`` submodule runs the package
# ``__init__``, which loads the drivers first.


# ------------------------------------------------------------------- faults


def _format_number(value: float) -> str:
    """Shortest decimal text that parses back to exactly ``value``.

    The text must also survive a URL query string unescaped: ``repr`` writes
    large magnitudes as ``1e+16``, and ``parse_qsl`` decodes the ``+`` to a
    space, so a serialised scenario failed to parse back.  ``1e16`` is the
    same float, so the ``+`` is dropped.
    """
    text = repr(float(value))
    if text.endswith(".0"):
        text = text[:-2]
    return text.replace("e+", "e")


@dataclass(frozen=True)
class FaultSpec:
    """One DSN-expressible fault: ``kind@time[:target[:extra...]]``.

    Tokens::

        crash@244:a1                      crash a1 at t=244
        recover@500:a1                    recover a1 at t=500
        crash_for@600:d2:800              crash d2 at t=600 for 800 ms
        false_suspicion@15:a2:a1:200      a2 falsely suspects a1 for 200 ms
        partition@100:a1~a2|d1            split {a1,a2} from {d1} at t=100
        heal@300                          heal any partition at t=300
        reshard@5000:d4->d8               grow the data tier 4 -> 8 at t=5000

    Partition groups are ``|``-separated, members ``~``-separated (``~`` and
    ``|`` survive URL query parsing unescaped; ``+`` would decode to a
    space).  Processes named in no group form an implicit extra group.
    """

    kind: str
    time: float
    target: str = ""
    downtime: float = 0.0
    observer: str = ""
    duration: float = 0.0
    groups: tuple[tuple[str, ...], ...] = ()
    from_shards: int = 0
    to_shards: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "recover", "crash_for", "false_suspicion",
                             "partition", "heal", "reshard"):
            raise ScenarioError(f"unknown fault kind {self.kind!r}")
        if self.time < 0:
            raise ScenarioError("fault time must be non-negative")
        object.__setattr__(self, "groups",
                           tuple(tuple(group) for group in self.groups))
        if self.groups and self.kind != "partition":
            raise ScenarioError(f"fault kind {self.kind!r} takes no groups")
        if self.kind in ("partition", "heal", "reshard"):
            if self.target:
                raise ScenarioError(f"fault kind {self.kind!r} takes no target")
        elif not self.target:
            raise ScenarioError(f"fault kind {self.kind!r} needs a target")
        # Inapplicable scalars are rejected, not silently dropped: a
        # FaultSpec('crash', ..., downtime=500) almost certainly meant
        # crash_for, and to_token() would lose the field.
        inapplicable = []
        if self.downtime and self.kind != "crash_for":
            inapplicable.append("downtime")
        if self.kind != "false_suspicion":
            if self.observer:
                inapplicable.append("observer")
            if self.duration:
                inapplicable.append("duration")
        if (self.from_shards or self.to_shards) and self.kind != "reshard":
            inapplicable.append("from_shards/to_shards")
        if inapplicable:
            raise ScenarioError(f"fault kind {self.kind!r} takes no "
                                f"{', '.join(inapplicable)}")
        # Kind-specific scalar rules live in repro.failure.injection, shared
        # with FaultAction so the two validation layers cannot drift apart.
        try:
            if self.kind == "partition":
                validate_partition_groups(list(self.groups))
            elif self.kind == "crash_for":
                validate_downtime(self.downtime)
            elif self.kind == "false_suspicion":
                validate_suspicion(self.observer, self.target, self.duration)
            elif self.kind == "reshard":
                injection.validate_reshard(self.from_shards, self.to_shards)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None

    @classmethod
    def from_token(cls, token: str) -> "FaultSpec":
        """Parse one ``fault=`` query value."""
        match = re.fullmatch(r"([a-z_]+)@([^:]+)((?::[^:]+)*)", token)
        if match is None:
            raise ScenarioError(f"malformed fault token {token!r} "
                                "(expected kind@time[:target[:extra]])")
        kind, time_text, tail = match.groups()
        args = tail.lstrip(":").split(":") if tail else []
        try:
            time = float(time_text)
        except ValueError:
            raise ScenarioError(f"bad fault time in {token!r}") from None
        try:
            if kind in ("crash", "recover"):
                (target,) = args
                return cls(kind, time, target)
            if kind == "crash_for":
                target, downtime = args
                return cls(kind, time, target, downtime=float(downtime))
            if kind == "false_suspicion":
                observer, target, duration = args
                return cls(kind, time, target, observer=observer,
                           duration=float(duration))
            if kind == "partition":
                (layout,) = args
                groups = tuple(tuple(filter(None, group.split("~")))
                               for group in layout.split("|"))
                return cls(kind, time, groups=groups)
            if kind == "heal":
                if args:
                    raise ValueError("heal takes no arguments")
                return cls(kind, time)
            if kind == "reshard":
                (move,) = args
                shape = re.fullmatch(r"d(\d+)->d(\d+)", move)
                if shape is None:
                    raise ValueError("reshard takes a d<from>->d<to> argument")
                return cls(kind, time, from_shards=int(shape.group(1)),
                           to_shards=int(shape.group(2)))
        except ScenarioError:
            raise  # a specific validation message (overlap, duration, ...)
        except ValueError:
            raise ScenarioError(f"malformed fault token {token!r} for kind {kind!r}") from None
        raise ScenarioError(f"unknown fault kind {kind!r}")

    @classmethod
    def from_action(cls, action: "FaultAction") -> "FaultSpec":
        """The DSN-expressible form of one :class:`FaultAction`."""
        if action.kind in (injection.CRASH, injection.RECOVER):
            return cls(action.kind, action.time, action.target)
        if action.kind == injection.CRASH_FOR:
            return cls(action.kind, action.time, action.target,
                       downtime=action.params["downtime"])
        if action.kind == injection.FALSE_SUSPICION:
            return cls(action.kind, action.time, action.target,
                       observer=action.params["observer"],
                       duration=action.params["duration"])
        if action.kind == injection.PARTITION:
            return cls(action.kind, action.time,
                       groups=tuple(tuple(g) for g in action.params["groups"]))
        if action.kind == injection.HEAL:
            return cls(injection.HEAL, action.time)
        if action.kind == injection.RESHARD:
            return cls(injection.RESHARD, action.time,
                       from_shards=action.params["from_count"],
                       to_shards=action.params["to_count"])
        raise ValueError(f"fault kind {action.kind!r} has no DSN form")

    def to_token(self) -> str:
        """The ``fault=`` query value for this fault."""
        head = f"{self.kind}@{_format_number(self.time)}"
        if self.kind in ("crash", "recover"):
            return f"{head}:{self.target}"
        if self.kind == "crash_for":
            return f"{head}:{self.target}:{_format_number(self.downtime)}"
        if self.kind == "partition":
            layout = "|".join("~".join(group) for group in self.groups)
            return f"{head}:{layout}"
        if self.kind == "heal":
            return head
        if self.kind == "reshard":
            return f"{head}:d{self.from_shards}->d{self.to_shards}"
        return (f"{head}:{self.observer}:{self.target}:"
                f"{_format_number(self.duration)}")

    def add_to(self, schedule: FaultSchedule) -> None:
        """Append this fault to a :class:`FaultSchedule`."""
        if self.kind == "crash":
            schedule.crash(self.time, self.target)
        elif self.kind == "recover":
            schedule.recover(self.time, self.target)
        elif self.kind == "crash_for":
            schedule.crash_for(self.time, self.target, downtime=self.downtime)
        elif self.kind == "partition":
            schedule.partition(self.time, *self.groups)
        elif self.kind == "heal":
            schedule.heal(self.time)
        elif self.kind == "reshard":
            schedule.reshard(self.time, self.from_shards, self.to_shards)
        else:
            schedule.false_suspicion(self.time, self.observer, self.target,
                                     duration=self.duration)

    @property
    def named_processes(self) -> tuple[str, ...]:
        """Every process name this fault mentions (for validation)."""
        names = [name for name in (self.target, self.observer) if name]
        for group in self.groups:
            names.extend(group)
        return tuple(names)


def schedule_to_specs(schedule: FaultSchedule) -> tuple[FaultSpec, ...]:
    """A :class:`FaultSchedule`'s actions as DSN-expressible fault specs."""
    return tuple(FaultSpec.from_action(action) for action in schedule)


def faults_to_text(faults: Sequence[FaultSpec]) -> str:
    """Serialise fault specs as the comma-separated ``faults=`` value."""
    return ",".join(spec.to_token() for spec in faults)


def faults_from_text(text: str) -> tuple[FaultSpec, ...]:
    """Parse a ``faults=`` value: comma-separated tokens or an ``@file`` ref.

    ``;`` is accepted as an alternative token separator: contexts that
    already split values on commas (the CLI's ``--axis name=v1,v2`` grammar)
    can carry a whole multi-fault schedule as one value with semicolons.
    A value starting with ``@`` names a sidecar JSON file (written next to
    long counterexamples) holding either a list of fault tokens or an object
    with a ``"faults"`` key; everything else is parsed in place.
    """
    text = text.strip()
    if text.startswith("@"):
        return load_fault_sidecar(text[1:])
    return tuple(FaultSpec.from_token(token)
                 for token in filter(None, (t.strip()
                                            for t in re.split(r"[,;]", text))))


def load_fault_sidecar(path: str) -> tuple[FaultSpec, ...]:
    """Load a ``.faults.json`` sidecar written for a long fault schedule."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read fault sidecar {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed fault sidecar {path!r}: {exc}") from None
    tokens = payload.get("faults") if isinstance(payload, dict) else payload
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ScenarioError(f"fault sidecar {path!r} must hold a list of fault "
                            "tokens (or an object with a 'faults' list)")
    return tuple(FaultSpec.from_token(token) for token in tokens)


# ----------------------------------------------------------------- scenario

# Above this many faults, ``to_dsn`` switches from repeated ``fault=`` tokens
# to the single ``faults=`` list parameter.
_FAULT_LIST_THRESHOLD = 3

_TRUE_WORDS = frozenset({"1", "true", "yes", "on"})
_FALSE_WORDS = frozenset({"0", "false", "no", "off"})


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    raise ValueError(f"not a boolean: {text!r}")


# query parameter -> (Scenario field, parser).  Order doubles as the canonical
# serialisation order of ``to_dsn``.  ``clients`` is an alternative spelling
# of the host's ``c<N>`` token (never serialised -- the host carries it).
_QUERY_PARAMS: dict[str, tuple[str, Callable[[str], Any]]] = {
    "seed": ("seed", int),
    "clients": ("num_clients", int),
    "rate": ("rate", float),
    "arrival": ("arrival", str),
    "think": ("think_time", float),
    "fd": ("failure_detector", str),
    "register": ("register_mode", str),
    "loss": ("loss_probability", float),
    "reliable": ("use_reliable_channels", _parse_bool),
    "detect": ("detection_delay", float),
    "hb_interval": ("heartbeat_interval", float),
    "hb_timeout": ("heartbeat_timeout", float),
    "lat_ca": ("client_app_latency", float),
    "lat_aa": ("app_app_latency", float),
    "lat_ad": ("app_db_latency", float),
    "log": ("coordinator_log_latency", float),
    "backoff": ("client_backoff", float),
    "workload": ("workload", str),
    "timing": ("timing", str),
    "placement": ("placement", str),
    "xshard": ("xshard", float),
    "trace": ("trace", str),
    "runtime": ("runtime", str),
    "host": ("host", str),
    "port": ("port", int),
    "pace": ("pace", float),
    "mailbox": ("mailbox", int),
}

# Endpoint parameters follow the database-DSN convention of edgedb et al.:
# ``host``/``port`` can each be given directly, via ``*_env`` (the name of an
# environment variable holding the value) or via ``*_file`` (a file whose
# contents are the value).  Giving the same endpoint parameter two ways is
# ambiguous and rejected.
_INDIRECT_SUFFIXES = ("_env", "_file")
_INDIRECT_BASES = ("host", "port")


def _known_query_params() -> str:
    names = sorted([*_QUERY_PARAMS,
                    *(f"{base}{suffix}" for base in _INDIRECT_BASES
                      for suffix in _INDIRECT_SUFFIXES)])
    return ", ".join([*names, "fault", "faults"])


def _resolve_indirect(key: str, raw: str) -> str:
    """Resolve a ``host_env``/``port_file``-style value to its direct text."""
    if key.endswith("_env"):
        value = os.environ.get(raw)
        if value is None:
            raise ScenarioError(
                f"bad value for {key!r}: environment variable {raw!r} is not set")
        return value
    try:
        with open(raw, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError as exc:
        raise ScenarioError(f"bad value for {key!r}: cannot read {raw!r} ({exc})") from None

_HOST_TOKEN = re.compile(r"([adc])(\d+)")
_HOST_FIELDS = {"a": "num_app_servers", "d": "num_db_servers", "c": "num_clients"}


@dataclass(frozen=True)
class Scenario:
    """A complete, declarative description of one protocol run.

    ``num_app_servers=0`` (the default) resolves to the protocol's standard
    middle-tier size (3 for ``etx``, 2 for ``pb``, 1 otherwise).
    """

    # Numeric defaults are taken from the config dataclasses the drivers fill
    # in, so the DSN form and the direct-config form of "the same" deployment
    # cannot drift apart.
    protocol: str = "etx"
    num_app_servers: int = 0
    num_db_servers: int = 1
    num_clients: int = 1
    seed: int = 0
    failure_detector: str = FD_ORACLE
    register_mode: str = REGISTER_CONSENSUS
    loss_probability: float = 0.0
    use_reliable_channels: bool = False
    detection_delay: float = DeploymentConfig.detection_delay
    heartbeat_interval: float = DeploymentConfig.heartbeat_interval
    heartbeat_timeout: float = DeploymentConfig.heartbeat_timeout
    client_app_latency: float = DeploymentConfig.client_app_latency
    app_app_latency: float = DeploymentConfig.app_app_latency
    app_db_latency: float = DeploymentConfig.app_db_latency
    coordinator_log_latency: float = BaselineConfig.coordinator_log_latency
    client_backoff: float = ProtocolTiming.client_backoff
    workload: str = "default"
    timing: str = TIMING_DEFAULT
    # Data-tier partitioning: ``placement`` selects the key-placement policy
    # (``replicate`` keeps the historical full fan-out; ``hash``/``mod``
    # partition the key space over the ``d`` databases), ``xshard`` is the
    # fraction of generated requests that span two shards.
    placement: str = PLACEMENT_REPLICATE
    xshard: float = 0.0
    # Traffic shape: ``rate == 0`` is the paper's closed loop (every client
    # re-issues on delivery, pausing ``think_time`` in between); ``rate > 0``
    # is an open loop injecting requests at that many per second of virtual
    # time with the given arrival process.
    rate: float = 0.0
    arrival: str = ARRIVAL_POISSON
    think_time: float = 0.0
    # Trace retention: ``full`` stores every event (post-hoc queries see the
    # whole history), ``ring:N`` keeps the last N events (a flight recorder
    # with bounded memory), ``off`` stores nothing.  Spec checking and run
    # statistics stream off the event bus, so they work under all three.
    trace: str = "full"
    # Runtime backend: ``sim`` executes on the discrete-event simulator,
    # ``asyncio`` on an event loop with wall-clock timers and real TCP
    # between the processes.  ``host``/``port`` place the TCP endpoints
    # (process i listens on port+i; port 0 binds ephemeral localhost ports),
    # ``pace`` rescales wall time (0.2 = run protocol timers 5x faster).
    runtime: str = RUNTIME_SIM
    host: str = ""
    port: int = 0
    pace: float = 1.0
    # Admission control: ``mailbox`` bounds every application server's inbox
    # to that many buffered messages; a message arriving at a full inbox is
    # shed with a traced ``overload`` event (fair-lossy channels make a shed
    # indistinguishable from a network loss, so safety is unaffected).
    # 0 = unbounded, the historical behaviour.
    mailbox: int = 0
    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        protocol = _SCHEME_ALIASES.get(self.protocol)
        if protocol is None:
            raise ScenarioError(
                f"unknown protocol {self.protocol!r}; known schemes: "
                f"{', '.join(known_schemes())}")
        object.__setattr__(self, "protocol", protocol)
        if self.num_app_servers == 0:
            object.__setattr__(self, "num_app_servers", default_app_servers(protocol))
        if self.num_app_servers < 1 or self.num_db_servers < 1 or self.num_clients < 1:
            raise ScenarioError("every tier needs at least one process")
        if self.register_mode not in (REGISTER_CONSENSUS, REGISTER_LOCAL):
            raise ScenarioError(f"unknown register mode {self.register_mode!r}")
        if self.failure_detector not in (FD_ORACLE, FD_HEARTBEAT):
            raise ScenarioError(f"unknown failure detector {self.failure_detector!r}")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ScenarioError("loss probability must be within [0, 1]")
        if self.client_backoff < 0:
            raise ScenarioError("client backoff must be non-negative")
        if self.timing not in (TIMING_DEFAULT, TIMING_PAPER):
            raise ScenarioError(f"unknown timing profile {self.timing!r}")
        if self.rate < 0:
            raise ScenarioError("arrival rate must be non-negative "
                                "(0 selects the closed loop)")
        if self.arrival not in (ARRIVAL_POISSON, ARRIVAL_UNIFORM):
            raise ScenarioError(f"unknown arrival process {self.arrival!r} "
                                f"(expected {ARRIVAL_POISSON!r} or {ARRIVAL_UNIFORM!r})")
        if self.think_time < 0:
            raise ScenarioError("think time must be non-negative")
        if self.rate > 0 and self.think_time > 0:
            raise ScenarioError("think time is a closed-loop knob; an open loop "
                                "(rate > 0) injects independently of completions")
        if self.placement not in KNOWN_PLACEMENTS:
            raise ScenarioError(f"unknown placement {self.placement!r}; known: "
                                f"{', '.join(KNOWN_PLACEMENTS)}")
        if not 0.0 <= self.xshard <= 1.0:
            raise ScenarioError("cross-shard fraction must be within [0, 1]")
        if self.xshard > 0 and self.placement == PLACEMENT_REPLICATE:
            raise ScenarioError("xshard > 0 needs a partitioned placement "
                                "(placement=hash or placement=mod); under "
                                "replication every request already involves "
                                "every database")
        try:
            parse_retention(self.trace)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        if self.runtime not in KNOWN_RUNTIMES:
            raise ScenarioError(f"unknown runtime {self.runtime!r}; known runtimes: "
                                f"{', '.join(KNOWN_RUNTIMES)}")
        if self.host and not re.fullmatch(r"[A-Za-z0-9._-]+", self.host):
            raise ScenarioError(f"malformed host {self.host!r} (expected a "
                                "hostname or IP address, no port/scheme/path)")
        if not 0 <= self.port <= MAX_PORT:
            raise ScenarioError(f"port must be in [0, {MAX_PORT}], got {self.port}")
        if self.pace <= 0:
            raise ScenarioError(f"pace must be > 0, got {_format_number(self.pace)}")
        if self.runtime == RUNTIME_SIM:
            endpointish = [name for name, default in
                           (("host", ""), ("port", 0), ("pace", 1.0))
                           if getattr(self, name) != default]
            if endpointish:
                raise ScenarioError(
                    f"parameter(s) {', '.join(endpointish)} only apply to "
                    "runtime=asyncio (the simulator has no endpoints or wall clock)")
        elif self.port:
            total = self.num_app_servers + self.num_db_servers + self.num_clients
            if self.port + total - 1 > MAX_PORT:
                raise ScenarioError(
                    f"port range {self.port}..{self.port + total - 1} for {total} "
                    f"processes exceeds {MAX_PORT}; pick a lower base port")
        if self.mailbox < 0:
            raise ScenarioError("mailbox bound must be non-negative "
                                "(0 = unbounded)")
        object.__setattr__(self, "faults", tuple(self.faults))
        self._validate_reshards()
        known = set(self.app_server_names + self.db_server_names
                    + self.standby_db_server_names + self.client_names)
        for fault in self.faults:
            for name in fault.named_processes:
                if name not in known:
                    raise ScenarioError(
                        f"fault {fault.to_token()!r} names unknown process "
                        f"{name!r}; this scenario has processes "
                        f"{', '.join(sorted(known))}")

    def _validate_reshards(self) -> None:
        reshards = sorted((f for f in self.faults if f.kind == "reshard"),
                          key=lambda f: f.time)
        if not reshards:
            return
        if self.placement == PLACEMENT_REPLICATE:
            raise ScenarioError("reshard needs a partitioned placement "
                                "(placement=hash or placement=mod); under "
                                "replication there is nothing to move")
        if self.runtime != RUNTIME_SIM:
            raise ScenarioError("reshard currently requires runtime=sim")
        if self.use_reliable_channels:
            raise ScenarioError("reshard does not support reliable=true: the "
                                "reconfiguration coordinator carries its own "
                                "retransmission")
        count = self.num_db_servers
        for fault in reshards:
            if fault.from_shards != count:
                raise ScenarioError(
                    f"fault {fault.to_token()!r} starts from d{fault.from_shards} "
                    f"but the data tier holds d{count} at that point; chain "
                    "reshards so each starts where the previous one ended")
            count = fault.to_shards

    # ------------------------------------------------------------------- DSN

    @classmethod
    def from_dsn(cls, dsn: str) -> "Scenario":
        """Parse a scenario DSN (see the module docstring for the grammar)."""
        if "://" not in dsn:
            raise ScenarioError(f"not a scenario DSN (missing '://'): {dsn!r}")
        scheme, _, rest = dsn.partition("://")
        scheme = scheme.strip().lower()
        if scheme not in _SCHEME_ALIASES:
            raise ScenarioError(f"unknown scenario scheme {scheme!r}; known schemes: "
                                f"{', '.join(known_schemes())}")
        host, _, query = rest.partition("?")
        values: dict[str, Any] = {"protocol": _SCHEME_ALIASES[scheme]}
        cls._parse_host(host, values)
        cls._parse_query(query, values)
        return cls(**values)

    @staticmethod
    def _parse_host(host: str, values: dict[str, Any]) -> None:
        for token in filter(None, host.split(".")):
            match = _HOST_TOKEN.fullmatch(token)
            if match is None:
                raise ScenarioError(
                    f"bad host token {token!r} (expected a<N>, d<N> or c<N>)")
            tier, count = match.groups()
            field_name = _HOST_FIELDS[tier]
            if field_name in values:
                raise ScenarioError(f"ambiguous host: tier {tier!r} given twice")
            if int(count) < 1:
                raise ScenarioError(f"bad host token {token!r}: every tier "
                                    "needs at least one process")
            values[field_name] = int(count)

    @staticmethod
    def _parse_query(query: str, values: dict[str, Any]) -> None:
        faults: list[FaultSpec] = []
        fault_list: Optional[tuple[FaultSpec, ...]] = None
        seen: dict[str, str] = {}
        for key, raw in parse_qsl(query, keep_blank_values=True):
            if key == "fault":
                faults.append(FaultSpec.from_token(raw))
                continue
            if key == "faults":
                if fault_list is not None:
                    raise ScenarioError("ambiguous DSN: parameter 'faults' "
                                        "given twice")
                fault_list = faults_from_text(raw)
                continue
            origin = key
            if (key.endswith(_INDIRECT_SUFFIXES)
                    and key.rsplit("_", 1)[0] in _INDIRECT_BASES):
                # host_env / port_file style: resolve to the direct value and
                # fold into the base parameter, so giving an endpoint two
                # ways trips the ambiguity check below.
                raw = _resolve_indirect(key, raw)
                key = key.rsplit("_", 1)[0]
            if key in seen:
                raise ScenarioError(
                    f"ambiguous DSN: {origin!r} and an earlier parameter both "
                    f"set {key!r}; give each endpoint parameter one way")
            seen[key] = raw
            if key not in _QUERY_PARAMS:
                raise ScenarioError(
                    f"unknown DSN parameter {key!r}; known parameters: "
                    f"{_known_query_params()}")
            field_name, parser = _QUERY_PARAMS[key]
            if field_name in values:
                raise ScenarioError(
                    f"ambiguous DSN: {key!r} duplicates a host token "
                    f"(both set {field_name})")
            try:
                values[field_name] = parser(raw)
            except ValueError as exc:
                raise ScenarioError(f"bad value for {key!r}: {exc}") from None
        if faults and fault_list is not None:
            raise ScenarioError("ambiguous DSN: both repeated 'fault' tokens "
                                "and a 'faults' list given; use one form")
        if faults:
            values["faults"] = tuple(faults)
        elif fault_list is not None:
            values["faults"] = fault_list

    def to_dsn(self) -> str:
        """Serialise to the canonical DSN (omitting default-valued parameters)."""
        defaults = {f.name: f.default for f in fields(self) if f.name != "faults"}
        host = (f"a{self.num_app_servers}.d{self.num_db_servers}"
                f".c{self.num_clients}")
        parts: list[str] = []
        for key, (field_name, _) in _QUERY_PARAMS.items():
            if key == "clients":  # the host's c<N> token already carries it
                continue
            value = getattr(self, field_name)
            if value == defaults[field_name]:
                continue
            if isinstance(value, bool):
                text = "1" if value else "0"
            elif isinstance(value, float):
                text = _format_number(value)
            else:
                text = str(value)
            parts.append(f"{key}={text}")
        # Short schedules read best as repeated fault= tokens; campaign-sized
        # ones collapse into one faults= list so the DSN stays a single
        # copy-pastable parameter.  Both forms parse to the same scenario.
        if len(self.faults) > _FAULT_LIST_THRESHOLD:
            parts.append(f"faults={faults_to_text(self.faults)}")
        else:
            parts.extend(f"fault={fault.to_token()}" for fault in self.faults)
        query = "&".join(parts)
        return f"{self.protocol}://{host}" + (f"?{query}" if query else "")

    # -------------------------------------------------------------- derived

    def with_(self, **changes: Any) -> "Scenario":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def fault_schedule(self) -> FaultSchedule:
        """The scenario's faults as an applicable :class:`FaultSchedule`."""
        schedule = FaultSchedule()
        for fault in self.faults:
            fault.add_to(schedule)
        return schedule

    @property
    def client_names(self) -> list[str]:
        return [f"c{i + 1}" for i in range(self.num_clients)]

    @property
    def app_server_names(self) -> list[str]:
        return [f"a{i + 1}" for i in range(self.num_app_servers)]

    @property
    def db_server_names(self) -> list[str]:
        return [f"d{i + 1}" for i in range(self.num_db_servers)]

    @property
    def max_db_servers(self) -> int:
        """The largest data tier this scenario ever grows to (via reshards)."""
        return max([self.num_db_servers,
                    *(f.to_shards for f in self.faults if f.kind == "reshard")])

    @property
    def standby_db_server_names(self) -> list[str]:
        """Databases beyond the initial tier, held in reserve for reshards."""
        return [f"d{i + 1}" for i in range(self.num_db_servers,
                                           self.max_db_servers)]

    @property
    def sharding(self) -> Sharding:
        """Key-placement map of the database tier this scenario describes."""
        return Sharding(tuple(self.db_server_names), self.placement)

    @property
    def runtime_spec(self) -> RuntimeSpec:
        """The validated runtime backend description of this scenario."""
        return RuntimeSpec(kind=self.runtime, host=self.host, port=self.port,
                           pace=self.pace)

    @property
    def process_names(self) -> list[str]:
        """All process names in deployment (and TCP port-assignment) order."""
        return self.app_server_names + self.db_server_names + self.client_names

    @property
    def load_shape(self) -> str:
        """One word for the traffic shape this scenario asks for."""
        return "open" if self.rate > 0 else "closed"

    def describe(self) -> str:
        """One human-readable line."""
        if self.rate > 0:
            load = f"open loop @ {_format_number(self.rate)}/s ({self.arrival})"
        elif self.think_time > 0:
            load = f"closed loop, think {_format_number(self.think_time)} ms"
        else:
            load = "closed loop"
        return (f"{self.protocol} scenario: {self.num_app_servers} app / "
                f"{self.num_db_servers} db / {self.num_clients} client(s), "
                f"{load}, workload={self.workload}, fd={self.failure_detector}, "
                f"seed={self.seed}, faults={len(self.faults)}")
