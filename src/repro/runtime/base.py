"""The kernel seam: the runtime interface every protocol component uses.

:class:`Kernel` names the exact surface that :class:`repro.sim.process.Process`,
:class:`repro.sim.process.Thread`, the network/transport layer and the
workload generators consume: a clock (``now``), one-shot timers
(``schedule``/``schedule_at``/``call_soon``), run loops (``run``/``run_until``),
deterministic per-stream RNGs (``rng``) and the shared trace bus (``trace``).
Protocol generators never see anything below this surface, which is what
lets the *same* generator code run on either backend:

* :class:`repro.sim.scheduler.Simulator` -- virtual time, deterministic
  discrete-event execution (``realtime = False``);
* :class:`repro.runtime.loop.AsyncioKernel` -- wall-clock time on an asyncio
  event loop, timers backed by ``loop.call_later`` (``realtime = True``).

:class:`RuntimeSpec` is the validated, immutable description of which backend
a scenario runs on (parsed from the ``runtime``/``host``/``port``/``pace``
DSN params), and :func:`create_kernel`/:func:`create_network` are the
factories deployments use to build the matching kernel + transport pair.
"""

from __future__ import annotations

import os
import random
import zlib
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Optional

if TYPE_CHECKING:  # imported lazily at runtime: sim.process imports this module
    from repro.sim.tracing import TraceRecorder

RUNTIME_SIM = "sim"
RUNTIME_ASYNCIO = "asyncio"
KNOWN_RUNTIMES = (RUNTIME_SIM, RUNTIME_ASYNCIO)

DEFAULT_HOST = "127.0.0.1"

MAX_PORT = 65535


def stream_seed(seed: int, stream: str) -> int:
    """Seed of the named per-stream RNG, derived from the global ``seed``.

    Uses CRC-32 rather than ``hash()``: Python salts string hashing with
    ``PYTHONHASHSEED``, so a hash-derived seed would differ between
    interpreter invocations and silently break cross-process reproducibility
    (e.g. a sweep worker replaying a scenario another process ran).
    """
    return zlib.crc32(f"{seed}\x00{stream}".encode("utf-8")) & 0xFFFFFFFF


class Kernel:
    """Abstract runtime kernel: clock, timers, RNG streams, trace bus.

    Subclasses must provide ``now`` (a float attribute or property, in
    virtual milliseconds), ``schedule``, ``schedule_at``, ``call_soon``,
    ``run``, ``run_until``, ``pending_events`` and ``events_processed``.
    The RNG plumbing is shared here so both backends draw
    identical deterministic streams for a given seed.
    """

    #: Whether time advances on its own (wall clock) or only when the kernel
    #: processes events (virtual clock).  Tests use this to skip assertions
    #: about exact timestamps under a wall clock.
    realtime: bool = False

    seed: int
    trace: "TraceRecorder"

    def _init_kernel(self, seed: int, trace: "Optional[TraceRecorder]",
                     clock: Callable[[], float]) -> None:
        from repro.sim.tracing import TraceRecorder

        self.seed = seed
        self.trace = trace if trace is not None else TraceRecorder(clock=clock)
        self.trace.bind_clock(clock)
        self._rng_streams: dict[str, random.Random] = {}

    # ------------------------------------------------------------------ RNG

    def rng(self, stream: str) -> random.Random:
        """Return the named deterministic random stream, creating it on first use."""
        if stream not in self._rng_streams:
            self._rng_streams[stream] = random.Random(stream_seed(self.seed, stream))
        return self._rng_streams[stream]

    # ------------------------------------------------------------ scheduling

    def schedule(self, delay: float, callback: Callable[[], None],
                 name: str = "event") -> Any:
        """Run ``callback`` after ``delay`` virtual ms; returns a cancellable handle.

        The handle's ``cancel()`` returns ``True`` when it stopped a live
        event and ``False`` as a documented no-op when the event already
        fired or was already cancelled -- protocol code may always cancel a
        stale handle (an ack racing the retransmit timer it cancels) without
        checking state first.
        """
        raise NotImplementedError

    def schedule_at(self, time: float, callback: Callable[[], None],
                    name: str = "event") -> Any:
        """Run ``callback`` at absolute virtual time ``time``."""
        raise NotImplementedError

    def schedule_call(self, delay: float, callback: Callable, arg: Any,
                      name: str = "event") -> Any:
        """Run ``callback(arg)`` after ``delay`` virtual ms.

        The argument-carrying variant of :meth:`schedule` used by the
        network's per-message delivery path.  Handles returned by this
        method must not be retained past the event's dispatch: kernels may
        recycle fired events through a free list, so only cancel-before-fire
        is supported.  The default wraps the argument in a ``partial``;
        :class:`repro.sim.scheduler.Simulator` overrides it with an
        allocation-free implementation.
        """
        return self.schedule(delay, partial(callback, arg), name)

    def call_soon(self, callback: Callable[[], None], name: str = "soon") -> Any:
        """Run ``callback`` as soon as possible, after already-queued work."""
        raise NotImplementedError

    def call_soon_call(self, callback: Callable, arg: Any, name: str = "soon") -> Any:
        """Run ``callback(arg)`` as soon as possible.

        Argument-carrying variant of :meth:`call_soon` with the same handle
        caveat as :meth:`schedule_call`: fired events may be recycled, so
        the handle supports cancel-before-fire only.
        """
        return self.call_soon(partial(callback, arg), name)

    # --------------------------------------------------------------- running

    def run(self, until: Optional[float] = None, max_events: int = 5_000_000) -> float:
        """Process events until drained / ``until``; returns the stop time."""
        raise NotImplementedError

    def run_until(self, predicate: Callable[[], bool], *, until: Optional[float] = None,
                  max_events: int = 5_000_000) -> bool:
        """Process events until ``predicate()`` holds or the horizon passes."""
        raise NotImplementedError

    def close(self) -> None:
        """Release backend resources (sockets, loops).  Idempotent; no-op here."""


@dataclass(frozen=True)
class RuntimeSpec:
    """Validated description of the runtime backend a scenario uses.

    Attributes
    ----------
    kind:
        ``"sim"`` or ``"asyncio"``.
    host / port:
        Endpoint base for the asyncio backend.  ``host`` defaults to
        loopback; ``port == 0`` means every process binds an ephemeral port
        (fine for a single OS process, rejected for distributed serving).
        With an explicit base port, process *i* (in deployment order: app
        servers, then databases, then clients) listens on ``port + i``.
    pace:
        Wall-clock seconds per virtual second for the asyncio backend.
        ``1.0`` is real time; ``0.2`` runs protocol timers five times
        faster (useful to keep wall-clock tests short).
    only:
        When non-empty, this OS process hosts only the named subset of the
        deployment (``python -m repro serve`` / distributed ``run``); all
        other names resolve to remote TCP endpoints.  Needs the asyncio
        backend: a simulated run always hosts every process.
    """

    kind: str = RUNTIME_SIM
    host: str = ""
    port: int = 0
    pace: float = 1.0
    only: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in KNOWN_RUNTIMES:
            raise ValueError(
                f"unknown runtime {self.kind!r} (expected one of {', '.join(KNOWN_RUNTIMES)})"
            )
        if not 0 <= self.port <= MAX_PORT:
            raise ValueError(f"port must be in [0, {MAX_PORT}], got {self.port}")
        if self.pace <= 0:
            raise ValueError(f"pace must be > 0, got {self.pace}")
        if self.only and self.kind != RUNTIME_ASYNCIO:
            raise ValueError("only= needs runtime=asyncio")

    @property
    def distributed(self) -> bool:
        """Whether this OS process hosts only a subset of the deployment."""
        return bool(self.only)

    def hosts(self, name: str) -> bool:
        """Whether the process named ``name`` runs in this OS process."""
        return not self.only or name in self.only


def create_kernel(spec: RuntimeSpec, seed: int = 0) -> Kernel:
    """Build the kernel for ``spec`` (a :class:`Simulator` or an asyncio loop).

    For the ``sim`` backend, the ``REPRO_KERNEL`` environment variable picks
    the event-queue implementation: ``wheel`` (default) is the timer-wheel
    kernel, ``heap`` is the frozen pre-wheel binary-heap kernel kept in
    :mod:`repro.sim.legacy` as the trace-equivalence oracle and benchmark
    baseline.  Both honour the same seam contract, so every scenario is
    byte-identical under either value.
    """
    if spec.kind == RUNTIME_SIM:
        kind = os.environ.get("REPRO_KERNEL", "wheel")
        if kind == "heap":
            from repro.sim.legacy import HeapSimulator

            return HeapSimulator(seed=seed)
        if kind != "wheel":
            raise ValueError(
                f"unknown REPRO_KERNEL {kind!r} (expected 'wheel' or 'heap')"
            )
        from repro.sim.scheduler import Simulator

        return Simulator(seed=seed)
    from repro.runtime.loop import AsyncioKernel

    return AsyncioKernel(seed=seed, pace=spec.pace)


def create_network(spec: RuntimeSpec, kernel: Kernel, *, latency: Any = None,
                   loss_probability: float = 0.0,
                   process_names: Optional[list[str]] = None) -> Any:
    """Build the transport for ``spec``: simulated fabric or real TCP.

    ``process_names`` fixes the deterministic name -> port assignment for the
    TCP backend (deployment order); it is ignored by the simulator backend.
    """
    if spec.kind == RUNTIME_SIM:
        from repro.net.network import Network

        return Network(kernel, latency=latency, loss_probability=loss_probability)
    from repro.runtime.endpoints import EndpointMap
    from repro.runtime.tcp import TcpTransport

    endpoints = EndpointMap.for_names(process_names or [], spec.host or DEFAULT_HOST,
                                      spec.port)
    return TcpTransport(kernel, endpoints, latency=latency,
                        loss_probability=loss_probability,
                        local_names=set(spec.only) if spec.only else None)
