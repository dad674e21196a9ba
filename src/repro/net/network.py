"""The message-passing fabric connecting all processes.

The :class:`Network` registers processes, samples per-message latency from a
:class:`~repro.net.latency.LatencyModel`, optionally drops messages (loss
probability and partitions), and delivers messages by calling
``Process.deliver``.  Every send, drop and delivery is recorded in the trace,
which is what the communication-step metrics (Figures 1 and 7) consume.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.net.latency import FixedLatency, LatencyModel, Sampler
from repro.net.message import Message
from repro.runtime.base import Kernel
from repro.sim.process import Process


class NetworkStats:
    """Aggregate traffic counters maintained by the network."""

    def __init__(self) -> None:
        self.sent = 0
        self.delivered = 0
        self.dropped_loss = 0
        self.dropped_partition = 0
        self.dropped_dest_down = 0
        self.by_type_sent: dict[str, int] = {}
        self.by_type_delivered: dict[str, int] = {}

    def snapshot(self) -> dict[str, int]:
        """Plain-dict view of the counters (for reports and tests)."""
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped_loss": self.dropped_loss,
            "dropped_partition": self.dropped_partition,
            "dropped_dest_down": self.dropped_dest_down,
        }


class Network:
    """Point-to-point message network with latency, loss and partitions.

    Parameters
    ----------
    sim:
        The kernel providing time, timers and the trace recorder (the
        simulator, or an :class:`~repro.runtime.loop.AsyncioKernel`).
    latency:
        One-way latency model (defaults to a fixed 1.75 ms hop, half of the
        paper's observed 3.5 ms RPC round trip).
    loss_probability:
        Independent probability of silently dropping each message.
    """

    def __init__(self, sim: Kernel, latency: Optional[LatencyModel] = None,
                 loss_probability: float = 0.0):
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        self.sim = sim
        self.latency = latency if latency is not None else FixedLatency(1.75)
        self.loss_probability = loss_probability
        self.stats = NetworkStats()
        self.processes: dict[str, Process] = {}
        self._partition_groups: list[set[str]] = []
        # Loss and latency draws come from a per-source RNG stream and message
        # ids from a per-source counter: a source's draws and ids then depend
        # only on its *own* send history, never on how sends from different
        # processes interleave globally.
        self._source_rngs: dict[str, Any] = {}
        self._source_index: dict[str, int] = {}
        self._source_msg_counts: dict[str, int] = {}
        self.trace_messages = True
        # Bound once and reused: scheduling a delivery per message must not
        # re-create the bound method (and, when message tracing is off, not
        # render a per-message f-string event name either).
        self._deliver_bound = self._deliver
        # Per-link latency samplers and per-source loss draws, bound on first
        # use: resolving the latency model (a PerLinkLatency dict probe plus
        # a method dispatch) and re-binding the RNG primitive per *message*
        # was measurable.  The latency topology is fixed before traffic
        # starts (set_link after a link's first send is not supported), so a
        # bound sampler never goes stale; RNG draw order is unchanged because
        # each sampler consumes the same per-source stream the unbound
        # sample() call did.
        self._samplers: dict[tuple[str, str], Sampler] = {}
        self._loss_draws: dict[str, Callable[[], float]] = {}

    # ----------------------------------------------------------- registration

    def register(self, process: Process) -> Process:
        """Register ``process`` and attach this network as its transport."""
        if process.name in self.processes:
            raise ValueError(f"duplicate process name {process.name!r}")
        self.processes[process.name] = process
        # Registration order fixes the per-source id namespace; deployments
        # register the full process set in one deterministic order, so the
        # index is stable across runs.
        self._source_index[process.name] = len(self._source_index)
        process.attach_transport(self)
        return process

    def process(self, name: str) -> Process:
        """Look up a registered process by name."""
        return self.processes[name]

    def names(self) -> list[str]:
        """Names of all registered processes."""
        return list(self.processes)

    def hosts(self, name: str) -> bool:
        """Whether ``name`` executes in this OS process (always, in-memory)."""
        return True

    # -------------------------------------------------- per-source id/rng

    #: Per-source message-id stride: ``msg_id = index * STRIDE + n`` keeps ids
    #: globally unique while making each one a pure function of (source,
    #: per-source send count).
    MSG_ID_STRIDE = 1_000_000_000

    def _next_msg_id(self, source: str) -> int:
        count = self._source_msg_counts.get(source, 0) + 1
        self._source_msg_counts[source] = count
        index = self._source_index.get(source)
        if index is None:  # unregistered sender (tests): first-send order
            index = self._source_index[source] = len(self._source_index)
        return index * self.MSG_ID_STRIDE + count

    def _rng_for(self, source: str):
        rng = self._source_rngs.get(source)
        if rng is None:
            rng = self._source_rngs[source] = self.sim.rng(f"network.{source}")
        return rng

    # ------------------------------------------------------------ crash hooks

    def on_process_crash(self, name: str) -> None:
        """Transport hook fired when a process crashes (no-op in memory).

        The TCP transport maps this to dropping the crashed process's live
        connections, the real-network analogue of losing its volatile state.
        """

    def on_process_recover(self, name: str) -> None:
        """Transport hook fired when a crashed process recovers (no-op here)."""

    def close(self) -> None:
        """Release transport resources (sockets); no-op for the in-memory fabric."""

    # -------------------------------------------------------------- partitions

    def partition(self, *groups: Iterable[str]) -> None:
        """Split the network into the given groups; cross-group messages drop.

        Processes not named in any group form an implicit extra group.
        Overlapping groups and unknown process names are rejected up front:
        routing picks the first group containing the sender, so an overlap
        would silently give asymmetric connectivity.
        """
        from repro.failure.injection import validate_partition_groups

        named = [set(g) for g in validate_partition_groups(list(groups))]
        for name in set().union(*named):
            if name not in self.processes:
                raise ValueError(f"partition names unknown process {name!r}")
        rest = set(self.processes) - set().union(*named) if named else set()
        if rest:
            named.append(rest)
        self._partition_groups = named
        self.sim.trace.record("partition", "", groups=[sorted(g) for g in named])

    def heal_partition(self, *names: str) -> None:
        """Remove a partition; links to the healed processes work again.

        Called with no arguments (the historical form) every group is
        dropped and all links work.  Called with process names, only those
        processes are healed: they leave their groups and regain symmetric
        connectivity with everyone, while the remaining groups stay split.
        The surviving layout is re-validated through
        :func:`~repro.failure.injection.validate_partition_groups`, so a
        partial heal can never leave behind an overlapping or empty group
        that a later ``partition()`` call composed badly with.
        """
        if not names:
            self._partition_groups = []
            self.sim.trace.record("partition_heal", "")
            return
        from repro.failure.injection import validate_partition_groups

        for name in names:
            if name not in self.processes:
                raise ValueError(f"heal names unknown process {name!r}")
        healed = set(names)
        remaining = [group - healed for group in self._partition_groups]
        remaining = [group for group in remaining if group]
        if len(remaining) < 2:
            # One group cannot split anything: fully healed.
            self._partition_groups = []
        else:
            self._partition_groups = [
                set(g) for g in validate_partition_groups(
                    [sorted(group) for group in remaining])]
        self.sim.trace.record("partition_heal", "", names=sorted(healed))

    def _partitioned(self, source: str, destination: str) -> bool:
        if not self._partition_groups:
            return False
        # Blocked only when both endpoints sit in *different* groups: a
        # process in no group (e.g. after a partial heal) talks to everyone,
        # symmetrically.  ``partition()`` always files every process into a
        # group (the implicit rest group), so full partitions behave as
        # before.
        source_group = None
        for group in self._partition_groups:
            if source in group:
                source_group = group
                break
        if source_group is None:
            return False
        if destination in source_group:
            return False
        return any(destination in group for group in self._partition_groups)

    # ---------------------------------------------------------------- sending

    def send(self, source: str, destination: str, message: Message) -> None:
        """Accept a message for delivery (called via ``Process.send``)."""
        if destination not in self.processes:
            raise KeyError(f"unknown destination process {destination!r}")
        message.sender = source
        message.destination = destination
        message.send_time = self.sim.now
        # Re-stamp the identifier from the per-source counter: message ids
        # appear in the trace, and a process-global (or interleaving-
        # dependent) counter would make otherwise identical runs differ
        # depending on what ran earlier in the same interpreter.
        message.msg_id = self._next_msg_id(source)
        stats = self.stats
        stats.sent += 1
        by_type = stats.by_type_sent
        by_type[message.msg_type] = by_type.get(message.msg_type, 0) + 1
        trace = self.sim.trace
        # One bus probe gates everything message tracing would pay for:
        # building the sorted payload-key list, the event objects, and the
        # per-message f-string event names below.
        tracing = self.trace_messages and trace.wants("msg_send")
        if tracing:
            trace.record(
                "msg_send", source,
                msg_type=message.msg_type, destination=destination, msg_id=message.msg_id,
                payload_keys=sorted(message._payload),
            )
        if self._partitioned(source, destination):
            self.stats.dropped_partition += 1
            if self.trace_messages and trace.wants("msg_drop"):
                trace.record(
                    "msg_drop", source, reason="partition",
                    msg_type=message.msg_type, destination=destination, msg_id=message.msg_id,
                )
            return
        loss = self.loss_probability
        if loss > 0:
            draw = self._loss_draws.get(source)
            if draw is None:
                draw = self._loss_draws[source] = self._rng_for(source).random
            if draw() < loss:
                stats.dropped_loss += 1
                if self.trace_messages and trace.wants("msg_drop"):
                    trace.record(
                        "msg_drop", source, reason="loss",
                        msg_type=message.msg_type, destination=destination, msg_id=message.msg_id,
                    )
                return
        self._transmit(message, destination, tracing)

    def _transmit(self, message: Message, destination: str, tracing: bool):
        """Carry an accepted message to its destination.

        The base network samples a latency and schedules an in-memory
        delivery (returning the scheduled event);
        :class:`repro.runtime.tcp.TcpTransport` overrides this to write a
        wire frame to a real socket instead.  Everything above this seam
        (validation, stamping, stats, partition/loss drops, tracing) is
        shared between the backends.
        """
        source = message.sender
        link = (source, destination)
        sampler = self._samplers.get(link)
        if sampler is None:
            sampler = self._samplers[link] = self.latency.sampler(
                self._rng_for(source), source, destination)
        name = f"deliver:{message.msg_type}->{destination}" if tracing else "deliver"
        return self.sim.schedule_call(sampler(), self._deliver_bound, message,
                                      name=name)

    def _deliver(self, message: Message) -> None:
        destination_name = message.destination
        trace = self.sim.trace
        destination = self.processes.get(destination_name)
        if destination is None or not destination.up:
            self.stats.dropped_dest_down += 1
            if self.trace_messages and trace.wants("msg_drop"):
                trace.record(
                    "msg_drop", destination_name, reason="destination_down",
                    msg_type=message.msg_type, msg_id=message.msg_id, sender=message.sender,
                )
            return
        stats = self.stats
        stats.delivered += 1
        by_type = stats.by_type_delivered
        by_type[message.msg_type] = by_type.get(message.msg_type, 0) + 1
        if self.trace_messages and trace.wants("msg_deliver"):
            trace.record(
                "msg_deliver", destination_name,
                msg_type=message.msg_type, sender=message.sender, msg_id=message.msg_id,
            )
        destination.deliver(message)
