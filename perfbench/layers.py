"""Per-layer metrics of one traced segment.

Counts come from three places: the traced segment's own counters
(:class:`run.Segment` ``counts``), the number of spans per function name, and
a few trace categories the traced run subscribes to through the public
``TraceRecorder.subscribe``.  Every count is per delivered request unless its
name says otherwise.  Shares are self times with the wrappers' own cost taken
out (:meth:`spans.SpanTracer.self_shares`).
"""

from __future__ import annotations

from typing import Any

from spans import LAYERS, SpanTracer

#: Trace categories the traced run counts (and, for ``reshard``, times).
SUBSCRIBED = ("consensus_propose", "consensus_decide", "fd_suspect", "epoch_retry",
              "epoch_defer", "reshard")

#: Per-layer metric -> unit, in the order the runner prints them.
PER_LAYER_UNITS = {
    "kernel.events_per_req": "count",
    "kernel.events_per_s": "1/s",
    "kernel.schedules_per_req": "count",
    "kernel.cancels_per_req": "count",
    "process.resumes_per_req": "count",
    "process.delivers_per_req": "count",
    "process.mailbox_peak": "count",
    "net.msgs_per_req": "count",
    "net.dropped_per_req": "count",
    "net.msg_copies_per_req": "count",
    "runtime.wire_bytes_per_req": "bytes",
    "consensus.proposals_per_req": "count",
    "consensus.decided_per_proposal": "fraction",
    "consensus.msgs_per_decision": "count",
    "registers.writes_per_req": "count",
    "registers.reads_per_req": "count",
    "appserver.compute_resumes_per_req": "count",
    "appserver.clean_resumes_per_req": "count",
    "appserver.shed_frac": "fraction",
    "client.attempts_per_req": "count",
    "storage.wal_appends_per_commit": "count",
    "storage.forced_writes_per_commit": "count",
    "storage.lock_conflicts_per_req": "count",
    "storage.abort_frac": "fraction",
    "tracing.records_per_req": "count",
    "tracing.stored_per_req": "count",
    "spec.inflight_peak": "count",
    "detectors.heartbeats_per_req": "count",
    "detectors.suspicions": "count",
    "reshard.window_ms": "virtual_ms",
    "reshard.epoch_retries": "count",
    "reshard.deferred": "count",
    "bench.tracing_overhead": "ratio",
}

#: The self-share metric of each layer; transport and codec report under ``runtime.``.
SHARE_METRIC = {layer: f"{layer}.self_share" for layer in LAYERS}
SHARE_METRIC["transport"] = "runtime.transport_self_share"
SHARE_METRIC["codec"] = "runtime.codec_self_share"
PER_LAYER_UNITS.update({name: "fraction" for name in SHARE_METRIC.values()})

_SCHEDULING = {f"{module}:{cls}.{method}"
               for module, cls in (("sim.scheduler", "Simulator"),
                                   ("runtime.loop", "AsyncioKernel"),
                                   ("runtime.base", "Kernel"))
               for method in ("schedule", "schedule_at", "schedule_call",
                              "call_soon", "call_soon_call")}
_CANCELS = {"sim.scheduler:ScheduledEvent.cancel", "runtime.loop:WallEvent.cancel"}
_REGISTER_CLASSES = ("registers.consensus_backed:ConsensusRegisterArray",
                     "registers.local:LocalRegisterArray")
_ADVANCE = "sim.process:Thread._advance"


def outer_calls(tracer: SpanTracer, names: set[str]) -> int:
    """Spans named in ``names`` whose parent is not one of them (nested calls
    of one operation, e.g. ``schedule_at`` -> ``schedule``, count once)."""
    wanted = {nid for nid, name in enumerate(tracer.names) if name in names}
    if not wanted:
        return 0
    sid, parent = tracer.sid, tracer.parent
    count = 0
    for idx in range(len(sid)):
        if sid[idx] in wanted:
            up = parent[idx]
            if up < 0 or sid[up] not in wanted:
                count += 1
    return count


def thread_steps(tracer: SpanTracer, layer: str) -> dict[str, int]:
    """Top-level coroutine steps (one per thread resume) of ``layer``'s threads,
    keyed by the generator function's span name."""
    steps = {nid: name for nid, name in enumerate(tracer.names)
             if name.endswith(":step") and name.startswith(layer)}
    advance = tracer.names.index(_ADVANCE) if _ADVANCE in tracer.names else -1
    counts = dict.fromkeys(steps.values(), 0)
    sid, parent = tracer.sid, tracer.parent
    for idx in range(len(sid)):
        nid = sid[idx]
        if nid in steps and parent[idx] >= 0 and sid[parent[idx]] == advance:
            counts[steps[nid]] += 1
    return counts


def per_layer_metrics(segment: Any, tracer: SpanTracer, events: dict[str, list],
                      events_per_s: float, overhead: float,
                      span_costs: tuple[float, float]) -> dict[str, float]:
    """Every per-layer metric of one traced segment."""
    counts = segment.counts
    calls = tracer.calls()
    req = max(segment.delivered, 1)

    def per_req(value: float) -> float:
        return value / req

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def called(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    proposals = len(events["consensus_propose"])
    # Every replica records the decision of an instance it learns; count instances.
    decisions = len({str(e.get("instance")) for e in events["consensus_decide"]})
    commits, aborts = counts["commits"], counts["aborts"]
    appserver_steps = thread_steps(tracer, "core.appserver")
    clean = sum(n for name, n in appserver_steps.items() if "_cleaning_thread" in name)
    reshard_begin = [e.time for e in events["reshard"] if e.get("stage") == "begin"]
    reshard_commit = [e.time for e in events["reshard"] if e.get("stage") == "commit"]
    window = sum(end - begin for begin, end in zip(reshard_begin, reshard_commit))
    records = called("sim.tracing:TraceRecorder.record")

    metrics = {
        "kernel.events_per_req": per_req(counts["events"]),
        "kernel.events_per_s": events_per_s,
        "kernel.schedules_per_req": per_req(outer_calls(tracer, _SCHEDULING)),
        "kernel.cancels_per_req": per_req(outer_calls(tracer, _CANCELS)),
        "process.resumes_per_req": per_req(called("sim.process:Thread.resume")),
        "process.delivers_per_req": per_req(called("sim.process:Process.deliver")),
        "process.mailbox_peak": counts["mailbox_peak"],
        "net.msgs_per_req": per_req(counts["messages"]),
        "net.dropped_per_req": per_req(counts["dropped"]),
        "net.msg_copies_per_req": per_req(called("net.message:Message.copy")),
        "runtime.wire_bytes_per_req": per_req(tracer.wire_bytes),
        "consensus.proposals_per_req": per_req(proposals),
        "consensus.decided_per_proposal": ratio(decisions, proposals),
        "consensus.msgs_per_decision": ratio(counts["by_type"].get("Consensus", 0), decisions),
        "registers.writes_per_req": per_req(called(*(f"{c}.write" for c in _REGISTER_CLASSES))),
        "registers.reads_per_req": per_req(called(*(f"{c}.read" for c in _REGISTER_CLASSES))),
        "appserver.compute_resumes_per_req": per_req(sum(appserver_steps.values()) - clean),
        "appserver.clean_resumes_per_req": per_req(clean),
        "appserver.shed_frac": ratio(counts["shed"], counts["messages"]),
        "client.attempts_per_req": counts["mean_attempts"],
        "storage.wal_appends_per_commit": ratio(
            outer_calls(tracer, {name for name in calls
                                 if name.startswith("storage.wal:WriteAheadLog.append_")}),
            commits),
        "storage.forced_writes_per_commit": ratio(counts["forced_writes"], commits),
        "storage.lock_conflicts_per_req": per_req(counts["lock_conflicts"]),
        "storage.abort_frac": ratio(aborts, commits + aborts),
        "tracing.records_per_req": per_req(records),
        "tracing.stored_per_req": per_req(records if counts["retention"] != "off" else 0),
        "spec.inflight_peak": counts["inflight_peak"],
        "detectors.heartbeats_per_req": per_req(counts["by_type"].get("Heartbeat", 0)),
        "detectors.suspicions": len(events["fd_suspect"]),
        "reshard.window_ms": window,
        "reshard.epoch_retries": len(events["epoch_retry"]),
        "reshard.deferred": len(events["epoch_defer"]),
        "bench.tracing_overhead": overhead,
    }
    for layer, share in tracer.self_shares(span_costs).items():
        metrics[SHARE_METRIC[layer]] = share
    return metrics
