"""Span tracing from outside the program: wrap each layer's functions at run time.

:class:`SpanTracer` replaces the functions defined on the classes of the
modules in :data:`LAYER_OF_MODULE` with timing wrappers, and restores them on
:meth:`SpanTracer.uninstall`.  Nothing under ``src/`` changes.

* A call into a wrapped function records one span: name, start, end, parent
  and, when an argument is a :class:`~repro.net.message.Message`, the
  message's correlation (its ``j`` payload value).
* A wrapped generator function returns a proxy that records one span per
  step (``send``/``throw``), so protocol threads, and sub-generators they
  ``yield from``, are charged to the layer that defines them, not to the
  thread machinery that resumes them.
* Coroutine functions (the TCP transport's readers and pumps) are left alone;
  their steps run under the asyncio kernel's span.

A layer's self time is the time its spans cover minus the time their child
spans cover.  Time in code that is not wrapped (closures, module functions,
the interpreter) is charged to the nearest enclosing span; the benchmark's
own root span ``bench`` takes what no layer covers, so the self times of all
layers and ``bench`` add up to the root span's duration.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from array import array
from typing import Any, Callable

#: Module -> layer.  Modules not listed are not wrapped.
LAYER_OF_MODULE = {
    "repro.sim.scheduler": "kernel",
    "repro.sim.wheel": "kernel",
    "repro.runtime.base": "kernel",
    "repro.sim.process": "process",
    "repro.sim.waits": "process",
    "repro.net.network": "net",
    "repro.net.message": "net",
    "repro.net.reliable": "net",
    "repro.net.latency": "net",
    "repro.runtime.loop": "transport",
    "repro.runtime.tcp": "transport",
    "repro.runtime.endpoints": "transport",
    "repro.consensus.synod": "consensus",
    "repro.registers.base": "registers",
    "repro.registers.local": "registers",
    "repro.registers.consensus_backed": "registers",
    "repro.core.appserver": "appserver",
    "repro.core.client": "client",
    "repro.workload.generator": "client",
    "repro.core.dataserver": "storage",
    "repro.storage.kvstore": "storage",
    "repro.storage.locks": "storage",
    "repro.storage.stable": "storage",
    "repro.storage.wal": "storage",
    "repro.storage.xa": "storage",
    "repro.sim.tracing": "tracing",
    "repro.core.spec": "spec",
    "repro.failure.detectors": "detectors",
    "repro.core.reshard": "reshard",
    "repro.core.sharding": "reshard",
    "repro.core.deployment": "other",
    "repro.failure.injection": "other",
    "repro.api.drivers": "other",
    "repro.metrics.latency": "other",
    "repro.metrics.stream": "other",
    "repro.workload.bank": "other",
}

#: Functions charged to a layer other than their module's.
LAYER_OF_FUNCTION = {
    "repro.net.message:Message.to_wire": "codec",
    "repro.net.message:Message.from_wire": "codec",
}

#: Every layer a self share is reported for; ``bench`` is the root span.
LAYERS = ("kernel", "process", "net", "transport", "codec", "consensus", "registers",
          "appserver", "client", "storage", "tracing", "spec", "detectors", "reshard",
          "other", "bench")

ROOT = "bench:segment"
WIRE_ENCODER = "net.message:Message.to_wire"


class SpanTracer:
    """Records spans around calls into the program's layers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._layer_of_name: list[int] = []
        self.self_time = [0.0] * len(LAYERS)
        # One entry per span, appended when the span opens.
        self.sid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.corr = array("i")
        self.correlations: dict[Any, int] = {}
        # Open spans: their indices and the time their children covered.
        self._open = array("i")
        self._child: list[float] = []
        self._originals: list[tuple[type, str, Any]] = []
        #: Bytes of every wire frame ``Message.to_wire`` produced.
        self.wire_bytes = 0
        from repro.net.message import Message
        self._message_type = Message
        self._message_get = Message.get  # captured unwrapped, before install()

    # ----------------------------------------------------------- recording

    def name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._layer_of_name.append(LAYERS.index(layer))
        return nid

    def _correlation(self, args: tuple) -> int:
        message_type = self._message_type
        for arg in args[:3]:
            if type(arg) is message_type:
                key = self._message_get(arg, "j")
                if key is None:
                    return -1
                try:
                    return self.correlations.setdefault(key, len(self.correlations))
                except TypeError:  # an unhashable correlation
                    return -1
        return -1

    def enter(self, nid: int, args: tuple = ()) -> None:
        idx = len(self.sid)
        self.sid.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.corr.append(self._correlation(args) if args else -1)
        self._open.append(idx)
        self._child.append(0.0)
        self.end.append(0.0)
        self.start.append(time.perf_counter())

    def exit(self) -> None:
        now = time.perf_counter()
        idx = self._open.pop()
        self.end[idx] = now
        duration = now - self.start[idx]
        self.self_time[self._layer_of_name[self.sid[idx]]] += duration - self._child.pop()
        if self._child:
            self._child[-1] += duration

    def _wrap_function(self, fn: Callable, nid: int) -> Callable:
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(nid, args)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    def _count_wire_bytes(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def encode(*args, **kwargs):
            frame = fn(*args, **kwargs)
            self.wire_bytes += len(frame)
            return frame

        return encode

    def _wrap_generator_function(self, fn: Callable, nid: int, step_nid: int) -> Callable:
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(nid, args)
            try:
                return _Steps(fn(*args, **kwargs), self, step_nid)
            finally:
                leave()

        return traced

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every function defined on the classes of the traced modules."""
        for module_name, layer in LAYER_OF_MODULE.items():
            module = importlib.import_module(module_name)
            short = module_name.removeprefix("repro.")
            for cls in vars(module).values():
                if not inspect.isclass(cls) or cls.__module__ != module_name \
                        or issubclass(cls, BaseException):
                    continue
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("__"):
                        continue
                    kind = type(raw)
                    fn = raw.__func__ if kind in (staticmethod, classmethod) else raw
                    if not inspect.isfunction(fn) or inspect.iscoroutinefunction(fn):
                        continue
                    name = f"{short}:{cls.__name__}.{attr}"
                    fn_layer = LAYER_OF_FUNCTION.get(f"{module_name}:{cls.__name__}.{attr}",
                                                     layer)
                    nid = self.name_id(name, fn_layer)
                    if name == WIRE_ENCODER:
                        wrapped = self._wrap_function(self._count_wire_bytes(fn), nid)
                    elif inspect.isgeneratorfunction(fn):
                        wrapped = self._wrap_generator_function(
                            fn, nid, self.name_id(name + ":step", fn_layer))
                    else:
                        wrapped = self._wrap_function(fn, nid)
                    if kind in (staticmethod, classmethod):
                        wrapped = kind(wrapped)
                    self._originals.append((cls, attr, raw))
                    setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original function back."""
        for cls, attr, raw in reversed(self._originals):
            setattr(cls, attr, raw)
        self._originals.clear()

    # ------------------------------------------------------------ results

    def calls(self) -> dict[str, int]:
        """Number of spans per span name."""
        counts = [0] * len(self.names)
        for nid in self.sid:
            counts[nid] += 1
        return {name: counts[nid] for nid, name in enumerate(self.names) if counts[nid]}

    def self_shares(self, costs: tuple[float, float]) -> dict[str, float]:
        """Each layer's self time as a share of the traced segment.

        A wrapper's bookkeeping falls outside its own span, in its caller's
        self time.  ``costs`` (see :func:`span_costs`) are what one wrapped
        call and one generator step add; they are subtracted from a layer
        once per child span its spans opened, and the shares are taken over
        the total that remains, so they add up to 1.
        """
        call_cost, step_cost = costs
        is_step = [name.endswith(":step") for name in self.names]
        cost = [0.0] * len(LAYERS)
        layer_of, sid, parent = self._layer_of_name, self.sid, self.parent
        for idx in range(1, len(sid)):
            cost[layer_of[sid[parent[idx]]]] += step_cost if is_step[sid[idx]] else call_cost
        own = [max(self.self_time[i] - cost[i], 0.0) for i in range(len(LAYERS))]
        total = sum(own)
        return {layer: own[i] / total for i, layer in enumerate(LAYERS)}

    def write(self, stem: str) -> None:
        """Write every span: ``<stem>.json`` describes, ``<stem>.bin`` holds the columns.

        The binary file is the columns one after another, each an array of
        ``count`` native-endian values: ``name`` (int32, an index into
        ``names``), ``parent`` (int32 span index, -1 for the root), ``start``
        and ``end`` (float64 seconds of ``time.perf_counter``) and
        ``correlation`` (int32, -1 when no argument was a message).
        """
        columns = (("name", self.sid), ("parent", self.parent), ("start", self.start),
                   ("end", self.end), ("correlation", self.corr))
        header = {
            "count": len(self.sid),
            "columns": [{"name": name, "typecode": column.typecode,
                         "itemsize": column.itemsize} for name, column in columns],
            "byteorder": sys.byteorder,
            "names": self.names,
            "layers": [LAYERS[i] for i in self._layer_of_name],
        }
        with open(stem + ".json", "w", encoding="utf-8") as out:
            json.dump(header, out)
        with open(stem + ".bin", "wb") as out:
            for _, column in columns:
                column.tofile(out)


def span_costs(calls: int = 20_000, rounds: int = 5) -> tuple[float, float]:
    """Seconds one wrapped call, and one traced generator step, add to the
    caller's self time (medians over ``rounds``).

    Measured as a parent span's self time over ``calls`` wrapped no-op calls
    (or steps of a wrapped generator), less the same loop unwrapped.
    """
    def noop() -> None:
        return None

    def forever():
        while True:
            yield None

    def parent_self(run: Callable[[Callable], None], wrap: Callable) -> float:
        tracer = SpanTracer()
        target = wrap(tracer)
        tracer.enter(tracer.name_id(ROOT, "bench"))
        run(target)
        tracer.exit()
        return tracer.self_time[LAYERS.index("bench")] \
            - sum(tracer.end[i] - tracer.start[i] for i in range(1, len(tracer.sid)))

    def bare(run: Callable[[Callable], None], target: Callable) -> float:
        start = time.perf_counter()
        run(target)
        return time.perf_counter() - start

    def call_loop(fn: Callable) -> None:
        for _ in range(calls):
            fn()

    def step_loop(gen: Any) -> None:
        send = gen.send
        for _ in range(calls):
            send(None)

    def primed_steps(tracer: SpanTracer) -> Any:
        steps = _Steps(forever(), tracer, tracer.name_id("noop:step", "bench"))
        steps._gen.send(None)
        return steps

    def primed() -> Any:
        gen = forever()
        gen.send(None)
        return gen

    call = [(parent_self(call_loop, lambda t: t._wrap_function(noop, t.name_id("noop", "bench")))
             - bare(call_loop, noop)) / calls for _ in range(rounds)]
    step = [(parent_self(step_loop, primed_steps) - bare(step_loop, primed())) / calls
            for _ in range(rounds)]
    return statistics.median(call), statistics.median(step)


class _Steps:
    """A generator proxy that records one span per step of the generator."""

    __slots__ = ("_gen", "_tracer", "_nid")

    def __init__(self, gen: Any, tracer: SpanTracer, nid: int):
        self._gen = gen
        self._tracer = tracer
        self._nid = nid

    def __iter__(self) -> "_Steps":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        tracer = self._tracer
        tracer.enter(self._nid, (value,) if value is not None else ())
        try:
            return self._gen.send(value)
        finally:
            tracer.exit()

    def throw(self, *exc: Any) -> Any:
        tracer = self._tracer
        tracer.enter(self._nid)
        try:
            return self._gen.throw(*exc)
        finally:
            tracer.exit()

    def close(self) -> None:
        self._gen.close()

