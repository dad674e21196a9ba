"""Process and thread model.

A :class:`Process` models one node of the three-tier system (a client, an
application server or a database server).  Processes

* host any number of generator-coroutine *threads* (the paper's ``cobegin``
  branches, e.g. the application server's computation and cleaning threads),
* exchange messages through a transport installed by ``repro.net``,
* crash (losing all volatile state: mailbox, threads, local variables) and
  recover (restarting their entry point with ``recovery=True``), exactly as in
  the paper's crash/recovery model -- stable storage is modelled separately in
  ``repro.storage`` and survives crashes.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from repro.runtime.base import Kernel
from repro.sim.errors import ProcessNotRunning, ThreadError
from repro.sim.waits import TIMEOUT, Receive, SimFuture, Sleep, Wait, WaitFuture

ProtocolGenerator = Generator[Wait, Any, Any]

_UNKEYED = object()
"""Mailbox correlation bucket for messages without a usable ``j`` payload."""


class Thread:
    """A single coroutine of protocol logic hosted on a process.

    The coroutine yields :class:`~repro.sim.waits.Wait` objects and is resumed
    with the wait's result (a message, :data:`TIMEOUT`, a future value, or
    ``None`` after a sleep).
    """

    __slots__ = ("id", "process", "generator", "name", "alive", "finished",
                 "_pending_timer", "_pending_receive", "_pending_future",
                 "_pending_future_callback", "_wait_token", "_armed_token",
                 "_armed_result", "_fire_cb", "_future_cb", "_timer_name",
                 "_mailbox_name", "_future_name")

    def __init__(self, process: "Process", generator: ProtocolGenerator, name: str):
        # Thread ids are scoped to the hosting process: waiter ordering only
        # ever compares threads of one process, and a process-local counter
        # makes a thread's id depend only on its own process's history, never
        # on what other processes did first.
        self.id = process._next_thread_id()
        self.process = process
        self.generator = generator
        self.name = name
        self.alive = True
        self.finished = False
        # A cancellable timer handle from the kernel (a ScheduledEvent under
        # the simulator, a WallEvent under the asyncio backend).
        self._pending_timer: Optional[Any] = None
        self._pending_receive: Optional[Receive] = None
        self._pending_future: Optional[SimFuture] = None
        self._pending_future_callback: Optional[Callable[[Any], None]] = None
        self._wait_token = 0
        # Timer/mailbox wake-ups reuse one prebound callback plus these two
        # slots instead of allocating a capturing closure per wait: a thread
        # has at most one armed wake-up at a time, and the token check makes
        # a stale callback (cancel raced the fire) a no-op.
        self._armed_token = -1
        self._armed_result: Any = None
        self._fire_cb = self._fire
        self._future_cb = self._on_future
        # Event names are only read by humans debugging a run; building them
        # per wait with f-strings was measurable on the hot path, so they are
        # rendered once per (process, thread-name) pair and shared by every
        # short-lived thread reusing the same name.  Per-request names
        # ("as-handle:c1:37") would grow the cache by one entry per
        # transaction for the rest of the run, so it is cleared when it
        # outgrows the stable name set.
        cache = process._thread_names
        names = cache.get(name)
        if names is None:
            base = f"{process.name}/{name}"
            names = (base + ":timer", base + ":mailbox", base + ":future")
            if len(cache) >= 64:
                cache.clear()
            cache[name] = names
        self._timer_name, self._mailbox_name, self._future_name = names

    # ----------------------------------------------------------------- state

    @property
    def waiting_on_receive(self) -> Optional[Receive]:
        """The receive wait this thread is currently blocked on, if any."""
        return self._pending_receive

    def kill(self) -> None:
        """Terminate the thread, cancelling any pending timer or wait."""
        if not self.alive:
            return
        self.alive = False
        self._cancel_pending()
        self.generator.close()

    def _cancel_pending(self) -> None:
        self._wait_token += 1
        self._armed_result = None
        if self._pending_timer is not None:
            self._pending_timer.cancel()
            self._pending_timer = None
        if self._pending_receive is not None:
            self.process._unregister_waiter(self, self._pending_receive)
            self._pending_receive = None
        if self._pending_future is not None and self._pending_future_callback is not None:
            self._pending_future.discard_callback(self._pending_future_callback)
        self._pending_future = None
        self._pending_future_callback = None

    # ------------------------------------------------------------- stepping

    def start(self) -> None:
        """Begin executing the coroutine (runs until its first wait)."""
        self._advance(None)

    def resume(self, value: Any) -> None:
        """Resume the coroutine with ``value`` as the result of its last wait."""
        self._cancel_pending()
        self._advance(value)

    def _advance(self, value: Any) -> None:
        if not self.alive or self.finished:
            return
        try:
            wait = self.generator.send(value)
        except StopIteration:
            self.finished = True
            self.alive = False
            self.process._note_thread_finished()
            return
        except Exception as exc:  # surface protocol bugs loudly
            self.finished = True
            self.alive = False
            self.process._note_thread_finished()
            self.process.trace.record(
                "thread_error", self.process.name, thread=self.name, error=repr(exc)
            )
            raise ThreadError(f"thread {self.name!r} on {self.process.name!r} failed") from exc
        self._handle_wait(wait)

    def _handle_wait(self, wait: Wait) -> None:
        # Exact-type dispatch: the three wait classes are final in practice,
        # and ``type is`` is measurably cheaper than an isinstance chain on
        # the per-event hot path.  Subclasses still land in the fallback.
        cls = wait.__class__
        if cls is Receive:
            self._handle_receive(wait)
        elif cls is Sleep:
            self._arm_timer(wait.delay, result=None)
        elif cls is WaitFuture:
            self._handle_future(wait)
        elif isinstance(wait, Sleep):
            self._arm_timer(wait.delay, result=None)
        elif isinstance(wait, Receive):
            self._handle_receive(wait)
        elif isinstance(wait, WaitFuture):
            self._handle_future(wait)
        else:
            raise ThreadError(
                f"thread {self.name!r} yielded unsupported wait object {wait!r}"
            )

    def _fire(self, _arg: Any = None) -> None:
        """Prebound timer/mailbox wake-up: resume with the armed result.

        Dropping the handle *first* is what lets the wake-up events come
        from the kernel's recycled pool (``schedule_call``): once an event
        has fired, no stale ``_pending_timer`` reference survives for
        ``_cancel_pending`` to cancel, so a cancel can never land on a
        recycled, live event.  The ``_arg`` parameter only absorbs the
        argument-carrying kernels pass; it is unused.
        """
        self._pending_timer = None
        if self.alive and self._armed_token == self._wait_token:
            self.resume(self._armed_result)

    def _on_future(self, value: Any) -> None:
        """Prebound future-resolution wake-up."""
        if self.alive and self._armed_token == self._wait_token:
            self.resume(value)

    def _arm_timer(self, delay: float, result: Any) -> None:
        self._armed_token = self._wait_token
        self._armed_result = result
        # Pooled event: safe because _fire clears _pending_timer before it
        # can ever be cancelled (see _fire), so the handle is never retained
        # past dispatch.
        self._pending_timer = self.process.sim.schedule_call(
            delay, self._fire_cb, None, name=self._timer_name
        )

    def _handle_receive(self, wait: Receive) -> None:
        message = self.process._take_from_mailbox(wait)
        if message is not None:
            # Resume via the scheduler to keep same-time ordering deterministic
            # and to avoid unbounded recursion through long message chains.
            self._armed_token = self._wait_token
            self._armed_result = message
            self._pending_timer = self.process.sim.call_soon_call(
                self._fire_cb, None, name=self._mailbox_name
            )
            return
        self._pending_receive = wait
        self.process._register_waiter(self, wait)
        if wait.timeout is not None:
            self._arm_timer(wait.timeout, result=TIMEOUT)

    def _handle_future(self, wait: WaitFuture) -> None:
        if wait.future.resolved:
            self._armed_token = self._wait_token
            self._armed_result = wait.future.value
            self._pending_timer = self.process.sim.call_soon_call(
                self._fire_cb, None, name=self._future_name
            )
            return
        self._armed_token = self._wait_token
        self._pending_future = wait.future
        self._pending_future_callback = self._future_cb
        wait.future.on_resolve(self._future_cb)
        if wait.timeout is not None:
            self._arm_timer(wait.timeout, result=TIMEOUT)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else ("finished" if self.finished else "dead")
        return f"<Thread {self.process.name}/{self.name} ({state})>"


class Process:
    """A simulated node that can crash and recover.

    Subclasses override :meth:`on_start` to spawn their protocol threads, and
    may override :meth:`on_crash` to drop additional volatile state.
    """

    def __init__(self, sim: Kernel, name: str):
        self.sim = sim
        self.name = name
        self.up = True
        self.crash_count = 0
        # The mailbox is bucketed by message type and then by the ``j``
        # correlation id: a receive whose matcher carries the hints (see
        # ``repro.net.message``) only scans the buckets it could match, so
        # messages nobody will ever consume (stale retransmitted votes and
        # acknowledgements of already-terminated transactions) stop taxing
        # every later receive.  Sequence numbers preserve the global arrival
        # order; buckets emptied by a take are deleted so wildcard scans stay
        # proportional to the *live* backlog.
        self._mailbox: dict[Any, dict[Any, deque[tuple[int, Any]]]] = {}
        self._mailbox_seq = 0
        self._mailbox_count = 0
        # Admission control: with a non-zero limit, a message that would grow
        # the buffered backlog past it is shed (with an ``overload`` trace
        # event) instead of buffered.  Shedding is safe under the paper's
        # fair-lossy channel model -- senders cannot distinguish a shed from a
        # network loss -- and keeps a saturated process's memory bounded.
        self.mailbox_limit = 0
        self.shed_messages = 0
        self.mailbox_peak = 0
        self._threads: list[Thread] = []
        # Threads blocked on a receive, indexed by what their matcher could
        # accept: by (message type, correlation id) when the matcher pins a
        # ``j`` value, by message type when it accepts any ``j``, and as
        # wildcards when it carries no hint.  Delivery consults only the
        # matching buckets instead of scanning every hosted thread.
        self._kv_waiters: dict[tuple, dict[int, Thread]] = {}
        self._typed_waiters: dict[str, dict[int, Thread]] = {}
        self._wildcard_waiters: dict[int, Thread] = {}
        self._thread_names: dict[str, tuple[str, str, str]] = {}
        self._finished_threads = 0
        self._thread_ids = 0
        self._transport: Optional[Any] = None  # installed by repro.net.Network
        self._started = False

    def _next_thread_id(self) -> int:
        self._thread_ids += 1
        return self._thread_ids

    # ------------------------------------------------------------ properties

    @property
    def trace(self):
        """The shared trace recorder."""
        return self.sim.trace

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.sim.now

    @property
    def threads(self) -> list[Thread]:
        """Threads spawned since the last crash (finished ones may have been
        pruned by the message-delivery fast path)."""
        return list(self._threads)

    @property
    def mailbox_size(self) -> int:
        """Number of buffered, not-yet-consumed messages."""
        return self._mailbox_count

    def rng(self, stream: Optional[str] = None):
        """Deterministic random stream scoped to this process."""
        return self.sim.rng(stream if stream is not None else self.name)

    # --------------------------------------------------------------- startup

    def start(self) -> None:
        """Start the process for the first time (calls :meth:`on_start`)."""
        self._started = True
        self.on_start(recovery=False)

    def on_start(self, recovery: bool) -> None:
        """Spawn protocol threads.  Subclasses override."""

    def on_crash(self) -> None:
        """Hook for subclasses to drop extra volatile state on crash."""

    # ------------------------------------------------------------ coroutines

    def spawn(self, generator: ProtocolGenerator, name: str = "thread") -> Thread:
        """Spawn a coroutine thread on this process and start it immediately."""
        if not self.up:
            raise ProcessNotRunning(f"cannot spawn thread on crashed process {self.name!r}")
        thread = Thread(self, generator, name)
        self._threads.append(thread)
        thread.start()
        return thread

    # Wait-constructor helpers so protocol code reads naturally -------------

    def sleep(self, delay: float) -> Sleep:
        """``yield self.sleep(d)`` suspends the calling thread for ``d``."""
        return Sleep(delay)

    def receive(self, matcher: Optional[Callable[[Any], bool]] = None,
                timeout: Optional[float] = None) -> Receive:
        """``yield self.receive(...)`` waits for a matching message."""
        return Receive(matcher, timeout)

    def wait_for(self, future: SimFuture, timeout: Optional[float] = None) -> WaitFuture:
        """``yield self.wait_for(f)`` waits for ``f`` to resolve."""
        return WaitFuture(future, timeout)

    # ------------------------------------------------------------- messaging

    def attach_transport(self, transport: Any) -> None:
        """Install the network transport (called by ``repro.net.Network``)."""
        self._transport = transport

    def send(self, destination: str, message: Any) -> None:
        """Send ``message`` to the process named ``destination``.

        Sends from a crashed process are silently dropped, matching the model
        in which a down process performs no actions.
        """
        if not self.up:
            return
        if self._transport is None:
            raise ProcessNotRunning(f"process {self.name!r} has no transport attached")
        self._transport.send(self.name, destination, message)

    def multicast(self, destinations: Iterable[str], message: Any) -> None:
        """Send a copy of ``message`` to every process in ``destinations``.

        There is no atomicity guarantee (matching the paper's model); each copy
        is an independent message with its own identifier.
        """
        copier = getattr(message, "copy", None)
        if copier is None or not callable(copier):
            for destination in destinations:
                self.send(destination, message)
            return
        send = self.send
        for destination in destinations:
            send(destination, copier())

    def _waiter_buckets(self, wait: Receive):
        """The index-bucket slots a blocked receive belongs to.

        Yields ``(bucket, None)`` for the long-lived type/wildcard buckets
        (message types form a small closed set, so those dicts live forever)
        and ``(self._kv_waiters, key)`` for correlation buckets -- those keys
        are transaction scoped, so the bucket itself is created at register
        time and pruned once it empties, instead of accumulating one dead
        dict per transaction for the rest of the run.
        """
        matcher = wait.matcher
        if matcher is None:
            yield self._wildcard_waiters, None
            return
        correlation = getattr(matcher, "msg_corr", None)
        types = getattr(matcher, "msg_types", None)
        if correlation is not None:
            # Types accepted by the matcher but absent from the correlation
            # hint (msg_types-only annotations) index as any-correlation.
            for msg_type in (types if types is not None else correlation):
                values = correlation.get(msg_type)
                if isinstance(values, frozenset):
                    for value in values:
                        yield self._kv_waiters, (msg_type, value)
                else:  # ANY_CORRELATION or no entry for this type
                    yield self._typed_waiters.setdefault(msg_type, {}), None
            return
        if types is None:
            yield self._wildcard_waiters, None
            return
        for msg_type in types:
            yield self._typed_waiters.setdefault(msg_type, {}), None

    def _register_waiter(self, thread: Thread, wait: Receive) -> None:
        """Index a thread that just blocked on a receive.

        The bucket list is resolved once per wait object and cached on it:
        matcher hints are immutable, and register/unregister always come in
        pairs, so computing the buckets twice was pure overhead.
        """
        buckets = wait._buckets
        if buckets is None:
            buckets = wait._buckets = list(self._waiter_buckets(wait))
        thread_id = thread.id
        for container, key in buckets:
            if key is not None:
                bucket = container.get(key)
                if bucket is None:
                    bucket = container[key] = {}
                bucket[thread_id] = thread
            else:
                container[thread_id] = thread

    def _unregister_waiter(self, thread: Thread, wait: Receive) -> None:
        """Drop a thread from the waiter index (wait satisfied or cancelled)."""
        buckets = wait._buckets
        if buckets is None:  # pragma: no cover - unregister without register
            buckets = wait._buckets = list(self._waiter_buckets(wait))
        thread_id = thread.id
        for container, key in buckets:
            if key is not None:
                bucket = container.get(key)
                if bucket is not None:
                    bucket.pop(thread_id, None)
                    if not bucket:
                        del container[key]
            else:
                container.pop(thread_id, None)

    def _note_thread_finished(self) -> None:
        """Called by a thread whose coroutine ran to completion."""
        self._finished_threads += 1

    def deliver(self, message: Any) -> None:
        """Deliver a message to this process (called by the network).

        Messages arriving at a crashed process are dropped; otherwise the
        message either resumes a thread blocked on a matching receive or is
        buffered in the mailbox.  Only waiters indexed under the message's
        type (plus wildcard waiters) are consulted; ties between threads are
        broken by spawn order, matching the historical full scan.
        """
        if not self.up:
            return
        msg_type = getattr(message, "msg_type", None)
        # Read the payload dict without touching ``Message.payload``: the
        # property would materialize a private copy of a COW-shared dict,
        # defeating the whole point of copy-on-write multicast.
        payload = getattr(message, "_payload", None)
        if payload is None:
            payload = getattr(message, "payload", None)
            if not isinstance(payload, dict):
                payload = None
        keyed = None
        if payload is not None and self._kv_waiters:
            try:
                keyed = self._kv_waiters.get((msg_type, payload.get("j")))
            except TypeError:  # unhashable correlation value
                keyed = None
        typed = self._typed_waiters.get(msg_type)
        wild = self._wildcard_waiters
        # Usually exactly one index bucket is populated, and it holds exactly
        # one waiter: iterate the dict view directly (no tuples built).
        # Merging and sorting a candidate list is only needed when several
        # buckets -- or several waiters in one bucket -- compete.  Thread ids
        # are unique per process, so tuple sort == sort by id.
        if keyed:
            if typed or wild:
                pairs = list(keyed.items())
                if typed:
                    pairs.extend(typed.items())
                if wild:
                    pairs.extend(wild.items())
                pairs.sort()
                candidates = [thread for _, thread in pairs]
            elif len(keyed) > 1:
                candidates = [thread for _, thread in sorted(keyed.items())]
            else:
                candidates = keyed.values()
        elif typed:
            if wild:
                pairs = list(typed.items())
                pairs.extend(wild.items())
                pairs.sort()
                candidates = [thread for _, thread in pairs]
            elif len(typed) > 1:
                candidates = [thread for _, thread in sorted(typed.items())]
            else:
                candidates = typed.values()
        elif wild:
            if len(wild) > 1:
                candidates = [thread for _, thread in sorted(wild.items())]
            else:
                candidates = wild.values()
        else:
            candidates = ()
        for thread in candidates:
            wait = thread._pending_receive
            if wait is not None and wait.matches(message):
                thread.resume(message)
                return
        # Long-lived processes spawn short-lived threads (one per request);
        # prune the dead ones now and then so the thread list stays
        # proportional to the number of *live* threads, not to the run's
        # total history.
        if self._finished_threads > 8 and \
                self._finished_threads > len(self._threads) // 2:
            self._threads = [t for t in self._threads if t.alive or not t.finished]
            self._finished_threads = 0
        limit = self.mailbox_limit
        if limit and self._mailbox_count >= limit:
            self.shed_messages += 1
            trace = self.sim.trace
            if trace.wants("overload"):
                trace.record("overload", self.name, msg_type=msg_type,
                             backlog=self._mailbox_count)
            return
        self._mailbox_seq += 1
        correlation = payload.get("j") if payload is not None else _UNKEYED
        by_corr = self._mailbox.setdefault(msg_type, {})
        try:
            bucket = by_corr.get(correlation)
        except TypeError:  # unhashable correlation value
            correlation = _UNKEYED
            bucket = by_corr.get(correlation)
        if bucket is None:
            bucket = by_corr[correlation] = deque()
        bucket.append((self._mailbox_seq, message))
        self._mailbox_count += 1
        if self._mailbox_count > self.mailbox_peak:
            self.mailbox_peak = self._mailbox_count

    def _mailbox_buckets(self, wait: Receive) -> list[tuple[dict, Any, deque]]:
        """The non-empty mailbox buckets ``wait`` could take a message from.

        Each entry is ``(parent_dict, correlation_key, bucket)`` so an
        emptied bucket can be deleted after a take.
        """
        matcher = wait.matcher
        candidates: list[tuple[dict, Any, deque]] = []

        def all_of(by_corr: dict) -> None:
            candidates.extend((by_corr, corr, bucket)
                              for corr, bucket in by_corr.items() if bucket)

        if matcher is None:
            for by_corr in self._mailbox.values():
                all_of(by_corr)
            return candidates
        correlation = getattr(matcher, "msg_corr", None)
        types = getattr(matcher, "msg_types", None)
        if correlation is not None:
            # Types accepted by the matcher but absent from the correlation
            # hint (msg_types-only annotations) scan as any-correlation.
            for msg_type in (types if types is not None else correlation):
                by_corr = self._mailbox.get(msg_type)
                if not by_corr:
                    continue
                values = correlation.get(msg_type)
                if isinstance(values, frozenset):
                    for value in values:
                        bucket = by_corr.get(value)
                        if bucket:
                            candidates.append((by_corr, value, bucket))
                else:  # ANY_CORRELATION or no entry for this type
                    all_of(by_corr)
            return candidates
        if types is None:
            for by_corr in self._mailbox.values():
                all_of(by_corr)
            return candidates
        for msg_type in types:
            by_corr = self._mailbox.get(msg_type)
            if by_corr:
                all_of(by_corr)
        return candidates

    def discard_buffered(self, correlation: Any) -> int:
        """Drop every buffered message whose ``j`` payload equals ``correlation``.

        Protocol code calls this when a transaction terminates: retransmitted
        replies (votes, acknowledgements, execute results) keyed by a result
        that is already terminated can never be consumed again, and dropping
        a buffered message is indistinguishable from network loss in the
        paper's fair-lossy channel model.  Keeps long runs' mailbox memory
        proportional to the in-flight work instead of the run's history.
        """
        dropped = 0
        for by_corr in self._mailbox.values():
            bucket = by_corr.pop(correlation, None)
            if bucket:
                dropped += len(bucket)
        self._mailbox_count -= dropped
        return dropped

    def _take_from_mailbox(self, wait: Receive) -> Optional[Any]:
        """Remove and return the first buffered message matching ``wait``.

        "First" means global arrival order (the sequence number), exactly as
        with the historical single-queue mailbox -- only the scan is now
        restricted to the buckets the matcher could accept.
        """
        if not self._mailbox_count:
            return None
        buckets = self._mailbox_buckets(wait)
        if not buckets:
            return None
        if len(buckets) == 1:
            by_corr, corr, bucket = buckets[0]
            # Fast path: a receive usually consumes the oldest buffered
            # message (FIFO traffic), and popleft is O(1) where
            # ``del deque[index]`` is O(n).
            if wait.matches(bucket[0][1]):
                message = bucket.popleft()[1]
            else:
                message = None
                for index in range(1, len(bucket)):
                    candidate = bucket[index][1]
                    if wait.matches(candidate):
                        del bucket[index]
                        message = candidate
                        break
                if message is None:
                    return None
            if not bucket:
                del by_corr[corr]
            self._mailbox_count -= 1
            return message
        # Several candidate buckets: pick the matching message with the
        # smallest sequence number.  Buckets are sequence-ascending, so each
        # scan stops at the first match or once past the best found so far.
        best: Optional[tuple[int, dict, Any, deque, int]] = None
        for by_corr, corr, bucket in buckets:
            for index, (seq, message) in enumerate(bucket):
                if best is not None and seq > best[0]:
                    break
                if wait.matches(message):
                    best = (seq, by_corr, corr, bucket, index)
                    break
        if best is None:
            return None
        _, by_corr, corr, bucket, index = best
        message = bucket[index][1]
        del bucket[index]
        if not bucket:
            del by_corr[corr]
        self._mailbox_count -= 1
        return message

    # ------------------------------------------------------- crash / recover

    def crash(self) -> None:
        """Crash the process: kill all threads and lose all volatile state."""
        if not self.up:
            return
        self.up = False
        self.crash_count += 1
        for thread in self._threads:
            thread.kill()
        self._threads.clear()
        self._kv_waiters.clear()
        self._typed_waiters.clear()
        self._wildcard_waiters.clear()
        self._finished_threads = 0
        self._mailbox.clear()
        self._mailbox_count = 0
        self.on_crash()
        self._notify_transport("on_process_crash")
        self.trace.record("crash", self.name)

    def recover(self) -> None:
        """Bring the process back up and restart its entry point."""
        if self.up:
            return
        self.up = True
        self._notify_transport("on_process_recover")
        self.trace.record("recover", self.name)
        self.on_start(recovery=True)

    def _notify_transport(self, hook: str) -> None:
        """Tell the transport about a crash/recovery, if it cares.

        A real transport (TCP) maps a crash to dropping the process's live
        connections; interposed channel layers without the hook are skipped.
        """
        callback = getattr(self._transport, hook, None)
        if callback is not None:
            callback(self.name)

    def crash_for(self, downtime: float) -> None:
        """Crash now and automatically recover after ``downtime`` virtual time."""
        self.crash()
        self.sim.schedule(downtime, self.recover, name=f"{self.name}:recover")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"<Process {self.name} ({state})>"
