"""The virtual-clock event loop: the one engine behind the scheduling seam.

The paper: "For efficiency, we wrote our own discrete event-driven
simulator.  We simulate the sending and the reception of a message as
events."  :class:`EventLoop` is that engine — a time-ordered timer
queue with deterministic FIFO tie-breaking that implements
:class:`repro.net.scheduling.Scheduler`.  Every scheduling backend runs
on it: ``"eventloop"`` (this module), ``"simulator"`` (the same loop
behind :class:`repro.sim.node.Network`, see :mod:`repro.sim.adapter`)
and ``"asyncio"`` (:class:`repro.service.aio.AsyncioScheduler`, a
subclass that adds wall-clock pacing and socket IO for the live
service).  The API is asyncio-flavoured — :meth:`EventLoop.time`,
:meth:`EventLoop.call_soon` / :meth:`EventLoop.call_later` /
:meth:`EventLoop.call_at` return cancellable :class:`TimerHandle`\\ s,
mirroring ``asyncio.AbstractEventLoop``.

Semantics (held by the cross-backend conformance suite in
``tests/test_scheduler_conformance.py`` and the stateful model in
``tests/test_scheduler_stateful.py``):

* callbacks fire in ``(when, sequence)`` order — simultaneous timers
  run in scheduling order (deterministic FIFO tie-breaking);
* :meth:`TimerHandle.cancel` tombstones a pending timer;
* scheduling into the past raises :class:`ValueError`;
* ``run(until=...)`` fires everything due at or before ``until`` and
  advances the clock to ``until`` even when the queue drains early.

The loop is *seeded*: :attr:`EventLoop.rng` is a
``numpy.random.Generator`` derived from the constructor seed, the one
sanctioned entropy source for backend-local randomness (e.g. socket
retry jitter in a live deployment) so event-loop runs stay
byte-reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional

import numpy as np

from ..trace import hooks as _trace_hooks
from .scheduling import SchedulingBackend, Transport, register_backend


class TimerHandle:
    """One pending callback; orders by ``(when, sequence)`` so
    simultaneous timers keep FIFO order.  ``cancel()`` tombstones the
    heap entry (asyncio's handle contract)."""

    __slots__ = ("when", "seq", "_callback", "_cancelled")

    def __init__(self, when: float, seq: int, callback: Callable[[], None]):
        self.when = when
        self.seq = seq
        self._callback = callback
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    def cancelled(self) -> bool:
        return self._cancelled

    def __lt__(self, other: "TimerHandle") -> bool:
        return (self.when, self.seq) < (other.when, other.seq)


class EventLoop:
    """Deterministic virtual-clock event loop (asyncio-compatible API)."""

    #: Clock capability (see :func:`repro.net.scheduling.clock_of`):
    #: purely virtual time — exact-time assertions hold.
    clock = "virtual"

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now = 0.0
        self._heap: List[TimerHandle] = []
        self._seq = itertools.count()
        self.events_processed = 0
        #: backend-local randomness, a deterministic function of ``seed``
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # The Scheduler interface
    # ------------------------------------------------------------------
    def schedule(
        self, delay: float, action: Callable[[], None]
    ) -> TimerHandle:
        """Run ``action`` after ``delay`` virtual time units."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, action)

    def schedule_at(
        self, time: float, action: Callable[[], None]
    ) -> TimerHandle:
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        handle = TimerHandle(time, next(self._seq), action)
        heapq.heappush(self._heap, handle)
        return handle

    def step(self) -> bool:
        """Run the next pending timer; False when the queue is empty."""
        handle = self._peek()
        if handle is None:
            return False
        heapq.heappop(self._heap)
        self._fire(handle)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run timers until the queue drains, virtual time passes
        ``until``, or ``max_events`` have run.  Returns timers executed.

        Traced runs emit a ``sim.run`` span and a ``sim.events``
        counter — keyed on the scheduling interface, so traces stay
        byte-identical across backends."""
        tctx = _trace_hooks.ACTIVE
        if tctx is None:
            return self._drain(until, max_events)
        with tctx.span("sim.run") as span:
            executed = self._drain(until, max_events)
            span.set(events=executed, now_ms=self.now)
        tctx.registry.inc("sim.events", executed)
        return executed

    def _drain(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                break
            head = self._heap[0]
            if head._cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and head.when > until:
                break
            heapq.heappop(self._heap)
            self._fire(head)
            executed += 1
        if until is not None and (not self._heap or self._heap[0].when > until):
            self.now = max(self.now, until)
        return executed

    def _peek(self) -> Optional[TimerHandle]:
        """The next live timer (cancelled heads are discarded)."""
        while self._heap and self._heap[0]._cancelled:
            heapq.heappop(self._heap)
        return self._heap[0] if self._heap else None

    def _fire(self, handle: TimerHandle) -> None:
        self.now = handle.when
        self.events_processed += 1
        handle._callback()

    @property
    def pending(self) -> int:
        return sum(1 for h in self._heap if not h._cancelled)

    # ------------------------------------------------------------------
    # asyncio-compatible spellings
    # ------------------------------------------------------------------
    def time(self) -> float:
        """The loop's clock (``asyncio.AbstractEventLoop.time``)."""
        return self.now

    def call_soon(self, callback: Callable[..., None], *args: Any) -> TimerHandle:
        """Schedule ``callback(*args)`` at the current instant; it runs
        after everything already queued for this instant (FIFO)."""
        return self.call_at(self.now, callback, *args)

    def call_later(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        if args:
            return self.schedule(delay, lambda: callback(*args))
        return self.schedule(delay, callback)

    def call_at(
        self, when: float, callback: Callable[..., None], *args: Any
    ) -> TimerHandle:
        if args:
            return self.schedule_at(when, lambda: callback(*args))
        return self.schedule_at(when, callback)


def eventloop_backend(topology) -> SchedulingBackend:
    """The ``"eventloop"`` backend: a fresh loop plus the shared
    transport fabric bound to it."""
    loop = EventLoop()
    return SchedulingBackend("eventloop", loop, Transport(loop, topology))


register_backend("eventloop", eventloop_backend)
