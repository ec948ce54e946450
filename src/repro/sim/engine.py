"""The simulation engine: clock, schedule, and run loop.

Hot-path notes (see ``docs/performance.md``): the schedule is a binary
heap of ``(time, priority, sequence, event)`` entries; the run loops in
:meth:`Simulator.run` inline the pop-and-dispatch step with local
bindings because they retire tens of thousands of events per simulated
session. Cancellation is *lazy*: :meth:`Simulator.cancel` tombstones
the event and the pop loops skip it, so cancelling never scans the
heap. All of this is observably free — the popped-event stream (and
hence the sanitizer's replay digest) is identical to the naive loop's.
"""

import gc
from heapq import heappop, heappush
import os

from repro.sim.events import PROCESSED, Event, AllOf, AnyOf, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngStreams
from repro.sim.trace import TraceRecorder

#: Process-local override for sanitizing new simulators; toggled via
#: :func:`set_sanitize_default` (on the ``repro.sim`` surface) by
#: ``repro.analysis.sanitize.collecting`` and the CLI ``--sanitize``
#: flags. The ``REPRO_SANITIZE`` environment variable has the same
#: effect without touching code.
_SANITIZE_DEFAULT = False


def set_sanitize_default(enabled):
    """Make new simulators attach a sanitizer; returns the old value."""
    global _SANITIZE_DEFAULT
    previous = _SANITIZE_DEFAULT
    _SANITIZE_DEFAULT = bool(enabled)
    return previous


def sanitize_enabled():
    """Whether a new Simulator should sanitize by default."""
    if _SANITIZE_DEFAULT:
        return True
    return os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


class Simulator:
    """Deterministic discrete-event simulator.

    The schedule is a heap of ``(time, priority, sequence, event)`` entries.
    The sequence number breaks ties so that events scheduled earlier run
    earlier, which keeps runs bit-for-bit reproducible.

    Parameters
    ----------
    seed:
        Root seed for the named RNG streams available as :attr:`rng`.
    trace:
        When True, a :class:`TraceRecorder` collects spans and counters.
    sanitize:
        When True, attach a :class:`~repro.sim.sanitizer.Sanitizer`
        that checks run-loop invariants and records the event-stream
        replay digest. ``None`` (the default) defers to
        :func:`sanitize_enabled` — the ``REPRO_SANITIZE`` environment
        variable or an active ``--sanitize`` / dual-run scope.
    """

    #: Priority for ordinary events.
    PRIORITY_NORMAL = 1
    #: Priority for "urgent" bookkeeping events (run before normal ones).
    PRIORITY_URGENT = 0

    def __init__(self, seed=0, trace=False, sanitize=None):
        self.now = 0.0
        self.rng = RngStreams(seed)
        self.trace = TraceRecorder(self) if trace else None
        self._queue = []
        self._sequence = 0
        self._active_process = None
        self._id_counters = {}
        #: Events popped and dispatched so far — perfbench's
        #: ``sim.events`` count and its per-event host-time denominator.
        self.events_processed = 0
        self.sanitizer = None
        if sanitize is None:
            sanitize = sanitize_enabled()
        if sanitize:
            from repro.sim.sanitizer import Sanitizer

            self.sanitizer = Sanitizer(self)

    def next_id(self, name="id"):
        """Next value of an engine-scoped deterministic id sequence.

        Replaces module- or class-level ``itertools.count`` sources:
        those survive across simulations in one process, so the ids a
        run sees depend on what ran before it. Engine-scoped counters
        reset with the simulator, keeping replays bit-identical.
        """
        value = self._id_counters.get(name, 0)
        self._id_counters[name] = value + 1
        return value

    # -- scheduling ---------------------------------------------------

    def _schedule(self, event, delay=0.0, priority=PRIORITY_NORMAL):
        time = self.now + delay
        if self.sanitizer is not None:
            self.sanitizer.on_schedule(time, priority, self._sequence, event)
        heappush(self._queue, (time, priority, self._sequence, event))
        self._sequence += 1

    def schedule_callback(self, delay, callback, name=None):
        """Run ``callback(value)`` after ``delay`` microseconds."""
        event = Timeout(self, delay, name=name)
        event.callbacks.append(callback)
        return event

    def cancel(self, event):
        """Lazily cancel a scheduled-but-unprocessed event.

        The schedule entry is tombstoned, not removed: the run loops
        discard it when it surfaces, so cancellation is O(1) instead of
        an O(n) heap scan. A cancelled event never runs its callbacks,
        never advances the clock, and never reaches the sanitizer's
        replay stream. Processed events cannot be cancelled.
        """
        if event._state is PROCESSED:
            raise RuntimeError(f"cannot cancel processed event {event!r}")
        event._canceled = True
        return event

    # -- event factories ----------------------------------------------

    def event(self, name=None):
        """Create an untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay, value=None, name=None):
        """Create an event that fires after ``delay`` microseconds."""
        return Timeout(self, delay, value=value, name=name)

    def process(self, generator, name=None):
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events):
        """Event that succeeds when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events):
        """Event that succeeds when any of ``events`` has succeeded."""
        return AnyOf(self, events)

    # -- run loop -----------------------------------------------------

    def step(self):
        """Process a single event. Returns False when the queue is empty."""
        queue = self._queue
        while queue:
            time, priority, sequence, event = heappop(queue)
            if event._canceled:
                continue
            if time < self.now:
                raise RuntimeError("schedule went backwards in time")
            if self.sanitizer is not None:
                self.sanitizer.on_pop(time, priority, sequence, event)
            self.now = time
            self.events_processed += 1
            callbacks = event.callbacks
            # Processed events drop their callback list entirely (an
            # accidental late append raises instead of silently never
            # running) — and the run loops avoid allocating a fresh
            # list per retired event.
            event.callbacks = None
            event._state = PROCESSED
            for callback in callbacks:
                callback(event)
            return True
        return False

    def run(self, until=None):
        """Run until the schedule drains, a time, or an event.

        ``until`` may be ``None`` (drain the queue), a number (absolute
        simulation time in microseconds), or an :class:`Event` (stop once
        it has been processed and return its value).
        """
        if until is None:
            # Inlined drain loop: identical semantics to `while
            # self.step()`, minus a method call and attribute reloads
            # per event. Cyclic GC is paused for the duration — the
            # collector otherwise walks the full object graph every few
            # thousand event allocations, and nothing in the loop relies
            # on collection. Purely a wall-clock effect; the event
            # stream is untouched.
            queue = self._queue
            sanitizer = self.sanitizer
            count = 0
            gc_was_enabled = gc.isenabled()
            if gc_was_enabled:
                gc.disable()
            try:
                while queue:
                    time, priority, sequence, event = heappop(queue)
                    if event._canceled:
                        continue
                    if time < self.now:
                        raise RuntimeError("schedule went backwards in time")
                    if sanitizer is not None:
                        sanitizer.on_pop(time, priority, sequence, event)
                    self.now = time
                    count += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._state = PROCESSED
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        for callback in callbacks:
                            callback(event)
            finally:
                if gc_was_enabled:
                    gc.enable()
            self.events_processed += count
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        deadline = float(until)
        if deadline < self.now:
            raise ValueError(f"until={deadline} is in the past (now={self.now})")
        while self._queue and self._queue[0][0] <= deadline:
            self.step()
        self.now = deadline
        return None

    def _run_until_event(self, event):
        stopped = []
        event.callbacks.append(stopped.append)
        queue = self._queue
        sanitizer = self.sanitizer  # fixed at Simulator construction
        count = 0
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while not stopped:
                # Inlined pop-and-dispatch (see run()).
                if not queue:
                    raise RuntimeError(
                        f"schedule drained before {event!r} was triggered"
                    )
                time, priority, sequence, popped = heappop(queue)
                if popped._canceled:
                    continue
                if time < self.now:
                    raise RuntimeError("schedule went backwards in time")
                if sanitizer is not None:
                    sanitizer.on_pop(time, priority, sequence, popped)
                self.now = time
                count += 1
                callbacks = popped.callbacks
                popped.callbacks = None
                popped._state = PROCESSED
                if len(callbacks) == 1:
                    callbacks[0](popped)
                else:
                    for callback in callbacks:
                        callback(popped)
        finally:
            if gc_was_enabled:
                gc.enable()
            self.events_processed += count
        if event._exception is not None:
            raise event._exception
        return event._value

    def peek(self):
        """Time of the next scheduled event, or infinity when idle."""
        queue = self._queue
        while queue:
            if queue[0][3]._canceled:
                heappop(queue)
                continue
            return queue[0][0]
        return float("inf")
