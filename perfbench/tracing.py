"""Tracing for the traced benchmark run, installed from outside the program.

Three instruments, none of which edits ``src/``:

* ``Tracer.span`` wraps a public function or method so each call records
  a span (name, start, end, parent span) in memory;
* ``Tracer.count_events`` wraps ``Simulator.run`` to sum the events each
  outermost call pops;
* ``attribute_profile`` groups cProfile self time by the ``repro``
  package that defines each function.

Self time of a function outside ``repro`` (builtins, ``heapq``, ``ast``,
``pickle``, ...) is charged to its nearest ``repro`` callers, split by the
time each caller spent in it, so no unowned "builtins" row remains.
Blocking waits (lock acquires, sleeps, polls) are kept apart as wait time
of the package that waited.
"""

import functools
import time
from collections import defaultdict

#: Builtins that block the calling thread rather than compute.
WAIT_FUNCTIONS = (
    "<method 'acquire' of '_thread.lock' objects>",
    "<method 'acquire' of '_thread.RLock' objects>",
    "<built-in method time.sleep>",
    "<built-in method posix.waitpid>",
    "<built-in method posix.read>",
    "<built-in method select.select>",
    "<method 'poll' of 'select.poll' objects>",
    "<method 'poll' of 'select.epoll' objects>",
    "<method 'select' of 'select.epoll' objects>",
)

#: Name given to time no ``repro`` function owns.
OTHER = "other"
#: Group of the modules directly under ``repro/`` (``cli.py``, ...).
TOP_LEVEL = "cli"


class Tracer:
    """Spans and counters recorded around calls into the program."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._open = []

    def span(self, owner, attr, name):
        """Replace ``owner.attr`` with a wrapper recording a span per call."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append([name, time.monotonic(), None, parent])
            self._open.append(index)
            try:
                return inner(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[index][2] = time.monotonic()

        setattr(owner, attr, wrapper)

    def count_events(self, simulator_cls):
        """Sum ``events_processed`` growth over outermost ``run`` calls."""
        inner = simulator_cls.run
        depth = [0]

        @functools.wraps(inner)
        def run(sim, *args, **kwargs):
            before = sim.events_processed
            depth[0] += 1
            try:
                return inner(sim, *args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    self.counts["sim.events"] += (
                        sim.events_processed - before
                    )

        simulator_cls.run = run

    def reset(self):
        """Forget what was recorded (a forked worker starts afresh)."""
        self.spans.clear()
        self.counts.clear()
        self._open.clear()

    def durations(self, name):
        """Duration of each finished span called ``name``."""
        return [
            end - start for span_name, start, end, _ in self.spans
            if span_name == name and end is not None
        ]

    def span_seconds(self, name):
        """Total duration of every span called ``name``."""
        return sum(self.durations(name))

    def to_json(self):
        return {
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent}
                for name, start, end, parent in self.spans
            ],
            "counts": dict(self.counts),
        }


def attribute_profile(stats, package_dir):
    """Group cProfile self time by the ``repro`` package owning it.

    ``stats`` is ``pstats.Stats(...).stats``; ``package_dir`` is the
    directory of the live ``repro`` package. Returns ``(busy, waits,
    total)``: busy seconds per group, blocking-wait seconds per group,
    and the profiled interval (the sum of every function's self time).
    """
    prefix = package_dir.rstrip("/") + "/"

    def group_of(func):
        filename = func[0]
        if not filename.startswith(prefix):
            return None
        head, sep, _rest = filename[len(prefix):].partition("/")
        return head if sep else TOP_LEVEL

    memo = {}

    def owners(func, visiting):
        """``{group: share}`` of the repro code on whose behalf func ran.

        Walks caller edges weighted by the time the caller spent in
        ``func``; a back edge into a function already on the walk is
        skipped (recursion), and a walk that reaches no repro function
        ends in :data:`OTHER`. Returns ``(shares, complete)``; only
        complete results (no skipped back edge) are memoised.
        """
        group = group_of(func)
        if group is not None:
            return {group: 1.0}, True
        if func in memo:
            return memo[func], True
        callers = stats[func][4] if func in stats else {}
        visiting.add(func)
        shares = defaultdict(float)
        weight = 0.0
        complete = True
        for caller, edge in callers.items():
            if caller in visiting:
                complete = False
                continue
            caller_time = edge[3]
            if caller_time <= 0:
                continue
            sub, sub_complete = owners(caller, visiting)
            complete = complete and sub_complete
            weight += caller_time
            for owner, share in sub.items():
                shares[owner] += caller_time * share
        visiting.discard(func)
        if weight > 0:
            result = {owner: share / weight for owner, share in shares.items()}
        else:
            result = {OTHER: 1.0}
        if complete:
            memo[func] = result
        return result, complete

    busy = defaultdict(float)
    waits = defaultdict(float)
    total = 0.0
    for func, (_cc, _nc, self_time, _ct, callers) in stats.items():
        if self_time <= 0:
            continue
        total += self_time
        sink = waits if func[2] in WAIT_FUNCTIONS else busy
        group = group_of(func)
        if group is not None:
            sink[group] += self_time
            continue
        # Split this function's own self time by the caller edges' self
        # time, then hand each caller's share to that caller's owners.
        edge_total = sum(edge[2] for edge in callers.values())
        if edge_total <= 0:
            sink[OTHER] += self_time
            continue
        for caller, edge in callers.items():
            if edge[2] <= 0:
                continue
            shares, _ = owners(caller, {func})
            for owner, share in shares.items():
                sink[owner] += self_time * edge[2] / edge_total * share
    return dict(busy), dict(waits), total
