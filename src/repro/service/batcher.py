"""Dynamic batching: the throughput-vs-latency knob, made explicit.

A backend runs whole batches; requests arrive one at a time. The
:class:`DynamicBatcher` holds a backend's admitted requests and decides
when a batch is ready: when ``max_batch`` requests are waiting, or when
the *oldest* has waited ``max_delay_us`` — whichever comes first. A
larger ``max_batch`` amortizes the inference compute (higher
throughput); a larger ``max_delay_us`` gives batches time to fill but
spends each request's latency budget doing it. The tradeoff curve
between the two is the ``service_goodput`` experiment's first output.

This class is pure bookkeeping — simulated time comes in as arguments —
so the flush policy is unit-testable without an engine; the DES side
lives in :class:`repro.service.router.Backend`.
"""

import math
from dataclasses import dataclass, field


@dataclass
class DynamicBatcher:
    """Per-backend batch formation: max size plus max queue delay."""

    max_batch: int
    max_delay_us: float
    #: FIFO of ``(enqueue_us, request)`` pairs.
    pending: list = field(default_factory=list)

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_us < 0:
            raise ValueError(
                f"max_delay_us must be >= 0, got {self.max_delay_us}"
            )

    def push(self, request, now_us):
        """Append a request at the current simulated time."""
        self.pending.append((now_us, request))

    def deadline_us(self):
        """When the oldest pending request forces a flush (inf if idle)."""
        if not self.pending:
            return math.inf
        oldest_us, _request = self.pending[0]
        return oldest_us + self.max_delay_us

    def ready(self, now_us):
        """Whether a batch should flush now."""
        if not self.pending:
            return False
        if len(self.pending) >= self.max_batch:
            return True
        return now_us >= self.deadline_us()

    def take(self):
        """Pop the next batch (up to ``max_batch`` requests, FIFO)."""
        if not self.pending:
            raise ValueError("take() on an empty batcher")
        batch = [request for _enqueue_us, request in
                 self.pending[: self.max_batch]]
        del self.pending[: self.max_batch]
        return batch
