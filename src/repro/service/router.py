"""Routing and backend execution on the discrete-event engine.

A :class:`Backend` pairs one calibrated
:class:`~repro.service.backends.BackendProfile` with a
:class:`~repro.service.batcher.DynamicBatcher` and a simulator process
that forms and serves batches. The :class:`Router` spreads admitted
requests across the pool with deterministic join-shortest-queue
(ties break toward the lowest backend id, so identical runs route
identically).

Queue depth and in-flight counts are exported as observability counter
spans (``service:depth``, ``service:backend<N>:depth``) whenever the
service simulator records a trace, so backpressure dynamics are
visible in the same Perfetto timeline as everything else.

Backends can also *fail*: given a per-backend
:class:`~repro.faults.FaultInjector`, each batch draws from the fault
plan, and a faulted batch burns its full service time and then
completes nothing — the requests go back to the router for redispatch,
the backend's :class:`~repro.service.health.HealthMonitor` breaker
records the failure (ejecting the backend from routing once it trips),
and an SSR fault additionally costs the backend a reboot window.
"""

from operator import attrgetter

from repro.faults import FAULT_SSR
from repro.sim.probes import counter, instant
from repro.service.request import OUTCOME_FAILED, OUTCOME_OK

_depth = attrgetter("depth")


class Backend:
    """One pool member: a batcher plus a serving process."""

    def __init__(self, sim, profile, batcher, on_complete,
                 injector=None, health=None, on_failed=None,
                 ssr_recovery_us=0.0):
        self.sim = sim
        self.profile = profile
        self.batcher = batcher
        self._on_complete = on_complete
        self.injector = injector
        self.health = health
        self._on_failed = on_failed
        self.ssr_recovery_us = ssr_recovery_us
        #: Outstanding requests here: batching queue plus in flight.
        #: Maintained where a request enters (:meth:`enqueue`) or
        #: leaves (end of a served or failed batch), so load queries
        #: on the dispatch path are O(1).
        self.depth = 0
        #: The :class:`Router` whose ``outstanding`` this backend's
        #: depth counts toward (attached by the router).
        self.router = None
        self.served_batches = 0
        self.served_requests = 0
        self.failed_batches = 0
        self.failed_requests = 0
        #: Total simulated time this backend spent serving.
        self.busy_us = 0.0
        self._wakeup = None
        sim.process(
            self._loop(), name=f"service:backend{profile.backend_id}"
        )

    def enqueue(self, request):
        """Accept a routed request into the batching queue."""
        request.backend_id = self.profile.backend_id
        self.batcher.push(request, self.sim.now)
        self.depth += 1
        self.router.outstanding += 1
        counter(
            self.sim, f"service:backend{self.profile.backend_id}:depth",
            self.depth,
        )
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    def _release(self, batch):
        """A batch left this backend: served, or failed back to the router."""
        self.depth -= len(batch)
        self.router.outstanding -= len(batch)

    def _wait(self, *events):
        self._wakeup = self.sim.event(
            name=f"service:backend{self.profile.backend_id}:wakeup"
        )
        if events:
            return self.sim.any_of([*events, self._wakeup])
        return self._wakeup

    def _loop(self):
        """Form and serve batches forever (parks when the queue drains).

        The process never returns: after the last arrival it blocks on a
        wakeup that never fires, and the simulation ends when the
        schedule drains around it.
        """
        while True:
            while not self.batcher.pending:
                yield self._wait()
                self._wakeup = None
            while not self.batcher.ready(self.sim.now):
                remaining_us = self.batcher.deadline_us() - self.sim.now
                yield self._wait(self.sim.timeout(remaining_us))
                self._wakeup = None
            batch = self.batcher.take()
            yield from self._serve(batch)

    def _serve(self, batch):
        flags = tuple(request.degraded for request in batch)
        inference_total_us = self.profile.batch_inference_us(flags)
        service_us = inference_total_us + self.profile.batch_tax_us(flags)
        start_us = self.sim.now
        fault = (
            self.injector.draw(self.sim.now)
            if self.injector is not None else None
        )
        yield self.sim.timeout(
            service_us, name=f"service:batch[{len(batch)}]"
        )
        if fault is not None:
            yield from self._fail(batch, fault, service_us)
            return
        done_us = self.sim.now
        inference_share_us = inference_total_us / len(batch)
        for request in batch:
            request.batch_size = len(batch)
            request.start_us = start_us
            request.done_us = done_us
            request.inference_us = inference_share_us
            request.tax_us = (
                self.profile.tax_us
                * self.profile._item_scale(request.degraded)
            )
            # Everything that is not this request's own work — admission
            # wait, batch formation, and batch mates' shares — is
            # queueing/batching delay by definition, so the three
            # components sum exactly to the observed latency.
            request.queue_us = max(
                0.0,
                (done_us - request.arrival_us)
                - request.inference_us - request.tax_us,
            )
            request.outcome = OUTCOME_OK
        self._release(batch)
        self.busy_us += service_us
        self.served_batches += 1
        self.served_requests += len(batch)
        counter(
            self.sim, f"service:backend{self.profile.backend_id}:depth",
            self.depth,
        )
        if self.health is not None:
            self.health.record_success(self.profile.backend_id)
        for request in batch:
            self._on_complete(request)

    def _fail(self, batch, fault, service_us):
        """A faulted batch: the service time is burned, nothing finishes.

        The requests return to the router for redispatch, the breaker
        (if any) records the failure, and an SSR fault additionally
        costs this backend its subsystem-reboot window before it can
        form another batch.
        """
        self._release(batch)
        self.busy_us += service_us
        self.failed_batches += 1
        self.failed_requests += len(batch)
        instant(
            self.sim, f"service:fault:{fault.kind}",
            {"backend": self.profile.backend_id, "batch": len(batch)},
        )
        if self.health is not None:
            self.health.record_failure(self.profile.backend_id)
        counter(
            self.sim, f"service:backend{self.profile.backend_id}:depth",
            self.depth,
        )
        for request in batch:
            if self._on_failed is not None:
                self._on_failed(request)
        if fault.kind == FAULT_SSR and self.ssr_recovery_us > 0:
            yield self.sim.timeout(
                self.ssr_recovery_us,
                name=(
                    f"service:backend{self.profile.backend_id}"
                    ":ssr_reboot"
                ),
            )

    def to_dict(self):
        from repro.sim import units

        return {
            "profile": self.profile.to_dict(),
            "served_requests": self.served_requests,
            "served_batches": self.served_batches,
            "busy_ms": units.to_ms(self.busy_us),
        }


class Router:
    """Deterministic join-shortest-queue dispatch over the pool.

    With a :class:`~repro.service.health.HealthMonitor` attached, JSQ
    runs over the backends whose breaker admits traffic (open breakers
    are ejected; half-open ones take bounded probes); with a
    :class:`~repro.service.health.BrownoutController`, dispatched
    requests are degraded while the pool's outstanding count is inside
    a brownout episode. Both are deterministic functions of simulated
    state, so routing replays identically.
    """

    def __init__(self, sim, backends, health=None, brownout=None,
                 redispatch_limit=2, on_failed=None):
        if not backends:
            raise ValueError("router needs at least one backend")
        if redispatch_limit < 0:
            raise ValueError(
                f"redispatch_limit must be >= 0, got {redispatch_limit}"
            )
        self.sim = sim
        self.backends = list(backends)
        self.health = health
        self.brownout = brownout
        self.redispatch_limit = redispatch_limit
        self._on_failed = on_failed
        #: Successful re-routes after backend batch failures.
        self.redispatches = 0
        #: Requests that exhausted the redispatch budget.
        self.failed = 0
        #: Admitted-but-unfinished requests across the pool: the sum of
        #: the backends' ``depth``, kept current by the backends.
        self.outstanding = 0
        for backend in self.backends:
            backend.router = self

    def _candidates(self, exclude_id=None):
        """Routable backends, pool order (never empty).

        Prefers healthy backends other than ``exclude_id`` (the one
        that just failed the request), then any healthy backend, then —
        when every breaker is open — the whole pool: routing must still
        land somewhere, and the half-open probes find recovery. While
        every breaker is closed ``allow()`` admits all and changes no
        state, so the per-backend check is skipped.
        """
        if self.health is not None and self.health.tripped:
            allowed = [
                backend for backend in self.backends
                if self.health.allow(backend.profile.backend_id)
            ]
        else:
            allowed = self.backends
        if exclude_id is not None:
            kept = [
                backend for backend in allowed
                if backend.profile.backend_id != exclude_id
            ]
            if kept:
                return kept
        return allowed or self.backends

    def dispatch(self, request, exclude_id=None):
        """Route to the least-loaded routable backend; returns it."""
        # min() keeps the first of equal depths: ties go to pool order.
        target = min(self._candidates(exclude_id), key=_depth)
        if self.health is not None:
            self.health.note_dispatch(target.profile.backend_id)
        if self.brownout is not None and self.brownout.update(
            self.outstanding, self.sim
        ):
            self.brownout.degrade(request)
        target.enqueue(request)
        counter(self.sim, "service:depth", self.outstanding)
        return target

    def redispatch(self, request):
        """Re-route a request whose batch faulted, or fail it for good.

        Called by a backend for each member of a failed batch. The
        request is re-routed away from the backend that failed it while
        the budget lasts; past ``redispatch_limit`` it finishes as
        :data:`~repro.service.request.OUTCOME_FAILED`.
        """
        request.redispatches += 1
        if request.redispatches > self.redispatch_limit:
            request.outcome = OUTCOME_FAILED
            self.failed += 1
            instant(
                self.sim, "service:request_failed",
                {"request": request.request_id},
            )
            if self._on_failed is not None:
                self._on_failed(request)
            return None
        self.redispatches += 1
        return self.dispatch(request, exclude_id=request.backend_id)
