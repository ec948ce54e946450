"""Golden service digests: pin ``ServiceResult.digest()`` across commits.

``test_service.py`` and ``test_health.py`` check that two runs in one
process agree. These digests were recorded before the router's load
accounting became maintained counters, so any drift in routing,
batching, breaker or brownout behaviour — or in the calibrated pool
underneath — fails here. Re-record only for a change that is meant to
alter simulated results, and say so in the change log.
"""

import pytest

from repro.service import (
    ServiceConfig,
    build_pool,
    pool_capacity_rps,
    run_service,
)

#: name -> (config overrides, rate as a multiple of batch-4 capacity,
#: expected digest).
GOLDEN = {
    "fault_free": (
        dict(duration_s=2.0, seed=5),
        0.8,
        "d3d671f460fa0b06d75a21bffa7a203134ffd98f1868e7b563bd654a796e3b8b",
    ),
    "overload": (
        dict(
            duration_s=4.0, max_batch=4, backend_fault_rate=0.05,
            breakers=True, brownout_high=16, brownout_low=6, seed=2,
        ),
        1.15,
        "1bf8ea0b28f1022d23d7b5a8545181fbce65b424ab89e784e3c9d07f08a6405c",
    ),
    "ssr_storm": (
        dict(
            duration_s=1.5, slo_ms=100.0, seed=3, ssr_storm_ms=400.0,
            ssr_storm_backends=2, ssr_recovery_ms=250.0,
            breaker_recovery_ms=250.0,
        ),
        0.7,
        "ca5d0d404a90f29a3364100aabc2029831b8de00b0aca0073fc0fc930feb3cca",
    ),
}


@pytest.fixture(scope="module")
def pool():
    profiles, failures = build_pool(devices=4, seed=0, runs=2)
    assert failures == []
    return profiles


def golden_run(name, profiles):
    overrides, load, _digest = GOLDEN[name]
    config = ServiceConfig(
        rate_rps=load * pool_capacity_rps(profiles, 4),
        devices=4,
        calibration_runs=2,
        **overrides,
    )
    return run_service(config, profiles=profiles)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_service_digest_is_pinned(name, pool):
    assert golden_run(name, pool).digest() == GOLDEN[name][2]


def test_golden_configs_exercise_their_machinery(pool):
    fault_free = golden_run("fault_free", pool)
    assert fault_free.health == [] and fault_free.redispatched == 0
    overload = golden_run("overload", pool)
    # Brownout enters and exits, breakers trip, and some requests run
    # out of redispatch budget: every load-accounting path is hit.
    assert overload.brownout["episodes"] >= 2
    assert overload.failed > 0 and overload.rejected > 0
    assert sum(entry["opens"] for entry in overload.health) > 0
    storm = golden_run("ssr_storm", pool)
    assert [entry["opens"] > 0 for entry in storm.health[:2]] == [True] * 2
    assert storm.redispatched > 0


def test_load_counters_match_recomputed_load(pool, monkeypatch):
    """``depth``/``outstanding`` are maintained counters; recount them.

    After every update (a request enqueued, a batch released), each
    backend's ``depth`` must equal its queued requests plus the batch it
    is serving, and the router's ``outstanding`` must be their sum.
    """
    from repro.service.router import Backend

    in_service = {}
    routers = set()
    hits = {"enqueue": 0, "release": 0}
    enqueue, serve, release = (
        Backend.enqueue, Backend._serve, Backend._release
    )

    def check(router):
        for backend in router.backends:
            serving = in_service.get(backend, ())
            assert backend.depth == (
                len(backend.batcher.pending) + len(serving)
            )
        assert router.outstanding == sum(
            backend.depth for backend in router.backends
        )

    def checked_enqueue(self, request):
        enqueue(self, request)
        routers.add(self.router)
        hits["enqueue"] += 1
        check(self.router)

    def checked_serve(self, batch):
        in_service[self] = batch
        yield from serve(self, batch)

    def checked_release(self, batch):
        release(self, batch)
        assert in_service.pop(self) is batch
        hits["release"] += 1
        check(self.router)

    monkeypatch.setattr(Backend, "enqueue", checked_enqueue)
    monkeypatch.setattr(Backend, "_serve", checked_serve)
    monkeypatch.setattr(Backend, "_release", checked_release)
    result = golden_run("overload", pool)
    # Still the pinned run: the wrappers only observe.
    assert result.digest() == GOLDEN["overload"][2]
    (router,) = routers
    assert hits["enqueue"] > result.completed
    failed_batches = sum(b.failed_batches for b in router.backends)
    assert failed_batches > 0
    assert hits["release"] == failed_batches + sum(
        b.served_batches for b in router.backends
    )
    assert router.outstanding == 0
    assert all(backend.depth == 0 for backend in router.backends)
