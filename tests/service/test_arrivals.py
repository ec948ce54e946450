"""Deterministic open-loop arrival processes."""

import pytest

from repro.apps.arrivals import (
    DiurnalArrivals,
    PoissonArrivals,
    make_arrivals,
)


def test_poisson_same_seed_replays_identically():
    a = PoissonArrivals(rate_rps=200.0, seed=7)
    b = PoissonArrivals(rate_rps=200.0, seed=7)
    assert a.times_us(duration_us=500_000) == b.times_us(
        duration_us=500_000
    )
    # The process is a pure function of (params, seed): asking again on
    # the same instance replays too — no hidden stream state.
    assert a.times_us(count=50) == a.times_us(count=50)


def test_poisson_seed_changes_timeline():
    a = PoissonArrivals(rate_rps=200.0, seed=0)
    b = PoissonArrivals(rate_rps=200.0, seed=1)
    assert a.times_us(count=50) != b.times_us(count=50)


def test_poisson_rate_matches_long_run_mean():
    times = PoissonArrivals(rate_rps=500.0, seed=3).times_us(count=4000)
    mean_gap_us = times[-1] / (len(times) - 1)
    assert mean_gap_us == pytest.approx(2000.0, rel=0.1)


def test_diurnal_same_seed_replays_identically():
    a = DiurnalArrivals(rate_rps=300.0, amplitude=0.5, period_s=0.2, seed=9)
    b = DiurnalArrivals(rate_rps=300.0, amplitude=0.5, period_s=0.2, seed=9)
    assert a.times_us(duration_us=400_000) == b.times_us(
        duration_us=400_000
    )


def test_diurnal_peak_clusters_arrivals():
    arrivals = DiurnalArrivals(
        rate_rps=400.0, amplitude=0.9, period_s=1.0, seed=2
    )
    times = arrivals.times_us(duration_us=1_000_000)
    # rate_at peaks in the first half-period and troughs in the second.
    first_half = sum(1 for t in times if t < 500_000)
    second_half = len(times) - first_half
    assert first_half > 2 * second_half


def test_times_us_requires_exactly_one_bound():
    arrivals = PoissonArrivals(rate_rps=100.0, seed=0)
    with pytest.raises(ValueError):
        arrivals.times_us()
    with pytest.raises(ValueError):
        arrivals.times_us(duration_us=1000, count=5)


def test_make_arrivals_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown arrival"):
        make_arrivals("bursty", 100.0, seed=0)


def test_invalid_parameters_raise():
    with pytest.raises(ValueError):
        PoissonArrivals(rate_rps=0.0, seed=0)
    with pytest.raises(ValueError):
        DiurnalArrivals(rate_rps=100.0, amplitude=1.5, seed=0)
    with pytest.raises(ValueError):
        DiurnalArrivals(rate_rps=100.0, period_s=0.0, seed=0)
