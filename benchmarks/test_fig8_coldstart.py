"""Bench: regenerate Fig. 8 (offload amortization over inferences)."""

from repro.experiments import run_experiment


def test_fig8_coldstart(save_result):
    result = run_experiment("fig8")
    save_result(result)
    shares = result.series["offload_share"]
    assert all(a >= b for a, b in zip(shares, shares[1:]))
    assert shares[0] > 0.4 > shares[-1]
