"""Bench: regenerate Fig. 11 (run-to-run latency distributions)."""

from repro.experiments import run_experiment


def test_fig11_variability(save_result):
    result = run_experiment("fig11", runs=120)
    save_result(result)
    rows = result.row_map("context")
    assert rows["app"][8] > rows["benchmark"][8]  # CV
    assert rows["app"][7] >= rows["benchmark"][7]  # max deviation
