"""Bench: regenerate Fig. 6 (execution profiles under three targets)."""

from repro.experiments import run_experiment


def test_fig6_profile(save_result):
    result = run_experiment("fig6", runs=6)
    save_result(result)
    rows = result.row_map("Target")
    assert rows["cpu"][1] > 0.5
    assert rows["hexagon"][3] > 0.2
    assert rows["nnapi"][2] > 0.8  # single hot thread
    assert rows["nnapi"][5] > rows["cpu"][5]  # more migrations
