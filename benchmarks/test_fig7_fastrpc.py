"""Bench: regenerate Fig. 7 (FastRPC call-flow decomposition)."""

from repro.experiments import run_experiment


def test_fig7_fastrpc(save_result):
    result = run_experiment("fig7")
    save_result(result)
    durations = result.series["durations_us"]
    assert durations[0] > durations[1]
