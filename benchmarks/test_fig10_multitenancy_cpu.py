"""Bench: regenerate Fig. 10 (background inferences on the CPU)."""

from repro.experiments import run_experiment


def test_fig10_multitenancy_cpu(save_result):
    result = run_experiment("fig10", runs=8)
    save_result(result)
    inference = result.series["inference_ms"]
    cpu_side = result.series["capture_plus_pre_ms"]
    assert inference[-1] < 1.6 * inference[0]
    assert cpu_side[-1] > 1.1 * cpu_side[0]
