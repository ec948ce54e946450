"""Bench: regenerate Fig. 9 (background inferences contending for DSP)."""

from repro.experiments import run_experiment


def test_fig9_multitenancy_dsp(save_result):
    result = run_experiment("fig9", runs=8)
    save_result(result)
    inference = result.series["inference_ms"]
    assert inference[-1] > 2.5 * inference[0]
    cpu_side = result.series["capture_plus_pre_ms"]
    assert max(cpu_side) < 2.0 * min(cpu_side)
