"""Bench: fleet-level AI-tax percentiles over a device population."""

from repro.experiments import run_experiment


def test_fleet_percentiles(save_result):
    result = run_experiment("fleet_percentiles", sessions=64, runs=6, seed=0)
    save_result(result)
    # Fig 11 at scale: the app packaging's run-to-run tail is heavier
    # than the benchmark packaging's.
    app_tail = result.series["app_tail_ratio"][0]
    benchmark_tail = result.series["benchmark_tail_ratio"][0]
    assert app_tail > benchmark_tail
    # Takeaway 1: quantized accelerated apps spend ~half their
    # end-to-end time in capture+pre+post.
    quantized = result.series["quantized_app_tax_fraction"][0]
    assert 0.35 <= quantized <= 0.80
