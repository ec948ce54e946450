"""Bench: regenerate Fig. 5 (EfficientNet-Lite0 int8 across targets)."""

from repro.experiments import run_experiment


def test_fig5_nnapi_fallback(save_result):
    result = run_experiment("fig5", runs=8)
    save_result(result)
    latency = dict(zip(result.column("Target"), result.column("inference ms")))
    assert latency["hexagon"] < latency["cpu"] < latency["cpu1"]
    ratio = latency["nnapi"] / latency["cpu1"]
    assert 4.0 < ratio < 11.0
