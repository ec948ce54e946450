"""Bench: regenerate Fig. 4 (capture/pre/inference, benchmark vs app)."""

from repro.experiments import run_experiment


def test_fig4_breakdown(save_result):
    result = run_experiment("fig4", runs=8)
    save_result(result)
    rows = {(row[0], row[1], row[2]): row for row in result.rows}
    # Quantized MobileNet app: capture+pre well above inference.
    assert rows[("mobilenet_v1", "int8", "app")][6] > 1.4
    # Inception: inference dominates even in the app.
    assert rows[("inception_v3", "fp32", "app")][6] < 0.4
