"""Bench: regenerate Table II (platform catalog)."""

from repro.experiments import run_experiment


def test_table2_platforms(save_result):
    result = run_experiment("table2")
    save_result(result)
    assert len(result.rows) == 4
