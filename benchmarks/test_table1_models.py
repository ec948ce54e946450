"""Bench: regenerate Table I (model zoo construction + accounting)."""

from repro.experiments import run_experiment
from repro.models import load_model


def test_table1_models(save_result):
    load_model.cache_clear()  # build every graph afresh
    result = run_experiment("table1")
    save_result(result)
    assert len(result.rows) == 11
