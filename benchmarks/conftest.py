"""Shared helpers for the benchmark suite.

Each ``test_<id>_*.py`` regenerates one of the paper's tables/figures,
asserts its shape and writes its rendered output to
``results/<id>.txt`` so a run leaves the full set of regenerated
artifacts behind. Every result is simulated, so a rerun reproduces the
committed files byte for byte.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"


@pytest.fixture
def save_result():
    """Write an ExperimentResult's rendering to results/<id>.txt."""

    def save(result):
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{result.experiment_id}.txt"
        path.write_text(result.render() + "\n")
        return path

    return save
