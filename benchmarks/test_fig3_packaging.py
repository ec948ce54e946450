"""Bench: regenerate Fig. 3 (benchmark vs benchmark app vs real app)."""

from repro.experiments import run_experiment


def test_fig3_packaging(save_result):
    result = run_experiment("fig3", runs=8)
    save_result(result)
    for row in result.rows:
        _model, _dtype, cli_ms, _bench_app_ms, app_ms, _ratio = row
        assert app_ms > cli_ms
