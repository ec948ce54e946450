"""Bench: the ablation studies (SNPE, probe effect, coupling, stdlib)."""

from repro.experiments import run_experiment


def test_ablation_snpe(save_result):
    result = run_experiment("ablation_snpe", runs=6)
    save_result(result)
    latency = dict(zip(result.column("Runtime"), result.column("inference ms")))
    assert latency["snpe-dsp"] < min(latency["cpu"], latency["nnapi"])


def test_ablation_probe(save_result):
    result = run_experiment("ablation_probe", runs=6)
    save_result(result)
    rows = {row[0]: row for row in result.rows}
    assert 0.04 <= rows["hexagon [int8]"][3] <= 0.07


def test_ablation_coupling(save_result):
    result = run_experiment("ablation_coupling")
    save_result(result)
    rows = result.row_map("Coupling")
    assert rows["loose"][2] > rows["tight"][2]


def test_ablation_stdlib(save_result):
    result = run_experiment("ablation_stdlib")
    save_result(result)
    rows = result.row_map("stdlib")
    assert rows["libc++"][3] > 1.0 > rows["libstdc++"][3]
