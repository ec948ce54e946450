"""Bench: the extension experiments (beyond the paper's figures)."""

from repro.experiments import run_experiment


def test_energy(save_result):
    result = run_experiment("energy", invokes=10)
    save_result(result)
    energy = dict(zip(result.column("Placement"), result.column("mJ/inf")))
    assert energy["hexagon [int8]"] < energy["cpu x4 [int8]"] / 8


def test_preferences(save_result):
    result = run_experiment("preferences", invokes=5)
    save_result(result)
    rows = result.row_map("Preference")
    assert rows["low_power"][2] < rows["fast_single_answer"][2]


def test_thermal(save_result):
    result = run_experiment("thermal", invokes=80)
    save_result(result)
    rows = {row[0]: row[1] for row in result.rows}
    assert rows["throttle-induced slowdown"] > 1.2


def test_soc_sweep(save_result):
    result = run_experiment("soc_sweep", runs=6)
    save_result(result)
    tax = result.column("AI tax fraction")
    assert tax[-1] > tax[0]


def test_streaming(save_result):
    result = run_experiment("streaming", runs=12)
    save_result(result)


def test_init_time(save_result):
    result = run_experiment("init_time")
    save_result(result)
    gpu_rows = [row for row in result.rows if row[1] == "gpu"]
    assert gpu_rows and gpu_rows[0][2] > 50  # GPU shader compile


def test_pipelining(save_result):
    result = run_experiment("pipelining", frames=15)
    save_result(result)
    rows = result.row_map("Mode")
    assert rows["pipelined"][5] > rows["sequential"][5]


def test_fastcv(save_result):
    result = run_experiment("ablation_fastcv", runs=8)
    save_result(result)


def test_driver_versions(save_result):
    result = run_experiment("driver_versions", invokes=6)
    save_result(result)
    rows = result.row_map("feature level")
    assert rows[1.1][2] and not rows[1.2][2]


def test_mlperf_gap(save_result):
    result = run_experiment("mlperf_gap", queries=20, runs=10)
    save_result(result)
    rows = {row[0]: row[1] for row in result.rows}
    assert rows["app/benchmark latency gap"] > 1.5


def test_resolution_sweep(save_result):
    result = run_experiment("resolution_sweep", runs=6)
    save_result(result)
    capture = result.column("capture ms")
    assert capture[-1] > capture[0]


def test_whatif(save_result):
    result = run_experiment("whatif", runs=8)
    save_result(result)
    assert result.series["accelerator_ceiling"][0] < 2.5


def test_takeaways(save_result):
    result = run_experiment("takeaways", runs=8)
    save_result(result)
    assert all(row[3] for row in result.rows)


def test_arvr_multimodel(save_result):
    result = run_experiment("arvr_multimodel", frames=8)
    save_result(result)
    rows = result.row_map("placement")
    assert rows["split dsp+gpu+cpu"][2] > rows["all-cpu"][2]
