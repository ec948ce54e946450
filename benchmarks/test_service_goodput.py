"""Bench: service-tier goodput, batching tradeoff, overload sweep.

Besides the rendered table, this test leaves
``results/BENCH_service_goodput.json`` behind — a snapshot of the
simulated goodput and p99. It holds no host timings, so a run leaves
the committed file unchanged unless the service's simulated results
move; CI diffs it. Host time of the service tier is measured by
``perfbench`` (the ``serve_overload`` workload).
"""

import json

from repro.experiments import run_experiment

from .conftest import RESULTS_DIR


def test_service_goodput(benchmark, save_result):
    result = benchmark.pedantic(
        run_experiment, args=("service_goodput",),
        kwargs={"devices": 4, "seed": 0},
        rounds=1, iterations=1,
    )
    save_result(result)

    factors = result.series["load_factor"]
    goodputs = result.series["load_goodput_rps"]
    throughputs = result.series["load_throughput_rps"]
    peak_goodput = max(goodputs)
    peak_goodput_factor = factors[goodputs.index(peak_goodput)]
    peak_throughput_factor = factors[
        throughputs.index(max(throughputs))
    ]
    # The service headline: goodput peaks at (or before) the offered
    # load where raw throughput saturates ...
    assert peak_goodput_factor <= peak_throughput_factor
    # ... and collapses under overload while throughput merely flattens.
    overload_goodput = goodputs[factors.index(max(factors))]
    overload_throughput = throughputs[factors.index(max(factors))]
    assert overload_goodput < 0.5 * peak_goodput
    assert overload_throughput > 0.6 * max(throughputs)

    # Batching buys throughput and, off the batch=1 queueing cliff,
    # latency too; past the knee extra batch size stops paying.
    batch_p99 = result.series["batch_p99_ms"]
    batch_throughput = result.series["batch_throughput_rps"]
    assert batch_throughput[1] > batch_throughput[0]
    assert batch_p99[1] < batch_p99[0]

    metrics = {
        "peak_goodput_rps": peak_goodput,
        "peak_goodput_load_factor": peak_goodput_factor,
        "overload_goodput_rps": overload_goodput,
        "overload_throughput_rps": overload_throughput,
        "p99_ms_at_peak": result.series["load_p99_ms"][
            goodputs.index(peak_goodput)
        ],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "BENCH_service_goodput.json", "w") as handle:
        json.dump(metrics, handle, indent=2, sort_keys=True)
        handle.write("\n")
    benchmark.extra_info.update(metrics)
