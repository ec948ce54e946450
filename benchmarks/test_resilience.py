"""Bench: circuit breakers and brownout under an SSR storm.

The resilience experiment replays the same deterministic incident — a
subsystem restart takes a backend out mid-run — with the health
machinery off and on. The assertions pin the claims the machinery is
sold on: breakers recover goodput lost to routing-behind-the-reboot,
and brownout recovers more by degrading instead of queueing. A snapshot
of the simulated goodputs lands in ``results/BENCH_resilience.json``;
it holds no host timings, so CI diffs it against the committed file.
"""

import json

from repro.experiments import run_experiment

from .conftest import RESULTS_DIR


def test_resilience(save_result):
    result = run_experiment("resilience")
    save_result(result)

    modes = result.series["storm_mode"]
    goodputs = dict(zip(modes, result.series["storm_goodput_rps"]))
    # The headline: under a correlated outage, ejecting the rebooting
    # backend beats queueing behind it ...
    assert goodputs["breakers"] > goodputs["off"]
    # ... and degrading under the resulting backlog beats neither.
    assert goodputs["breakers+brownout"] >= goodputs["breakers"]
    # The incident actually exercised the machinery.
    breakers_row = next(
        row for row in result.rows if row[1] == "breakers"
    )
    assert breakers_row[8] >= 1  # breaker opens
    # No request may vanish: offered == completed + failed + turned
    # away is enforced inside run_service; here we just require the
    # storm never drove requests into terminal failure (the redispatch
    # budget covers one reboot).
    assert all(
        failed == 0 for failed in result.series["storm_failed"]
    )

    metrics = {
        "storm_goodput_off_rps": goodputs["off"],
        "storm_goodput_breakers_rps": goodputs["breakers"],
        "storm_goodput_brownout_rps": goodputs["breakers+brownout"],
        "breaker_goodput_lift": (
            goodputs["breakers"] / goodputs["off"]
            if goodputs["off"] else 0.0
        ),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "BENCH_resilience.json", "w") as handle:
        json.dump(metrics, handle, indent=2, sort_keys=True)
        handle.write("\n")
