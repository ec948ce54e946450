"""Engine fingerprints and replay digests: the observably-free guard.

The paper's discipline — measure overhead before claiming a win —
applied to the simulator itself. A perf PR must be *observably free*:
faster wall clock, identical simulation. This module is the
"identical simulation" half of that contract: sha256 content hashes
of figure-experiment outputs (:func:`experiment_fingerprint`) and of
the sanitizer's popped-event replay stream (:func:`fleet_replay_digest`),
gathered by :func:`engine_fingerprints`. The committed golden copy
(``benchmarks/results/ENGINE_golden_digests.json``) was generated on
the *pre-optimization* engine; ``benchmarks/test_engine_golden.py``
re-derives the fingerprints on every run and fails on any drift, so an
"optimization" that changes a single popped event or output byte
cannot land silently. The "faster wall clock" half is host time,
measured spawn to exit by ``perfbench`` and gated by
``benchmarks/perf_gate.py``.

See ``docs/performance.md`` for the workflow.
"""

import hashlib
import json

#: The figure experiments fingerprinted by the engine guard, with the
#: exact kwargs the guard runs them under. Small enough to run in a
#: smoke job, large enough to exercise the CPU path, both delegates,
#: NNAPI partitioning, interference, DVFS, and the fleet expander.
FINGERPRINT_EXPERIMENTS = (
    ("fig4", {"runs": 4}),
    ("fig7", {}),
    ("fleet_percentiles", {"sessions": 12, "runs": 4, "seed": 0}),
)

#: Workload for the replay-digest half of the guard: a seeded fleet
#: run replayed twice under the sanitizer.
REPLAY_WORKLOAD = {"sessions": 6, "runs": 3, "seed": 0}


def canonical_digest(payload):
    """sha256 of the canonical (sorted-keys) JSON rendering."""
    encoded = json.dumps(
        payload, sort_keys=True, default=repr
    ).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def experiment_fingerprint(experiment_id, **kwargs):
    """Content hash of one experiment's full tabular output."""
    from repro.experiments import run_experiment

    result = run_experiment(experiment_id, **kwargs)
    return canonical_digest({
        "experiment_id": result.experiment_id,
        "headers": list(result.headers),
        "rows": [list(row) for row in result.rows],
        "series": result.series,
        "notes": result.notes,
    })


def fleet_replay_digest(sessions=None, runs=None, seed=None):
    """Dual-run sanitizer digest of a seeded single-process fleet run.

    Replays the fleet scenario twice with every simulator instrumented;
    raises if the two replays diverge (a determinism regression), else
    returns the combined popped-event-stream digest that the golden
    file pins.
    """
    from repro.analysis.sanitize import dual_run
    from repro.fleet import run_fleet

    workload = dict(REPLAY_WORKLOAD)
    if sessions is not None:
        workload["sessions"] = sessions
    if runs is not None:
        workload["runs"] = runs
    if seed is not None:
        workload["seed"] = seed

    report = dual_run(lambda: run_fleet(workers=1, **workload))
    if not report.identical:
        raise AssertionError(
            "fleet replay diverged between two in-process runs:\n"
            + report.render()
        )
    return {
        "digest": report.digest_a,
        "events": report.events,
        "workload": workload,
    }


def engine_fingerprints():
    """Every fingerprint the golden file pins, freshly computed."""
    replay = fleet_replay_digest()
    return {
        "experiments": {
            experiment_id: experiment_fingerprint(experiment_id, **kwargs)
            for experiment_id, kwargs in FINGERPRINT_EXPERIMENTS
        },
        "replay": {
            "digest": replay["digest"],
            "events": replay["events"],
            "workload": replay["workload"],
        },
    }
