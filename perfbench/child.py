"""One workload instance in a fresh interpreter (spawned by ``run.py``).

    python perfbench/child.py WORKLOAD SEED OUT_JSON [--warmup]
                              [--trace TRACE_JSON] [--imports-only]

``SEED`` is the program seed ``run.py`` derived from the benchmark seed;
the program sees only the inputs generated from it. The child writes
one JSON object to ``OUT_JSON``: monotonic stamps (``time.monotonic`` is
``CLOCK_MONOTONIC``, shared by every process on Linux, so ``run.py``
subtracts them from its own spawn stamp), operation counts, failures,
output digests and peak RSS. With ``--trace`` it also attaches cProfile
after set-up, wraps the package entry points in spans, and writes the
spans next to the per-package self-time table.

Workloads (sizes are constants so every commit runs the same work):

* ``fleet_sim``: ``run_fleet`` in process, no cache;
* ``fleet_pool``: the same fleet with two workers, a cold pass into a
  fresh result cache and journal, then a warm re-run served from them;
* ``serve_overload``: ``run_service`` at 1.15x the calibrated capacity
  of the default pool, with backend faults, breakers and brownout;
* ``check``: ``python -m repro check --check`` over the pinned input.
"""

import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import sys
import time

FLEET_SESSIONS = 256
WARMUP_SESSIONS = 16
FLEET_WORKERS = 2
#: The default 4-device pool is always calibrated from pool seed 0
#: (capacity 523 rps); the benchmark seed drives arrivals and faults.
POOL_DEVICES = 4
POOL_SEED = 0
SERVE_BATCH = 4
SERVE_OVERLOAD = 1.15
SERVE_WINDOW_S = 30.0
WARMUP_WINDOW_S = 1.0
CHECK_PATHS = ("src", "tests/analysis/fixtures")
CHECK_TOOLS = ("lint", "semcheck", "archcheck", "racecheck")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench-work")
PINNED_DIR = os.path.join(WORK, "pinned")


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb():
    """Largest RSS of this process and of any child it has reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# -- workloads ---------------------------------------------------------
#
# Each is a generator: it yields once when its inputs are ready (end of
# set-up; tracing attaches there), then returns its output record.


def fleet_digest(fleet, rendered):
    """Aggregate table plus every session's payload digest."""
    from repro.fleet import session_payload_digest

    lines = [rendered]
    lines.extend(
        session_payload_digest(result.to_dict()) for result in fleet
    )
    return sha256_text("\n".join(lines))


def render_aggregate(fleet):
    """What ``python -m repro fleet`` prints: the aggregate table."""
    from repro.fleet import aggregate_fleet

    return aggregate_fleet(fleet).to_experiment_result().render()


def fleet_sim(seed, warmup, stamps):
    from repro.fleet import paper_population, run_fleet
    import repro.apps  # noqa: F401  - imported by the first session anyway

    population = paper_population()
    sessions = WARMUP_SESSIONS if warmup else FLEET_SESSIONS
    yield
    stamps["main_start"] = time.monotonic()
    fleet = run_fleet(population, sessions=sessions, workers=1, seed=seed)
    stamps["main_end"] = time.monotonic()
    rendered = render_aggregate(fleet)
    return {
        "ops": sessions,
        "attempted": sessions,
        "failed": len(fleet.failures),
        "digests": {"fleet": fleet_digest(fleet, rendered)},
        "retries": 0,
    }


def fleet_pool(seed, warmup, stamps):
    from repro.fleet import paper_population, run_fleet
    import repro.apps  # noqa: F401

    population = paper_population()
    sessions = WARMUP_SESSIONS if warmup else FLEET_SESSIONS
    store = os.path.join(WORK, "tmp", f"pool-{os.getpid()}")
    options = dict(
        sessions=sessions, workers=FLEET_WORKERS, seed=seed,
        cache_dir=os.path.join(store, "cache"),
        journal=os.path.join(store, "journal.jsonl"),
    )
    yield
    shutil.rmtree(store, ignore_errors=True)
    os.makedirs(store)
    try:
        stamps["main_start"] = time.monotonic()
        cold = run_fleet(population, **options)
        stamps["main_end"] = time.monotonic()
        warm = run_fleet(population, **options)
        rendered = render_aggregate(warm)
        stamps["rerun_end"] = time.monotonic()
    finally:
        shutil.rmtree(store, ignore_errors=True)
    cold_rendered = render_aggregate(cold)
    cold_digest = fleet_digest(cold, cold_rendered)
    warm_digest = fleet_digest(warm, rendered)
    failed = len(cold.failures) + len(warm.failures)
    served_from_store = warm.simulated == 0 and warm.cache_hits == sessions
    if cold_digest != warm_digest or not served_from_store:
        failed = 2 * sessions
    supervision = cold.supervision
    return {
        "ops": sessions,
        "attempted": 2 * sessions,
        "failed": failed,
        "digests": {"fleet": cold_digest},
        "retries": sum(
            supervision.get(key, 0)
            for key in ("crashes", "timeouts", "respawns", "sim_retries")
        ),
    }


def serve_overload(seed, warmup, stamps):
    from repro.service import (
        ServiceConfig,
        build_pool,
        pool_capacity_rps,
        run_service,
    )

    started = time.monotonic()
    profiles, _ = build_pool(devices=POOL_DEVICES, seed=POOL_SEED, runs=3)
    calibrate_s = time.monotonic() - started
    config = ServiceConfig(
        rate_rps=SERVE_OVERLOAD * pool_capacity_rps(profiles, SERVE_BATCH),
        duration_s=WARMUP_WINDOW_S if warmup else SERVE_WINDOW_S,
        max_batch=SERVE_BATCH,
        devices=POOL_DEVICES,
        backend_fault_rate=0.05,
        breakers=True,
        brownout_high=16,
        brownout_low=6,
        seed=seed,
    )
    yield
    stamps["main_start"] = time.monotonic()
    result = run_service(config, profiles=profiles)
    stamps["main_end"] = time.monotonic()
    digest = result.digest()
    balanced = result.offered == (
        result.completed + result.failed + result.dropped + result.rejected
    )
    batches = sum(backend["served_batches"] for backend in result.backends)
    served = sum(backend["served_requests"] for backend in result.backends)
    return {
        "ops": result.offered,
        "attempted": 1,
        "failed": 0 if balanced else 1,
        "digests": {"service": digest},
        "requests_per_batch": served / batches if batches else 0.0,
        "calibrate_s": calibrate_s,
        "retries": 0,
    }


def check(seed, warmup, stamps):
    import repro.cli

    for tool in CHECK_TOOLS:  # what ``check`` imports, as set-up
        importlib.import_module(f"repro.analysis.{tool}")
    from repro.analysis.common import iter_python_files

    os.chdir(PINNED_DIR)
    paths = list(CHECK_PATHS[1:] if warmup else CHECK_PATHS)
    files = len(iter_python_files(paths))
    yield
    out = io.StringIO()
    stamps["main_start"] = time.monotonic()
    with contextlib.redirect_stdout(out):
        code = repro.cli.main(
            ["check", "--check", "--format", "json",
             "--contract", ".repro-arch.toml", *paths]
        )
    stamps["main_end"] = time.monotonic()
    payload = json.loads(out.getvalue())
    digests = {}
    for tool in CHECK_TOOLS:
        findings = sorted(
            (item["rule"], item["path"], item["line"])
            for item in payload.get(tool, [])
        )
        digests[tool] = sha256_text(json.dumps(findings))
    # Exit 1 means findings (the fixtures have some); 2 means a tool hit
    # a configuration or parse error, which fails every pass.
    return {
        "ops": files,
        "attempted": len(CHECK_TOOLS),
        "failed": 0 if code in (0, 1) else len(CHECK_TOOLS),
        "files": files,
        "digests": digests,
        "retries": 0,
    }


WORKLOADS = {
    "fleet_sim": fleet_sim,
    "fleet_pool": fleet_pool,
    "serve_overload": serve_overload,
    "check": check,
}


# -- tracing -------------------------------------------------------------


def install_spans(tracer):
    """Wrap the package entry points each layer metric is measured at."""
    import ast

    import repro.analysis.archcheck
    import repro.analysis.lint
    import repro.analysis.racecheck
    import repro.analysis.semcheck
    import repro.fleet
    import repro.fleet.runner
    import repro.fleet.session
    import repro.service
    from repro.fleet.cache import ResultCache
    from repro.fleet.supervisor import RunJournal
    from repro.sim import Simulator

    tracer.span(repro.fleet.runner, "expand_population", "fleet.expand")
    tracer.span(ResultCache, "get", "fleet.store_get")
    tracer.span(ResultCache, "put", "fleet.store_put")
    tracer.span(RunJournal, "record", "fleet.journal_record")
    tracer.span(sys.modules[__name__], "render_aggregate", "fleet.aggregate")
    tracer.span(repro.fleet.session, "simulate_session", "fleet.session")
    tracer.span(repro.fleet, "run_fleet", "fleet.run")
    tracer.span(repro.service, "run_service", "service.run")
    tracer.span(repro.analysis.lint, "lint_paths", "analysis.lint")
    tracer.span(repro.analysis.semcheck, "semcheck_paths", "analysis.semcheck")
    tracer.span(
        repro.analysis.archcheck, "archcheck_paths", "analysis.archcheck"
    )
    tracer.span(
        repro.analysis.racecheck, "racecheck_paths", "analysis.racecheck"
    )
    tracer.count_events(Simulator)

    parse = ast.parse

    def counted_parse(*args, **kwargs):
        tracer.counts["analysis.parses"] += 1
        return parse(*args, **kwargs)

    ast.parse = counted_parse


def trace_summary(tracer, profiler):
    """One process's per-layer figures: self time by package, spans, counts."""
    import pstats

    import repro
    from repro.soc.cost_tables import cost_table_stats

    from tracing import attribute_profile

    busy, waits, total = attribute_profile(
        pstats.Stats(profiler).stats,
        os.path.dirname(os.path.abspath(repro.__file__)),
    )
    table = cost_table_stats()
    return {
        "busy_s": busy,
        "wait_s": waits,
        "profiled_s": total,
        "spans": {
            name: tracer.span_seconds(name)
            for name in sorted({span[0] for span in tracer.spans})
        },
        "counts": dict(tracer.counts),
        "session_ms": [
            seconds * 1000.0 for seconds in tracer.durations("fleet.session")
        ],
        "cost_table_hits": table["hits"],
        "cost_table_lookups": table["hits"] + table["misses"],
    }


def merge_summaries(summaries):
    """Sum per-process summaries (the parent and its pool workers)."""
    merged = {}
    for summary in summaries:
        for key, value in summary.items():
            if isinstance(value, dict):
                into = merged.setdefault(key, {})
                for name, amount in value.items():
                    into[name] = into.get(name, 0) + amount
            elif isinstance(value, list):
                merged.setdefault(key, []).extend(value)
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


def worker_summary_path(parent_pid, pid):
    return os.path.join(WORK, "tmp", f"worker-{parent_pid}-{pid}.json")


def trace_pool_workers(tracer):
    """Profile each forked pool worker and write its summary at exit.

    Runs in the worker after multiprocessing's own after-fork clean-up:
    drops the profiler inherited from the parent, starts a fresh one,
    and registers a finaliser that multiprocessing runs when the worker
    shuts down.
    """
    import cProfile
    import multiprocessing.util

    parent_pid = os.getppid()
    sys.setprofile(None)
    tracer.reset()
    profiler = cProfile.Profile()

    def write_summary():
        profiler.disable()
        path = worker_summary_path(parent_pid, os.getpid())
        with open(path, "w") as handle:
            json.dump(trace_summary(tracer, profiler), handle)

    multiprocessing.util.Finalize(None, write_summary, exitpriority=10)
    profiler.enable()


def main(argv):
    workload, seed, out_path = argv[0], int(argv[1]), argv[2]
    warmup = "--warmup" in argv
    trace_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    stamps = {}
    tracer = profiler = None
    if trace_path is not None:
        import cProfile
        import glob
        import multiprocessing.util

        from tracing import Tracer

        tracer = Tracer()
        install_spans(tracer)
        multiprocessing.util.register_after_fork(tracer, trace_pool_workers)
    steps = WORKLOADS[workload](seed, warmup, stamps)
    next(steps)
    stamps["ready"] = time.monotonic()
    if tracer is not None:
        # Per-layer figures cover the profiled interval: drop what set-up
        # recorded (the service pool's calibration sessions, say).
        tracer.reset()
    if "--imports-only" in argv:
        with open(out_path, "w") as handle:
            json.dump({"stamps": stamps}, handle)
        return 0
    if trace_path is not None:
        profiler = cProfile.Profile()
        profiler.enable()
    try:
        next(steps)
    except StopIteration as stop:
        record = stop.value
    if profiler is not None:
        profiler.disable()
    record["stamps"] = stamps
    record["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        summaries = [trace_summary(tracer, profiler)]
        for path in sorted(glob.glob(worker_summary_path(os.getpid(), "*"))):
            with open(path) as handle:
                summaries.append(json.load(handle))
            os.remove(path)
        record["trace"] = merge_summaries(summaries)
        record["trace"]["processes"] = len(summaries)
        with open(trace_path, "w") as handle:
            json.dump(tracer.to_json(), handle)
    with open(out_path, "w") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
