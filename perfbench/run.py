"""Host-time benchmark of the simulator: end-to-end walls and per-layer time.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout. Every measured operation runs in a
fresh interpreter (``perfbench/child.py``), because a user pays
interpreter start-up, imports and cold in-process memos on every CLI
invocation. Before timing, bytecode is compiled and one small warm-up
spawn per program is discarded, since users do not pay compilation on
every run.

A *round* is the workload's fixed list of inputs, one per program seed
derived from ``--seed``. Each input is run twice, by the program under
test and by the pinned copy of ``src/`` in ``inputs/``, and rounds
repeat while ``--seconds`` allows (at least twice). Times are reported
from the median live/pinned ratio (see ``measure``). Every spawn's
outputs are checked: reference digests for the recorded seeds, digest
agreement across repeats, programs and workloads for any seed, and the
service ledger. A failed check counts against ``attempted`` in
``failed``.

With ``--trace 1`` the run instead makes one ``-X importtime`` spawn,
one untraced spawn and one traced spawn (cProfile plus spans around the
package entry points) and prints the per-layer metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tarfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench-work")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.json")
PINNED_ARCHIVE = os.path.join(HERE, "inputs", "pinned_tree.tar.gz")
PINNED_DIR = os.path.join(WORK, "pinned")
#: The program under test, and the pinned copy of ``src/`` it is
#: measured against (see ``measure``).
LIVE = os.path.join(ROOT, "src")
PINNED = os.path.join(PINNED_DIR, "src")
#: Exit code of a child must arrive well inside the 180 s run limit.
SPAWN_TIMEOUT_S = 150

#: Inputs per round, one program seed each: a round covers two device
#: mixes or fault patterns, while ``check`` reads the same pinned input
#: under every seed. ``fleet_sim`` (the in-process fleet) stays runnable
#: and records the reference digests, but is not in BENCHMARK.json: see
#: README.md.
SPAWNS_PER_ROUND = {
    "fleet_sim": 2,
    "fleet_pool": 2,
    "serve_overload": 2,
    "check": 1,
}

#: Rounds every run makes, however slow the host: a median needs more
#: than one pair per input.
MIN_ROUNDS = 2

#: Operations one spawn attempts (fleet sessions, service runs, checker
#: passes), all charged as failed when the spawn dies.
SPAWN_OPS = {
    "fleet_sim": 256,
    "fleet_pool": 512,
    "serve_overload": 1,
    "check": 4,
}

#: Layer groups reported as ``<group>.self_s``: the ``repro`` packages
#: (``cli`` = the modules directly under ``repro/``). Time of any other
#: group, and time no repro function owns, is ``other.self_s``.
LAYERS = (
    "sim", "android", "soc", "frameworks", "apps", "processing", "models",
    "capture", "core", "faults", "fleet", "service", "analysis",
    "observability", "cli",
)

#: The pinned program's figures on the build host (2-vCPU Xeon VM,
#: rounded medians of ten unpaired runs, seeds 1-10). They only set the
#: scale of the reported times: see ``measure``.
PINNED_FIGURES = {
    "fleet_sim": {"setup_s": 0.24, "wall_s": 4.0, "work_per_s": 70.0},
    "fleet_pool": {"setup_s": 0.3, "wall_s": 4.2, "work_per_s": 71.0},
    "serve_overload": {
        "setup_s": 0.35, "wall_s": 1.08, "work_per_s": 29500.0,
    },
    "check": {"setup_s": 0.28, "wall_s": 7.9, "work_per_s": 26.6},
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def derive_seed(seed, index):
    """Program seed for spawn ``index`` of a run with benchmark ``seed``."""
    digest = hashlib.sha256(f"perfbench/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


# -- set-up --------------------------------------------------------------


def prepare():
    os.makedirs(os.path.join(WORK, "logs"), exist_ok=True)
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    extract_pinned()
    for program in (LIVE, PINNED):
        compileall.compile_dir(
            os.path.join(program, "repro"), quiet=1, workers=1
        )


def extract_pinned():
    """Unpack the pinned archive once per archive version.

    The archive holds ``src/``, ``tests/analysis/fixtures/``, the layer
    contract and the (empty) baselines as of the commit that added the
    benchmark. It is the input of ``check``, so later edits to the tree
    do not change that workload, and its ``src/`` is the reference
    program every run is measured against.
    """
    with open(PINNED_ARCHIVE, "rb") as handle:
        version = hashlib.sha256(handle.read()).hexdigest()
    marker = os.path.join(PINNED_DIR, ".archive-sha256")
    if os.path.exists(marker):
        with open(marker) as handle:
            if handle.read() == version:
                return
    if os.path.isdir(PINNED_DIR):
        import shutil

        shutil.rmtree(PINNED_DIR)
    os.makedirs(PINNED_DIR)
    with tarfile.open(PINNED_ARCHIVE) as archive:
        archive.extractall(PINNED_DIR, filter="data")
    with open(marker, "w") as handle:
        handle.write(version)


# -- spawning ------------------------------------------------------------


def spawn(workload, program_seed, *options, python_flags=(), program=LIVE):
    """Run one child; returns (record or None, its stdout and stderr)."""
    label = "pinned" if program == PINNED else "live"
    tag = f"{workload}-{program_seed}-{label}-{os.getpid()}"
    out_path = os.path.join(WORK, "logs", f"{tag}.json")
    log_path = os.path.join(WORK, "logs", f"{tag}.log")
    env = dict(os.environ)
    env["PYTHONPATH"] = program
    env.pop("REPRO_SANITIZE", None)
    command = [
        sys.executable, *python_flags, CHILD, workload, str(program_seed),
        out_path, *options,
    ]
    with open(log_path, "w") as log:
        spawned = time.monotonic()
        child = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=log, stderr=log,
            stdin=subprocess.DEVNULL,
        )
        try:
            code = child.wait(timeout=SPAWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            code = None
        exited = time.monotonic()
    with open(log_path) as log:
        output = log.read()
    os.remove(log_path)
    if code != 0 or not os.path.exists(out_path):
        print(
            f"spawn failed ({workload}, {label}, seed {program_seed}, "
            f"exit {code}):\n{output[-2000:]}",
            file=sys.stderr,
        )
        return None, output
    with open(out_path) as handle:
        record = json.load(handle)
    os.remove(out_path)
    record["spawned"] = spawned
    record["exited"] = exited
    return record, output


def timings(record):
    """Per-spawn host times in seconds (stamps are CLOCK_MONOTONIC)."""
    stamps = record["stamps"]
    values = {
        "setup_s": stamps["ready"] - record["spawned"],
        "wall_s": record["exited"] - record["spawned"],
        "main_s": stamps["main_end"] - stamps["main_start"],
    }
    if "rerun_end" in stamps:
        values["rerun_s"] = stamps["rerun_end"] - stamps["main_end"]
    return values


# -- output checks ---------------------------------------------------------


def digest_keys(workload, program_seed, record):
    """``{input key: digest}`` for one spawn's outputs (see Checker)."""
    digests = record["digests"]
    if workload in ("fleet_sim", "fleet_pool"):
        return {f"fleet:{record['ops']}:{program_seed}": digests["fleet"]}
    if workload == "serve_overload":
        return {f"service:{program_seed}": digests["service"]}
    return {f"check:{tool}": value for tool, value in digests.items()}


class Checker:
    """Compares each spawn's digests with the reference and each other.

    Keys name the program input: ``fleet:<sessions>:<seed>`` (shared by
    ``fleet_sim`` and ``fleet_pool``, so a pooled run must reproduce the
    in-process fleet), ``service:<seed>`` and ``check:<tool>``. A digest
    differs from the reference recorded for that input, or from the one
    an earlier spawn in this checkout produced, and the spawn's
    operations fail.
    """

    def __init__(self):
        with open(REFERENCE) as handle:
            self.reference = json.load(handle)["digests"]
        self.seen_path = os.path.join(WORK, "digests.json")
        self.seen = {}
        if os.path.exists(self.seen_path):
            with open(self.seen_path) as handle:
                self.seen = json.load(handle)
        self.mismatches = []

    def failed_ops(self, workload, program_seed, record):
        """Operations of this spawn that failed, digest checks included."""
        bad = 0
        for key, digest in digest_keys(workload, program_seed, record).items():
            expected = self.reference.get(key, self.seen.get(key))
            if expected is not None and expected != digest:
                self.mismatches.append(key)
                bad += 1
            self.seen.setdefault(key, digest)
        if bad and workload != "check":
            return record["attempted"]
        return min(record["attempted"], record["failed"] + bad)

    def save(self):
        partial = self.seen_path + ".tmp"
        with open(partial, "w") as handle:
            json.dump(self.seen, handle, sort_keys=True)
        os.replace(partial, self.seen_path)


# -- runs ------------------------------------------------------------------


class Tally:
    """Operations attempted and failed over one benchmark run."""

    def __init__(self, workload):
        self.workload = workload
        self.checker = Checker()
        self.attempted = 0
        self.failed = 0

    def account(self, program_seed, record):
        if record is None:
            self.attempted += SPAWN_OPS[self.workload]
            self.failed += SPAWN_OPS[self.workload]
            return
        self.attempted += record["attempted"]
        self.failed += self.checker.failed_ops(
            self.workload, program_seed, record
        )

    def run(self, program_seed, *options):
        record, _ = spawn(self.workload, program_seed, *options)
        self.account(program_seed, record)
        return record

    def result(self, metrics):
        self.checker.save()
        if self.checker.mismatches:
            print(
                "digest mismatch: " + ", ".join(self.checker.mismatches),
                file=sys.stderr,
            )
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def warm_up(workload, seed):
    """Discard one small spawn per program: page cache, lazy imports."""
    for program in (PINNED, LIVE):
        record, _ = spawn(
            workload, derive_seed(seed, 0), "--warmup", program=program
        )
        if record is None:
            raise SystemExit("warm-up spawn failed")


def measure(workload, seed, seconds):
    """End-to-end metrics, each relative to the pinned program.

    Other tenants of the host slow it by up to 2x, for seconds to
    minutes at a time (the same service input ran at 20k-44k requests/s
    within four minutes). Every spawn of the program under test is
    therefore paired with a spawn of the pinned copy of ``src/`` on the
    same input, next to it in time and in alternating order, and each
    pair gives a live/pinned ratio per figure. A figure is reported as
    the median ratio times the pinned program's figure on the build host
    (``PINNED_FIGURES``). Both sides' outputs are checked.
    """
    tally = Tally(workload)
    warm_up(workload, seed)
    per_round = SPAWNS_PER_ROUND[workload]
    ratios = {"setup_s": [], "wall_s": [], "main_s": []}
    rss = []
    started = time.monotonic()
    rounds = 0
    while True:
        round_started = time.monotonic()
        order = (PINNED, LIVE) if rounds % 2 == 0 else (LIVE, PINNED)
        for index in range(per_round):
            program_seed = derive_seed(seed, index)
            records = {
                program: spawn(workload, program_seed, program=program)[0]
                for program in order
            }
            for program in (PINNED, LIVE):
                tally.account(program_seed, records[program])
            if None in records.values():
                continue
            live_times = timings(records[LIVE])
            pinned_times = timings(records[PINNED])
            for name, values in ratios.items():
                values.append(live_times[name] / pinned_times[name])
            rss.append(records[LIVE]["peak_rss_mb"])
        rounds += 1
        now = time.monotonic()
        if rounds >= MIN_ROUNDS and (
            now - started + (now - round_started) > seconds
        ):
            break
    if not rss:
        raise SystemExit("no input completed on both programs")
    median = {
        name: statistics.median(values) for name, values in ratios.items()
    }
    print(
        f"{len(rss)} pairs; median live/pinned ratio: "
        + "  ".join(f"{name} {value:.4f}" for name, value in median.items()),
        file=sys.stderr,
    )
    pinned = PINNED_FIGURES[workload]
    values = {
        "setup_s": median["setup_s"] * pinned["setup_s"],
        "wall_s": median["wall_s"] * pinned["wall_s"],
        "work_per_s": pinned["work_per_s"] / median["main_s"],
        "peak_rss_mb": max(rss),
    }
    return tally.result({
        name: {"value": value, "unit": END_TO_END_UNITS[name]}
        for name, value in values.items()
    })


def import_times(output):
    """``(repro_s, third_party_s)`` self time from ``-X importtime``."""
    repro_us = other_us = 0
    for line in output.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        if name == "repro" or name.startswith("repro."):
            repro_us += int(fields[0])
        else:
            other_us += int(fields[0])
    return repro_us / 1e6, other_us / 1e6


def measure_layers(workload, seed):
    tally = Tally(workload)
    warm_up(workload, seed)
    program_seed = derive_seed(seed, 0)
    _record, import_output = spawn(
        workload, program_seed, "--imports-only",
        python_flags=("-X", "importtime"),
    )
    repro_import_s, other_import_s = import_times(import_output)
    plain = tally.run(program_seed)
    trace_path = os.path.join(WORK, f"trace-{workload}-{seed}.json")
    traced = tally.run(program_seed, "--trace", trace_path)
    if plain is None or traced is None:
        raise SystemExit("traced run failed")
    plain_times = timings(plain)
    trace = traced["trace"]
    busy = dict(trace["busy_s"])
    # Only the pool blocks: its parent on results, its workers on tasks.
    fleet_wait = sum(trace["wait_s"].values())
    spans = trace["spans"]
    counts = trace["counts"]
    events = counts.get("sim.events", 0)
    # Processes that simulate: the pool workers, else the one process.
    simulating = max(1, trace["processes"] - 1)
    sessions = trace["session_ms"]
    lookups = trace["cost_table_lookups"]
    files = traced.get("files", 0)
    values = {}
    for group in LAYERS:
        values[f"{group}.self_s"] = (busy.pop(group, 0.0), "s")
    other = sum(busy.values())
    values.update({
        "other.self_s": (other, "s"),
        "fleet.wait_s": (fleet_wait, "s"),
        "fleet.retries": (traced["retries"], "count"),
        "fleet.expand_s": (spans.get("fleet.expand", 0.0), "s"),
        "fleet.store_get_s": (spans.get("fleet.store_get", 0.0), "s"),
        "fleet.store_put_s": (spans.get("fleet.store_put", 0.0), "s"),
        "fleet.journal_record_s": (
            spans.get("fleet.journal_record", 0.0), "s"
        ),
        "fleet.aggregate_s": (spans.get("fleet.aggregate", 0.0), "s"),
        "fleet.rerun_s": (plain_times.get("rerun_s", 0.0), "s"),
        "fleet.session_ms_p50": (
            statistics.median(sessions) if sessions else 0.0, "ms"
        ),
        "fleet.session_ms_p95": (
            statistics.quantiles(sessions, n=20)[18] if sessions else 0.0,
            "ms",
        ),
        "service.calibrate_s": (plain.get("calibrate_s", 0.0), "s"),
        "service.requests_per_batch": (
            traced.get("requests_per_batch", 0.0), "req/batch"
        ),
        "sim.events": (events, "count"),
        "sim.host_us_per_event": (
            plain_times["main_s"] * simulating * 1e6 / events
            if events else 0.0,
            "us",
        ),
        "soc.cost_table_lookups": (lookups, "count"),
        "soc.cost_table_hit_ratio": (
            trace["cost_table_hits"] / lookups if lookups else 0.0, "ratio"
        ),
        "analysis.lint_s": (spans.get("analysis.lint", 0.0), "s"),
        "analysis.semcheck_s": (spans.get("analysis.semcheck", 0.0), "s"),
        "analysis.archcheck_s": (spans.get("analysis.archcheck", 0.0), "s"),
        "analysis.racecheck_s": (spans.get("analysis.racecheck", 0.0), "s"),
        "analysis.parses_per_file": (
            counts.get("analysis.parses", 0) / files if files else 0.0,
            "ratio",
        ),
        "import.repro_s": (repro_import_s, "s"),
        "import.third_party_s": (other_import_s, "s"),
        "trace.overhead_ratio": (
            timings(traced)["wall_s"] / plain_times["wall_s"], "ratio"
        ),
        "trace.attributed_ratio": (
            1.0 - other / trace["profiled_s"] if trace["profiled_s"] else 0.0,
            "ratio",
        ),
    })
    return tally.result({
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=sorted(SPAWNS_PER_ROUND)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"error: no program to measure: {ROOT}/src/repro is missing "
            "(run from the root of a checkout)",
            file=sys.stderr,
        )
        return 2
    prepare()
    if args.trace:
        result = measure_layers(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
