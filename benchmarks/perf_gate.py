"""Gate: perfbench ``fleet_pool`` throughput, base tree vs this tree.

    python benchmarks/perf_gate.py BASE_DIR

``BASE_DIR`` is an unpacked copy of the base commit (``git archive``).
The gate runs ``perfbench/run.py --workload fleet_pool`` of each tree
four times, in the order base, change, change, base, so host drift
during the gate weighs on both sides alike. Every perfbench run already
pairs its program with perfbench's pinned copy of ``src/``, so the two
trees' figures compare on one runner. Exit status 1 if a run exits
non-zero or reports failed operations, or if the change's median
``work_per_s`` falls below ``FLOOR`` times the base's.
"""

import json
import pathlib
import statistics
import subprocess
import sys

CHANGE_DIR = pathlib.Path(__file__).resolve().parent.parent
ORDER = ("base", "change", "change", "base")
#: Change median work_per_s below this share of the base median fails.
FLOOR = 0.80


def run_fleet_pool(tree):
    """Exit code and last-line JSON result of one perfbench run."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"),
         "--workload", "fleet_pool"],
        stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return proc.returncode, None
    return proc.returncode, json.loads(lines[-1])


def main(argv):
    if len(argv) != 2:
        print("usage: python benchmarks/perf_gate.py BASE_DIR", file=sys.stderr)
        return 2
    trees = {"base": pathlib.Path(argv[1]).resolve(), "change": CHANGE_DIR}
    rates = {"base": [], "change": []}
    for side in ORDER:
        code, result = run_fleet_pool(trees[side])
        if result is None or result["failed"] > 0:
            print(f"perf-gate: {side} run failed (exit {code}): {result}")
            return 1
        rates[side].append(result["metrics"]["work_per_s"]["value"])
        print(f"perf-gate: {side} work_per_s {rates[side][-1]:.1f}")
    base = statistics.median(rates["base"])
    change = statistics.median(rates["change"])
    verdict = "ok" if change >= FLOOR * base else "REGRESSION"
    print(
        f"perf-gate: fleet_pool work_per_s base {base:.1f}, change "
        f"{change:.1f}, floor {FLOOR * base:.1f} -> {verdict}"
    )
    return 0 if verdict == "ok" else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
