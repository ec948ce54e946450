"""Record the reference output digests ``run.py`` checks against.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are known to be right (the
benchmark's digests were recorded at the commit that added it). Records
every program input a run with the default seed or the held-out seed
feeds the program: two fleets and two service runs per seed, and the
``check`` findings, which do not depend on the seed. A change is tuned
on the default seed; the held-out seed re-checks its claim on inputs
not used while it was written.
"""

import json
import os

import run

DEFAULT_SEED = 0
HELD_OUT_SEED = 101


def main():
    run.prepare()
    digests = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for workload in ("fleet_sim", "serve_overload"):
            for index in range(run.SPAWNS_PER_ROUND[workload]):
                program_seed = run.derive_seed(seed, index)
                record, _ = run.spawn(workload, program_seed)
                if record is None or record["failed"]:
                    raise SystemExit(f"{workload} seed {program_seed} failed")
                digests.update(
                    run.digest_keys(workload, program_seed, record)
                )
    record, _ = run.spawn("check", run.derive_seed(DEFAULT_SEED, 0))
    if record is None or record["failed"]:
        raise SystemExit("check failed")
    digests.update(run.digest_keys("check", 0, record))
    payload = {
        "seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED},
        "digests": dict(sorted(digests.items())),
    }
    with open(run.REFERENCE, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {os.path.relpath(run.REFERENCE)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
