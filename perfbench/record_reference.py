"""Record reference.json: per-surface output digests for the reference seeds.

Run from the repository root:

    python3 perfbench/record_reference.py

Each surface of each seed's batch is normalized once and must pass the
benchmark's output checks.  Only re-record when the library's outputs are
meant to change; the benchmark then compares every later run against them.
"""

import json
import sys

import run

SEEDS = range(10)


def record(name, wl):
    lib = run.load_library()
    digests = {}
    for seed in SEEDS:
        surfaces = [lib.Hypersurface.from_json(obj) for obj in run.make_inputs(name, wl, seed)]
        batch = run.Batch(lib, name, wl, surfaces)
        batch.run_pass()
        if batch.failed:
            raise SystemExit("%s seed %d: %d surfaces failed" % (name, seed, batch.failed))
        digests[str(seed)] = batch.digests
        print(name, seed, " ".join(batch.digests), flush=True)
    return {"order": wl.order, "surfaces": wl.surfaces, "digests": digests}


def main():
    sys.path.insert(0, str(run.SRC))
    ref = {name: record(name, wl) for name, wl in sorted(run.WORKLOADS.items())}
    run.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
