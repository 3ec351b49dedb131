"""One-off baseline cross-check against the timings quoted in ROADMAP.md.

Generator seed 7, one stream, 60-term perturbation (the first surface that
``rand_surface(random.Random(7), n, 60)`` in the tests draws), orders 8, 10,
12 and 14, ``verify=False``, chain caches warmed first.  Prints the median of
three calls per order.  Not a workload: run it by hand from the repository
root with ``python3 perfbench/crosscheck.py``.
"""

import random
import statistics
import sys

from time import perf_counter

import gen
import run


def main():
    sys.path.insert(0, str(run.SRC))
    lib = run.load_library()
    for n in (8, 10, 12, 14):
        rng = random.Random(7)
        M = lib.Hypersurface.from_json(gen.rand_surface_json(rng, rng, n, 60))
        lib.normalize_hypersurface(lib.Hypersurface.from_json(gen.warmup_surface_json()),
                                   stop_after="punctual")
        times = []
        for _ in range(3):
            t0 = perf_counter()
            result = lib.normalize_hypersurface(M)
            times.append(perf_counter() - t0)
            run.check(lib, run.WORKLOADS["chain_dense"], result)
        print("order %2d: median %.2f s of %s" % (n, statistics.median(times),
                                                  ", ".join("%.2f" % t for t in times)), flush=True)


if __name__ == "__main__":
    main()
