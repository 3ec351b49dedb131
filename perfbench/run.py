"""Benchmark of ``moser_chains.normalize_hypersurface`` on seeded surfaces.

Run from the repository root:

    python3 perfbench/run.py --workload chain_dense --seed 1 --seconds 45 --trace 0

One process, one thread, one closed-loop caller: each call starts when the
previous one has returned.  The library is imported from ``src/`` of the
checkout the script sits in, and is called through its public API, not the
CLI.

Times are CPU seconds scaled to a fixed host speed: each call and each
set-up sits between two runs of ``hostspeed.probe``, and its CPU time is
divided by the mean probe time and multiplied by ``hostspeed.REF_UNIT_S``.
On a shared core this takes out the other tenants' load, which moves the
unscaled times by a third between runs minutes apart.

Set-up is repeated with a fresh import each time, and its median is reported
as ``setup_s``.  It covers the import, input generation and parsing, and two
warm-up calls: a fixed order-6 surface through the punctual stages, then the
batch's first surface.  They fill the library's module caches, so work moved
into those caches shows up in set-up.

A workload is a batch of surfaces.  The monomials of surface i come from a
random stream fixed by the workload name and i; the coefficients come from
``--seed``.  So every seed runs the same mix of pipeline stages on new
numbers, which keeps batch cost comparable between seeds.  The batch is
cycled until every surface ran and ``--seconds`` have gone by; a surface's
time is the mean of its calls.

Every output is checked: a full-pipeline result must be complete and in
normal form, a ``stop_after="punctual"`` result must have weights 3 to 5
empty and its weight-2 part equal to z zbar, and with ``verify=True`` every
stage must report a zero residual.  Every call must reproduce the surface's
first output bit for bit.  For the seeds in ``reference.json`` the per-surface digests of
normal form, stage names and chain coefficients must match the recorded ones.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a traced
pass between two untraced ones and reports the per-layer metrics of the
traced pass (see ``tracing.py``).  The last line of stdout is one JSON object; the
exit code is 1 when an output is wrong and 2 when the library cannot be
loaded.
"""

import argparse
import dataclasses
import hashlib
import importlib
import json
import random
import resource
import statistics
import sys
import traceback

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5

import gen  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402


@dataclass(frozen=True)
class Workload:
    order: int
    terms: int
    surfaces: int
    verify: bool
    stop_after: str = None


# orders and batch sizes keep one pass over a batch at about 5-15 s
WORKLOADS = {
    "chain_dense": Workload(order=10, terms=60, surfaces=4, verify=False),
    "chart_verify": Workload(order=9, terms=60, surfaces=10, verify=True, stop_after="punctual"),
}


class CheckFailed(Exception):
    pass


def load_library():
    """Import moser_chains afresh from SRC (module caches start empty)."""
    for name in [m for m in sys.modules if m == "moser_chains" or m.startswith("moser_chains.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = importlib.import_module("moser_chains")
    if SRC not in Path(lib.__file__).resolve().parents:
        raise ImportError("moser_chains was not loaded from %s" % SRC)
    return lib


def make_inputs(name, wl, seed):
    return [
        gen.rand_surface_json(
            random.Random("%s/monomials/%d" % (name, i)),
            random.Random("%s/%d/coefficients/%d" % (name, seed, i)),
            wl.order,
            wl.terms,
        )
        for i in range(wl.surfaces)
    ]


def setup_once(name, wl, seed):
    lib = load_library()
    surfaces = [lib.Hypersurface.from_json(obj) for obj in make_inputs(name, wl, seed)]
    # the punctual probes at order 6, then the first surface at full order
    warm = lib.Hypersurface.from_json(gen.warmup_surface_json())
    lib.normalize_hypersurface(warm, stop_after="punctual")
    lib.normalize_hypersurface(surfaces[0], verify=wl.verify, stop_after=wl.stop_after)
    return lib, surfaces


def digest(result):
    """Short hash of the normal form, the stage names and the chain."""
    chain = None
    if result.chain_curve is not None:
        phi = result.chain_curve.phi
        chain = [[m, str(phi.coeff(m).real), str(phi.coeff(m).imag)]
                 for m in range(phi.n + 1) if phi.coeff(m)]
    blob = json.dumps([result.surface.to_json(), result.stage_names(), chain], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def check(lib, wl, result):
    """Raise CheckFailed unless the result is what the workload promises."""
    if wl.stop_after is None:
        if not result.completed:
            raise CheckFailed("pipeline did not complete")
        try:
            lib.normalize.assert_normal_form(result.surface)
        except lib.InternalInvariantError as exc:
            raise CheckFailed(str(exc))
    else:
        low = [(e["j"], e["k"], e["l"], e["re"], e["im"]) for e in result.surface.to_json()["coeffs"]
               if e["j"] + e["k"] + 2 * e["l"] <= 5]
        if low != [(1, 1, 0, "1", "0")]:
            raise CheckFailed("weights <= 5 are not z zbar after the punctual stages")
    if wl.verify and not all(s.residual_zero is True for s in result.stages):
        raise CheckFailed("a stage lacks a zero residual")


class Batch:
    """Calls, timings and check outcomes of one run."""

    def __init__(self, lib, name, wl, surfaces):
        self.lib, self.name, self.wl, self.surfaces = lib, name, wl, surfaces
        self.times = [[] for _ in surfaces]  # at reference host speed
        self.raw = []  # (CPU seconds, seconds at reference speed) per call
        self.last_probe = hostspeed.probe()
        self.digests = [None] * len(surfaces)
        self.bad = set()
        self.attempted = 0
        self.failed = 0

    def call(self, i):
        """Normalize surface i once; return its result, or None if it raised."""
        wl = self.wl
        self.attempted += 1
        t0 = process_time()
        try:
            result = self.lib.normalize_hypersurface(
                self.surfaces[i], verify=wl.verify, stop_after=wl.stop_after
            )
        except Exception:
            self._fail(i, traceback.format_exc())
            return None
        t = process_time() - t0
        before, self.last_probe = self.last_probe, hostspeed.probe()
        self.times[i].append(hostspeed.scale(t, before, self.last_probe))
        self.raw.append((t, self.times[i][-1]))
        return result

    def check(self, i, result):
        """Check one result and that it repeats surface i's first output."""
        if result is None:
            return
        try:
            check(self.lib, self.wl, result)
            d = digest(result)
            if self.digests[i] is None:
                self.digests[i] = d
            elif d != self.digests[i]:
                raise CheckFailed("output differs from the first call")
        except CheckFailed as exc:
            self._fail(i, str(exc))

    def run_pass(self, checked=True):
        """Every surface once; return the summed call time and the results."""
        done = [len(t) for t in self.times]
        results = []
        for i in range(len(self.surfaces)):
            results.append(self.call(i))
            if checked:
                self.check(i, results[-1])
        return sum(sum(t[n:]) for t, n in zip(self.times, done)), results

    def run_for(self, seconds):
        """Cycle through the batch until every surface ran and seconds passed."""
        start = perf_counter()
        i = 0
        while i < len(self.surfaces) or perf_counter() - start < seconds:
            k = i % len(self.surfaces)
            self.check(k, self.call(k))
            i += 1

    def _fail(self, i, why):
        self.failed += 1
        self.bad.add(i)
        print("surface %d failed: %s" % (i, why.strip()), file=sys.stderr)

    def check_reference(self, seed, path):
        """Compare per-surface digests with the recorded ones, if any."""
        try:
            ref = json.loads(path.read_text()).get(self.name)
        except FileNotFoundError:
            return None
        if not ref or ref["order"] != self.wl.order or ref["surfaces"] != self.wl.surfaces:
            return None
        expected = ref["digests"].get(str(seed))
        if expected is None:
            return None
        for i, (got, want) in enumerate(zip(self.digests, expected)):
            if got != want and i not in self.bad:
                self.bad.add(i)
                self.failed += len(self.times[i])
                print("surface %d: digest %s, reference %s" % (i, got, want), file=sys.stderr)
        return True


def coeff_bits(series_json):
    bits = 0
    for e in series_json["coeffs"]:
        for part in (e["re"], e["im"]):
            for num in part.lstrip("-").split("/"):
                bits = max(bits, int(num).bit_length())
    return bits


def end_to_end(batch, setup_times):
    mean = [statistics.fmean(t) for t in batch.times if t]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "surfaces_per_min": (60.0 * len(mean) / sum(mean), "surfaces/min"),
        "surface_s_p50": (statistics.median(mean), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
    }


def per_layer(batch):
    """A traced pass between two untraced ones; the traced pass's metrics.

    The traced pass is checked after the tracer is removed, so the checks add
    nothing to the counts.  Its overhead is taken against the mean of the
    untraced passes around it, which cancels a steady drift in machine speed.
    """
    before, _ = batch.run_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, results = batch.run_pass(checked=False)
    finally:
        tracer.uninstall()
    after, _ = batch.run_pass()
    bits = terms = 0
    for i, result in enumerate(results):
        batch.check(i, result)
        if result is not None:
            terms += len(result.surface.to_json()["coeffs"])
            for s in [*result.stages, result]:
                bits = max(bits, coeff_bits(s.surface.to_json()))
    metrics = tracer.metrics()
    metrics["series_core.max_coeff_bits"] = (bits, "bits")
    metrics["series_core.output_terms"] = (terms, "count")
    metrics["trace_overhead_frac"] = (2.0 * traced / (before + after) - 1.0, "ratio")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--order", type=int, help="override the workload's order (smoke tests)")
    ap.add_argument("--surfaces", type=int, help="override the batch size (smoke tests)")
    ap.add_argument("--reference", type=Path, default=REFERENCE)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    if args.order is not None:
        wl = dataclasses.replace(wl, order=args.order)
    if args.surfaces is not None:
        wl = dataclasses.replace(wl, surfaces=args.surfaces)

    sys.path.insert(0, str(SRC))
    setup_times = []
    try:
        probe = hostspeed.probe()
        for _ in range(SETUP_REPEATS):
            t0 = process_time()
            lib, surfaces = setup_once(args.workload, wl, args.seed)
            t = process_time() - t0
            before, probe = probe, hostspeed.probe()
            setup_times.append(hostspeed.scale(t, before, probe))
    except ImportError as exc:
        print("cannot load moser_chains from %s: %s" % (SRC, exc), file=sys.stderr)
        return 2

    batch = Batch(lib, args.workload, wl, surfaces)
    if args.trace:
        metrics = per_layer(batch)
    else:
        batch.run_for(args.seconds)
        metrics = end_to_end(batch, setup_times)
    checked = batch.check_reference(args.seed, args.reference)

    correct = batch.failed == 0
    print("workload %s: order %d, %d surfaces x %d terms, verify=%s, stop_after=%s, seed %d"
          % (args.workload, wl.order, wl.surfaces, wl.terms, wl.verify, wl.stop_after, args.seed))
    print("digests: %s" % " ".join(str(d) for d in batch.digests))
    print("reference: %s" % ("checked" if checked else "not recorded for this seed"))
    print("calls: %d over %d surfaces" % (batch.attempted, len(surfaces)))
    if batch.raw:
        cpu, ref = map(sum, zip(*batch.raw))
        print("host speed: calls took %.4g CPU s, %.4g s at reference speed (factor %.3f)"
              % (cpu, ref, cpu / ref))
    for key, (value, unit) in metrics.items():
        print("%-58s %14.6g %s" % (key, value, unit))
    print("%-58s %14.6g %s" % ("failed_frac", batch.failed / batch.attempted, "ratio"))
    print(json.dumps({
        "correct": correct,
        "attempted": batch.attempted,
        "failed": batch.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
