"""A golden output above the benchmark's orders.

The benchmark checks its order-9/10 outputs bit for bit; this pins one run at
order 14.  The surface is the seed-7 30-term order-8 draw of the benchmark's
generator (``perfbench/gen.py``, one stream for monomials and values),
padded to order 14, through the whole pipeline with the chain found
automatically.  The hash covers the normal-form JSON, the stage names and
the chain coefficients, hashed as ``perfbench/run.py``'s digest hashes them.
The recorded values come from the code before packed series keys; a change
that moves any output bit fails here.
"""

import hashlib
import importlib.util
import json
import random

from pathlib import Path

from moser_chains import Hypersurface, normalize_hypersurface

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"

GOLDEN_SHA256 = "6620d7dacc435e389c7621e57562089c5b1315d3db0b091338837564aef44fb0"
GOLDEN_STAGES = [
    "punctual3", "punctual4", "punctual5", "straighten", "harmonics", "levi", "absorb",
    "rotate", "reparam",
]


def load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_order_14_ladder_surface_is_bit_identical():
    rng = random.Random(7)
    obj = load_gen().rand_surface_json(rng, rng, 8, 30)
    obj["trunc_order"] = 14
    result = normalize_hypersurface(Hypersurface.from_json(obj))
    assert result.completed
    assert result.stage_names() == GOLDEN_STAGES
    phi = result.chain_curve.phi
    chain = [[m, str(phi.coeff(m).real), str(phi.coeff(m).imag)]
             for m in range(phi.n + 1) if phi.coeff(m)]
    assert len(chain) == 4
    blob = json.dumps([result.surface.to_json(), result.stage_names(), chain], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN_SHA256
