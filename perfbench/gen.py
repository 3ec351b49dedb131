"""Seeded random surfaces for the benchmark, written as surface JSON.

The draws follow ``rand_rat``, ``rand_gr``, ``rand_real_series3`` and
``rand_surface`` in ``tests/conftest.py`` and ``tests/test_normalize.py``
call for call: z zbar plus a random real perturbation whose monomials have
weight >= ``min_weight``, redrawn until the Levi coefficient is nonzero.
Passing the same ``random.Random`` stream as both arguments reproduces the
test generator exactly.

With two streams, monomial positions come from the first and coefficient
values from the second, and the positions alone fix which monomials appear:
values are drawn nonzero (a real part for diagonal terms), and a Levi redraw
draws new values for the same positions.

The library is never imported here: the benchmark hands it only the JSON that
``Hypersurface.from_json`` reads, so a change to the series classes cannot
change the inputs.
"""

from fractions import Fraction


def rand_rat(rng, num=6, den=4):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_real_perturbation(pos_rng, val_rng, n, terms, min_weight=1):
    """{(j, k, l): (re, im)} with Hermitian symmetry and weights <= n."""
    nonzero = pos_rng is not val_rng
    c = {}
    for _ in range(terms):
        for _ in range(200):
            j = pos_rng.randint(0, n)
            k = pos_rng.randint(0, n - j)
            l = pos_rng.randint(0, (n - j - k) // 2)
            if j + k + 2 * l >= min_weight:
                break
        while True:
            re, im = rand_rat(val_rng), rand_rat(val_rng)
            if j == k:
                im = Fraction(0)  # diagonal coefficients must be real
            if re or im or not nonzero:
                break
        cre, cim = c.get((j, k, l), (0, 0))
        c[(j, k, l)] = (cre + re, cim + im)
        if (k, j, l) != (j, k, l):
            cre, cim = c.get((k, j, l), (0, 0))
            c[(k, j, l)] = (cre + re, cim - im)
    return c


def surface_json(n, coeffs):
    """Surface JSON for z zbar + coeffs, sorted, exact zeros dropped."""
    entries = []
    for (j, k, l), (re, im) in sorted(coeffs.items()):
        if re or im:
            entries.append({"j": j, "k": k, "l": l, "re": str(re), "im": str(im)})
    return {"trunc_order": n, "coeffs": entries}


def rand_surface_json(pos_rng, val_rng, n, terms, min_weight=1):
    """A Levi-nondegenerate random surface of order n as surface JSON."""
    positions = pos_rng.getstate()
    while True:
        if pos_rng is not val_rng:
            pos_rng.setstate(positions)
        c = rand_real_perturbation(pos_rng, val_rng, n, terms, min_weight)
        re, im = c.get((1, 1, 0), (0, 0))
        c[(1, 1, 0)] = (re + 1, im)
        if c[(1, 1, 0)] != (0, 0):
            return surface_json(n, c)


def warmup_surface_json():
    """z zbar plus one conjugate pair in each of the weights 3, 4 and 5, order 6.

    Normalizing it runs all three punctual stages once, at low cost.
    """
    c = {(2, 1, 0): (1, 0), (3, 1, 0): (1, 0), (3, 2, 0): (1, 0)}
    c.update({(k, j, l): (re, -im) for (j, k, l), (re, im) in list(c.items())})
    c[(1, 1, 0)] = (1, 0)
    return surface_json(6, c)
