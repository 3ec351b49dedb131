"""Host speed probe, used to scale the benchmark's timings to a fixed speed.

On a shared host the same CPU-bound call can take from 1x to 2x its fastest
time, depending on what the other tenants of the core run at that moment.
That factor moves on a scale of seconds to minutes, so two sets of runs of
the same code taken twenty minutes apart can differ by a third.

The probe measures it.  It runs a fixed piece of pure-Python exact
arithmetic shaped like the library's inner loop, a truncated product of two
sparse three-index series whose coefficients are Gaussian rationals (a small
class over two ``Fraction``), and returns its CPU time.  Among the probes
tried, this one slowed down most nearly as much as the library's own calls
under the same load.  The benchmark probes before and after every timed
call and divides the call's CPU time by the mean of the two probes.
Multiplied by ``REF_UNIT_S``, the result is the call's time in seconds on a
host where one probe takes ``REF_UNIT_S``.

The probe depends on the standard library only, never on ``moser_chains``,
so no change to the library can change the scale.
"""

from fractions import Fraction
from time import process_time

# CPU time of one probe at the reference host speed: about the fastest it ran
# (0.041 s) on the 2-vCPU shared VM the benchmark was written on
REF_UNIT_S = 0.04


class _Gauss:
    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    def __mul__(self, o):
        return _Gauss(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __add__(self, o):
        return _Gauss(self.re + o.re, self.im + o.im)


def _series(seed, terms):
    out = {}
    for i in range(terms):
        key = ((seed * 7 + i * 5) % 11, (seed * 3 + i * 11) % 7, (seed + i * 3) % 5)
        out[key] = _Gauss(
            Fraction((seed + 3 * i) % 23 - 11 + i, 1 + (i * 13 + seed) % 17),
            Fraction((seed * i) % 19 - 9, 1 + (i * 7 + seed) % 13),
        )
    return out


_A, _B = _series(1, 120), _series(2, 120)


def _product():
    """Product of _A and _B, truncated at weight j + k + 2 l <= 16."""
    out = {}
    for (j1, k1, l1), a in _A.items():
        for (j2, k2, l2), b in _B.items():
            key = (j1 + j2, k1 + k2, l1 + l2)
            if key[0] + key[1] + 2 * key[2] <= 16:
                c = a * b
                out[key] = out[key] + c if key in out else c
    return out


def probe():
    """CPU seconds of one run of the reference work."""
    t0 = process_time()
    _product()
    return process_time() - t0


def scale(t, before, after):
    """CPU time t, taken between two probes, in seconds at reference speed."""
    return t * REF_UNIT_S * 2.0 / (before + after)
