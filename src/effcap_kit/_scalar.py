"""Bracketed golden-section search on a scalar interval.

Derivative-free and safe for smooth unimodal objectives. It backs
rho_opt_numeric, the numerical cross-check of the closed-form training
split; the tests also use it as the reference route for the bit-energy
minimum.
"""

import math

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_max(f, a: float, b: float, xtol: float) -> float:
    """Return the approximate maximizer of f on [a, b].

    Assumes f is unimodal on the interval. The bracket shrinks by the
    inverse golden ratio per evaluation until its width is below xtol.
    """
    if not b > a:
        raise ValueError("need a < b")
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    fc = f(c)
    fd = f(d)
    while h > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INV_PHI2 * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INV_PHI * h
            fd = f(d)
    return 0.5 * (a + b)

