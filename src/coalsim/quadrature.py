"""Adaptive Gauss-Legendre integration with endpoint substitutions.

The integrands arising from coalescent rate computations are smooth in the
interior of (0, 1) but typically carry algebraic endpoint behaviour
``p**(a-1)`` at 0 and ``(1-p)**(b-1)`` at 1 with possibly fractional
exponents.  Integrable endpoint singularities (exponent in (0, 1)) are
removed by the power substitution ``p = t**m`` with integer ``m >= 1/a``,
after which panel-adaptive Gauss-Legendre converges geometrically.

Only the panel driver lives here; nodes come from
``numpy.polynomial.legendre.leggauss``.  Every integral is held to the
same tolerances, ``REL_TOL`` relative to the running estimate and
``ABS_TOL`` absolute, the floor that keeps an integral that is genuinely
zero from refining without end.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# Low/high rule orders compared on each panel; their difference drives refinement.
_ORDER_LOW = 15
_ORDER_HIGH = 31
_MAX_DEPTH = 48
_MAX_PANELS = 4096

REL_TOL = 1e-10
ABS_TOL = 1e-14

# Floor for the distance q to the right endpoint: under the substitution
# q = t**m a smaller q underflows to 0, where a factor q**(b-1) with b < 1
# is infinite.  The floor discards O(_Q_MIN**b) of the mass, below 1e-15
# for b >= 0.05.
_Q_MIN = float(np.finfo(float).tiny)


@lru_cache(maxsize=32)
def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def _panel_estimates(f, lo: float, hi: float) -> tuple[float, float]:
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xl, wl = _rule(_ORDER_LOW)
    xh, wh = _rule(_ORDER_HIGH)
    coarse = half * float(np.dot(wl, f(mid + half * xl)))
    fine = half * float(np.dot(wh, f(mid + half * xh)))
    return coarse, fine


def adaptive_integrate(f, lo: float, hi: float) -> float:
    """Integrate a vectorized callable over [lo, hi] by adaptive bisection.

    ``f`` must accept a numpy array and return an array of the same shape.
    Panels where the order-15 and order-31 Gauss-Legendre estimates disagree
    by more than the width-prorated tolerance are split until they agree or
    the depth cap is hit.
    """
    if hi <= lo:
        return 0.0
    total_width = hi - lo
    # Rough global scale for the relative tolerance.
    _, rough = _panel_estimates(f, lo, hi)
    scale = abs(rough)

    result = 0.0
    npanels = 0
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        coarse, fine = _panel_estimates(f, a, b)
        err = abs(fine - coarse)
        budget = max(ABS_TOL, REL_TOL * max(scale, abs(result))) \
            * (b - a) / total_width
        if err <= budget or depth >= _MAX_DEPTH or npanels >= _MAX_PANELS:
            result += fine
            npanels += 1
            scale = max(scale, abs(result))
        else:
            m = 0.5 * (a + b)
            stack.append((a, m, depth + 1))
            stack.append((m, b, depth + 1))
    return result


def power_substitution(f, exponent: float):
    """Map int_0^c f(p) dp with f ~ p**(exponent-1) to a bounded integrand.

    Returns (g, m) where int_0^c f(p) dp = int_0^(c**(1/m)) g(t) dt and g is
    bounded at 0 (g(t) = m t**(m-1) f(t**m) ~ t**(m*exponent - 1)).
    """
    if exponent >= 1.0:
        return f, 1
    m = max(2, math.ceil(1.0 / exponent))

    def g(t):
        tm = t ** m
        return m * t ** (m - 1) * f(tm)

    return g, m


def integrate_tail(f, lo: float, hi: float = 1.0,
                   right_exponent: float = 1.0) -> float:
    """Integrate f(p, q), q = hi - p, over p in (lo, hi), in log space for
    integrands peaked near lo.

    Used for tail moments like int_u^1 p**(a-3) dp where the mass sits at the
    lower endpoint over several decades.  Substituting p = exp(v) equalizes
    the decades below 1/2.  Above max(lo, 1/2) the integral runs in q with
    the algebraic substitution of the right endpoint, and f is handed that
    q exactly, so a factor q**(b-1) with b < 1 keeps its mass next to hi.
    """
    if lo <= 0:
        raise ValueError("integrate_tail requires lo > 0")
    if hi <= lo:
        return 0.0
    split = min(hi, max(lo, 0.5))
    result = 0.0
    if lo < split:
        def g(v):
            p = np.exp(v)
            return p * f(p, hi - p)

        result += adaptive_integrate(g, math.log(lo), math.log(split))
    if split < hi:
        gr, mr = power_substitution(
            lambda q: f(hi - q, np.maximum(q, _Q_MIN)), right_exponent)
        result += adaptive_integrate(gr, 0.0, (hi - split) ** (1.0 / mr))
    return result
