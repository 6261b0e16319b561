"""Adaptive Gauss-Legendre integration with endpoint substitutions.

The integrands arising from coalescent rate computations are smooth in the
interior of (0, 1) but typically carry algebraic endpoint behaviour
``p**(a-1)`` at 0 and ``(1-p)**(b-1)`` at 1 with possibly fractional
exponents.  `integrate_tail` spreads the decades next to its lower limit
by p = exp(v) and removes an integrable right endpoint singularity
``q**(b-1)``, q the distance to the endpoint and 0 < b < 1, by running in
``t = q**b``: ``q**(b-1) dq = dt/b`` leaves a bounded integrand however
small b is, after which panel-adaptive Gauss-Legendre converges
geometrically.

Only the panel driver lives here; nodes come from
``numpy.polynomial.legendre.leggauss``.  `adaptive_integrate` takes arrays
of bounds: the first panel of every interval is evaluated in one call of
the integrand, and only the intervals whose first panel misses its budget
refine, each alone, so a batch returns the floats of one call per
interval.  Every integral is held to the same tolerances, ``REL_TOL``
relative to the running estimate and ``ABS_TOL`` absolute, the floor that
keeps an integral that is genuinely zero from refining without end.
`tally` counts integrals, accepted panels and panels accepted at a cap.
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

# Running totals over the process: intervals integrated, panels accepted,
# and panels accepted at the depth or panel cap with their error above
# budget.  Read a difference of two copies to count one piece of work.
tally = {"integrals": 0, "panels": 0, "cap_hits": 0}


@lru_cache(maxsize=1)
def _rules() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The order-15 and order-31 nodes side by side, and each rule's weights."""
    xl, wl = np.polynomial.legendre.leggauss(_ORDER_LOW)
    xh, wh = np.polynomial.legendre.leggauss(_ORDER_HIGH)
    return np.concatenate([xl, xh]), wl, wh


def _panel_estimates(f, lo: np.ndarray, hi: np.ndarray) -> list:
    """The (order-15, order-31) estimate pair of every panel
    [lo[i], hi[i]], from one call of f on all their nodes."""
    nodes, wl, wh = _rules()
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    values = f((mid[:, None] + half[:, None] * nodes).ravel())
    values = np.asarray(values, dtype=float).reshape(len(lo), -1)
    return [(h * float(np.dot(wl, v[:_ORDER_LOW])),
             h * float(np.dot(wh, v[_ORDER_LOW:])))
            for h, v in zip(half.tolist(), values)]


def _bisect(f, lo: float, hi: float, first: tuple[float, float]) -> float:
    """int_lo^hi f by adaptive bisection, given the (coarse, fine)
    estimates of the first panel, [lo, hi] itself.  Its fine estimate
    also sets the scale of the relative tolerance."""
    total_width = hi - lo
    scale = abs(first[1])
    result = 0.0
    npanels = 0
    stack = [(lo, hi, 0)]
    while stack:
        a, b, depth = stack.pop()
        if depth:
            (coarse, fine), = _panel_estimates(f, np.array([a]),
                                               np.array([b]))
        else:
            coarse, fine = first
        err = abs(fine - coarse)
        budget = max(ABS_TOL, REL_TOL * max(scale, abs(result))) \
            * (b - a) / total_width
        if err <= budget or depth >= _MAX_DEPTH or npanels >= _MAX_PANELS:
            result += fine
            npanels += 1
            scale = max(scale, abs(result))
            tally["cap_hits"] += err > budget
        else:
            m = 0.5 * (a + b)
            stack.append((a, m, depth + 1))
            stack.append((m, b, depth + 1))
    tally["panels"] += npanels
    return result


def adaptive_integrate(f, lo, hi):
    """Integrate a vectorized callable over [lo, hi] by adaptive bisection.

    ``lo`` and ``hi`` are floats or arrays of one shape; an array of bounds
    gives the array of integrals, 0.0 wherever hi <= lo.  ``f`` must accept
    a 1-d numpy array and return an array of the same shape.  Panels where
    the order-15 and order-31 Gauss-Legendre estimates disagree by more
    than the width-prorated tolerance are split until they agree or a cap
    (depth 48, 4096 panels) is hit.  The first panel of every interval,
    the whole interval, is evaluated in one call of ``f`` for all of them;
    its fine estimate is also the scale of the relative tolerance.  An
    interval whose first panel misses its budget is then refined alone,
    one call of ``f`` per panel, so each integral is the float a call with
    that interval alone returns.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float))
    out = np.zeros(lo.shape)
    live = np.flatnonzero(~(hi <= lo))
    lo, hi = lo.ravel()[live], hi.ravel()[live]
    tally["integrals"] += live.size
    if live.size:
        out.flat[live] = [_bisect(f, a, b, first) for a, b, first in zip(
            lo.tolist(), hi.tolist(), _panel_estimates(f, lo, hi))]
    return float(out) if out.ndim == 0 else out


def integrate_tail(f, lo: float, hi: float = 1.0,
                   right_exponent: float = 1.0) -> float:
    """Integrate f(p, q), q = hi - p, over p in (lo, hi), in log space for
    integrands peaked near lo.

    Used for tail moments like int_u^1 p**(a-3) dp where the mass sits at the
    lower endpoint over several decades.  Substituting p = exp(v) equalizes
    the decades below 1/2.  Above max(lo, 1/2) the integral runs in q, and f
    is handed that q.  For a right exponent b < 1, f ~ q**(b-1) there, and
    the integral runs in t = q**b, since q**(b-1) dq = dt / b: the
    integrand in t is bounded and keeps the mass next to hi, however small
    b is.  Where q = t**(1/b) underflows, f q**(1-b) is read at the
    smallest normal float, at which it has long reached its limit.
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
        b = right_exponent
        if b < 1.0:
            def gr(t):
                q = np.maximum(t ** (1.0 / b), np.finfo(float).tiny)
                return f(hi - q, q) * q ** (1.0 - b) / b

            result += adaptive_integrate(gr, 0.0, (hi - split) ** b)
        else:
            result += adaptive_integrate(lambda q: f(hi - q, q), 0.0,
                                         hi - split)
    return result
