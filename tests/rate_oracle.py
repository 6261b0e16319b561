"""Quadrature oracle for the closed-form rates of `coalsim.rates`.

Plain functions of a measure made of mass at 0 and power-beta densities
c p**(a-1) (1-p)**(b-1): lam(b, k), lam(b) and mu, mu', mu'', each density
integrated against its 1/p**2 kernel by adaptive Gauss-Legendre.  The mass
at 0 enters in closed form.  The kernels of mu are the package's own
(`rates._mu_kernel` and its derivatives); the integration is independent of
the closed forms it checks.
"""

import math

import numpy as np

from coalsim.quadrature import adaptive_integrate
from coalsim.rates import (_SERIES_CROSSOVER, _mu1_kernel, _mu2_kernel,
                           _mu_kernel)

# The largest float below 1.  For q < 2**-54, 1 - q rounds to 1.0, where
# the kernels' log(1 - p) is -inf; they are bounded near p = 1, so the
# clamp moves them by O(2**-53), while the density sees q itself.
_P_BELOW_ONE = 1.0 - 2.0 ** -53


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


def integrate_unit_interval(f, left_exponent: float = 1.0,
                            right_exponent: float = 1.0) -> float:
    """Integrate f(p, q), q = 1 - p, over p in (0, 1) given its algebraic
    endpoint exponents.

    ``left_exponent`` a means f = O(p**(a-1)) as p -> 0, ``right_exponent``
    b means f = O(q**(b-1)) as q -> 0; both must be positive
    (integrability).  The interval is split at 1/2.  The left half is
    substituted by `power_substitution` so the transformed integrand is
    bounded.  The right half runs in q, and f is handed that q exactly;
    for b < 1 it runs in t = q**b, as `quadrature.integrate_tail` does,
    since q**(b-1) dq = dt / b: the integrand in t is bounded and keeps
    the mass next to p = 1 however small b is.  Where q = t**(1/b)
    underflows, f q**(1-b) is read at the smallest normal float.
    """
    if left_exponent <= 0 or right_exponent <= 0:
        raise ValueError("endpoint exponents must be positive for integrability")
    gl, ml = power_substitution(lambda p: f(p, 1.0 - p), left_exponent)
    left = adaptive_integrate(gl, 0.0, 0.5 ** (1.0 / ml))
    b = right_exponent
    if b >= 1.0:
        return left + adaptive_integrate(lambda q: f(1.0 - q, q), 0.0, 0.5)

    def gr(t):
        q = np.maximum(t ** (1.0 / b), np.finfo(float).tiny)
        return f(1.0 - q, q) * q ** (1.0 - b) / b

    return left + adaptive_integrate(gr, 0.0, 0.5 ** b)


def event_kernel(p, b: float):
    """P(Binomial(b, p) >= 2) / p**2 = sum_k C(b,k) p**(k-2) (1-p)**(b-k).

    Series coefficients are (i-1) C(b,i); direct evaluation goes through
    -expm1((b-1) log1p(-p) + log1p((b-1) p)).
    """
    p = np.asarray(p, dtype=float)
    out = np.empty_like(p)
    p0 = _SERIES_CROSSOVER / max(b, 1.0)
    small = p < p0
    ps = p[small]
    t2 = b * (b - 1.0) / 2.0
    t3 = 2.0 * (b * (b - 1.0) * (b - 2.0) / 6.0)
    t4 = 3.0 * (b * (b - 1.0) * (b - 2.0) * (b - 3.0) / 24.0)
    t5 = 4.0 * (b * (b - 1.0) * (b - 2.0) * (b - 3.0) * (b - 4.0) / 120.0)
    out[small] = t2 - ps * (t3 - ps * (t4 - ps * t5))
    pl = p[~small]
    z = (b - 1.0) * np.log1p(-pl) + np.log1p((b - 1.0) * pl)
    out[~small] = -np.expm1(z) / pl ** 2
    return out


def _against_densities(measure, kernel, p_power: int = 0,
                       q_power: int = 0) -> float:
    """Sum over the densities of int kernel(p) p**p_power q**q_power
    against each."""
    if measure.atoms:
        raise ValueError("the oracle takes mass at 0 and densities only")
    total = 0.0
    for dens in measure.densities:
        c, a, b = dens.c, dens.a, dens.b

        def f(p, q):
            return (kernel(np.minimum(p, _P_BELOW_ONE))
                    * c * p ** (a - 1.0 + p_power) * q ** (b - 1.0 + q_power))

        total += integrate_unit_interval(f, a + p_power, b + q_power)
    return total


def merger_rate(measure, b: int, k: int) -> float:
    """lam(b, k) = int p**(k-2) (1-p)**(b-k) L(dp)."""
    pair = measure.atom_at_zero if k == 2 else 0.0
    return pair + _against_densities(measure, np.ones_like, k - 2, b - k)


def total_jump_rate(measure, b: int) -> float:
    """lam(b) = int P(Binomial(b, p) >= 2) / p**2 L(dp)."""
    return (measure.atom_at_zero * b * (b - 1.0) / 2.0
            + _against_densities(measure, lambda p: event_kernel(p, b)))


def mu(measure, x: float, order: int = 0) -> float:
    """mu(x) (order 0), mu'(x) (1) or mu''(x) (2)."""
    x = float(x)
    a0 = measure.atom_at_zero
    at_zero = (a0 * x * (x - 1.0) / 2.0, a0 * (x - 0.5), a0)[order]
    kernel = (_mu_kernel, _mu1_kernel, _mu2_kernel)[order]
    return at_zero + _against_densities(measure, lambda p: kernel(p, x))
