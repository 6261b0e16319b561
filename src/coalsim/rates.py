"""Merger rates, the block-count decay rate, and derived scaling sequences.

For b current blocks, k of them merge at rate

    lam(b, k) = int p**(k-2) (1-p)**(b-k) L(dp),

where the p = 0 atom contributes only to k = 2.  The total jump rate is
lam(b) = sum_k C(b,k) lam(b,k) and the decay rate of the block count,
extended to real arguments x >= 1, is

    mu(x) = int (x p - 1 + (1-p)**x) / p**2 L(dp),

with integrand x(x-1)/2 at p = 0.  mu is increasing and convex with
mu(1) = 0, which makes the scale sequence s(n) solving mu(s) = mu(n)/n
well defined for any nontrivial measure.  It also keeps Newton's method
started right of a root from overshooting it, so `invert_mu` needs no
general root finder: a doubling bracket, then Newton steps on mu and its
closed-form mu'.

Every rate here is an exact expression: for point masses and for every
power-beta density (digamma limits at a = 1, the uniform density among
them, and at a = 2).  The test suite compares them with kernel quadrature
(`tests/rate_oracle.py`), with mpmath and with direct sums over k.  Only
the H transform of a power-beta density with b != 1 integrates
numerically, by `quadrature.integrate_tail` against the Beta(a, b)
probability density; for b < 1 the piece next to p = 1 runs in
t = (1-p)**b, so that no mass of (1-p)**(b-1) is lost however small b
is (the tests hold H to mpmath at 1e-12 relative down to b = 0.002).
"""

from __future__ import annotations

import math
from functools import lru_cache, partial

import numpy as np
from scipy import special

from .measure import LambdaMeasure, PowerBetaDensity
from .quadrature import integrate_tail

EULER_GAMMA = float(np.euler_gamma)

# Below p0 = _SERIES_CROSSOVER * min(1, 1/x) the kernels are evaluated by
# 4-term series; direct evaluation there loses digits to cancellation.
_SERIES_CROSSOVER = 1e-3

_RV_GRID = np.geomspace(1e3, 1e6, 25)


# ---------------------------------------------------------------------------
# kernels: stable pointwise evaluation of the 1/p**2 integrands, over p and
# x broadcast together; the series crossover is taken per element

def _series_split(p, x):
    """p and x broadcast to one float shape, and the mask p < p0(x)."""
    p, x = np.broadcast_arrays(np.asarray(p, dtype=float),
                               np.asarray(x, dtype=float))
    p0 = _SERIES_CROSSOVER * np.minimum(1.0, 1.0 / np.maximum(x, 1.0))
    return p, x, p < p0


def _mu_kernel(p, x):
    """(x p - 1 + (1-p)**x) / p**2, series-stabilized near p = 0."""
    p, x, small = _series_split(p, x)
    out = np.empty(p.shape)
    ps, xs = p[small], x[small]
    t2 = xs * (xs - 1.0) / 2.0
    t3 = t2 * (xs - 2.0) / 3.0
    t4 = t3 * (xs - 3.0) / 4.0
    t5 = t4 * (xs - 4.0) / 5.0
    out[small] = t2 - ps * (t3 - ps * (t4 - ps * t5))
    pl, xl = p[~small], x[~small]
    out[~small] = (xl * pl - 1.0 + np.exp(xl * np.log1p(-pl))) / pl ** 2
    return out


def _mu1_kernel(p, x):
    """((1-p)**x log(1-p) + p) / p**2, series-stabilized near p = 0."""
    p, x, small = _series_split(p, x)
    out = np.empty(p.shape)
    ps, xs = p[small], x[small]
    c0 = xs - 0.5
    c1 = (3.0 * xs * xs - 6.0 * xs + 2.0) / 6.0
    c2 = (2.0 * xs - 3.0) * (xs * xs - 3.0 * xs + 1.0) / 12.0
    # Python's pow of each distinct x, the floats of the formula at a
    # float x: numpy's vectorised pow can differ from it in the last bit
    u, back = np.unique(xs, return_inverse=True)
    c3 = np.array([(5.0 * v ** 4 - 40.0 * v ** 3 + 105.0 * v * v
                    - 100.0 * v + 24.0) / 120.0 for v in u.tolist()])[back]
    out[small] = c0 - ps * (c1 - ps * (c2 - ps * c3))
    pl, xl = p[~small], x[~small]
    w = np.log1p(-pl)
    out[~small] = (np.exp(xl * w) * w + pl) / pl ** 2
    return out


def _mu2_kernel(p, x):
    """(1-p)**x log(1-p)**2 / p**2; no cancellation, defined as 1 at p = 0."""
    p = np.asarray(p, dtype=float)
    w = np.log1p(-p)
    ratio = np.where(p > 0, np.divide(w, p, out=np.full_like(p, -1.0),
                                      where=p > 0), -1.0)
    return np.exp(x * w) * ratio ** 2


def _beta_continued(u, v):
    """Beta(u, v) by analytic continuation (gammasgn/gammaln), vectorized.
    0 where u + v is a pole of Gamma, as 1/Gamma(u + v) is there; the
    power-beta rates with a + b = 1 need these values."""
    # gammasgn is NaN at a pole; fmax makes that sign finite, so the
    # factor exp(-gammaln(u + v)) = 0 gives 0 instead of NaN
    sign = (special.gammasgn(u) * special.gammasgn(v)
            * np.fmax(special.gammasgn(u + v), -1.0))
    return sign * np.exp(special.gammaln(u) + special.gammaln(v)
                         - special.gammaln(u + v))


def _kingman_rate(mass: float, b: np.ndarray) -> np.ndarray:
    return mass * b * (b - 1.0) / 2.0


def _atom_rate(p: float, mass: float, b: np.ndarray) -> np.ndarray:
    """lam(b) = mass (1 - (1-p)**(b-1) (1 + (b-1) p)) / p**2 of an atom."""
    z = (b - 1.0) * math.log1p(-p) + np.log1p((b - 1.0) * p)
    return -np.expm1(z) * (mass / p ** 2)


def _powerbeta_rate(dens: PowerBetaDensity, arr: np.ndarray) -> np.ndarray:
    c, a, bp = dens.c, dens.a, dens.b
    # lam(b) = c [B(a-2,bp) - B(a-2,bp+b) - b B(a-1,bp+b-1)]; at a = 1
    # and a = 2 the poles of Gamma cancel to the digamma limits
    if a == 1.0:
        psi = special.digamma(bp) - special.digamma(bp + arr - 1.0)
        return c * (arr - 1.0 + (bp - 1.0) * psi)
    if a == 2.0:
        return c * (special.digamma(bp + arr) - special.digamma(bp)
                    - arr / (bp + arr - 1.0))
    return c * (_beta_continued(a - 2.0, bp)
                - _beta_continued(a - 2.0, bp + arr)
                - arr * _beta_continued(a - 1.0, bp + arr - 1.0))


def _log_binom(b, k):
    return (special.gammaln(b + 1.0) - special.gammaln(k + 1.0)
            - special.gammaln(b - k + 1.0))


class RateFunctions:
    """All rate-level quantities for one measure."""

    def __init__(self, measure: LambdaMeasure):
        if measure.is_trivial:
            raise ValueError("rates need a nonzero measure")
        self.measure = measure

    # -- merger rates -------------------------------------------------------

    def merger_rate(self, b: int, k: int) -> float:
        """lam(b, k): rate at which a given k-set of the b blocks merges."""
        if not (isinstance(b, (int, np.integer)) and isinstance(k, (int, np.integer))):
            raise ValueError("merger_rate takes integer block counts")
        if not 2 <= k <= b:
            raise ValueError(f"need 2 <= k <= b, got k={k}, b={b}")
        total = 0.0
        if k == 2:
            total += self.measure.atom_at_zero
        for p, m in self.measure.atoms:
            total += m * math.exp((k - 2) * math.log(p)
                                  + (b - k) * math.log1p(-p))
        for dens in self.measure.densities:
            total += dens.c * math.exp(
                special.betaln(dens.a + k - 2, dens.b + b - k))
        return total

    def total_jump_rate(self, b) -> float:
        """lam(b) = sum_k C(b,k) lam(b,k); vectorized over integer arrays.
        The sum of `component_rates`, added in their order."""
        arr = np.atleast_1d(np.asarray(b, dtype=float))
        if np.any(arr < 2) or np.any(arr != np.floor(arr)):
            raise ValueError("total_jump_rate needs integer b >= 2")
        out = np.zeros_like(arr)
        for rate in self.component_rates():
            out += rate(arr)
        return float(out[0]) if np.isscalar(b) or np.ndim(b) == 0 else out

    def component_rates(self) -> list:
        """lam(b) of each component of the measure alone: one function of
        a float array of integers b >= 2 per component, the mass at 0 first,
        then the atoms and the densities in the measure's order."""
        m = self.measure
        return ([partial(_kingman_rate, m.atom_at_zero)] * (m.atom_at_zero > 0)
                + [partial(_atom_rate, p, w) for p, w in m.atoms]
                + [partial(_powerbeta_rate, dens) for dens in m.densities])

    def merger_size_weights(self, b: int) -> np.ndarray:
        """Unnormalized P(K = k) weights C(b,k) lam(b,k) for k = 2..b."""
        if b < 2:
            raise ValueError("need b >= 2")
        b = int(b)
        ks = np.arange(2.0, b + 1.0)
        w = np.zeros(b - 1)
        logc = _log_binom(float(b), ks)
        if self.measure.atom_at_zero:
            w[0] += self.measure.atom_at_zero * b * (b - 1.0) / 2.0
        for p, m in self.measure.atoms:
            w += m * np.exp(logc + (ks - 2.0) * math.log(p)
                            + (b - ks) * math.log1p(-p))
        for dens in self.measure.densities:
            # c C(b,k) B(a+k-2, bp+b-k) for exponents (a, bp)
            a, bp = dens.a, dens.b
            w += dens.c * np.exp(logc + special.gammaln(a + ks - 2.0)
                                 + special.gammaln(bp + b - ks)
                                 - special.gammaln(a + bp + b - 2.0))
        return w

    def merger_size_distribution(self, b: int) -> np.ndarray:
        """P(K = k), k = 2..b: merger size of the next jump from b blocks."""
        w = self.merger_size_weights(b)
        return w / w.sum()

    def mean_decrement(self, b: int) -> float:
        """Expected drop of the block count per jump, mu(b)/lam(b)."""
        return self.rate_of_decrease(float(b)) / self.total_jump_rate(b)

    # -- mu and friends -----------------------------------------------------

    def rate_of_decrease(self, x) -> float:
        """mu(x) for real x >= 1 (scalar or array)."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(arr >= 1.0):     # also rejects NaN
            raise ValueError("mu is defined for x >= 1")
        out = self._mu_parts(arr, order=0)
        return float(out[0]) if np.ndim(x) == 0 else out

    def mu_derivatives(self, x: float) -> tuple[float, float, float]:
        """(mu(x), mu'(x), mu''(x)) at scalar x >= 1."""
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(arr >= 1.0):     # also rejects NaN
            raise ValueError("mu is defined for x >= 1")
        return tuple(float(self._mu_parts(arr, order=r)[0]) for r in (0, 1, 2))

    def _mu_parts(self, arr: np.ndarray, order: int) -> np.ndarray:
        out = np.zeros_like(arr)
        a0 = self.measure.atom_at_zero
        if a0:
            if order == 0:
                out += a0 * arr * (arr - 1.0) / 2.0
            elif order == 1:
                out += a0 * (arr - 0.5)
            else:
                out += a0
        kernel = (_mu_kernel, _mu1_kernel, _mu2_kernel)[order]
        for p, m in self.measure.atoms:
            out += m * kernel(p, arr)
        for dens in self.measure.densities:
            out += self._powerbeta_mu(dens, arr, order)
        return out

    def _powerbeta_mu(self, dens: PowerBetaDensity, arr: np.ndarray,
                      order: int) -> np.ndarray:
        c, a, bp = dens.c, dens.a, dens.b
        if a == 1.0:
            # digamma limits at the poles of Gamma, y = x + (bp - 1); bp = 1
            # is the uniform density, mu(x) = x (psi(x+1) + gamma - 1)
            y = arr + (bp - 1.0)
            if order == 2:
                return c * (2.0 * special.polygamma(1, y + 1.0)
                            + y * special.polygamma(2, y + 1.0))
            d = special.digamma(y + 1.0) - special.digamma(bp) - 1.0
            if order == 0:
                return c * y * d + c * (bp - 1.0)
            return c * (d + y * special.polygamma(1, y + 1.0))
        if a == 2.0:
            if order == 0:
                return c * (arr / bp + special.digamma(bp)
                            - special.digamma(bp + arr))
            if order == 1:
                return c * (1.0 / bp - special.polygamma(1, bp + arr))
            return -c * special.polygamma(2, bp + arr)
        # mu(x) = c [x B(a-1,bp) - B(a-2,bp) + B(a-2,bp+x)], continued Betas
        tail = _beta_continued(a - 2.0, bp + arr)
        if order == 0:
            return c * (arr * _beta_continued(a - 1.0, bp)
                        - _beta_continued(a - 2.0, bp) + tail)
        # z = 0 is a pole of Gamma(z), met at x = 2 - a - bp when a + bp
        # <= 1: there tail = 0 and d = inf, while -psi(z)/Gamma(z) -> 1 as
        # z -> 0 gives tail d -> Gamma(a-2) Gamma(bp+x) and
        # tail (d**2 + dp) -> 2 Gamma(a-2) Gamma(bp+x) (psi(bp+x) + gamma)
        z = a - 2.0 + bp + arr
        pole = z == 0.0
        limit = special.gamma(a - 2.0) * special.gamma(bp + arr)
        psi = special.digamma(bp + arr)
        with np.errstate(invalid="ignore"):
            d = psi - special.digamma(z)
            if order == 1:
                return c * (_beta_continued(a - 1.0, bp)
                            + np.where(pole, limit, tail * d))
            dp = special.polygamma(1, bp + arr) - special.polygamma(1, z)
            return c * np.where(pole, 2.0 * limit * (psi + EULER_GAMMA),
                                tail * (d * d + dp))

    def kappa(self, x):
        """mu(x)/x, the per-block decay rate."""
        return self.rate_of_decrease(x) / x

    def invert_mu(self, y: float) -> float:
        """The x >= 1 with mu(x) = y, to |mu(x) - y| <= 1e-9 max(1, y).

        The doubling bracket over the float range gives hi with mu(hi) >= y;
        Newton's method from there stays at or right of the root, since mu
        is increasing and convex, and stops once mu(x) <= y or a step no
        longer lowers x.  A y that is not finite, or that mu reaches only
        past an overflow, raises ValueError; a residual above the bound
        raises ArithmeticError."""
        y = float(y)    # a Newton step that overflows gives -inf, not a warning
        if y < 0:
            raise ValueError("mu is nonnegative")
        if y == 0:
            return 1.0
        hi = 2.0
        while (top := self.rate_of_decrease(hi)) < y and hi < math.inf:
            hi *= 2.0
        if not y <= top < math.inf:
            raise ValueError(f"mu never reaches {y} before it overflows")
        x, err = hi, top - y
        while err > 0:
            slope = float(self._mu_parts(np.array([x]), order=1)[0])
            step = max(x - err / slope, 1.0)
            if not step < x:
                break
            x, err = step, self.rate_of_decrease(step) - y
        if abs(err) > 1e-9 * max(1.0, y):
            raise ArithmeticError("mu inversion did not converge")
        return float(x)

    def s_at(self, n) -> float:
        """Scale s with mu(s) = mu(n)/n; s(n) ~ n**((alpha-1)/alpha).
        s(1) = 1, since mu(1) = 0 and mu increases."""
        arr = np.atleast_1d(np.asarray(n, dtype=float))
        if np.any(arr < 1.0):
            raise ValueError("s(n) needs n >= 1")
        # the closed forms leave a few ulp of either sign at mu(1)
        out = np.array([1.0 if v == 1.0 else
                        self.invert_mu(self.rate_of_decrease(v) / v)
                        for v in arr])
        return float(out[0]) if np.ndim(n) == 0 else out

    # -- H transform --------------------------------------------------------

    @staticmethod
    def _density_partial_mass(dens: PowerBetaDensity, u: float) -> float:
        if u <= 0:
            return 0.0
        if u >= 1.0:
            return dens.mass()
        return dens.c * special.beta(dens.a, dens.b) * special.betainc(
            dens.a, dens.b, u)

    @staticmethod
    def _density_tail_moment(dens: PowerBetaDensity, u: float,
                             power: int) -> float:
        """int_(u,1] p**(-power) against the density component."""
        if u >= 1.0:
            return 0.0
        a, b, c = dens.a, dens.b, dens.c
        if b == 1.0:
            e = a - power
            if e == 0.0:
                return -c * math.log(u)
            return c * (1.0 - u ** e) / e
        # integrated against the Beta(a, b) probability density, whose
        # integrals are not dwarfed by quadrature.ABS_TOL as those of a
        # density of tiny mass c B(a, b) would be
        log_beta = special.betaln(a, b)

        def f(p, q):
            return np.exp((a - 1.0 - power) * np.log(p)
                          + (b - 1.0) * np.log(q) - log_beta)

        return dens.mass() * integrate_tail(f, u, 1.0, b)

    def H_function(self, u: float) -> float:
        """H(u) = L({0})/2 + int_0^u h(z) dz, by exact reduction to
        L([0,u])/2 + u int_(u,1] L(dp)/p - u**2/2 int_(u,1] L(dp)/p**2."""
        if not 0.0 <= u <= 1.0:
            raise ValueError("H is defined on [0, 1]")
        total = self.measure.atom_at_zero / 2.0
        for p, m in self.measure.atoms:
            if p <= u:
                total += m / 2.0
            else:
                total += m * (u / p - u * u / (2.0 * p * p))
        for dens in self.measure.densities:
            total += self._density_partial_mass(dens, u) / 2.0
            if u > 0.0:
                total += u * self._density_tail_moment(dens, u, 1)
                total -= 0.5 * u * u * self._density_tail_moment(dens, u, 2)
        return total

    # -- diagnostics --------------------------------------------------------

    def dust_diagnostic(self) -> str:
        """"dustless" when int L(dp)/p diverges (the regime of the limit
        theorems), else "dusty".  Mass at 0 or a power-beta density with
        a <= 1 makes it diverge; interior atoms and power-beta densities
        with a > 1 keep it finite."""
        if self.measure.atom_at_zero > 0 or any(
                d.a <= 1.0 for d in self.measure.densities):
            return "dustless"
        return "dusty"

    def rv_exponent_estimate(self) -> float:
        """Least-squares slope of log mu over 25 log-spaced points on
        [1e3, 1e6].

        Estimates the regular-variation index alpha of mu.  Slowly varying
        factors (e.g. the uniform measure's log) bias the fit, which is why
        this is an estimate and the dust diagnostic is a separate rule-based
        check.
        """
        mu = self.rate_of_decrease(_RV_GRID)
        slope, _ = np.polyfit(np.log(_RV_GRID), np.log(mu), 1)
        return float(slope)


# ---------------------------------------------------------------------------
# measure-free sequences

def t_sequence(n) -> float:
    """loglog n - logloglog n + logloglog n / loglog n, clamped to 0.

    The clamp covers both undefined iterated logs (n <= e) and small n where
    the expression dips below 0.
    """
    arr = np.atleast_1d(np.asarray(n, dtype=float))
    out = np.zeros_like(arr)
    for i, v in enumerate(arr):
        if not v > 1.0:     # also rejects NaN
            raise ValueError("t(n) needs n > 1")
        ll = math.log(math.log(v)) if math.log(v) > 0 else float("-inf")
        if ll <= 0.0:
            continue
        lll = math.log(ll)
        out[i] = max(0.0, ll - lll + lll / ll)
    return float(out[0]) if np.ndim(n) == 0 else out


def t_c_sequence(n, c: float) -> float:
    """t(n) - log(c)/loglog n, clamped to 0; the N(t) observation times."""
    if not c > 0:     # also rejects NaN
        raise ValueError("c must be positive")
    arr = np.atleast_1d(np.asarray(n, dtype=float))
    out = np.zeros_like(arr)
    base = np.atleast_1d(t_sequence(arr))
    for i, v in enumerate(arr):
        ll = math.log(math.log(v)) if math.log(v) > 0 else 0.0
        if ll <= 0.0:
            continue
        out[i] = max(0.0, base[i] - math.log(c) / ll)
    return float(out[0]) if np.ndim(n) == 0 else out


# ---------------------------------------------------------------------------
# one RateFunctions per measure

@lru_cache(maxsize=64)
def rates_for(measure: LambdaMeasure) -> RateFunctions:
    return RateFunctions(measure)
