"""Rate layer: closed forms against hand-derived values, against the
quadrature oracle of `rate_oracle` and against mpmath, plus the derived
sequences s(n) and t(n)."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy import special

import coalsim
import rate_oracle as oracle
from coalsim import quadrature
from coalsim import rates as rates_module
from coalsim.measure import (LambdaMeasure, PowerBetaDensity,
                             bolthausen_sznitman, kingman, parse_measure,
                             power_beta)
from coalsim.rates import (EULER_GAMMA, RateFunctions, rates_for,
                           t_c_sequence, t_sequence)

KINGMAN = kingman()
BS = bolthausen_sznitman()
PB_HALF = power_beta(1.0, 0.5)        # density p**-0.5, alpha = 1.5


def bs_pair_rate(b, k):
    # lam(b, k) for the uniform density: (k-2)! (b-k)! / (b-1)!
    return (math.factorial(k - 2) * math.factorial(b - k)
            / math.factorial(b - 1))


def pb_half_mu(x):
    # mu for density p**-0.5: -2x + 2/3 + Gamma(-3/2) Gamma(1+x)/Gamma(x-1/2)
    coef = 4.0 * math.sqrt(math.pi) / 3.0
    ratio = math.exp(math.lgamma(1.0 + x) - math.lgamma(x - 0.5))
    return -2.0 * x + 2.0 / 3.0 + coef * ratio


# ---------------------------------------------------------------------------
# merger rates

def test_kingman_rates():
    r = rates_for(kingman(2.0))
    assert r.merger_rate(7, 2) == 2.0
    assert r.merger_rate(7, 3) == 0.0
    np.testing.assert_allclose(r.total_jump_rate(np.array([2, 5, 10])),
                               [2.0, 20.0, 90.0], rtol=1e-14)
    # every jump removes exactly one block
    assert r.mean_decrement(17) == pytest.approx(1.0, rel=1e-12)


def test_bs_pair_rates_closed_form():
    r = rates_for(BS)
    for b, k in [(2, 2), (4, 2), (4, 3), (4, 4), (12, 5), (30, 30)]:
        assert r.merger_rate(b, k) == pytest.approx(bs_pair_rate(b, k),
                                                    rel=1e-12)
    for b in [2, 3, 9, 40]:
        assert r.total_jump_rate(b) == pytest.approx(b - 1.0, rel=1e-12)


def test_dirac_rates():
    r = rates_for(parse_measure("dirac:p=0.5,m=2"))
    assert r.merger_rate(2, 2) == pytest.approx(2.0, rel=1e-14)
    assert r.merger_rate(4, 3) == pytest.approx(2.0 * 0.5 * 0.5, rel=1e-14)
    # b = 2: single possible merger, total rate equals the pair rate
    assert r.total_jump_rate(2) == pytest.approx(2.0, rel=1e-13)
    # mu at an atom: m (xp - 1 + (1-p)**x) / p**2
    assert r.rate_of_decrease(3.0) == pytest.approx(
        8.0 * (1.5 - 1.0 + 0.125), rel=1e-13)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_atom_mu_parts_match_the_per_x_kernels(order):
    # p = 1e-4 is a series point below x = 10 and a direct one above it,
    # p = 0.5 is direct everywhere (crossover p0 = 1e-3 min(1, 1/x))
    text = "kingman + dirac:p=0.0001,m=0.3 + dirac:p=0.5,m=1"
    r = RateFunctions(parse_measure(text))
    x = np.array([1.0, 1.5, 2.5, 3.7, 9.99, 10.0, 10.01, 57.3, 1234.5,
                  1e5, 2.5, 1.5])
    kernel = (rates_module._mu_kernel, rates_module._mu1_kernel,
              rates_module._mu2_kernel)[order]
    expect = r.measure.atom_at_zero * [x * (x - 1.0) / 2.0, x - 0.5,
                                       np.ones_like(x)][order]
    for p, m in r.measure.atoms:
        expect = expect + m * np.array([float(kernel(np.array([p]), xi)[0])
                                        for xi in x])
    got = r._mu_parts(x, order)
    assert [v.hex() for v in got.tolist()] == \
        [v.hex() for v in expect.tolist()]


def test_merger_rate_validation():
    r = rates_for(KINGMAN)
    with pytest.raises(ValueError):
        r.merger_rate(5.0, 2)
    with pytest.raises(ValueError):
        r.merger_rate(5, 1)
    with pytest.raises(ValueError):
        r.merger_rate(5, 6)
    with pytest.raises(ValueError):
        r.total_jump_rate(1)
    with pytest.raises(ValueError):
        r.total_jump_rate(2.5)
    with pytest.raises(ValueError):
        RateFunctions(LambdaMeasure())


@pytest.mark.parametrize("b", [1, 2.5, True, np.float64(3.0)],
                         ids=["one", "fraction", "bool", "float"])
@pytest.mark.parametrize("method", ["merger_size_weights",
                                    "merger_size_distribution"])
def test_merger_size_weights_need_a_block_count(method, b):
    # b = 2.5 once gave the weights of b = 2
    with pytest.raises(ValueError, match="b must be an integer"):
        getattr(rates_for(parse_measure("beta:0.5,1.5")), method)(b)


@pytest.mark.parametrize("text", [
    "kingman:0.5 + dirac:p=0.3,m=1.5",
    "bolthausen-sznitman",
    "powerbeta:c=2.0,a=0.5,b=1.7",
])
def test_pair_rate_pascal_recursion(text):
    # lam(b, k) = lam(b+1, k) + lam(b+1, k+1) holds for every measure
    r = rates_for(parse_measure(text))
    for b in range(2, 13):
        for k in range(2, b + 1):
            assert r.merger_rate(b, k) == pytest.approx(
                r.merger_rate(b + 1, k) + r.merger_rate(b + 1, k + 1),
                rel=1e-11)


def test_closed_forms_match_quadrature():
    measure = power_beta(1.3, 0.5, 2.5)
    closed = RateFunctions(measure)
    for b, k in [(2, 2), (6, 3), (15, 11)]:
        assert closed.merger_rate(b, k) == pytest.approx(
            oracle.merger_rate(measure, b, k), rel=1e-9)
    for b in [2, 7, 25]:
        assert closed.total_jump_rate(b) == pytest.approx(
            oracle.total_jump_rate(measure, b), rel=1e-9)
    for x in [1.0, 3.7, 40.0]:
        assert closed.rate_of_decrease(x) == pytest.approx(
            oracle.mu(measure, x), rel=1e-9, abs=1e-12)


def test_powerbeta_gamma_pole_cases():
    # a in {1, 2} puts the continued Betas on poles of Gamma, whose
    # digamma limits the closed forms take; a + b = 1 puts a pole of Gamma
    # in the denominator of some continued Betas, which are 0 there
    for params in ["powerbeta:c=1.0,a=1.0,b=2.0", "powerbeta:c=0.7,a=2.0,b=0.5",
                   "beta:0.5,0.5", "powerbeta:c=1,a=0.5,b=0.5"]:
        measure = parse_measure(params)
        closed = RateFunctions(measure)
        for b in [2, 5, 20, 60]:
            assert closed.total_jump_rate(b) == pytest.approx(
                oracle.total_jump_rate(measure, b), rel=1e-9)
        for x in [2.0, 9.5]:
            assert closed.rate_of_decrease(x) == pytest.approx(
                oracle.mu(measure, x), rel=1e-8)


@pytest.mark.parametrize("text", ["beta:0.3,0.3", "beta:1.5,0.4",
                                  "beta:1,0.3"])
def test_oracle_mu_at_two_is_the_mass(text):
    # mu(2) = int (2p - 1 + (1-p)**2)/p**2 L(dp) = L([0, 1]) = 1; with
    # (1-p)**(b-1) rebuilt from p near p = 1 the oracle read 0.99999389,
    # 0.99999970 and 0.99998898
    assert oracle.mu(parse_measure(text), 2.0) == pytest.approx(
        1.0, abs=1e-10)


def _mp_kernel_series(x, order, terms=6):
    """Coefficients of p**(j-2), j = 2, 3, ..., in the mu kernel (order 0)
    or its x-derivative (order 1): (-1)**j C(x,j) and (-1)**j d/dx C(x,j)."""
    out = []
    for j in range(2, 2 + terms):
        facs = [x - i for i in range(j)]
        if order == 0:
            v = mp.fprod(facs)
        else:
            v = mp.fsum(mp.fprod(facs[:i] + facs[i + 1:]) for i in range(j))
        out.append((-1) ** j * v / mp.factorial(j))
    return out


def mp_powerbeta_mu(a, b, x, order):
    """mu(x), mu'(x) or mu''(x) for the density p**(a-1) (1-p)**(b-1) by
    mpmath quadrature at 30 digits.  The kernels cancel as p -> 0, so below
    p = 1e-10/x they are summed as series; the right half is integrated in
    t = (1-p)**b, which removes the singular factor and keeps 1 - p exact."""
    with mp.workdps(30):
        x = mp.mpf(x)
        cut = mp.mpf(10) ** -10 / x
        coef = _mp_kernel_series(x, order)[::-1] if order < 2 else None

        def kernel(p, w):       # w = log(1 - p)
            if order == 2:
                return mp.exp(x * w) * w * w / p ** 2
            if p < cut:
                return mp.polyval(coef, p)
            if order == 0:
                return (x * p + mp.expm1(x * w)) / p ** 2
            return (mp.exp(x * w) * w + p) / p ** 2

        def right(t):
            q = t ** (1 / mp.mpf(b))
            return kernel(1 - q, mp.log(q)) * (1 - q) ** (a - 1) / b

        half = mp.mpf(1) / 2
        split = [0, 1 / x, half] if 1 / x < half else [0, half]
        total = (mp.quad(lambda p: kernel(p, mp.log1p(-p))
                         * p ** (a - 1) * (1 - p) ** (b - 1), split)
                 + mp.quad(right, [0, half ** b]))
        return float(total)


@pytest.mark.parametrize("a", [1.0, 2.0])
@pytest.mark.parametrize("b", [0.1, 0.3, 0.5, 1.0, 1.5, 3.0])
def test_pole_corner_mu_matches_mpmath(a, b):
    # the digamma limits at a = 1 and a = 2 against an independent
    # integral of the kernels; 3e-15 is the worst seen
    r = RateFunctions(LambdaMeasure(densities=(PowerBetaDensity(1.0, a, b),)))
    for x in (1.5, 2.0, 50.0, 1e4):
        got = r.mu_derivatives(x)
        for order in range(3):
            assert got[order] == pytest.approx(
                mp_powerbeta_mu(a, b, x, order), rel=1e-10), (x, order)


@pytest.mark.parametrize("text", [
    "powerbeta:c=0.7,a=1,b=0.1", "beta:1,0.3", "beta:1,1.5",
    "powerbeta:c=2,a=1,b=3", "powerbeta:c=0.7,a=2,b=0.5",
    "powerbeta:c=1,a=2,b=1", "powerbeta:c=1.5,a=2,b=3"])
def test_pole_corner_total_rate_is_the_weight_sum(text):
    r = RateFunctions(parse_measure(text))
    blocks = np.array([2, 3, 4, 10, 99, 500, 2000])
    sums = [r.merger_size_weights(int(b)).sum() for b in blocks]
    np.testing.assert_allclose(r.total_jump_rate(blocks), sums, rtol=1e-10)


def test_bs_closed_forms_are_the_digamma_expressions():
    # at b = 1 the a = 1 limit has y = x, psi(1) = -gamma and a zero
    # constant: float for float the uniform density's expressions
    xs = np.concatenate([np.linspace(1.0, 3.0, 41),
                         np.geomspace(1.0, 1e6, 60)])
    blocks = np.arange(2, 3000)
    for c in (1.0, 0.7):
        r = RateFunctions(power_beta(c, 1.0, 1.0))
        psi = special.digamma(xs + 1.0) + EULER_GAMMA - 1.0
        want = [c * xs * psi,
                c * (psi + xs * special.polygamma(1, xs + 1.0)),
                c * (2.0 * special.polygamma(1, xs + 1.0)
                     + xs * special.polygamma(2, xs + 1.0))]
        got = np.array([r.mu_derivatives(x) for x in xs]).T
        for order in range(3):
            assert list(map(float.hex, got[order])) == list(
                map(float.hex, want[order]))
        assert list(map(float.hex, r.rate_of_decrease(xs))) == list(
            map(float.hex, want[0]))
        assert list(map(float.hex, r.total_jump_rate(blocks))) == list(
            map(float.hex, c * (blocks - 1.0)))


PARSED_POWER_BETAS = [
    "bolthausen-sznitman", "beta:1,0.3", "beta:1,1.5",
    "powerbeta:c=0.7,a=2,b=0.5", "powerbeta:c=1,a=2,b=1", "beta:0.5,1.5",
    "beta:0.5,0.5", "powerbeta:c=1,a=0.5,b=1", "beta:2.5,3",
    "kingman:0.5 + beta:1,0.3 + dirac:p=0.4,m=0.3"]


def test_no_parsed_measure_reaches_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("quadrature reached")

    monkeypatch.setattr(quadrature, "adaptive_integrate", refuse)
    for text in PARSED_POWER_BETAS:
        r = RateFunctions(parse_measure(text))
        r.rate_of_decrease(np.array([1.0, 2.0, 50.0, 1e4]))
        r.mu_derivatives(7.5)
        r.merger_rate(40, 7)
        r.total_jump_rate(np.array([2, 3, 100]))
        r.merger_size_weights(40)
        r.invert_mu(10.0)
        r.s_at(np.array([10.0, 1e4]))
        r.dust_diagnostic()
        r.rv_exponent_estimate()
    # the patch bites: H of a density with b != 1 integrates its tail
    with pytest.raises(AssertionError, match="quadrature reached"):
        RateFunctions(parse_measure("beta:1,0.3")).H_function(0.5)


@pytest.mark.parametrize("text", ["beta:0.5,0.5",
                                  "powerbeta:c=1,a=0.5,b=0.5"])
def test_mu_derivatives_at_gamma_pole(text):
    # a + b = 1: at x = 1 the closed form's tail Beta is 0 and its digamma
    # factor infinite; the derivatives take the finite limit, which the
    # quadrature oracle gives (0.6667 and 0.8183 for beta:0.5,0.5)
    measure = parse_measure(text)
    closed = RateFunctions(measure)
    for x in (1.0, 1.0 + 1e-6):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = closed.mu_derivatives(x)
        want = [oracle.mu(measure, x, order) for order in range(3)]
        assert got[0] == pytest.approx(want[0], rel=1e-6, abs=1e-15)
        np.testing.assert_allclose(got[1:], want[1:], rtol=1e-6)


def test_weights_sum_to_total_rate():
    r = rates_for(parse_measure("kingman:0.25 + bolthausen-sznitman"
                                " + dirac:p=0.4,m=0.3"))
    for b in [2, 3, 8, 30]:
        assert r.merger_size_weights(b).sum() == pytest.approx(
            r.total_jump_rate(b), rel=1e-11)
        dist = r.merger_size_distribution(b)
        assert dist.shape == (b - 1,)
        assert dist.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.all(dist >= 0)


def test_each_density_counts_once():
    # the rates of a sum of components are the sums of their rates
    heavy = parse_measure("beta:0.5,1.5")
    for parts in ((BS, BS), (heavy, BS), (KINGMAN, heavy),
                  (heavy, heavy, BS, KINGMAN)):
        r = RateFunctions(sum(parts[1:], parts[0]))
        for b in (2, 5, 9):
            single = sum(RateFunctions(m).total_jump_rate(b) for m in parts)
            assert r.total_jump_rate(b) == pytest.approx(single, rel=1e-10)
            assert r.merger_size_weights(b).sum() == pytest.approx(
                single, rel=1e-10)
            assert r.rate_of_decrease(float(b)) == pytest.approx(
                sum(RateFunctions(m).rate_of_decrease(float(b))
                    for m in parts), rel=1e-10)
    # lam(5) = 4 for each uniform density
    two = RateFunctions(BS + BS)
    assert two.total_jump_rate(5) == pytest.approx(8.0, rel=1e-10)


def test_mean_decrement_bs():
    # mu(b)/lam(b) = b (H_b - 1) / (b - 1)
    r = rates_for(BS)
    assert r.mean_decrement(3) == pytest.approx(2.5 / 2.0, rel=1e-12)
    mean_from_dist = np.arange(2, 10) @ r.merger_size_distribution(9) - 1.0
    assert r.mean_decrement(9) == pytest.approx(mean_from_dist + 0.0, rel=1e-12)


# ---------------------------------------------------------------------------
# mu

def test_kingman_mu_and_derivatives():
    r = rates_for(kingman(3.0))
    x = 7.25
    mu, d1, d2 = r.mu_derivatives(x)
    assert mu == pytest.approx(3.0 * x * (x - 1.0) / 2.0, rel=1e-14)
    assert d1 == pytest.approx(3.0 * (x - 0.5), rel=1e-14)
    assert d2 == pytest.approx(3.0, rel=1e-14)


def test_bs_mu_frozen_values():
    r = rates_for(BS)
    assert r.rate_of_decrease(1.0) == pytest.approx(0.0, abs=1e-13)
    assert r.rate_of_decrease(2.0) == pytest.approx(1.0, rel=1e-12)
    assert r.rate_of_decrease(3.0) == pytest.approx(2.5, rel=1e-12)
    assert r.rate_of_decrease(4.0) == pytest.approx(13.0 / 3.0, rel=1e-12)
    x = 17.5
    assert r.rate_of_decrease(x) == pytest.approx(
        x * (special.digamma(x + 1.0) + EULER_GAMMA - 1.0), rel=1e-13)


def test_pb_half_mu_frozen_values():
    r = rates_for(PB_HALF)
    for x in [1.0, 2.0, 3.5, 10.0, 250.0]:
        assert r.rate_of_decrease(x) == pytest.approx(pb_half_mu(x),
                                                      rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("measure", [KINGMAN, BS, PB_HALF])
def test_mu_zero_at_one_increasing_convex(measure):
    r = rates_for(measure)
    assert abs(r.rate_of_decrease(1.0)) < 1e-12
    grid = np.linspace(1.0, 50.0, 40)
    mu = r.rate_of_decrease(grid)
    assert np.all(np.diff(mu) > 0)
    assert np.all(np.diff(mu, 2) > -1e-9)


@pytest.mark.parametrize("measure", [BS, PB_HALF])
def test_mu_derivatives_match_finite_differences(measure):
    r = rates_for(measure)
    for x in [2.0, 11.0, 300.0]:
        mu, d1, d2 = r.mu_derivatives(x)
        f = r.rate_of_decrease
        h = 1e-5 * x
        assert d1 == pytest.approx((f(x + h) - f(x - h)) / (2.0 * h), rel=1e-6)
        # wider step: the second difference amplifies roundoff by 1/h**2
        h = 1e-3 * x
        assert d2 == pytest.approx(
            (f(x + h) - 2.0 * mu + f(x - h)) / h ** 2, rel=1e-3)


def test_invert_mu_round_trip():
    for measure in [KINGMAN, BS, PB_HALF]:
        r = rates_for(measure)
        for x in [1.0, 1.5, 7.3, 150.0]:
            assert r.invert_mu(r.rate_of_decrease(x)) == pytest.approx(
                x, rel=1e-9)
        with pytest.raises(ValueError):
            r.invert_mu(-1.0)
    assert rates_for(KINGMAN).invert_mu(0.0) == 1.0


def test_invert_mu_brackets_the_float_range():
    # Kingman mu(x) = x(x-1)/2: s(1e150) = 1e75 lies beyond 2**200
    r = rates_for(KINGMAN)
    assert r.invert_mu(5e149) == pytest.approx(1e75, rel=1e-12)
    assert r.s_at(1e150) == pytest.approx(1e75, rel=1e-12)
    # mu passes 8e307 only past the largest float: its bracket overflows
    with np.errstate(over="ignore"):
        for y in (math.inf, math.nan, 8e307):
            with pytest.raises(ValueError, match="never reaches"):
                r.invert_mu(y)


def test_invert_mu_matches_brent():
    # Newton's method from above against scipy's Brent solver on the same
    # bracket [1, hi], at the tolerances the package once passed it
    from scipy.optimize import brentq

    measures = ["kingman", "bolthausen-sznitman", "powerbeta:c=1,a=0.5,b=1",
                "beta:0.5,1.5", "beta:0.3,0.3", "kingman+dirac:p=0.5,m=1",
                "beta:1,0.3", "beta:1,1.5", "powerbeta:c=0.7,a=2,b=0.5"]
    for text in measures:
        r = RateFunctions(parse_measure(text))
        mu = r.rate_of_decrease
        targets = [0.5, 1.0, 2.0, 3.0, 10.0, 33.0, 1e2, 1e3, 1e4, 3e5] + [
            mu(n) / n for n in (10.0, 1e3, 1e5)]
        for y in targets + [1e-9, 1e-6]:
            hi = 2.0
            while mu(hi) < y:
                hi *= 2.0
            ref = brentq(lambda t: mu(t) - y, 1.0, hi, xtol=2e-12,
                         rtol=8.9e-16)
            x = r.invert_mu(y)
            if y in targets:
                assert x == pytest.approx(ref, rel=1e-11), (text, y)
            else:
                # x - 1 is of the order of y here, which Brent's xtol of
                # 2e-12 resolves coarsely: at y = 1e-6 its residual is
                # 1e-13 and Newton's 1e-16.  At 1e-9 both land within 2 ulp
                # of the root, where mu's own rounding (up to 2e-15 near
                # x = 1) decides which residual is the smaller
                assert abs(mu(x) - y) <= max(abs(mu(ref) - y), 2e-15), \
                    (text, y)


def test_kappa_is_mu_over_x():
    r = rates_for(BS)
    assert r.kappa(8.0) == pytest.approx(r.rate_of_decrease(8.0) / 8.0,
                                         rel=1e-14)


@pytest.mark.parametrize("measure", [KINGMAN, BS])
def test_mu_refuses_points_below_one_and_nan(measure):
    # NaN once passed the x >= 1 check: Kingman's mu_derivatives(nan)
    # read (nan, nan, 1.0)
    r = rates_for(measure)
    for x in (0.5, math.nan, np.array([2.0, math.nan])):
        for value in (r.rate_of_decrease, r.mu_derivatives, r.kappa):
            with pytest.raises(ValueError, match="x >= 1"):
                value(x)


# ---------------------------------------------------------------------------
# scale sequences

def test_s_at_kingman_frozen():
    # s solves s(s-1)/2 = (n-1)/2: for n = 101, s = (1 + sqrt(401))/2
    assert rates_for(KINGMAN).s_at(101.0) == pytest.approx(
        (1.0 + math.sqrt(401.0)) / 2.0, rel=1e-10)


def test_s_growth_exponents():
    # s(n) ~ n**((alpha-1)/alpha): exponent 1/2 for kingman, 1/3 for alpha 3/2
    ns = np.geomspace(1e3, 1e6, 7)
    for measure, expo in [(KINGMAN, 0.5), (PB_HALF, 1.0 / 3.0)]:
        s = rates_for(measure).s_at(ns)
        assert np.all(np.diff(s) > 0)
        slope = np.polyfit(np.log(ns), np.log(s), 1)[0]
        assert slope == pytest.approx(expo, abs=0.02)
    # mu(1) = 0 and mu increases, so s(1) = 1; below 1, s is undefined
    assert rates_for(KINGMAN).s_at(1.0) == 1.0
    assert rates_for(parse_measure("beta:0.3,0.3")).s_at(1.0) == 1.0
    with pytest.raises(ValueError):
        rates_for(KINGMAN).s_at(0.5)


def test_t_sequence_formula_and_clamps():
    n = math.exp(math.exp(2.0))       # loglog n = 2 exactly
    expected = 2.0 - math.log(2.0) + math.log(2.0) / 2.0
    assert t_sequence(n) == pytest.approx(expected, rel=1e-12)
    assert t_sequence(2.0) == 0.0     # iterated log not yet positive
    np.testing.assert_allclose(t_sequence(np.array([2.0, n])), [0.0, expected])
    # t(n) tends to infinity: an infinite n once clamped to 0
    for n in (1.0, math.nan, np.array([2.0, math.nan]), math.inf,
              np.array([2.0, math.inf])):
        with pytest.raises(ValueError):
            t_sequence(n)


def test_t_c_sequence():
    n = math.exp(math.exp(2.0))
    assert t_c_sequence(n, 1.0) == pytest.approx(t_sequence(n), rel=1e-12)
    assert t_c_sequence(n, 2.0) == pytest.approx(
        t_sequence(n) - math.log(2.0) / 2.0, rel=1e-12)
    assert t_c_sequence(n, 1e9) == 0.0
    for args in ((n, 0.0), (n, math.nan), (1e6, math.nan), (math.nan, 2.0),
                 (math.inf, 2.0), (1e6, math.inf)):
        with pytest.raises(ValueError):
            t_c_sequence(*args)


# ---------------------------------------------------------------------------
# H transform

def test_H_kingman_constant():
    r = rates_for(kingman(3.0))
    for u in [0.0, 0.2, 1.0]:
        assert r.H_function(u) == pytest.approx(1.5, rel=1e-14)


def test_H_bs_closed_form():
    # uniform density: H(u) = -u log u + u**2/2
    r = rates_for(BS)
    assert r.H_function(0.0) == 0.0
    assert r.H_function(1.0) == pytest.approx(0.5, rel=1e-10)
    for u in [0.01, 0.5, 0.9]:
        assert r.H_function(u) == pytest.approx(
            -u * math.log(u) + u * u / 2.0, rel=1e-10)
    assert r.H_function(0.5) == pytest.approx(0.4715735902799727, rel=1e-10)
    with pytest.raises(ValueError):
        r.H_function(1.5)


def test_H_pb_half_closed_form():
    # density p**-0.5: H(u) = (8/3) sqrt(u) - 2u + u**2/3
    r = rates_for(PB_HALF)
    for u in [1e-4, 0.3, 1.0]:
        assert r.H_function(u) == pytest.approx(
            8.0 / 3.0 * math.sqrt(u) - 2.0 * u + u * u / 3.0, rel=1e-9)


def mp_powerbeta_H(c, a, b, u):
    """H(u) for the density c p**(a-1) (1-p)**(b-1) by mpmath's incomplete
    Beta function at 40 digits: the mass on [0, u] over 2, plus the
    integral of u/p - u**2/(2 p**2) over (u, 1], c B_(u,1)(a-1, b) u -
    c B_(u,1)(a-2, b) u**2/2.  mpmath continues B_(u,1) to a - 2 < 0."""
    with mp.workdps(40):
        a, b, u = mp.mpf(a), mp.mpf(b), mp.mpf(u)
        return float(mp.mpf(c) * (mp.betainc(a, b, 0, u) / 2
                                  + u * mp.betainc(a - 1, b, u, 1)
                                  - u * u / 2 * mp.betainc(a - 2, b, u, 1)))


# (c, a, b, u); c = None is the probability density beta:a,b.  The last
# ones have a tiny mass c B(a, b), 3.5e-25 at (10, 1000) and 1e-181 at
# (300, 300): the absolute floor of quadrature.ABS_TOL once accepted the
# first panel of their H tails, 13 % low at (10, 1000) and u = 1e-15.
# Right exponents b <= 0.01 once ran the tail in q = t**m, m = ceil(1/b),
# whose q underflowed and was floored at the smallest normal float: that
# dropped about (2.2e-308)**b of the mass next to p = 1, 8e-4 relative at
# b = 0.01 and 0.24 at b = 0.002
_H_CASES = [pytest.param(None, a, b, u, id=f"{u}-{a}-{b}")
            for a, b in [(0.5, 1.5), (0.3, 0.3), (0.5, 0.05)]
            for u in [0.3, 0.6, 0.9]] + [
    pytest.param(None, a, b, u, id=f"{u}-{a}-{b}")
    for a, b in [(0.5, 0.01), (0.5, 0.002), (1.0, 0.01)]
    for u in [1e-9, 0.3]] + [
    pytest.param(c, a, b, u, id=f"{u}-{a}-{b}-c{c}")
    for c in [1.0, 3.0] for a, b in [(10.0, 1000.0), (300.0, 300.0)]
    for u in [1e-15, 1e-9]] + [
    pytest.param(3.0, 0.5, 0.05, 0.6, id="0.6-0.5-0.05-c3.0")]


@pytest.mark.parametrize("c, a, b, u", _H_CASES)
def test_H_matches_mpmath(c, a, b, u):
    # above u = 1/2 the tail integral once ran over (1/2, 1] instead of
    # (u, 1]: H(0.9) read 0.567 for beta:0.5,1.5, above H(1) = 0.5.  Near
    # p = 1 it was evaluated at p = 1 - max(q, 2**-52), which dropped the
    # mass of (1-p)**(b-1) below q = 2**-52: relative 4e-6 for b = 0.3 and
    # 0.13 for b = 0.05
    text = f"beta:{a},{b}" if c is None else f"powerbeta:c={c},a={a},b={b}"
    r = RateFunctions(parse_measure(text))
    (dens,) = r.measure.densities
    assert r.H_function(u) == pytest.approx(mp_powerbeta_H(dens.c, a, b, u),
                                            rel=1e-12, abs=0.0)


def test_H_dirac():
    r = rates_for(parse_measure("dirac:p=0.5,m=2"))
    # below the atom: m (u/p - u**2/(2 p**2)); at/above: m/2
    assert r.H_function(0.25) == pytest.approx(2.0 * (0.5 - 0.125), rel=1e-13)
    assert r.H_function(0.75) == pytest.approx(1.0, rel=1e-13)


def test_mu_matches_tail_transform():
    # mu(x) / (Gamma(3-alpha) x**2 H(1/x)) -> 1 for regularly varying mu
    x = 1e6
    for measure, alpha in [(BS, 1.0), (PB_HALF, 1.5)]:
        r = rates_for(measure)
        ratio = r.rate_of_decrease(x) / (
            special.gamma(3.0 - alpha) * x * x * r.H_function(1.0 / x))
        assert 0.9 < ratio < 1.1


# ---------------------------------------------------------------------------
# diagnostics

def test_dust_diagnostic_rules():
    def verdict(measure):
        return rates_for(measure).dust_diagnostic()

    assert verdict(KINGMAN) == "dustless"
    assert verdict(BS) == "dustless"
    assert verdict(PB_HALF) == "dustless"
    assert verdict(power_beta(1.0, 1.5)) == "dusty"
    assert verdict(parse_measure("dirac:p=0.5,m=1")) == "dusty"
    assert verdict(parse_measure("beta:2.5,3 + dirac:p=0.5,m=1")) == "dusty"
    assert verdict(parse_measure("beta:2.5,3 + beta:1,0.3")) == "dustless"
    assert verdict(parse_measure("dirac:p=0.5,m=1 + kingman")) == "dustless"


def test_rv_exponent_estimates():
    def estimate(measure):
        return rates_for(measure).rv_exponent_estimate()

    assert estimate(KINGMAN) == pytest.approx(2.0, abs=1e-3)
    assert estimate(PB_HALF) == pytest.approx(1.5, abs=0.01)
    # uniform measure: slowly varying log factor biases the slope upward
    assert 1.0 < estimate(BS) < 1.15


# ---------------------------------------------------------------------------
# front door

def test_rates_for_cache_and_methods():
    bs, km = rates_for(BS), rates_for(KINGMAN)
    assert rates_for(BS) is bs
    assert bs.merger_rate(5, 3) == pytest.approx(bs_pair_rate(5, 3), rel=1e-12)
    assert bs.total_jump_rate(5) == pytest.approx(4.0, rel=1e-12)
    assert bs.merger_size_distribution(4).shape == (3,)
    assert km.rate_of_decrease(4.0) == pytest.approx(6.0, rel=1e-14)
    assert km.mu_derivatives(4.0)[1] == pytest.approx(3.5, rel=1e-14)


@pytest.mark.parametrize("module", ["coalsim", "coalsim.cli"])
def test_import_leaves_out_scipy_optimize_linalg_sparse_interpolate(module):
    # every rate is evaluated exactly and mu is inverted by Newton's method:
    # no interpolant, no solver module and what they pull in is loaded;
    # mpmath is the tests' oracle only
    src = str(Path(coalsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    heavy = ("scipy.optimize", "scipy.linalg", "scipy.sparse",
             "scipy.interpolate", "mpmath")
    code = (f"import sys, {module}; "
            f"print(sorted(set({heavy!r}) & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
