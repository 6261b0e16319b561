"""Quadrature layer: exactness on polynomials, endpoint singularities,
and tail integrals; and the unit-interval integrator of the tests' rate
oracle."""

import math

import numpy as np
import pytest
from scipy import special

from coalsim import quadrature
from coalsim.quadrature import adaptive_integrate, integrate_tail
from rate_oracle import integrate_unit_interval, power_substitution


def test_polynomial_exact():
    assert adaptive_integrate(lambda p: p ** 3, 0.0, 1.0) == pytest.approx(
        0.25, rel=1e-13)


def test_empty_interval_is_zero():
    assert adaptive_integrate(np.sin, 1.0, 1.0) == 0.0
    assert adaptive_integrate(np.sin, 2.0, 1.0) == 0.0


def _counted(f):
    def g(x):
        g.calls += 1
        return f(x)

    g.calls = 0
    return g


def test_batch_first_panels_take_one_call():
    # a cubic is exact on every first panel, so no interval refines
    edges = np.linspace(0.0, 2.0, 65)
    f = _counted(lambda p: p ** 3)
    got = adaptive_integrate(f, edges[:-1], edges[1:])
    assert f.calls == 1
    assert got.shape == (64,)
    assert got.sum() == pytest.approx(4.0, rel=1e-13)
    single = _counted(lambda p: p ** 3)
    assert [float(v).hex() for v in got] == [
        adaptive_integrate(single, lo, hi).hex()
        for lo, hi in zip(edges[:-1], edges[1:])]
    assert single.calls == 64


def test_batch_matches_single_calls_when_refining():
    # a needle 0.123456 into each unit interval: every first panel misses
    # its budget, and the refinement of each must be that of a single call
    def needle(x):
        return np.exp(-((x % 1.0 - 0.123456) / 0.01) ** 2)

    lo = np.array([0.0, 3.0, 7.0])
    f = _counted(needle)
    got = adaptive_integrate(f, lo, lo + 1.0)
    assert f.calls > 3
    assert [float(v).hex() for v in got] == [
        adaptive_integrate(needle, a, a + 1.0).hex() for a in lo]
    assert got[0] == pytest.approx(0.01 * math.sqrt(math.pi), rel=1e-8)


def test_batch_empty_intervals_are_zero():
    f = _counted(np.cos)
    got = adaptive_integrate(f, [0.0, 1.0, 2.0, 0.5], [1.0, 1.0, 1.5, 2.0])
    assert got[1] == 0.0 and got[2] == 0.0
    assert got[0] == pytest.approx(math.sin(1.0), rel=1e-13)
    assert got[3] == pytest.approx(math.sin(2.0) - math.sin(0.5), rel=1e-13)
    assert f.calls == 1
    f = _counted(np.cos)
    assert adaptive_integrate(f, [2.0, 3.0], [1.0, 3.0]).tolist() == [0.0,
                                                                    0.0]
    assert f.calls == 0


def test_tally_counts_integrals_panels_and_cap_hits():
    before = dict(quadrature.tally)
    adaptive_integrate(lambda p: p ** 3, [0.0, 1.0, 3.0], [1.0, 2.0, 2.0])
    assert quadrature.tally["integrals"] - before["integrals"] == 2
    assert quadrature.tally["panels"] - before["panels"] == 2
    assert quadrature.tally["cap_hits"] == before["cap_hits"]
    # a unit step at 1/3: the panel holding it is bisected to the depth cap
    # with an error near 2**-48, far above its prorated budget
    before = dict(quadrature.tally)
    got = adaptive_integrate(lambda p: np.where(p < 1.0 / 3.0, 0.0, 1.0),
                             0.0, 1.0)
    assert got == pytest.approx(2.0 / 3.0, abs=1e-13)
    assert quadrature.tally["cap_hits"] - before["cap_hits"] >= 1
    assert quadrature.tally["panels"] - before["panels"] > 48


def test_oscillatory_smooth():
    got = adaptive_integrate(lambda p: np.cos(10.0 * p), 0.0, 1.0)
    assert got == pytest.approx(math.sin(10.0) / 10.0, abs=1e-12)


def test_needle_peak_found():
    # Narrow Gaussian away from panel midpoints; adaptivity must find it.
    center, width = 0.123456, 0.01

    def f(p):
        return np.exp(-((p - center) / width) ** 2)

    got = adaptive_integrate(f, 0.0, 1.0)
    assert got == pytest.approx(width * math.sqrt(math.pi), rel=1e-8)


def test_left_singularity_sqrt():
    got = integrate_unit_interval(lambda p, q: p ** -0.5, left_exponent=0.5)
    assert got == pytest.approx(2.0, rel=1e-11)


def test_two_sided_beta_moment():
    # int p**(-0.9) (1-p)**(-0.5) dp = B(0.1, 0.5)
    def f(p, q):
        return p ** -0.9 * q ** -0.5

    got = integrate_unit_interval(f, left_exponent=0.1, right_exponent=0.5)
    assert got == pytest.approx(special.beta(0.1, 0.5), rel=1e-10)


def test_right_singularity_only():
    got = integrate_unit_interval(lambda p, q: q ** -0.25,
                                  right_exponent=0.75)
    assert got == pytest.approx(1.0 / 0.75, rel=1e-11)


def test_power_substitution_identity():
    g, m = power_substitution(lambda p: p ** -0.5, 0.5)
    assert m >= 2
    # int_0^c p**-1/2 dp = 2 sqrt(c) via the substituted integrand
    c = 0.3
    got = adaptive_integrate(g, 0.0, c ** (1.0 / m))
    assert got == pytest.approx(2.0 * math.sqrt(c), rel=1e-11)


def test_power_substitution_noop_for_regular():
    f = lambda p: p  # noqa: E731
    g, m = power_substitution(f, 1.0)
    assert g is f and m == 1


def test_tail_integral_spanning_decades():
    # int_u^1 p**-2 dp = 1/u - 1, mass concentrated at the lower end
    u = 1e-8
    got = integrate_tail(lambda p, q: p ** -2.0, u, 1.0)
    assert got == pytest.approx(1.0 / u - 1.0, rel=1e-9)


def test_tail_integral_with_right_singularity():
    u = 0.2
    got = integrate_tail(lambda p, q: q ** -0.5, u, 1.0,
                         right_exponent=0.5)
    assert got == pytest.approx(2.0 * math.sqrt(1.0 - u), rel=1e-10)


def test_tail_integral_above_one_half():
    # a lower limit above 1/2 once integrated over (1/2, hi): 0.5, not 0.1
    got = integrate_tail(lambda p, q: np.ones_like(p), 0.9, 1.0)
    assert got == pytest.approx(0.1, rel=1e-12)


def test_right_singularity_keeps_its_mass():
    # q**(b-1) with b = 0.3 puts 2e-5 of its mass below q = 2**-52, which
    # an integrand of p alone cannot resolve: 1 - q rounds to 1 there
    got = integrate_unit_interval(lambda p, q: q ** -0.7,
                                  right_exponent=0.3)
    assert got == pytest.approx(1.0 / 0.3, rel=1e-10)
    got = integrate_tail(lambda p, q: q ** -0.7, 0.2, 1.0,
                         right_exponent=0.3)
    assert got == pytest.approx(0.8 ** 0.3 / 0.3, rel=1e-10)
    # at b = 0.002, (2.2e-308)**b = 0.24 of the mass lies below the
    # smallest normal float, where q = t**(1/b) underflows
    b = 0.002
    got = integrate_tail(lambda p, q: q ** (b - 1.0), 0.2, 1.0,
                         right_exponent=b)
    assert got == pytest.approx(0.8 ** b / b, rel=1e-12)


@pytest.mark.parametrize("b", [0.01, 0.002])
def test_unit_interval_small_right_exponent(b):
    # q = t**m of a power substitution with m = ceil(1/b) underflows to 0
    # next to p = 1, where q**(b-1) is inf; the right half runs in
    # t = q**b, as integrate_tail's does
    def f(p, q):
        return q ** (b - 1.0)

    got = integrate_unit_interval(f, right_exponent=b)
    assert got == pytest.approx(1.0 / b, rel=1e-12)
    assert got == pytest.approx(integrate_tail(f, 1e-300, 1.0,
                                               right_exponent=b), rel=1e-12)


def test_tail_requires_positive_lo():
    with pytest.raises(ValueError):
        integrate_tail(lambda p, q: p, 0.0, 1.0)


def test_unit_interval_rejects_nonintegrable():
    with pytest.raises(ValueError):
        integrate_unit_interval(lambda p, q: p ** -1.5, left_exponent=-0.5)

