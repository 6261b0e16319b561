"""Limit-law layer: frozen values, internal consistency between densities
and CDFs, the exact extreme-value sampler, and family-record validation."""

import math

import numpy as np
import pytest

from coalsim.experiments import ks_statistic
from coalsim.limits import (LimitLaw, frechet_cdf, logistic_cdf,
                            moehle_factorial_moment, poisson_intensity_tail,
                            sample_cox_extremes, typical_cdf, typical_density)
from coalsim.quadrature import adaptive_integrate
from cox_oracle import cox_max_cdf


# ---------------------------------------------------------------------------
# typical length

def test_typical_cdf_frozen_values():
    assert typical_cdf(1.5, 1.0) == pytest.approx(1.0 - 3.375 ** -1, rel=1e-12)
    assert typical_cdf(1.5, 0.5) == pytest.approx(0.488, rel=1e-12)
    assert typical_cdf(2.0, 1.0) == pytest.approx(0.75, rel=1e-12)
    assert typical_cdf(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0),
                                                  rel=1e-12)
    assert typical_cdf(1.5, 0.0) == 0.0


def test_typical_density_frozen_values():
    assert typical_density(1.5, 0.5) == pytest.approx(0.6144, rel=1e-12)
    assert typical_density(2.0, 1.0) == pytest.approx(0.25, rel=1e-12)
    assert typical_density(1.0, 2.0) == pytest.approx(math.exp(-2.0),
                                                      rel=1e-12)


@pytest.mark.parametrize("alpha", [1.0, 1.3, 1.5, 2.0])
def test_typical_density_integrates_to_cdf(alpha):
    for t in [0.7, 3.0]:
        got = adaptive_integrate(lambda u: typical_density(alpha, u), 0.0, t)
        assert got == pytest.approx(typical_cdf(alpha, t), rel=1e-10)


@pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 2.0])
def test_typical_tail_envelope(alpha):
    # e^-2t <= 1 - F(t) <= 1/(1+t), uniformly over the family
    t = np.linspace(0.0, 4.0, 81)
    tail = 1.0 - typical_cdf(alpha, t)
    assert np.all(tail <= 1.0 / (1.0 + t) + 1e-12)
    assert np.all(tail >= np.exp(-2.0 * t) - 1e-12)


def test_typical_validation():
    with pytest.raises(ValueError):
        typical_cdf(0.9, 1.0)
    with pytest.raises(ValueError):
        typical_cdf(2.1, 1.0)
    with pytest.raises(ValueError):
        typical_density(1.5, -0.1)
    arr = typical_cdf(1.5, np.array([0.0, 1.0]))
    assert arr.shape == (2,)


# ---------------------------------------------------------------------------
# maxima for alpha > 1

def test_poisson_tail_frozen_values():
    assert poisson_intensity_tail(1.5, 1.0) == pytest.approx(8.0, rel=1e-12)
    assert poisson_intensity_tail(2.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    assert poisson_intensity_tail(2.0, 2.0) == pytest.approx(0.25, rel=1e-12)
    assert frechet_cdf(1.5, 1.0) == pytest.approx(math.exp(-8.0), rel=1e-12)
    with pytest.raises(ValueError):
        poisson_intensity_tail(1.0, 1.0)
    for x in (0.0, math.nan, np.array([1.0, math.nan])):
        with pytest.raises(ValueError):
            frechet_cdf(1.5, x)
        with pytest.raises(ValueError):
            poisson_intensity_tail(1.5, x)


def test_tail_intensity_is_scaled_cdf_limit():
    # y (1 - F(y**beta x)) -> ((alpha-1) x)**(-alpha/(alpha-1))
    y = 1e12
    for alpha, x in [(1.5, 1.0), (2.0, 0.7)]:
        beta = (alpha - 1.0) / alpha
        got = y * (1.0 - typical_cdf(alpha, y ** beta * x))
        assert got == pytest.approx(poisson_intensity_tail(alpha, x), rel=1e-3)


# ---------------------------------------------------------------------------
# alpha = 1 extremes

def test_logistic_cdf_values():
    assert logistic_cdf(0.0) == 0.5
    assert logistic_cdf(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)),
                                              rel=1e-14)
    arr = logistic_cdf(np.array([-1.0, 1.0]))
    assert arr[0] + arr[1] == pytest.approx(1.0, rel=1e-14)


def test_cox_max_cdf_integral_matches_closed_form():
    for x in [-1.0, 0.0, 1.3]:
        assert cox_max_cdf(x) == pytest.approx(logistic_cdf(x), rel=1e-9)


def test_cox_sampler_shapes_and_order():
    one = sample_cox_extremes(3, seed=5)
    assert one.shape == (3,)
    many = sample_cox_extremes(4, seed=5, reps=100)
    assert many.shape == (100, 4)
    assert np.all(np.diff(many, axis=1) < 0)
    np.testing.assert_array_equal(sample_cox_extremes(3, seed=5), one)
    with pytest.raises(ValueError):
        sample_cox_extremes(0)
    with pytest.raises(ValueError):
        sample_cox_extremes(2, reps=0)


@pytest.mark.parametrize("ell, reps", [(True, 1), (1.0, 1), (2, True),
                                       (2, 3.0)])
def test_cox_sampler_needs_integer_counts(ell, reps):
    # a bool is not a count, and True once drew with ell = 1
    with pytest.raises(ValueError, match=r"(ell|reps) must be an integer"):
        sample_cox_extremes(ell, seed=5, reps=reps)


def test_cox_sampler_max_is_logistic():
    draws = sample_cox_extremes(1, seed=2024, reps=20_000)
    assert ks_statistic(draws[:, 0], logistic_cdf) < 0.015
    # difference of two independent Gumbels: symmetric about 0
    assert abs(draws[:, 0].mean()) < 0.06


# ---------------------------------------------------------------------------
# exact block-count moments (uniform measure)

def test_moehle_moment_at_zero_is_rising_factorial():
    assert moehle_factorial_moment(5, 0.0, 3) == pytest.approx(210.0,
                                                               rel=1e-12)
    assert moehle_factorial_moment(7, 0.0, 1) == pytest.approx(7.0, rel=1e-12)


def test_moehle_moment_frozen():
    assert moehle_factorial_moment(100, 0.5, 1) == pytest.approx(18.2421418,
                                                                 rel=1e-7)
    t = np.array([0.25, 0.5])
    vals = moehle_factorial_moment(100, t, 1)
    assert vals.shape == (2,)
    assert vals[0] > vals[1]        # block count shrinks with time


def test_moehle_validation():
    with pytest.raises(ValueError):
        moehle_factorial_moment(0, 1.0, 1)
    with pytest.raises(ValueError):
        moehle_factorial_moment(5, 1.0, 0)
    with pytest.raises(ValueError):
        moehle_factorial_moment(5, -1.0, 1)


@pytest.mark.parametrize("n, t, r", [
    (100, np.nan, 2), (100, [0.5, np.nan], 2), (100, 0.5, 1.5),
    (100.5, 0.5, 2), (100, 0.5, True), (True, 0.5, 2)])
def test_moehle_rejects_nan_times_and_non_integer_counts(n, t, r):
    # each was once taken: NaN gave a NaN moment, r = 1.5 and n = 100.5 a
    # moment of no block count, and r = True the moment of order 1
    with pytest.raises(ValueError):
        moehle_factorial_moment(n, t, r)


# ---------------------------------------------------------------------------
# family record

def test_limit_law_validation():
    with pytest.raises(ValueError):
        LimitLaw("nope")
    with pytest.raises(ValueError):
        LimitLaw("typical", 2.5)
    with pytest.raises(ValueError):
        LimitLaw("frechet", 1.0)
    with pytest.raises(ValueError):
        LimitLaw("logistic", 1.5)


def test_limit_law_dispatch():
    assert LimitLaw("typical", 1.5).cdf(1.0) == pytest.approx(
        typical_cdf(1.5, 1.0))
    assert LimitLaw("frechet", 1.5).cdf(1.0) == pytest.approx(
        frechet_cdf(1.5, 1.0))
    assert LimitLaw("logistic").cdf(0.0) == 0.5
    assert LimitLaw("gumbel_shifted").cdf(0.0) == pytest.approx(
        math.exp(-1.0))
    with pytest.raises(ValueError):
        LimitLaw("poisson_tail", 1.5).cdf(1.0)
    with pytest.raises(ValueError):
        LimitLaw("exact_bs_moment").density(1.0)
    # a NaN point is refused, not read as NaN
    for x in (math.nan, np.array([0.0, math.nan])):
        with pytest.raises(ValueError):
            logistic_cdf(x)
        for family in ("logistic", "gumbel_shifted"):
            for value in (LimitLaw(family).cdf, LimitLaw(family).density):
                with pytest.raises(ValueError):
                    value(x)
    p = LimitLaw("logistic").density(0.0)
    assert p == pytest.approx(0.25, rel=1e-14)
    # the Gumbel density is the derivative of its CDF
    gumbel, h = LimitLaw("gumbel_shifted"), 1e-6
    for u in [-1.0, 0.0, 2.0]:
        fd = (gumbel.cdf(u + h) - gumbel.cdf(u - h)) / (2.0 * h)
        assert gumbel.density(u) == pytest.approx(fd, rel=1e-8)
