"""Closed-form limit laws for external branch lengths.

Covers the scaled typical-length family indexed by the regular-variation
exponent alpha in [1, 2] (alpha = 1 degenerates to the standard
exponential), the Frechet law and Poisson tail intensity of the scaled
maximum for alpha > 1, the logistic law of the centered maximum in the
alpha = 1 regime (a Cox mixture of Gumbel laws) with an exact sampler of
the Cox-process construction, and the exact ascending factorial moments
of the block count under the uniform measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .sim import DEFAULT_SEED, _is_integer, _make_rng

FAMILIES = ("typical", "frechet", "poisson_tail", "logistic",
            "gumbel_shifted", "exact_bs_moment")


def _check_alpha(alpha: float, low_open: bool = False) -> float:
    alpha = float(alpha)
    lo_ok = alpha > 1.0 if low_open else alpha >= 1.0
    if not (lo_ok and alpha <= 2.0):
        bracket = "(1, 2]" if low_open else "[1, 2]"
        raise ValueError(f"alpha must lie in {bracket}, got {alpha}")
    return alpha


def _points(x, name: str, low: float, closed: bool) -> np.ndarray:
    """x as a float array whose points all lie at or above low (closed)
    or above it; a NaN point, or one out of range, raises ValueError."""
    x = np.asarray(x, dtype=float)
    if not np.all(x >= low if closed else x > low):     # also rejects NaN
        raise ValueError(f"{name} must be {'>=' if closed else '>'} {low}")
    return x


def _scalar_or_array(value: np.ndarray, scalar: bool):
    return float(value) if scalar else value


# ---------------------------------------------------------------------------
# typical external length

def typical_density(alpha: float, t) -> float | np.ndarray:
    """Density alpha (1+(alpha-1)t)^(-1-alpha/(alpha-1)); e^-t at alpha=1.

    The alpha = 1 case is its own branch: the exponent alpha/(alpha-1)
    diverges there and the exponential law is the honest limit.
    """
    alpha = _check_alpha(alpha)
    t = _points(t, "t", 0.0, True)
    scalar = t.ndim == 0
    if alpha == 1.0:
        return _scalar_or_array(np.exp(-t), scalar)
    expo = 1.0 + alpha / (alpha - 1.0)
    return _scalar_or_array(alpha * (1.0 + (alpha - 1.0) * t) ** -expo, scalar)


def typical_cdf(alpha: float, t) -> float | np.ndarray:
    """F(t) = 1 - (1+(alpha-1)t)^(-alpha/(alpha-1)); 1 - e^-t at alpha=1."""
    alpha = _check_alpha(alpha)
    t = _points(t, "t", 0.0, True)
    scalar = t.ndim == 0
    if alpha == 1.0:
        return _scalar_or_array(-np.expm1(-t), scalar)
    expo = alpha / (alpha - 1.0)
    return _scalar_or_array(1.0 - (1.0 + (alpha - 1.0) * t) ** -expo, scalar)


# ---------------------------------------------------------------------------
# maximum for alpha > 1: Frechet law and Poisson tail intensity

def poisson_intensity_tail(alpha: float, x) -> float | np.ndarray:
    """Mean number of limit points above x: ((alpha-1)x)^(-alpha/(alpha-1))."""
    alpha = _check_alpha(alpha, low_open=True)
    x = _points(x, "x", 0.0, False)
    scalar = x.ndim == 0
    expo = alpha / (alpha - 1.0)
    return _scalar_or_array(((alpha - 1.0) * x) ** -expo, scalar)


def frechet_cdf(alpha: float, x) -> float | np.ndarray:
    """The void probability of the tail Poisson count above x."""
    alpha = _check_alpha(alpha, low_open=True)
    x = _points(x, "x", 0.0, False)
    scalar = x.ndim == 0
    return _scalar_or_array(np.exp(-poisson_intensity_tail(alpha, x)), scalar)


# ---------------------------------------------------------------------------
# alpha = 1 extremes: logistic law and the Cox construction

def logistic_cdf(x) -> float | np.ndarray:
    x = _points(x, "x", -np.inf, True)
    scalar = x.ndim == 0
    return _scalar_or_array(special.expit(x), scalar)


def sample_cox_extremes(ell: int, seed: int = DEFAULT_SEED,
                        reps: int = 1) -> np.ndarray:
    """Exact draws of the ell top points of the Cox limit, decreasing.

    The k-th largest point of a Poisson process with intensity e^-x dx is
    -log(Gamma_k) with Gamma_k the k-th unit-rate Poisson arrival; the
    random intensity level contributes an independent Gumbel shift -G.
    Inverse-transform exponentials keep the sampler exact.  Returns shape
    (ell,) for reps=1, else (reps, ell).
    """
    if not _is_integer(ell) or ell < 1:
        raise ValueError(f"ell must be a positive integer, got {ell!r}")
    if not _is_integer(reps) or reps < 1:
        raise ValueError(f"reps must be a positive integer, got {reps!r}")
    rng = _make_rng(seed)
    exps = -np.log1p(-rng.random((reps, ell + 1)))
    arrivals = np.cumsum(exps[:, :ell], axis=1)
    gumbel = -np.log(exps[:, ell])
    out = -np.log(arrivals) - gumbel[:, None]
    return out[0] if reps == 1 else out


# ---------------------------------------------------------------------------
# exact block-count moments under the uniform measure

def moehle_factorial_moment(n: int, t, r: int) -> float | np.ndarray:
    """E[N(t)(N(t)+1)...(N(t)+r-1)] started from n blocks, exact:
    Gamma(r+1)/Gamma(1+r e^-t) * Gamma(n+r e^-t)/Gamma(n), in log-gamma
    form so large n cannot overflow."""
    if not _is_integer(n) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not _is_integer(r) or r < 1:
        raise ValueError(f"r must be a positive integer, got {r!r}")
    t = _points(t, "t", 0.0, True)
    scalar = t.ndim == 0
    w = r * np.exp(-t)
    value = np.exp(special.gammaln(r + 1.0) - special.gammaln(1.0 + w)
                   + special.gammaln(n + w) - special.gammaln(n))
    return _scalar_or_array(value, scalar)


# ---------------------------------------------------------------------------
# family record

@dataclass(frozen=True)
class LimitLaw:
    """A limit family by name, with its exponent where it takes one: the
    CDF and density behind `coalsim limits`."""

    family: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"choose from {FAMILIES}")
        if self.family in ("typical", "frechet", "poisson_tail"):
            if self.alpha is None:
                raise ValueError(f"{self.family} needs an alpha")
            _check_alpha(self.alpha, low_open=self.family != "typical")
        elif self.alpha is not None:
            raise ValueError(f"{self.family} takes no alpha")

    def cdf(self, x):
        if self.family == "typical":
            return typical_cdf(self.alpha, x)
        if self.family == "frechet":
            return frechet_cdf(self.alpha, x)
        if self.family == "logistic":
            return logistic_cdf(x)
        if self.family == "gumbel_shifted":
            x = _points(x, "x", -np.inf, True)
            return _scalar_or_array(np.exp(-np.exp(-x)), x.ndim == 0)
        raise ValueError(f"{self.family} is not a distribution")

    def density(self, x):
        if self.family == "typical":
            return typical_density(self.alpha, x)
        if self.family == "logistic":
            x = _points(x, "x", -np.inf, True)
            p = special.expit(x)
            return _scalar_or_array(p * (1.0 - p), x.ndim == 0)
        if self.family == "gumbel_shifted":
            x = _points(x, "x", -np.inf, True)
            return _scalar_or_array(np.exp(-x - np.exp(-x)), x.ndim == 0)
        raise ValueError(f"no density for {self.family}")
