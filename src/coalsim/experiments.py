"""Seeded Monte Carlo experiments with quantitative pass/fail verdicts.

Each runner simulates an ensemble and compares empirical statistics
against the matching closed-form target; `run_experiment` builds the rate
functions, guards the regime and wraps the runner's statistics, each
carrying (value, se, target, tol, pass), into an ExperimentReport.
Tolerances come from the config with documented defaults; they are
engineering choices calibrated by pilot runs, since the underlying
convergence statements carry no rates.  Reports are bit-reproducible from
(config, seed): the ensemble engine chunks replications deterministically
and aggregation only ever averages, so replication order cannot leak in.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import limits, quadrature
from .ensemble import (BlockCountAtTimesTracker, LevelCrossingTracker,
                       MarkedLeafTracker, ThresholdCountTracker,
                       TopLengthsTracker, run_ensemble)
from .measure import LambdaMeasure, PowerBetaDensity, parse_measure
from .quadrature import adaptive_integrate
from .rates import RateFunctions, rates_for, t_c_sequence, t_sequence
from .sim import (DEFAULT_SEED, MergerSizeSampler, _check_seed,
                  _draw_singleton_loss, _is_integer, _make_rng, simulate_path)


class RegimeError(RuntimeError):
    """The requested experiment is outside its regime of validity
    (dusty measure, wrong exponent range, non-vanishing integral).
    Hard error by design: shrinking n must not silently turn a PASS
    into noise."""


class ConfigError(ValueError):
    """A params or tolerances key the experiment does not read, or a value
    of a key it reads that it cannot use."""


@dataclass(frozen=True)
class ExperimentConfig:
    measure: str
    theorem: str
    n: int
    replications: int
    seed: int = DEFAULT_SEED
    params: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.theorem not in CATALOG:
            raise ValueError(f"unknown experiment tag {self.theorem!r}; "
                             f"choose from {sorted(CATALOG)}")
        if not _is_integer(self.n) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        if not _is_integer(self.replications) or self.replications < 100:
            raise ValueError(f"need an integer of at least 100 replications, "
                             f"got {self.replications!r}")
        # plain ints, so that to_dict() serializes
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "replications", int(self.replications))
        object.__setattr__(self, "seed", _check_seed(self.seed))
        for what in ("params", "tolerances"):
            if not isinstance(getattr(self, what), dict):
                raise ValueError(f"{what} must be a dict")
        for name, tol in self.tolerances.items():
            # an infinite tolerance turns its gate off while the report
            # still counts it as passed
            if (not isinstance(tol, numbers.Real) or isinstance(tol, bool)
                    or not 0 < tol < math.inf):
                raise ValueError(f"tolerance {name!r} must be a finite "
                                 f"number above 0, got {tol!r}")

    def tolerance(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    def to_dict(self) -> dict:
        return {"measure": self.measure, "theorem": self.theorem,
                "n": self.n, "replications": self.replications,
                "seed": self.seed, "params": dict(self.params),
                "tolerances": dict(self.tolerances)}


@dataclass(frozen=True)
class Statistic:
    """One scored quantity.  passed=None marks informational entries
    that do not enter the verdict."""

    name: str
    value: float
    se: float | None = None
    target: float | None = None
    tol: float | None = None
    passed: bool | None = None

    def to_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "se": self.se,
                "target": self.target, "tol": self.tol, "pass": self.passed}


@dataclass
class ExperimentReport:
    config: dict
    statistics: list
    seed: int
    runtime_ms: float = 0.0
    ecdf_grids: dict = field(default_factory=dict)
    sampler: str = ""       # MergerSizeSampler.strategy of the runs
    quadrature: dict = field(default_factory=dict)   # the run's tally

    @property
    def verdict(self) -> str:
        return "FAIL" if any(s.passed is False for s in self.statistics) \
            else "PASS"

    def to_json(self) -> str:
        # runtime and the quadrature tally are execution details, not
        # results; they stay out of the primary serialization so reruns
        # are byte-identical.
        doc = {"config": self.config,
               "statistics": [s.to_dict() for s in self.statistics],
               "verdict": self.verdict,
               "seed": self.seed}
        return json.dumps(doc, sort_keys=True, indent=2)

    def __str__(self) -> str:
        lines = [f"[{self.verdict}] {self.config.get('theorem')} "
                 f"measure={self.config.get('measure')} "
                 f"n={self.config.get('n')}"]
        for s in self.statistics:
            mark = {True: "ok", False: "FAIL", None: "info"}[s.passed]
            tgt = "" if s.target is None else f" target={s.target:.6g}"
            tol = "" if s.tol is None else f" tol={s.tol:.3g}"
            lines.append(f"  {mark:4s} {s.name} = {s.value:.6g}{tgt}{tol}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# shared helpers

def ks_statistic(samples, cdf) -> float:
    """sup_i |i/m - F(x_(i))| over the sorted sample (right limits of the
    ECDF); within 1/m of the two-sided sup distance."""
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size == 0:
        raise ValueError("samples must be nonempty")
    f = np.asarray(cdf(s), dtype=float)
    steps = np.arange(1, s.size + 1) / s.size
    return float(np.max(np.abs(steps - f)))


def _require_dustless(rates: RateFunctions) -> None:
    verdict = rates.dust_diagnostic()
    if verdict != "dustless":
        raise RegimeError(f"experiment needs a dustless measure, "
                          f"diagnostic says {verdict!r} "
                          f"for {rates.measure!r}")


def _require_uniform(rates: RateFunctions) -> None:
    measure = rates.measure
    if not (measure.atom_at_zero == 0.0 and not measure.atoms
            and measure.densities == (PowerBetaDensity(1.0, 1.0, 1.0),)):
        raise RegimeError("this experiment is specific to the uniform "
                          "measure (bolthausen-sznitman)")


def _number(value) -> float:
    """A finite real number as a float; a bool or a string is not one."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def _param(cfg: ExperimentConfig, key: str, default, convert=_number):
    """cfg.params[key], or the default, through convert; a value that
    convert rejects with TypeError or ValueError raises ConfigError."""
    value = cfg.params.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{cfg.theorem} cannot use params "
                          f"{key}={value!r}: {exc}") from None


def _count(low: int):
    """Converter to an int that must be at least `low`: an integral
    float such as JSON's 1e3 is one, a bool or 2.5 is not."""
    def convert(value) -> int:
        if not (_number(value).is_integer() and value >= low):
            raise ValueError(f"{value!r} is not an integer >= {low}")
        return int(value)
    return convert


def _trend_grid(grid) -> list[int]:
    """Block counts >= 2, at least two of them, strictly increasing: one
    size has no trend, and each size names its own statistic."""
    out = [_count(2)(v) for v in grid]
    if len(out) < 2:
        raise ValueError("need at least two trend sizes")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError("sizes must be strictly increasing")
    return out


def _grid(positive: bool = False, allow_empty: bool = False):
    """Converter of a list of numbers (no bools) to a float array of
    finite values, each > 0 when `positive` and >= 0 otherwise, nonempty
    unless `allow_empty`: a NaN compares false everywhere and an empty
    grid scores nothing, so neither may pass unnoticed."""
    bound = "> 0" if positive else ">= 0"

    def convert(value) -> np.ndarray:
        out = np.array([_number(v) for v in value], dtype=float)
        if not (out.size or allow_empty):
            raise ValueError("must be a nonempty list of numbers")
        if not np.all(np.isfinite(out) & ((out > 0) if positive
                                          else (out >= 0))):
            raise ValueError(f"each value must be finite and {bound}")
        return out
    return convert


def known_rv_exponent(measure: LambdaMeasure) -> float:
    """The regular-variation exponent of the rate of decrease.  Mass at 0
    contributes 2, interior atoms 1, a power-beta density with left
    exponent a in (0, 1] contributes 2 - a and any other 1; the largest
    wins."""
    contribs = [2.0 - dens.a if dens.a <= 1.0 else 1.0
                for dens in measure.densities]
    if measure.atom_at_zero:
        contribs.append(2.0)
    if measure.atoms:
        contribs.append(1.0)
    return max(contribs)


def parse_r_rule(rule, n: int) -> float:
    """Level rules: a bare number, or 'n', 'n/2', 'n^0.4', 'n*0.25'.
    Anything else raises ConfigError."""
    if isinstance(rule, bool):
        raise ConfigError(f"cannot parse r rule {rule!r}")
    if isinstance(rule, numbers.Real):
        return float(rule)
    text = str(rule).strip().lower().replace(" ", "")
    try:
        if text == "n":
            return float(n)
        if text.startswith("n/"):
            return n / float(text[2:])
        if text.startswith("n^"):
            return float(n) ** float(text[2:])
        if text.startswith("n*"):
            return n * float(text[2:])
        return float(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse r rule {rule!r}") from None


def integral_inverse_mu(rates: RateFunctions, lo, hi):
    """Integral of dx / mu(x) over [lo, hi] by adaptive quadrature; for
    arrays of bounds, the array of integrals (0.0 where hi <= lo)."""
    return adaptive_integrate(lambda x: 1.0 / rates.rate_of_decrease(x),
                              lo, hi)


# The finite-n table stops where the exceedance intensity falls to 1e-6,
# so F_n is held at exp(-1e-6) beyond it.  Going lower brings r so close
# to 1 that the closed-form power-beta mu loses relative accuracy and the
# quadrature of 1/mu refines without converging.
_FINITE_N_FLOOR = 1e-6
_FINITE_N_POINTS = 256
# Spans both laws for alpha in (1, 2]: every CDF involved is 0 or 1 to
# double precision at the ends.
_GAP_GRID = np.geomspace(1e-3, 1e4, 4000)


def finite_n_max_cdf(rates: RateFunctions, n: int):
    """F_n, a Poisson surrogate for the law of the maximum external
    length at finite n, F_n(t) = exp(-n mu(r_n(t)) / mu(n)) with r_n(t)
    solving int_r^n dx/mu = t: the void probability of n leaves, each
    exceeding t with the tail-identity probability mu(r)/mu(n) (T4.1).
    For powerbeta:c=1,a=0.5,b=1 it lies about 0.07 (sup norm) from the
    exact law at n = 30 to 100, putting the maximum too long.

    Built from the rate functions alone: one table of int_r^n dx/mu on a
    log grid of r, with the log intensity interpolated linearly in log t.
    The 255 pieces of the table are one batched quadrature call, whose
    first panels take one evaluation of mu between them.
    Returns a vectorized callable of the unscaled length t.
    """
    mu_n = rates.rate_of_decrease(float(n))
    r_lo = rates.invert_mu(_FINITE_N_FLOOR * mu_n / n)
    r = np.geomspace(r_lo, float(n), _FINITE_N_POINTS)
    pieces = integral_inverse_mu(rates, r[:-1], r[1:])
    # increasing t, from the level next to n down to r_lo
    t_nodes = np.cumsum(pieces[::-1])
    log_t = np.log(t_nodes)
    log_intensity = np.log(n * rates.rate_of_decrease(r[-2::-1]) / mu_n)

    def cdf(t):
        t = np.maximum(np.asarray(t, dtype=float), t_nodes[0])
        return np.exp(-np.exp(np.interp(np.log(t), log_t, log_intensity)))

    return cdf


def limit_gap(cdf, kappa: float, alpha: float) -> float:
    """sup_x |F_n(x / kappa) - frechet_cdf(alpha, x)| on a fine log grid:
    the deterministic distance between the surrogate F_n of the maximum
    (finite_n_max_cdf) and its scaled heavy-tail limit, free of Monte
    Carlo noise; it is not the distance from the exact finite-n law."""
    return float(np.max(np.abs(cdf(_GAP_GRID / kappa)
                               - limits.frechet_cdf(alpha, _GAP_GRID))))


def _decimated_ecdf(samples: np.ndarray, points: int = 512) -> np.ndarray:
    s = np.sort(samples)
    m = s.size
    if m > points:
        idx = np.unique(np.linspace(0, m - 1, points).astype(int))
    else:
        idx = np.arange(m)
    return np.column_stack([s[idx], (idx + 1) / m])


def _scored(name, value, target, tol, se=None) -> Statistic:
    return Statistic(name, float(value), None if se is None else float(se),
                     float(target), float(tol),
                     bool(abs(value - target) <= tol))


def _bounded(name, value, tol, se=None) -> Statistic:
    """Pass iff value <= tol (for nonnegative discrepancy measures)."""
    return Statistic(name, float(value), None if se is None else float(se),
                     0.0, float(tol), bool(value <= tol))


def _info(name, value, se=None) -> Statistic:
    return Statistic(name, float(value), None if se is None else float(se))


_ENVELOPE_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)


def _envelope_gap(scaled: np.ndarray, t_grid) -> float:
    """Largest violation of exp(-2t) <= empirical tail <= 1/(1+t)."""
    worst = 0.0
    for t in t_grid:
        tail = float(np.mean(scaled > t))
        worst = max(worst, math.exp(-2.0 * t) - tail, tail - 1.0 / (1.0 + t))
    return worst


# ---------------------------------------------------------------------------
# runners

def run_typical_length(cfg: ExperimentConfig, rates: RateFunctions):
    """One uniformly tagged external length per path, scaled, against the
    limit CDF for the measure's exponent; plus the analytic tail envelope.

    One length per path keeps the sample i.i.d. across replications;
    within-path lengths are dependent at finite n.
    """
    alpha = known_rv_exponent(rates.measure)
    scale_rule = cfg.params.get("scale", "mu_over_n")
    if scale_rule == "mu_over_n":
        scale = rates.rate_of_decrease(cfg.n) / cfg.n
    elif scale_rule == "log_n":
        scale = math.log(cfg.n)
    else:
        raise ConfigError(f"unknown scale rule {scale_rule!r}; "
                          "use mu_over_n or log_n")
    t_grid = _param(cfg, "t_grid", _ENVELOPE_GRID, _grid())
    out = run_ensemble(rates, cfg.n, cfg.replications, cfg.seed,
                       [lambda: MarkedLeafTracker(1)])
    scaled = out["marked_lengths"][:, 0] * scale
    ks = ks_statistic(scaled, lambda x: limits.typical_cdf(alpha, x))
    stats = [
        _bounded("ks_vs_limit", ks, cfg.tolerance("ks", 0.05)),
        _bounded("envelope_gap", _envelope_gap(scaled, t_grid),
                 cfg.tolerance("envelope", 0.05)),
        _info("scaled_mean", scaled.mean(),
              se=scaled.std(ddof=1) / math.sqrt(scaled.size)),
    ]
    resolved = {"alpha": alpha, "scale": float(scale),
                "scale_rule": scale_rule, "t_grid": t_grid.tolist()}
    return stats, resolved, {"scaled_length": _decimated_ecdf(scaled)}


def run_independence(cfg: ExperimentConfig, rates: RateFunctions):
    """Joint law of k tagged external lengths: pairwise correlations and
    the gap between the joint ECDF and the product of its marginals."""
    k = _param(cfg, "k", 2, _count(1))
    if not 2 <= k <= 8:
        raise ConfigError(f"k must lie in [2, 8], got {k}")
    out = run_ensemble(rates, cfg.n, cfg.replications, cfg.seed,
                       [lambda: MarkedLeafTracker(k)])
    lengths = out["marked_lengths"]
    corr = np.corrcoef(lengths, rowvar=False)
    off = corr[~np.eye(k, dtype=bool)]
    qs = np.linspace(0.1, 0.9, 5)
    pooled = np.quantile(lengths, qs)
    gap = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            below_i = lengths[:, i, None] <= pooled[None, :]
            below_j = lengths[:, j, None] <= pooled[None, :]
            joint = (below_i[:, :, None] & below_j[:, None, :]).mean(axis=0)
            prod = below_i.mean(axis=0)[:, None] \
                * below_j.mean(axis=0)[None, :]
            gap = max(gap, float(np.max(np.abs(joint - prod))))
    stats = [_bounded("max_abs_corr", np.max(np.abs(off)),
                      cfg.tolerance("corr", 0.05),
                      se=1.0 / math.sqrt(lengths.shape[0])),
             _bounded("joint_product_gap", gap, cfg.tolerance("gap", 0.05),
                      se=0.5 / math.sqrt(lengths.shape[0]))]
    return stats, {"k": k}, {}


def run_tail_identity(cfg: ExperimentConfig, rates: RateFunctions):
    """P(length > integral threshold) against the rate-function ratio,
    with the square/linear ratio envelope."""
    r_level = parse_r_rule(cfg.params.get("r_rule", "n/2"), cfg.n)
    if not 1 < r_level <= cfg.n:
        raise RegimeError(f"need 1 < r <= n, got r={r_level} n={cfg.n}")
    threshold = integral_inverse_mu(rates, r_level, float(cfg.n))
    target = rates.rate_of_decrease(r_level) / rates.rate_of_decrease(cfg.n)
    out = run_ensemble(rates, cfg.n, cfg.replications, cfg.seed,
                       [lambda: MarkedLeafTracker(1)])
    lengths = out["marked_lengths"][:, 0]
    est = float(np.mean(lengths > threshold))
    se = math.sqrt(max(est * (1.0 - est), 1e-12) / lengths.size)
    ratio = r_level / cfg.n
    slack = cfg.tolerance("envelope", 0.03)
    env_gap = max(ratio ** 2 - est, est - ratio, 0.0)
    stats = [
        _scored("exceedance_prob", est, target,
                cfg.tolerance("exceedance", 0.03), se=se),
        _bounded("envelope_gap", env_gap, slack, se=se),
    ]
    resolved = {"r_level": r_level, "threshold": threshold,
                "mu_ratio": target, "envelope": [ratio ** 2, ratio]}
    return stats, resolved, {}


# P2.1/P2.2 regime: the level r is at most half of n and the integral of
# 1/mu from r to n at most 1/2.
_LLN_MAX_LEVEL = 0.5
_LLN_MAX_INTEGRAL = 0.5


def run_lln(cfg: ExperimentConfig, rates: RateFunctions):
    """First-passage time to <= r blocks against the integral of 1/mu,
    and the harmonic sum over visited states against its log target."""
    r_level = parse_r_rule(cfg.params.get("r_rule", "n^0.5"), cfg.n)
    if not 1 < r_level <= _LLN_MAX_LEVEL * cfg.n:
        raise RegimeError(f"need 1 < r <= {_LLN_MAX_LEVEL}*n, "
                          f"got r={r_level}")
    integral = integral_inverse_mu(rates, r_level, float(cfg.n))
    if integral > _LLN_MAX_INTEGRAL:
        raise RegimeError(f"integral of 1/mu is {integral:.3g}, beyond "
                          f"{_LLN_MAX_INTEGRAL}; the small-integral regime "
                          "fails")
    mu_n = rates.rate_of_decrease(cfg.n)
    mu_r = rates.rate_of_decrease(r_level)
    log_target = math.log(mu_n / cfg.n * r_level / mu_r)
    out = run_ensemble(rates, cfg.n, cfg.replications, cfg.seed,
                       [lambda: LevelCrossingTracker(r_level)])
    ratio = out["crossing_time"] / integral
    inv_sum = out["crossing_inv_sum"]
    m = ratio.size
    stats = [
        _scored("time_over_integral", ratio.mean(), 1.0,
                cfg.tolerance("ratio", 0.1),
                se=ratio.std(ddof=1) / math.sqrt(m)),
        _scored("harmonic_sum", inv_sum.mean(), log_target,
                cfg.tolerance("log_gap", 0.1),
                se=inv_sum.std(ddof=1) / math.sqrt(m)),
    ]
    resolved = {"r_level": r_level, "integral": integral,
                "log_target": log_target}
    return stats, resolved, {}


def run_order_statistics(cfg: ExperimentConfig, rates: RateFunctions):
    """The maximum external length scaled by kappa(s_n) against its
    heavy-tail limit CDF for the measure's exponent and, unscaled, against
    the Poisson surrogate F_n of its finite-n law (finite_n_max_cdf), and
    exceedance counts against the Poisson mean/variance identity on an
    x-grid.  The distance between F_n and the limit is reported as
    resolved["limit_gap"]."""
    alpha = known_rv_exponent(rates.measure)
    if not alpha > 1.0:
        raise RegimeError(f"heavy-tail regime needs alpha > 1, "
                          f"got {alpha}")
    s_n = rates.s_at(cfg.n)
    kappa = rates.rate_of_decrease(s_n) / s_n
    x_grid = _param(cfg, "x_grid", (1.0,), _grid(positive=True))
    out = run_ensemble(
        rates, cfg.n, cfg.replications, cfg.seed,
        [lambda: TopLengthsTracker(1),
         lambda: ThresholdCountTracker(x_grid / kappa)])
    top = out["top_lengths"][:, 0]
    scaled_max = top * kappa
    ks = ks_statistic(scaled_max, lambda x: limits.frechet_cdf(alpha, x))
    finite_n = finite_n_max_cdf(rates, cfg.n)
    ks_tol = cfg.tolerance("ks", 0.06)
    stats = [_bounded("ks_max_vs_limit", ks, ks_tol),
             _bounded("ks_max_vs_finite_n", ks_statistic(top, finite_n),
                      ks_tol)]
    counts = out["exceed_counts"]
    mv_tol = cfg.tolerance("count_moments", 0.15)
    for j, x in enumerate(x_grid):
        lam = limits.poisson_intensity_tail(alpha, float(x))
        mean = counts[:, j].mean()
        var = counts[:, j].var(ddof=1)
        stats.append(_bounded(f"count_mean_rel_err_x{x:g}",
                              abs(mean - lam) / lam, mv_tol,
                              se=counts[:, j].std(ddof=1)
                              / math.sqrt(counts.shape[0]) / lam))
        stats.append(_bounded(f"count_var_rel_err_x{x:g}",
                              abs(var - lam) / lam, mv_tol))
    resolved = {"alpha": alpha, "s_n": float(s_n), "kappa": float(kappa),
                "x_grid": x_grid.tolist(),
                "limit_gap": limit_gap(finite_n, kappa, alpha)}
    return stats, resolved, {"scaled_max": _decimated_ecdf(scaled_max)}


def run_bs_trend(cfg: ExperimentConfig, rates: RateFunctions):
    """Uniform-measure extremes: the KS distance of the centered-scaled
    maximum from the logistic law at each trend size, size i as sub-run
    i, and the largest rise of that distance from one size to the next."""
    trend_grid = _param(cfg, "trend_grid", (), _trend_grid)
    if cfg.n != trend_grid[0]:
        raise ConfigError(f"T1.6 runs at the trend_grid sizes; n={cfg.n} "
                          f"must be the smallest, {trend_grid[0]}")
    stats, ecdf = [], {}
    for i, n_i in enumerate(trend_grid):
        out = run_ensemble(rates, n_i, cfg.replications, cfg.seed,
                           [lambda: TopLengthsTracker(1)], sub_run=i)
        ll = math.log(math.log(n_i))
        centered = ll * (out["top_lengths"][:, 0] - t_sequence(n_i))
        stats.append(_info(f"ks_logistic_n{n_i}",
                           ks_statistic(centered, limits.logistic_cdf)))
        ecdf[f"centered_max_n{n_i}"] = _decimated_ecdf(centered)
    trend = [s.value for s in stats]
    worst_rise = max(b - a for a, b in zip(trend, trend[1:]))
    stats.append(_bounded("trend_max_rise", max(worst_rise, 0.0),
                          cfg.tolerance("trend_rise", 0.02)))
    return stats, {"trend_grid": trend_grid}, ecdf


def run_bs_moments(cfg: ExperimentConfig, rates: RateFunctions):
    """Exact uniform-measure block-count checks: ascending factorial
    moments at the times of t_grid, as sub-run 0, and with params c the
    exponential law of the scaled count at the c-dependent centering
    time, as sub-run 1 at the same n and replications.  An empty t_grid
    skips the moments and their run, and then c is required."""
    t_grid = _param(cfg, "t_grid", (0.25, 0.5, 1.0), _grid(allow_empty=True))
    r = _param(cfg, "r", 1, _count(1))
    resolved = {"t_grid": t_grid.tolist(), "r": r}
    if "c" in cfg.params:
        c = _param(cfg, "c", None)
        if not c > 0:
            raise ConfigError(f"c must be positive, got {c}")
        t_c = t_c_sequence(cfg.n, c)
        resolved.update({"c": c, "t_c": t_c})
    elif not t_grid.size:
        raise ConfigError("L9.2 with an empty t_grid scores nothing; "
                          "give params c or a nonempty t_grid")

    stats = []
    if t_grid.size:
        blocks = run_ensemble(
            rates, cfg.n, cfg.replications, cfg.seed,
            [lambda: BlockCountAtTimesTracker(t_grid)]
        )["blocks_at"].astype(float)
    for j, t in enumerate(t_grid):
        vals = np.ones(blocks.shape[0])
        for i in range(r):
            vals *= blocks[:, j] + i
        exact = limits.moehle_factorial_moment(cfg.n, float(t), r)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        stats.append(_bounded(
            f"moment_zscore_r{r}_t{t:g}",
            abs(vals.mean() - exact) / se,
            cfg.tolerance("moment_z", 3.0), se=se))

    if "c" in cfg.params:
        out = run_ensemble(rates, cfg.n, cfg.replications, cfg.seed,
                           [lambda: BlockCountAtTimesTracker([t_c])],
                           sub_run=1)
        scaled = math.exp(-t_c) * out["blocks_at"][:, 0].astype(float)
        stats.append(_scored("scaled_count_mean", scaled.mean(), c,
                             cfg.tolerance("c_mean", 0.15 * c),
                             se=scaled.std(ddof=1) / math.sqrt(scaled.size)))
    return stats, resolved, {}


class _ChainMomentsTracker(LevelCrossingTracker):
    """E[Y_rho | chain] and E[(Y_rho)_2 | chain] of each lane, by Lemma
    7.1's product (X_rho)_r prod_{j<=rho} (1 - r/X_j) over the block
    counts X_j after each jump up to the first passage rho to <= r_level;
    X_rho and the two products are updated at each jump before the
    crossing, so no path is stored and no dY is drawn.  It takes the
    level check of the level crossing and, like it, returns the lanes not
    yet crossed, and keeps none of its time, jump count or harmonic sum:
    one gather of the live lanes a jump."""

    def begin(self, size, n, rng):
        self.crossed = np.full(size, n <= self.r_level)
        self.blocks = np.full(size, float(n))
        self.prod1 = np.ones(size)
        self.prod2 = np.ones(size)

    def observe(self, rows, x_before, y_before, k, dy, t_new):
        reading = ~self.crossed[rows]
        act = reading.nonzero()[0]
        sub = rows[act]
        after = x_before[act] - k[act] + 1
        self.blocks[sub] = after
        self.prod1[sub] *= 1.0 - 1.0 / after
        self.prod2[sub] *= 1.0 - 2.0 / after
        went = (after <= self.r_level).nonzero()[0]
        self.crossed[sub[went]] = True
        reading[act[went]] = False
        return reading

    def result(self):
        x = self.blocks
        return {"chain_moment_1": x * self.prod1,
                "chain_moment_2": x * (x - 1.0) * self.prod2}


def run_factorial_replay(cfg: ExperimentConfig, rates: RateFunctions):
    """Conditional-law oracle: freeze one block chain, redraw its
    hypergeometric singleton decrements many times with the engine's own
    dY draw (`sim._draw_singleton_loss`), and compare the
    empirical factorial moments at the first passage below r_level with
    the exact product formula; plus the conditional variance-mean
    inequality over `variance_paths` independent chains, run in lockstep
    as sub-run 2, one ensemble that streams each chain's r = 1, 2
    products up to its crossing and stores no path.  The frozen chain is
    the path under the seed; the replay draws on sub-run 1's first key."""
    r_level = parse_r_rule(cfg.params.get("r_rule", "n/2"), cfg.n)
    if not 1 <= r_level < cfg.n:     # also rejects NaN
        raise ConfigError(f"need 1 <= r < n={cfg.n}, got r={r_level}")
    r_values = _param(cfg, "r_values", (1, 2),
                      lambda values: [_count(1)(v) for v in values])
    n_paths = _param(cfg, "variance_paths", 1000, _count(1))
    path = simulate_path(rates, cfg.n, cfg.seed)
    rho, _ = path.stopping_times(r_level)
    reps = cfg.replications
    rng = _make_rng(cfg.seed, 1 << 32)
    y = np.full(reps, cfg.n, dtype=np.int64)
    for b, k in zip(path.block_count_before[:rho], path.merger_size[:rho]):
        y -= _draw_singleton_loss(rng, np.full(reps, b), y, np.full(reps, k))
    stats = []
    for r in r_values:
        vals = np.ones(reps)
        for i in range(r):
            vals *= y - i
        exact = path.conditional_factorial_moment(rho, r)
        se = vals.std(ddof=1) / math.sqrt(reps)
        gap = abs(vals.mean() - exact)
        if se > 0:
            z = gap / se
        else:   # the replay is a point mass, right only at its target
            z = 0.0 if gap <= 1e-12 * exact else math.inf
        stats.append(_bounded(f"replay_zscore_r{r}", z,
                              cfg.tolerance("moment_z", 3.0), se=se))

    # variance-mean domination along independent chains, via the exact
    # r = 1, 2 formulas: Var = E[(Y)_2] + E[Y] - E[Y]^2 <= E[Y]
    out = run_ensemble(rates, cfg.n, n_paths, cfg.seed,
                       [lambda: _ChainMomentsTracker(r_level)], sub_run=2)
    e1, e2 = out["chain_moment_1"], out["chain_moment_2"]
    worst = float(np.max(e2 + e1 - e1 * e1 - e1))
    stats.append(_bounded("max_var_minus_mean", max(worst, 0.0),
                          cfg.tolerance("var_slack", 1e-9)))
    resolved = {"r_level": r_level, "rho": rho, "r_values": r_values,
                "variance_paths": n_paths}
    return stats, resolved, {}


# Every accepted experiment tag, one entry each: the runner, the regime
# guard its measure must pass (None: any measure), every params key and
# every tolerances key the runner reads, and what it checks.  A runner
# that checks more than one of the paper's statements names them.
CATALOG = {
    "T1.1": (run_typical_length, _require_dustless,
             {"scale", "t_grid"}, {"ks", "envelope"},
             "typical external length scaled by mu(n)/n against its limit "
             "CDF for the measure's exponent alpha, and the tail envelope "
             "(T1.1, T1.3, C1.4)"),
    "T1.2": (run_independence, _require_dustless, {"k"}, {"corr", "gap"},
             "asymptotic independence of k marked external lengths"),
    "T1.5": (run_order_statistics, _require_dustless,
             {"x_grid"}, {"ks", "count_moments"},
             "maximum external length against Frechet, exceedance counts "
             "against Poisson"),
    "T1.6": (run_bs_trend, _require_uniform, {"trend_grid"},
             {"trend_rise"},
             "Bolthausen-Sznitman extremes, logistic trend diagnostic"),
    "P2.1": (run_lln, _require_dustless, {"r_rule"}, {"ratio", "log_gap"},
             "level-crossing time over the integral of 1/mu and harmonic "
             "sum of the block counts above the level (P2.1, P2.2)"),
    "T4.1": (run_tail_identity, _require_dustless, {"r_rule"},
             {"exceedance", "envelope"},
             "exceedance probability identity mu(r)/mu(n)"),
    "L7.1": (run_factorial_replay, None,
             {"r_rule", "r_values", "variance_paths"},
             {"moment_z", "var_slack"},
             "conditional factorial-moment replay oracle"),
    "L9.2": (run_bs_moments, _require_uniform,
             {"t_grid", "r", "c"}, {"moment_z", "c_mean"},
             "exact Bolthausen-Sznitman block-count moments"),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the experiment behind the config's catalog tag.

    A params or tolerances key the runner does not read raises ConfigError
    before any work, so a misspelt key cannot leave a default in force
    unnoticed.  Then the measure's rates are built once and its regime
    guarded, and the runner simulates and scores, returning (statistics,
    resolved, ecdf_grids); a value the runner cannot use raises ConfigError
    when the runner reads it.
    """
    runner, guard, params, tolerances, _ = CATALOG[cfg.theorem]
    for what, given, known in (("params", cfg.params, params),
                               ("tolerances", cfg.tolerances, tolerances)):
        unknown = set(given) - known
        if unknown:
            raise ConfigError(
                f"{cfg.theorem} does not read {what} {sorted(unknown)}; "
                f"it reads {sorted(known)}")
    t0 = time.perf_counter()
    before = dict(quadrature.tally)
    rates = rates_for(parse_measure(cfg.measure))
    if guard is not None:
        guard(rates)
    stats, resolved, ecdf_grids = runner(cfg, rates)
    config = cfg.to_dict()
    config["resolved"] = resolved
    # The strategy depends on the measure alone, so a two-block sampler
    # names the one every run of the experiment used.
    sampler = MergerSizeSampler(rates, 2).strategy
    tally = {k: v - before[k] for k, v in quadrature.tally.items()}
    return ExperimentReport(config=config, statistics=stats, seed=cfg.seed,
                            runtime_ms=(time.perf_counter() - t0) * 1e3,
                            ecdf_grids=ecdf_grids, sampler=sampler,
                            quadrature=tally)
