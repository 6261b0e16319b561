"""Twelve-point acceptance battery over the whole stack.

Each criterion prints one [PASS]/[FAIL] line on the real stdout, so the
battery reads as a checklist even under pytest's capture.  Sample sizes
and tolerances are fixed contract values, not tuning knobs: a red line
here means the implementation and the claimed accuracy disagree.
"""

import math
import time

import numpy as np
import pytest
from scipy import special

from coalsim import limits
from coalsim.cli import main as cli_main
from coalsim.ensemble import PathRecorder, run_ensemble
from coalsim.experiments import (ExperimentConfig, finite_n_max_cdf,
                                 ks_statistic, limit_gap, run_experiment)
from coalsim.measure import (bolthausen_sznitman, kingman, parse_measure,
                             power_beta)
from coalsim.quadrature import adaptive_integrate
from coalsim.rates import rates_for
from coalsim.sim import DEFAULT_SEED
from cox_oracle import cox_max_cdf
from labeled_oracle import simulate_labeled, two_sample_ks
from rate_oracle import merger_rate, mu, total_jump_rate


@pytest.fixture
def verdict(capfd):
    """One checklist line per criterion, written past pytest's capture."""
    def emit(num, label, ok, detail, elapsed):
        state = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[{state}] criterion {num:2d} ({label}): {detail} "
                  f"[{elapsed:.1f}s]", flush=True)
    return emit


def _stat_values(report):
    return {s.name: s.value for s in report.statistics}


def _run(measure, theorem, n, reps, **kw):
    return run_experiment(ExperimentConfig(measure, theorem, n, reps, **kw))


# ---------------------------------------------------------------------------
# 1: uniform-measure pair rates, quadrature against the factorial form

def test_criterion_01_exact_pair_rates(verdict):
    t0 = time.perf_counter()
    bs = bolthausen_sznitman()
    worst_pair = worst_total = 0.0
    for b in range(2, 31):
        for k in range(2, b + 1):
            closed = math.exp(math.lgamma(k - 1) + math.lgamma(b - k + 1)
                              - math.lgamma(b))
            worst_pair = max(worst_pair,
                             abs(merger_rate(bs, b, k) / closed - 1.0))
        worst_total = max(worst_total,
                          abs(total_jump_rate(bs, b) / (b - 1) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_pair <= 1e-9 and worst_total <= 1e-9 and elapsed < 1.0
    verdict(1, "exact pair rates", ok,
             f"max rel err {worst_pair:.1e} (pair), "
             f"{worst_total:.1e} (total)", elapsed)
    assert worst_pair <= 1e-9
    assert worst_total <= 1e-9
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 2: mu(b) as an integral against the weighted sum of pair rates

def test_criterion_02_mu_consistency(verdict):
    t0 = time.perf_counter()
    worst_sum = worst_fd = 0.0
    for m in (kingman(), bolthausen_sznitman(), power_beta(1.0, 0.5)):
        closed = rates_for(m)
        for b in range(2, 51):
            k = np.arange(2, b + 1)
            total = float(np.sum((k - 1) * closed.merger_size_weights(b)))
            worst_sum = max(worst_sum, abs(mu(m, b) / total - 1.0))
        for x in (2.5, 40.0, 400.0):
            _, mu1, _ = closed.mu_derivatives(x)
            h = 1e-5 * x
            fd = (closed.rate_of_decrease(x + h)
                  - closed.rate_of_decrease(x - h)) / (2.0 * h)
            worst_fd = max(worst_fd, abs(fd / mu1 - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_sum <= 1e-8 and worst_fd <= 1e-6 and elapsed < 5.0
    verdict(2, "mu consistency", ok,
             f"integral vs sum {worst_sum:.1e}, derivative vs fd "
             f"{worst_fd:.1e}", elapsed)
    assert worst_sum <= 1e-8
    assert worst_fd <= 1e-6
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 3: regular-variation exponent fits and the x**2 H(1/x) comparison

def test_criterion_03_regular_variation(verdict):
    t0 = time.perf_counter()
    est_quad = rates_for(kingman()).rv_exponent_estimate()
    est_heavy = rates_for(power_beta(1.0, 0.5)).rv_exponent_estimate()
    x = 1e6
    ratios = {}
    for name, m, alpha in (("uniform", bolthausen_sznitman(), 1.0),
                           ("a=0.5", power_beta(1.0, 0.5), 1.5)):
        r = rates_for(m)
        ratios[name] = (r.rate_of_decrease(x)
                        / (special.gamma(3.0 - alpha) * x * x
                           * r.H_function(1.0 / x)))
    elapsed = time.perf_counter() - t0
    ok = (abs(est_quad - 2.0) <= 0.02 and abs(est_heavy - 1.5) <= 0.03
          and all(0.9 <= v <= 1.1 for v in ratios.values())
          and elapsed < 30.0)
    verdict(3, "regular variation", ok,
             f"alpha-hat {est_quad:.3f}, {est_heavy:.3f}; ratio "
             f"{ratios['uniform']:.3f}, {ratios['a=0.5']:.3f}", elapsed)
    assert abs(est_quad - 2.0) <= 0.02
    assert abs(est_heavy - 1.5) <= 0.03
    for v in ratios.values():
        assert 0.9 <= v <= 1.1
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4: typical external length against its limit law, three measures

def test_criterion_04_typical_length(verdict):
    t0 = time.perf_counter()
    ks = {}
    for meas, n in (("kingman", 5000), ("bolthausen-sznitman", 10_000),
                    ("powerbeta:c=1,a=0.5,b=1", 10_000)):
        report = _run(meas, "T1.1", n, 10_000)
        ks[meas] = _stat_values(report)["ks_vs_limit"]
    elapsed = time.perf_counter() - t0
    ok = all(v <= 0.05 for v in ks.values())
    verdict(4, "typical length", ok,
             "KS " + ", ".join(f"{v:.4f}" for v in ks.values())
             + " (each <= 0.05)", elapsed)
    for meas, v in ks.items():
        assert v <= 0.05, f"{meas}: KS {v:.4f}"


# ---------------------------------------------------------------------------
# 5: exceedance of the integral threshold against the mu ratio

def test_criterion_05_tail_identity(verdict):
    t0 = time.perf_counter()
    report = _run("kingman:2", "T4.1", 2000, 10_000)
    stats = {s.name: s for s in report.statistics}
    est = stats["exceedance_prob"].value
    target = stats["exceedance_prob"].target
    gap = stats["envelope_gap"].value
    elapsed = time.perf_counter() - t0
    ok = abs(est - target) <= 0.03 and gap <= 0.03 and elapsed < 120.0
    verdict(5, "tail identity", ok,
             f"exceedance {est:.4f} vs {target:.5f}, envelope gap "
             f"{gap:.4f}", elapsed)
    assert abs(est - target) <= 0.03
    assert gap <= 0.03
    assert elapsed < 120.0


# ---------------------------------------------------------------------------
# 6: first-passage time and harmonic sum laws of large numbers

def test_criterion_06_laws_of_large_numbers(verdict):
    t0 = time.perf_counter()
    report = _run("kingman", "P2.1", 10_000, 200)
    stats = {s.name: s for s in report.statistics}
    ratio = stats["time_over_integral"].value
    hsum = stats["harmonic_sum"]
    elapsed = time.perf_counter() - t0
    ok = (0.9 <= ratio <= 1.1 and abs(hsum.value - hsum.target) <= 0.1
          and elapsed < 60.0)
    verdict(6, "laws of large numbers", ok,
             f"time ratio {ratio:.4f}, harmonic sum {hsum.value:.4f} vs "
             f"{hsum.target:.4f}", elapsed)
    assert 0.9 <= ratio <= 1.1
    assert abs(hsum.value - hsum.target) <= 0.1
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 7: conditional factorial moments against the replay oracle

def test_criterion_07_factorial_moments(verdict):
    t0 = time.perf_counter()
    report = _run("kingman", "L7.1", 8, 100_000)
    vals = _stat_values(report)
    elapsed = time.perf_counter() - t0
    ok = (vals["replay_zscore_r1"] <= 3.0 and vals["replay_zscore_r2"] <= 3.0
          and vals["max_var_minus_mean"] <= 1e-9 and elapsed < 60.0)
    verdict(7, "factorial moments", ok,
             f"z-scores {vals['replay_zscore_r1']:.2f}, "
             f"{vals['replay_zscore_r2']:.2f}; var slack "
             f"{vals['max_var_minus_mean']:.1e}", elapsed)
    assert vals["replay_zscore_r1"] <= 3.0
    assert vals["replay_zscore_r2"] <= 3.0
    assert vals["max_var_minus_mean"] <= 1e-9
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8: scaled-maximum law and Poisson count moments in the heavy-tail regime
#
# Theorem 1.5 gives the limit law but no rate of convergence.  F_n
# (finite_n_max_cdf, built from the rate functions alone) is a Poisson
# surrogate for the law of the maximum at finite n, built on T4.1's tail
# identity; it is not the exact finite-n law (for powerbeta a=0.5 it lies
# about 0.07 from the exact law in sup norm at n = 30 to 100, and puts
# the maximum too long).  For powerbeta a=0.5, F_n lies D_n = 0.269 /
# 0.162 / 0.098 / 0.061 from the kappa(s_n)-scaled limit at n = 1e3 /
# 1e4 / 1e5 / 1e6, a gap that shrinks roughly like n^(-0.2).  At n = 1e5
# that gap alone exceeds 0.08.  The simulated maximum sat within KS
# 0.063 / 0.038 / 0.050 of F_n at n = 1e3 / 1e4 / 1e5 when first measured
# (kingman: within 0.013 of F_n, with D_n = 0.037 / 0.012 / 0.004 /
# 0.001).  So the 0.08 bound holds the heavy-tail maximum to the
# surrogate F_n, and the approach of F_n to the limit is asserted as a
# strictly decreasing D_n; D_n is the distance from the surrogate to the
# limit, not from the exact law.

def test_criterion_08_heavy_tail_extremes(verdict):
    t0 = time.perf_counter()
    heavy_measure = "powerbeta:c=1,a=0.5,b=1"
    vals_quad = _stat_values(_run("kingman", "T1.5", 100_000, 2000))
    heavy = _run(heavy_measure, "T1.5", 100_000, 2000)
    vals_heavy = _stat_values(heavy)
    ks_quad = vals_quad["ks_max_vs_limit"]
    ks_heavy = vals_heavy["ks_max_vs_finite_n"]
    ks_heavy_limit = vals_heavy["ks_max_vs_limit"]
    mean_err = vals_quad["count_mean_rel_err_x1"]
    var_err = vals_quad["count_var_rel_err_x1"]
    rates = rates_for(parse_measure(heavy_measure))
    alpha = heavy.config["resolved"]["alpha"]
    gap_grid = (1000, 10_000, 100_000, 1_000_000)
    gaps = [limit_gap(finite_n_max_cdf(rates, n),
                      rates.kappa(rates.s_at(n)), alpha) for n in gap_grid]
    gaps_fall = all(b < a for a, b in zip(gaps, gaps[1:]))
    elapsed = time.perf_counter() - t0
    ok = (ks_quad <= 0.06 and ks_heavy <= 0.08
          and mean_err <= 0.15 and var_err <= 0.15 and gaps_fall)
    verdict(8, "heavy-tail extremes", ok,
             f"KS {ks_quad:.4f} (<= 0.06), {ks_heavy:.4f} vs surrogate "
             f"F_n (<= 0.08), {ks_heavy_limit:.4f} vs limit; "
             "limit gap " + "->".join(f"{g:.3f}" for g in gaps)
             + f"; count mean/var err {mean_err:.3f}/{var_err:.3f}",
             elapsed)
    assert ks_quad <= 0.06
    assert mean_err <= 0.15
    assert var_err <= 0.15
    assert ks_heavy <= 0.08, (
        f"KS of the maximum against the Poisson surrogate F_n at "
        f"n=100000 is {ks_heavy:.4f}")
    assert gaps[2] == heavy.config["resolved"]["limit_gap"]
    assert gaps_fall, f"limit gap over n={gap_grid} is not decreasing: {gaps}"


# ---------------------------------------------------------------------------
# 9: exact block-count moments for the uniform measure

def test_criterion_09_block_count_exactness(verdict):
    t0 = time.perf_counter()
    moments = _stat_values(
        _run("bolthausen-sznitman", "L9.2", 10_000, 20_000))
    zs = {k: v for k, v in moments.items() if k.startswith("moment_zscore")}
    c_mean = _stat_values(
        _run("bolthausen-sznitman", "L9.2", 1_000_000, 256,
             params={"t_grid": (), "c": 2.0}))["scaled_count_mean"]
    elapsed = time.perf_counter() - t0
    ok = all(z <= 3.0 for z in zs.values()) and abs(c_mean - 2.0) <= 0.3
    verdict(9, "block-count exactness", ok,
             "z " + ", ".join(f"{z:.2f}" for z in zs.values())
             + f"; scaled count mean {c_mean:.3f} vs 2", elapsed)
    assert len(zs) == 3
    for name, z in zs.items():
        assert z <= 3.0, name
    assert abs(c_mean - 2.0) <= 0.3


# ---------------------------------------------------------------------------
# 10: slow-scaling extremes, replaced by oracle checks plus a trend

def test_criterion_10_cox_regime(verdict):
    t0 = time.perf_counter()
    worst = 0.0
    for law_name in ("logistic", "gumbel_shifted"):
        law = limits.LimitLaw(law_name)
        for x in (-2.0, 0.0, 1.5):
            quad = adaptive_integrate(law.density, -40.0, x)
            worst = max(worst, abs(quad / law.cdf(x) - 1.0))
    for x in (-3.0, -1.0, 0.0, 2.0):
        worst = max(worst, abs(cox_max_cdf(x)
                               / limits.logistic_cdf(x) - 1.0))

    draws = limits.sample_cox_extremes(1, DEFAULT_SEED, 100_000)[:, 0]
    sampler_ks = ks_statistic(draws, limits.logistic_cdf)

    report = _run("bolthausen-sznitman", "T1.6", 1000, 2000,
                  params={"trend_grid": (1000, 10_000, 100_000, 1_000_000)})
    vals = _stat_values(report)
    trend = [v for k, v in vals.items() if k.startswith("ks_logistic")]
    rise = vals["trend_max_rise"]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and sampler_ks <= 0.01 and rise <= 0.02
    verdict(10, "slow-scaling extremes", ok,
             f"formula err {worst:.1e}, sampler KS {sampler_ks:.4f}, "
             "trend " + "->".join(f"{v:.3f}" for v in trend), elapsed)
    assert worst <= 1e-9
    assert sampler_ks <= 0.01
    assert rise <= 0.02


# ---------------------------------------------------------------------------
# 11: labeled partition simulator against the block-count simulator

def test_criterion_11_labeled_equivalence(verdict):
    t0 = time.perf_counter()
    ks = {}
    for meas in ("kingman", "bolthausen-sznitman"):
        rates = rates_for(parse_measure(meas))
        labeled = [simulate_labeled(rates, 6, DEFAULT_SEED + i)
                   .leaf_absorption_times for i in range(10_000)]
        paths = run_ensemble(rates, 6, 10_000, DEFAULT_SEED + 500_000,
                             [PathRecorder])["paths"]
        unlabeled = [np.repeat(ext.values, ext.multiplicities)
                     for ext in (p.external_lengths() for p in paths)]
        ks[meas] = two_sample_ks(np.concatenate(labeled),
                                 np.concatenate(unlabeled))
    elapsed = time.perf_counter() - t0
    ok = all(v <= 0.02 for v in ks.values()) and elapsed < 60.0
    verdict(11, "labeled equivalence", ok,
             "two-sample KS " + ", ".join(f"{v:.4f}" for v in ks.values()),
             elapsed)
    for meas, v in ks.items():
        assert v <= 0.02, meas
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 12: byte determinism of report files across reruns

def test_criterion_12_determinism(verdict, tmp_path):
    t0 = time.perf_counter()
    args = ["experiment", "--measure", "kingman", "--theorem", "T1.1",
            "--n", "100", "--reps", "1500",
            "--tol", "ks=1", "--tol", "envelope=1"]
    outs = []
    for name in ("a", "b", "c"):
        out = tmp_path / f"{name}.json"
        code = cli_main([*args, "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes()
                    + (tmp_path / f"{name}.scaled_length.csv").read_bytes())
    elapsed = time.perf_counter() - t0
    ok = outs[0] == outs[1] == outs[2]
    verdict(12, "determinism", ok,
             f"3 runs, {len(outs[0])} report bytes each",
             elapsed)
    assert outs[0] == outs[1] == outs[2]
