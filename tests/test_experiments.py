"""Experiment layer: the KS machinery, config and report plumbing, regime
guards, and small-scale runs of every runner."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from coalsim import ensemble, experiments
from coalsim.ensemble import PathRecorder, run_ensemble
from coalsim.experiments import (CATALOG, ConfigError, ExperimentConfig,
                                 ExperimentReport, RegimeError, Statistic,
                                 _ChainMomentsTracker, _decimated_ecdf,
                                 finite_n_max_cdf, integral_inverse_mu,
                                 known_rv_exponent, ks_statistic, limit_gap,
                                 parse_r_rule, run_experiment)
from coalsim.measure import (bolthausen_sznitman, kingman, parse_measure,
                             power_beta)
from coalsim.rates import rates_for
from coalsim.sim import DEFAULT_SEED


# ---------------------------------------------------------------------------
# KS machinery

def test_ks_single_sample_at_median():
    assert ks_statistic([0.0], lambda x: np.full_like(x, 0.5)) == 0.5


def test_ks_constant_sample_at_upper_endpoint():
    # four copies of the top point: sup_i |i/4 - 1| = 3/4
    samples = np.ones(4)
    assert ks_statistic(samples, lambda x: np.ones_like(x)) == 0.75


def test_ks_inverse_transform_bound():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(123456789)))
    u = rng.random(100_000)
    assert ks_statistic(u, lambda x: x) <= 0.0062


def test_ks_empty_rejected():
    with pytest.raises(ValueError):
        ks_statistic([], lambda x: x)


# ---------------------------------------------------------------------------
# config / report plumbing

def test_config_validation():
    good = dict(measure="kingman", theorem="T1.1", n=100, replications=100)
    ExperimentConfig(**good)
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "theorem": "T9.9"})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "n": 1})
    with pytest.raises(ValueError):
        ExperimentConfig(**{**good, "replications": 99})
    with pytest.raises(ValueError):
        ExperimentConfig(**good, tolerances={"ks": 0.0})
    # integers only: n = 100.5 would simulate 100 and scale by mu(100.5)
    for bad in ({"n": 100.5}, {"n": 100.0}, {"n": True},
                {"replications": 150.5}, {"replications": 150.0},
                {"seed": -5}, {"seed": 1.5}, {"seed": 2 ** 64},
                {"seed": True}, {"params": [1]}, {"tolerances": [1]},
                {"tolerances": {"ks": "abc"}}, {"tolerances": {"ks": None}},
                {"tolerances": {"ks": True}},
                {"tolerances": {"ks": float("nan")}},
                {"tolerances": {"ks": math.inf}}):
        with pytest.raises(ValueError):
            ExperimentConfig(**{**good, **bad})
    numpy_ints = ExperimentConfig("kingman", "T1.1", np.int64(100),
                                  np.int32(150), seed=np.uint64(7),
                                  tolerances={"ks": np.float64(0.1)})
    assert json.loads(json.dumps(numpy_ints.to_dict()))["n"] == 100


def test_config_round_trip():
    cfg = ExperimentConfig("kingman", "T1.1", 100, 200, seed=5,
                           params={"k": 2}, tolerances={"ks": 0.1})
    assert ExperimentConfig(**cfg.to_dict()) == cfg
    assert cfg.tolerance("ks", 0.05) == 0.1
    assert cfg.tolerance("other", 0.05) == 0.05


def test_statistic_dict_uses_pass_key():
    d = Statistic("x", 1.0, se=0.1, target=1.0, tol=0.5, passed=True).to_dict()
    assert set(d) == {"name", "value", "se", "target", "tol", "pass"}


def test_report_json_stability_and_verdict():
    stats = [Statistic("a", 1.0, passed=True), Statistic("b", 2.0)]
    cfg = {"measure": "kingman", "theorem": "T1.1", "n": 10}
    rep = ExperimentReport(config=cfg, statistics=stats, seed=1,
                           runtime_ms=12.5)
    assert rep.verdict == "PASS"
    doc = json.loads(rep.to_json())
    assert doc["config"] == cfg
    assert "runtime_ms" not in doc
    failing = ExperimentReport(config=cfg, statistics=[
        Statistic("a", 1.0, passed=False)], seed=1)
    assert failing.verdict == "FAIL"
    assert "[PASS]" in str(rep)
    assert "FAIL" in str(failing)


# ---------------------------------------------------------------------------
# helpers

def test_parse_r_rule():
    assert parse_r_rule("n", 100) == 100.0
    assert parse_r_rule("n/2", 100) == 50.0
    assert parse_r_rule("n^0.5", 100) == pytest.approx(10.0)
    assert parse_r_rule("n*0.25", 100) == 25.0
    assert parse_r_rule("37", 100) == 37.0
    assert parse_r_rule(12, 100) == 12.0
    assert parse_r_rule(" N/4 ", 100) == 25.0
    with pytest.raises(ValueError):
        parse_r_rule("", 100)
    with pytest.raises(ValueError):
        parse_r_rule("half", 100)


def test_known_rv_exponent():
    assert known_rv_exponent(kingman()) == 2.0
    assert known_rv_exponent(bolthausen_sznitman()) == 1.0
    assert known_rv_exponent(power_beta(1.0, 0.5)) == 1.5
    assert known_rv_exponent(parse_measure("dirac:p=0.5,m=1")) == 1.0
    assert known_rv_exponent(
        parse_measure("kingman + powerbeta:c=1,a=0.5,b=1")) == 2.0
    assert known_rv_exponent(parse_measure("beta:2.5,3")) == 1.0


def test_integral_inverse_mu_kingman():
    # int 2/(x(x-1)) dx = 2 log((x-1)/x)
    rates = rates_for(kingman())
    lo, hi = 5.0, 100.0
    expect = 2.0 * (math.log(99.0 / 100.0) - math.log(4.0 / 5.0))
    assert integral_inverse_mu(rates, lo, hi) == pytest.approx(expect,
                                                               rel=1e-9)
    assert integral_inverse_mu(rates, 5.0, 5.0) == 0.0


HEAVY = "powerbeta:c=1,a=0.5,b=1"


@pytest.mark.parametrize("measure", [
    "kingman", "bolthausen-sznitman", HEAVY, "beta:0.5,1.5", "beta:0.3,0.3",
    "kingman + dirac:p=0.5,m=1"])
def test_integral_inverse_mu_batch_is_the_single_calls(measure):
    rates = rates_for(parse_measure(measure))
    r = np.geomspace(1.0 + 1e-3, 1e4, 40)
    batch = integral_inverse_mu(rates, r[:-1], r[1:])
    single = [integral_inverse_mu(rates, lo, hi)
              for lo, hi in zip(r[:-1], r[1:])]
    assert [float(v).hex() for v in batch] == [v.hex() for v in single]


@pytest.mark.parametrize("measure", ["kingman", HEAVY])
def test_finite_n_max_cdf_is_a_cdf(measure):
    rates = rates_for(parse_measure(measure))
    n = 2000
    kappa = rates.kappa(rates.s_at(n))
    values = finite_n_max_cdf(rates, n)(np.linspace(0.0, 50.0, 5001) / kappa)
    assert np.all(np.diff(values) >= 0.0)
    assert values.min() >= 0.0 and values.max() <= 1.0
    assert values[0] < 1e-12 and values[-1] > 1.0 - 1e-3


@pytest.mark.parametrize("measure", ["kingman", HEAVY])
def test_finite_n_max_cdf_matches_root_finding(measure):
    # F_n(t) = exp(-n mu(r)/mu(n)) at the root r of int_r^n dx/mu = t
    rates = rates_for(parse_measure(measure))
    n = 2000
    kappa = rates.kappa(rates.s_at(n))
    cdf = finite_n_max_cdf(rates, n)
    mu_n = rates.rate_of_decrease(float(n))
    for x in (0.3, 1.0, 2.0, 5.0):
        t = x / kappa
        r = brentq(lambda v: integral_inverse_mu(rates, v, float(n)) - t,
                   1.0 + 1e-6, float(n))
        expect = math.exp(-n * rates.rate_of_decrease(r) / mu_n)
        assert abs(float(cdf(t)) - expect) <= 1e-4


@pytest.mark.parametrize("measure", ["kingman", HEAVY])
def test_limit_gap_decreases_in_n(measure):
    rates = rates_for(parse_measure(measure))
    alpha = known_rv_exponent(rates.measure)
    gaps = [limit_gap(finite_n_max_cdf(rates, n), rates.kappa(rates.s_at(n)),
                      alpha) for n in (1000, 10_000, 100_000)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_decimated_ecdf():
    small = _decimated_ecdf(np.array([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(small,
                               [[1.0, 1 / 3], [2.0, 2 / 3], [3.0, 1.0]])
    big = _decimated_ecdf(np.arange(2000.0), points=512)
    assert big.shape[0] <= 512
    assert big[-1, 0] == 1999.0
    assert big[-1, 1] == 1.0
    assert np.all(np.diff(big[:, 0]) > 0)


# ---------------------------------------------------------------------------
# regime guards

def test_regime_guards():
    base = dict(n=2000, replications=100)
    with pytest.raises(RegimeError):
        run_experiment(ExperimentConfig(
            "powerbeta:c=1,a=1.5,b=1", "T1.1", **base))
    with pytest.raises(RegimeError):
        run_experiment(ExperimentConfig(
            "bolthausen-sznitman", "T1.5", **base))
    with pytest.raises(RegimeError):
        run_experiment(ExperimentConfig("kingman", "T1.6", **base))
    with pytest.raises(RegimeError):
        run_experiment(ExperimentConfig(
            "kingman", "T4.1", **base, params={"r_rule": 1}))
    with pytest.raises(RegimeError):
        run_experiment(ExperimentConfig(
            "kingman", "P2.1", **base, params={"r_rule": "n*0.9"}))
    with pytest.raises(RegimeError):
        # integral of 1/mu too large for the small-integral regime
        run_experiment(ExperimentConfig(
            "kingman", "P2.1", **base, params={"r_rule": 2}))
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(
            "kingman", "T1.1", **base, params={"scale": "bogus"}))
    with pytest.raises(ValueError):
        run_experiment(ExperimentConfig(
            "kingman", "T1.2", **base, params={"k": 9}))


# ---------------------------------------------------------------------------
# runners, small scale

def stat_names(report):
    return [s.name for s in report.statistics]


def test_run_typical_length_small():
    cfg = ExperimentConfig("kingman", "T1.1", 200, 2000,
                           tolerances={"ks": 0.2, "envelope": 0.2})
    rep = run_experiment(cfg)
    assert stat_names(rep) == ["ks_vs_limit", "envelope_gap", "scaled_mean"]
    assert rep.verdict == "PASS"
    res = rep.config["resolved"]
    assert res["alpha"] == 2.0
    assert res["scale_rule"] == "mu_over_n"
    assert res["scale"] == pytest.approx(199.0 / 2.0)
    assert "scaled_length" in rep.ecdf_grids
    assert rep.ecdf_grids["scaled_length"].shape[1] == 2


def test_run_typical_length_log_scale():
    cfg = ExperimentConfig("bolthausen-sznitman", "T1.1", 300, 500,
                           params={"scale": "log_n"},
                           tolerances={"ks": 0.5, "envelope": 0.5})
    rep = run_experiment(cfg)
    assert rep.config["resolved"]["scale_rule"] == "log_n"
    assert rep.config["resolved"]["scale"] == pytest.approx(math.log(300.0))


def test_run_independence_small():
    cfg = ExperimentConfig("kingman", "T1.2", 100, 1000,
                           tolerances={"corr": 0.15, "gap": 0.15})
    rep = run_experiment(cfg)
    assert stat_names(rep) == ["max_abs_corr", "joint_product_gap"]
    assert rep.config["resolved"]["k"] == 2
    assert rep.verdict == "PASS"
    # one tagged length has no partner to be independent of
    with pytest.raises(ConfigError, match=r"\[2, 8\]"):
        run_experiment(ExperimentConfig(
            "kingman", "T1.2", 100, 100, params={"k": 1}))


def test_run_tail_identity_small():
    cfg = ExperimentConfig("kingman:2", "T4.1", 400, 2000,
                           tolerances={"exceedance": 0.1})
    rep = run_experiment(cfg)
    assert stat_names(rep) == ["exceedance_prob", "envelope_gap"]
    res = rep.config["resolved"]
    assert res["r_level"] == 200.0
    assert res["mu_ratio"] == pytest.approx(200.0 * 199.0 / (400.0 * 399.0))
    assert res["envelope"] == [0.25, 0.5]
    assert rep.verdict == "PASS"


def test_run_lln_small():
    cfg = ExperimentConfig("kingman", "P2.1", 2000, 200)
    rep = run_experiment(cfg)
    assert stat_names(rep) == ["time_over_integral", "harmonic_sum"]
    res = rep.config["resolved"]
    assert res["r_level"] == pytest.approx(math.sqrt(2000.0))
    # kingman drops one block per jump: the harmonic sum is deterministic
    # up to float summation order
    harmonic = next(s for s in rep.statistics if s.name == "harmonic_sum")
    assert harmonic.se < 1e-12
    assert rep.verdict == "PASS"


def test_run_order_statistics_small():
    cfg = ExperimentConfig("kingman", "T1.5", 500, 1000,
                           params={"x_grid": (1.0, 2.0)},
                           tolerances={"ks": 0.3, "count_moments": 1.0})
    rep = run_experiment(cfg)
    assert stat_names(rep) == ["ks_max_vs_limit",
                               "ks_max_vs_finite_n",
                               "count_mean_rel_err_x1",
                               "count_var_rel_err_x1",
                               "count_mean_rel_err_x2",
                               "count_var_rel_err_x2"]
    res = rep.config["resolved"]
    assert res["alpha"] == 2.0
    assert res["s_n"] == pytest.approx(
        (1.0 + math.sqrt(4.0 * 499.0 + 1.0)) / 2.0)
    assert "scaled_max" in rep.ecdf_grids
    assert rep.verdict == "PASS"


def test_run_order_statistics_alpha_override():
    # there is no override: alpha is the measure's own exponent, 2 - a for
    # a power-beta density, and a params alpha is refused
    rep = run_experiment(ExperimentConfig(
        HEAVY, "T1.5", 300, 500,
        tolerances={"ks": 1.0, "count_moments": 50.0}))
    assert rep.config["resolved"]["alpha"] == 1.5
    with pytest.raises(ConfigError, match=r"does not read params \['alpha'\]"):
        run_experiment(ExperimentConfig("kingman", "T1.5", 300, 500,
                                        params={"alpha": 1.5}))


def test_run_bs_trend_and_moments():
    cfg = ExperimentConfig("bolthausen-sznitman", "T1.6", 300, 500,
                           params={"trend_grid": (300, 600)},
                           tolerances={"trend_rise": 0.5})
    rep = run_experiment(cfg)
    names = stat_names(rep)
    assert names == ["ks_logistic_n300", "ks_logistic_n600",
                     "trend_max_rise"]
    assert rep.config["resolved"] == {"trend_grid": [300, 600]}
    assert "centered_max_n300" in rep.ecdf_grids
    assert rep.verdict == "PASS"

    moments = run_experiment(ExperimentConfig(
        "bolthausen-sznitman", "L9.2", 500, 2000,
        params={"t_grid": (0.5,), "r": 1}))
    assert stat_names(moments) == ["moment_zscore_r1_t0.5"]
    assert moments.config["resolved"] == {"t_grid": [0.5], "r": 1}
    assert moments.verdict == "PASS"


def test_run_bs_moments_c_branch(monkeypatch):
    # an empty t_grid skips the moment run: the c branch, sub-run 1 of the
    # seed at the config's n and replications, is the only one
    calls = []
    real = experiments.run_ensemble

    def counting(rates, n, reps, seed, factories, sub_run=0):
        calls.append((n, reps, seed, sub_run))
        return real(rates, n, reps, seed, factories, sub_run)

    monkeypatch.setattr(experiments, "run_ensemble", counting)
    cfg = ExperimentConfig("bolthausen-sznitman", "L9.2", 150, 400,
                           params={"t_grid": (), "c": 1.0},
                           tolerances={"c_mean": 0.5})
    rep = run_experiment(cfg)
    assert calls == [(150, 400, cfg.seed, 1)]
    assert stat_names(rep) == ["scaled_count_mean"]
    res = rep.config["resolved"]
    assert res["t_grid"] == [] and res["r"] == 1
    assert res["c"] == 1.0
    assert res["t_c"] > 0.0


def test_bs_runners_keep_their_seeds(monkeypatch):
    # every run on the seed given: trend size i as sub-run i, the moment
    # run as sub-run 0 and the c branch as sub-run 1, up to the top of the
    # key range
    calls = []

    def record(rates, n, reps, seed, factories, sub_run=0):
        calls.append((n, seed, sub_run))
        return {"top_lengths": np.ones((reps, 1)),
                "blocks_at": np.arange(reps)[:, None] + np.ones((1, 3))}

    monkeypatch.setattr(experiments, "run_ensemble", record)
    top = 2 ** 64 - 1
    run_experiment(ExperimentConfig(
        "bolthausen-sznitman", "T1.6", 10, 100, seed=top,
        params={"trend_grid": [10, 20, 30]}))
    assert calls == [(10, top, 0), (20, top, 1), (30, top, 2)]
    calls.clear()
    run_experiment(ExperimentConfig(
        "bolthausen-sznitman", "L9.2", 10, 100, seed=top,
        params={"c": 2.0}))
    assert calls == [(10, top, 0), (10, top, 1)]


def test_run_factorial_replay_exact_law():
    cfg = ExperimentConfig("kingman", "L7.1", 50, 2000,
                           params={"variance_paths": 100})
    rep = run_experiment(cfg)
    assert stat_names(rep) == ["replay_zscore_r1", "replay_zscore_r2",
                               "max_var_minus_mean"]
    assert rep.config["resolved"]["r_values"] == [1, 2]
    assert rep.verdict == "PASS"
    var_stat = next(s for s in rep.statistics
                    if s.name == "max_var_minus_mean")
    assert var_stat.value <= 1e-9


@pytest.mark.parametrize("measure", ["kingman", "bolthausen-sznitman",
                                     "dirac:p=0.5,m=1"])
def test_chain_moments_match_stored_paths(measure):
    # on the chains a PathRecorder stores in the same run, the streamed
    # products give Lemma 7.1's conditional moments for r = 1, 2; level 1
    # is absorption, n - 1 is crossed on the first jump, n and above at 0
    n, reps, seed = 120, 40, 2024
    for level in (1, 7.5, n // 2, n - 1, n, 2 * n):
        out = run_ensemble(parse_measure(measure), n, reps, seed,
                           [lambda: _ChainMomentsTracker(level),
                            PathRecorder])
        for r in (1, 2):
            exact = []
            for path in out["paths"]:
                rho, _ = path.stopping_times(level)
                exact.append(path.conditional_factorial_moment(rho, r))
            np.testing.assert_allclose(out[f"chain_moment_{r}"], exact,
                                       rtol=1e-13, atol=0.0)


def test_factorial_replay_records_single_paths_only(monkeypatch):
    # the frozen chain is the one-path run under the seed; the replay draws
    # on the key (seed, 2**32), sub-run 1's first; the variance chains,
    # sub-run 2, stream their products and store no path
    calls, replay_keys = [], []

    def recording(real):
        def run(rates, n, reps, seed, factories, sub_run=0):
            calls.append((reps, seed, sub_run,
                          [type(f()) for f in factories]))
            return real(rates, n, reps, seed, factories, sub_run)
        return run

    real_make_rng = experiments._make_rng

    def make_rng(seed, stream=0):
        replay_keys.append((seed, stream))
        return real_make_rng(seed, stream)

    monkeypatch.setattr(experiments, "_make_rng", make_rng)
    for module in (experiments, ensemble):
        monkeypatch.setattr(module, "run_ensemble",
                            recording(module.run_ensemble))
    run_experiment(ExperimentConfig("kingman", "L7.1", 200, 100, seed=9,
                                    params={"variance_paths": 50}))
    assert calls == [(1, 9, 0, [PathRecorder]),
                     (50, 9, 2, [_ChainMomentsTracker])]
    assert replay_keys == [(9, 2 ** 32)]


def test_factorial_replay_point_mass_scores_exactly(monkeypatch):
    # every first jump merges K >= 2 of the 300 singletons and so crosses
    # the level n - 1, where every replay lane ends with the same Y: a zero
    # standard error scores 0 at the exact target and inf off it
    cfg = ExperimentConfig("dirac:p=0.5,m=1", "L7.1", 300, 100, seed=5,
                           params={"variance_paths": 3, "r_rule": 299})
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = run_experiment(cfg)
    replay = [(s.value, s.se, s.passed) for s in rep.statistics[:2]]
    assert replay == [(0.0, 0.0, True)] * 2
    assert rep.verdict == "PASS"
    monkeypatch.setattr(experiments, "_draw_singleton_loss",
                        lambda rng, b, y, k: np.zeros_like(y))
    rep = run_experiment(cfg)
    replay = [(s.value, s.se, s.passed) for s in rep.statistics[:2]]
    assert replay == [(math.inf, 0.0, False)] * 2
    assert rep.verdict == "FAIL"


def test_run_experiment_dispatch_and_determinism():
    cfg = ExperimentConfig("kingman:2", "T4.1", 400, 1000)
    first = run_experiment(cfg)
    again = run_experiment(cfg)
    assert first.to_json() == again.to_json()
    assert stat_names(first) == ["exceedance_prob", "envelope_gap"]


def test_each_tag_has_its_own_runner():
    # T1.3 and C1.4 ran T1.1's runner and P2.2 ran P2.1's: a report of
    # either tag gated exactly what the other one gated
    runners = [runner for runner, *_ in CATALOG.values()]
    assert len(set(runners)) == len(runners) == 8


def test_readme_tag_table_matches_catalog():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| ([A-Z]\d\.\d) +\| (.+?) +\|$",
                      readme.read_text(encoding="utf-8"), flags=re.M)
    assert dict(rows) == {tag: about for tag, (*_, about) in CATALOG.items()}
    assert len(rows) == len(CATALOG)


def test_misspelt_key_is_rejected():
    # "scal" would leave the default scale in force and could PASS the
    # wrong experiment
    base = dict(n=100, replications=100)
    with pytest.raises(ConfigError, match="scal"):
        run_experiment(ExperimentConfig("kingman", "T1.1", **base,
                                        params={"scal": "log_n"}))
    with pytest.raises(ConfigError, match="kss"):
        run_experiment(ExperimentConfig("kingman", "T1.1", **base,
                                        tolerances={"kss": 0.1}))
    with pytest.raises(ValueError):      # a parameter of another runner
        run_experiment(ExperimentConfig("kingman", "T1.1", **base,
                                        params={"k": 2}))


@pytest.fixture
def no_simulation(monkeypatch):
    """Fails the test if the experiment reaches run_ensemble, also through
    simulate_path."""
    def refuse(*args):
        raise AssertionError("simulated")

    for module in (experiments, ensemble):
        monkeypatch.setattr(module, "run_ensemble", refuse)


@pytest.mark.parametrize("tag", ["T1.3", "C1.4", "P2.2"])
def test_dropped_alias_tags_are_unknown(no_simulation, tag):
    # T1.1 runs the T1.3 and C1.4 checks, P2.1 the P2.2 check
    with pytest.raises(ValueError, match="unknown experiment tag"):
        run_experiment(ExperimentConfig("kingman", tag, 100, 100))


@pytest.mark.parametrize("tag, params", [
    ("T1.6", {"trend_grid": [50, 100, 200]}),
    ("L9.2", {"c": 1.0}),
    ("L7.1", {"variance_paths": 3}),
], ids=["T1.6", "L9.2-c", "L7.1"])
def test_the_top_seed_runs_every_sub_run(tag, params):
    # sub-runs keep the seed as the first key word, so the top of the key
    # range runs every tag; seeds of sub-runs taken as seed + offset were
    # refused from 2**64 - offset on
    measure = "kingman" if tag == "L7.1" else "bolthausen-sznitman"
    top = 2 ** 64 - 1
    report = run_experiment(ExperimentConfig(
        measure, tag, 50, 100, seed=top, params=params,
        tolerances={"trend_rise": 1.0} if tag == "T1.6" else {}))
    assert report.seed == top
    assert all(math.isfinite(s.value) for s in report.statistics)


@pytest.mark.parametrize("rule", [math.inf, "n", "n*5", 50])
def test_l71_level_at_or_above_n_is_rejected_before_simulating(
        no_simulation, rule):
    # the frozen chain starts at n blocks, already at or below such a
    # level: rho was 0, and the report read PASS with all three
    # statistics 0
    with pytest.raises(ConfigError, match="1 <= r < n=50"):
        run_experiment(ExperimentConfig(
            "kingman", "L7.1", 50, 100,
            params={"r_rule": rule, "variance_paths": 3}))


@pytest.mark.parametrize("alpha", [5.0, 2.5, 1.0, 0.5, -1.0])
def test_t15_config_alpha_outside_its_range_is_rejected_before_simulating(
        no_simulation, alpha):
    # the measure fixes alpha, so params hold none to range-check: any
    # alpha, in (1, 2] or not, is an unknown key
    with pytest.raises(ConfigError,
                       match=r"T1.5 does not read params \['alpha'\]"):
        run_experiment(ExperimentConfig("kingman", "T1.5", 100, 100,
                                        params={"alpha": alpha}))


@pytest.mark.parametrize("tag, params, key", [
    ("L9.2", {"t_grid": [], "c": math.inf}, "c="),
    ("L9.2", {"t_grid": [], "c": math.nan}, "c="),
    ("T1.5", {"x_grid": [math.inf]}, "x_grid="),
    ("T1.5", {"x_grid": [1.0, -math.inf]}, "x_grid="),
    ("T1.2", {"k": math.inf}, "k="),
])
def test_non_finite_numbers_are_rejected_before_simulating(
        no_simulation, tag, params, key):
    # c=Infinity scored scaled_count_mean = 1000 against target inf with
    # tolerance inf, and passed
    measure = "bolthausen-sznitman" if tag == "L9.2" else "kingman"
    with pytest.raises(ConfigError, match=f"{key}.*not a finite number"):
        run_experiment(ExperimentConfig(measure, tag, 1000, 100,
                                        params=params))


@pytest.mark.parametrize("tag, key, value", [
    ("T1.1", "alpha", 1.5),
    ("T1.5", "alpha", 1.5),
    ("T1.5", "ell", 2),
    ("T1.6", "ell", 2),
    ("L9.2", "c_n", 1000),
    ("L9.2", "c_reps", 200),
])
def test_removed_keys_are_refused_before_simulating(no_simulation, tag, key,
                                                    value):
    # alpha is the measure's own exponent, T1.5 and T1.6 score only the
    # maximum, and L9.2's c branch runs at the config's n and replications
    measure = ("bolthausen-sznitman" if tag in ("T1.6", "L9.2")
               else "kingman")
    with pytest.raises(ConfigError,
                       match=rf"{tag} does not read params \['{key}'\]"):
        run_experiment(ExperimentConfig(measure, tag, 100, 100,
                                        params={key: value}))


@pytest.mark.parametrize("tag, key, grid", [
    ("T1.1", "t_grid", [0.5, math.nan]),
    ("T1.1", "t_grid", []),
    ("T1.1", "t_grid", [-1.0]),
    ("T1.5", "x_grid", [1.0, math.nan]),
    ("T1.5", "x_grid", []),
    ("T1.5", "x_grid", [0.0]),
    ("L9.2", "t_grid", [0.5, math.nan]),
    ("L9.2", "t_grid", [math.inf]),
])
def test_unusable_grids_are_rejected_before_simulating(no_simulation, tag,
                                                       key, grid):
    # a NaN compares false everywhere: T1.1's envelope gap read 0.0 and
    # passed, T1.5 and L9.2 reported NaN statistics
    measure = "bolthausen-sznitman" if tag == "L9.2" else "kingman"
    with pytest.raises(ConfigError, match=key):
        run_experiment(ExperimentConfig(measure, tag, 100, 100,
                                        params={key: grid}))


class _ReadLog(dict):
    """A dict that records every key looked up in it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


# Smoke-size runs of each tag with every key it declares set.
_ALL_KEYS = {
    "T1.1": ("kingman", 100,
             {"scale": "mu_over_n", "t_grid": [0.5, 1.0]},
             {"ks": 1.0, "envelope": 1.0}),
    "T1.2": ("kingman", 50, {"k": 2}, {"corr": 1.0, "gap": 1.0}),
    "T4.1": ("kingman", 50, {"r_rule": "n/2"},
             {"exceedance": 1.0, "envelope": 1.0}),
    "P2.1": ("kingman", 200,
             {"r_rule": "n^0.5"},
             {"ratio": 1.0, "log_gap": 1.0}),
    "T1.5": ("kingman", 100, {"x_grid": [1.0]},
             {"ks": 1.0, "count_moments": 100.0}),
    "T1.6": ("bolthausen-sznitman", 50,
             {"trend_grid": [50, 100]}, {"trend_rise": 1.0}),
    "L9.2": ("bolthausen-sznitman", 100,
             {"t_grid": [0.5], "r": 1, "c": 1.0},
             {"moment_z": 100.0, "c_mean": 10.0}),
    "L7.1": ("kingman", 50,
             {"r_rule": "n/2", "r_values": [1, 2], "variance_paths": 3},
             {"moment_z": 100.0, "var_slack": 1.0}),
}


@pytest.mark.parametrize("tag, n, params", [
    ("T1.5", 3, {"ell": 5}),
    ("T1.6", 3, {"ell": 7, "trend_grid": [3, 10]}),
    ("T1.6", 100, {"ell": 20, "trend_grid": [10, 50]}),
])
def test_ell_above_the_sample_is_rejected_before_simulating(no_simulation,
                                                           tag, n, params):
    # a sample of n leaves has n external lengths, and the slots beyond
    # them held zeros; T1.5 and T1.6 now score only the maximum, which
    # every n >= 2 has, so ell is an unknown key at any size
    measure = "bolthausen-sznitman" if tag == "T1.6" else "kingman"
    with pytest.raises(ConfigError,
                       match=rf"{tag} does not read params \['ell'\]"):
        run_experiment(ExperimentConfig(measure, tag, n, 100, params=params))


@pytest.mark.parametrize("n, grid", [(5, [100, 1000]), (1000, [100, 1000]),
                                     (100, [10, 100, 1000])])
def test_t16_n_must_be_the_smallest_trend_size(no_simulation, n, grid):
    # T1.6 runs at the trend_grid sizes only: n = 5 was reported in the
    # config beside runs at 100 and 1000
    with pytest.raises(ConfigError, match="smallest"):
        run_experiment(ExperimentConfig("bolthausen-sznitman", "T1.6", n,
                                        200, params={"trend_grid": grid}))


@pytest.mark.parametrize("grid", [[1000, 100], [100, 100]])
def test_t16_trend_grid_must_increase_strictly(no_simulation, grid):
    # [1000, 100] ran and failed on the order; [100, 100] reported two
    # statistics named ks_logistic_n100, and one ECDF overwrote the other
    with pytest.raises(ConfigError, match="trend_grid.*strictly increasing"):
        run_experiment(ExperimentConfig("bolthausen-sznitman", "T1.6", 100,
                                        100, params={"trend_grid": grid}))


@pytest.mark.parametrize("tag, params, key", [
    ("T1.5", {"x_grid": [1.0, True]}, "x_grid"),
    ("T1.2", {"k": 2.9}, "k"),
    ("L7.1", {"variance_paths": 10.5}, "variance_paths"),
    ("L7.1", {"r_values": [1.9]}, "r_values"),
    ("T1.6", {"trend_grid": [100.7, 1000]}, "trend_grid"),
    ("L7.1", {"r_rule": True}, "r rule"),
    ("T1.1", {"t_grid": [0.5, True]}, "t_grid"),
    ("L9.2", {"c": True}, "c="),
])
def test_bools_and_non_integral_counts_are_rejected_before_simulating(
        no_simulation, tag, params, key):
    # each was truncated or read as 1: trend_grid=[100.7, 1000] ran at
    # 100, r_rule=true at level 1
    measure = ("bolthausen-sznitman" if tag in ("T1.6", "L9.2")
               else "kingman")
    with pytest.raises(ConfigError, match=key):
        run_experiment(ExperimentConfig(measure, tag, 100, 100,
                                        params=params))


def test_integral_floats_are_counts():
    # JSON reads 1e2 as a float; the sizes and statistic names stay ints
    rep = run_experiment(ExperimentConfig(
        "bolthausen-sznitman", "T1.6", 50, 100,
        params={"trend_grid": [50.0, 1e2]},
        tolerances={"trend_rise": 1.0}))
    resolved = rep.config["resolved"]
    assert resolved == {"trend_grid": [50, 100]}
    assert {type(v) for v in resolved["trend_grid"]} == {int}
    assert stat_names(rep)[:2] == ["ks_logistic_n50", "ks_logistic_n100"]


def test_empty_trend_grid_is_rejected():
    with pytest.raises(ConfigError, match="trend_grid"):
        run_experiment(ExperimentConfig("bolthausen-sznitman", "T1.6", 100,
                                        100, params={"trend_grid": []}))


@pytest.mark.parametrize("tag, params, key", [
    ("T1.6", {}, "trend_grid"),
    ("T1.6", {"trend_grid": [1000]}, "trend_grid"),
    ("L9.2", {"t_grid": []}, "t_grid"),
], ids=["T1.6-no-trend", "T1.6-one-size", "L9.2-empty-t_grid"])
def test_configs_that_gate_nothing_are_rejected_before_simulating(
        no_simulation, tag, params, key):
    # one trend size reported an info KS alone, an empty t_grid without c
    # reported nothing, and both read PASS
    with pytest.raises(ConfigError, match=key):
        run_experiment(ExperimentConfig("bolthausen-sznitman", tag, 1000,
                                        200, params=params))


@pytest.mark.parametrize("params", [{"c_n": 10 ** 6}, {"c_reps": 500},
                                    {"t_grid": [], "c_n": 1000}])
def test_l92_c_branch_keys_need_c(no_simulation, params):
    # the c branch runs at the config's n and replications: c_n and
    # c_reps are unknown keys, with c or without
    key = next(k for k in params if k.startswith("c_"))
    for given in (params, {**params, "c": 2.0}):
        with pytest.raises(ConfigError,
                           match=rf"L9.2 does not read params \['{key}'\]"):
            run_experiment(ExperimentConfig("bolthausen-sznitman", "L9.2",
                                            1000, 200, params=given))


_L92_ONLY = {"t_grid": [0.5], "r": 2, "c": 2.0}
_T16_ONLY = {"trend_grid": [50, 100]}


@pytest.mark.parametrize("tag, what, key, value", [
    *[("T1.6", "params", key, value) for key, value in _L92_ONLY.items()],
    # keys the other tag once read, which neither reads now
    ("T1.6", "params", "c_n", 100),
    ("T1.6", "params", "c_reps", 100),
    ("T1.6", "tolerances", "moment_z", 3.0),
    ("T1.6", "tolerances", "c_mean", 0.3),
    ("L9.2", "params", "ell", 2),
    *[("L9.2", "params", key, value) for key, value in _T16_ONLY.items()],
    ("L9.2", "tolerances", "trend_rise", 0.02),
])
def test_bs_tags_refuse_each_others_keys(no_simulation, tag, what, key,
                                        value):
    # T1.6 could gate L9.2's moments and c branch, and L9.2 run a trend
    given = {"params": {"trend_grid": [50, 100]} if tag == "T1.6" else {},
             "tolerances": {}}
    given[what][key] = value
    with pytest.raises(ConfigError,
                       match=rf"{tag} does not read {what} \['{key}'\]"):
        run_experiment(ExperimentConfig("bolthausen-sznitman", tag, 100,
                                        100, **given))


@pytest.mark.parametrize("tag", sorted(CATALOG))
def test_every_key_a_runner_reads_is_declared(tag):
    _, _, params, tolerances, _ = CATALOG[tag]
    measure, n, given_params, given_tols = _ALL_KEYS[tag]
    assert set(given_params) == params and set(given_tols) == tolerances
    cfg = ExperimentConfig(measure, tag, n, 100, seed=11,
                           params=_ReadLog(given_params),
                           tolerances=_ReadLog(given_tols))
    report = run_experiment(cfg)
    assert any(s.passed is not None for s in report.statistics), \
        "the report gates nothing"
    assert cfg.params.read <= params, cfg.params.read - params
    assert cfg.tolerances.read <= tolerances, \
        cfg.tolerances.read - tolerances


def record_keys(monkeypatch) -> list:
    """Log the two key words of every Philox stream constructed, in this
    process: chunks run in order, never in pool workers."""
    keys = []
    philox = np.random.Philox

    def recording(*args, key, **kwargs):
        words = np.atleast_1d(np.asarray(key, dtype=np.uint64)).tolist()
        keys.append(tuple(words + [0] * (2 - len(words))))
        return philox(*args, key=key, **kwargs)

    monkeypatch.setattr(np.random, "Philox", recording)
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 1)
    return keys


def key_config(tag, reps, seed=DEFAULT_SEED):
    """The smoke-size config of a tag at `reps` replications, its sub-runs
    as long."""
    measure, n, params, tolerances = _ALL_KEYS[tag]
    longer = {"trend_grid": [30, 40, 50], "variance_paths": reps}
    params = {key: longer.get(key, value) for key, value in params.items()}
    if "trend_grid" in params:
        n = min(params["trend_grid"])    # T1.6's n is its smallest size
    return ExperimentConfig(measure, tag, n, reps, seed, params=params,
                            tolerances=tolerances)


@pytest.mark.parametrize("tag", sorted(CATALOG))
def test_every_stream_in_a_report_is_distinct(tag, monkeypatch):
    # every Philox key a report constructs, its sub-runs three chunks long
    keys = record_keys(monkeypatch)
    run_experiment(key_config(tag, 2 * ensemble.MAX_LANES + 1))
    assert len(keys) >= 3
    assert len(set(keys)) == len(keys), sorted(keys)


@pytest.mark.parametrize("tag", sorted(CATALOG))
def test_reports_at_nearby_seeds_share_no_stream(tag, monkeypatch):
    # sub-runs took the seeds seed + offset: L7.1 at seed s replayed on the
    # key (s + 1, 0), from which its frozen path drew at s + 1, T1.6 ran
    # trend size i on (s + i, 0) and L9.2 its c branch on (s + 101, 0),
    # the keys of the first runs at s + i and s + 101
    keys = record_keys(monkeypatch)
    seed = 41
    run_experiment(key_config(tag, 100, seed))
    first = set(keys)
    for step in (1, 2, 101, 1000):
        keys.clear()
        run_experiment(key_config(tag, 100, seed + step))
        assert first and keys
        assert first.isdisjoint(keys), (step, sorted(first & set(keys)))
