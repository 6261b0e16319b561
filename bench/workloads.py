"""The benchmark's workloads: experiment cells, their set-up, their checks.

A workload is a few experiment cells run through the public
`run_experiment(ExperimentConfig(...))` surface, plus the (measure, n)
pairs whose rate functions and merger-size samplers a caller builds before
the first jump.  Every check compares an output with a computation made
here, apart from the engine, or with a property the method must have; none
compares with a stored copy of earlier output.

Cell seeds are hashed from the run seed with `SeedSequence`.  Small or
consecutive seeds would share streams: `run_ensemble` keys chunk i with
`seed ^ i`, so seeds that differ only in their low bits permute the same
chunk keys.

Nothing here imports coalsim: the caller passes the package in, so that a
traced round sees the wrapped callables, and so that set-up time includes
the import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

# Two-sided z-bound for Monte Carlo means.  A correct engine exceeds it
# with probability about 7e-6 per check under normality, so no seed a run
# can be given should trip it; the runners' own 3.0 would fail 0.27 % of
# checks.
Z_BOUND = 4.5
# ks_max_vs_finite_n bound of the heavy-tail T1.5 cell (criterion 8).
KS_FINITE_N_BOUND = 0.08

KINGMAN = "kingman"
BETA = "beta:0.5,1.5"           # Beta(2 - alpha, alpha), alpha = 1.5
BS = "bolthausen-sznitman"
HEAVY = "powerbeta:c=1,a=0.5,b=1"

# Cell sizes.  "full" is what a run measures; "smoke" goes through every
# cell and check in about a second each, for the benchmark's own tests.
SIZES = {
    "kingman-extremes": {
        "full": {"n": 10_000, "reps": 2048, "replay_n": 2000,
                 "replay_reps": 1000, "variance_paths": 40,
                 "engine_n": 2000, "engine_reps": 512},
        "smoke": {"n": 2000, "reps": 2048, "replay_n": 200,
                  "replay_reps": 200, "variance_paths": 4,
                  "engine_n": 200, "engine_reps": 256},
    },
    "beta-typical": {
        "full": {"n": 4500, "reps": 256},
        "smoke": {"n": 300, "reps": 128},
    },
    "bs-extremes": {
        "full": {"trend_grid": (1000, 10_000, 100_000), "reps": 1000,
                 "moment_n": 10_000, "moment_reps": 2000},
        "smoke": {"trend_grid": (100, 1000), "reps": 200,
                  "moment_n": 1000, "moment_reps": 500},
    },
    "heavy-tail-extremes": {
        "full": {"n": 10_000, "reps": 4096,
                 "gap_grid": (1000, 10_000, 100_000, 1_000_000)},
        "smoke": {"n": 1000, "reps": 1024, "gap_grid": (1000, 10_000)},
    },
}


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def cell_seeds(seed: int, count: int) -> list[int]:
    """`count` independent 62-bit cell seeds hashed from the run seed.
    62 bits leave room for the runners' own `seed + i` offsets."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [int(c.generate_state(1, np.uint64)[0] >> np.uint64(2))
            for c in children]


def _stats(report) -> dict:
    return {s.name: s for s in report.statistics}


# ---------------------------------------------------------------------------
# references computed here, apart from the engine

def beta_tagged_moments(a: float, b: float, n: int) -> tuple[float, float]:
    """Exact first and second moments of a tagged leaf's external length
    for the Beta(a, b) coalescent started from n blocks, by first-step
    analysis over the holding time W ~ Exp(lam(m)) and the merger size K:

        e(m) = 1/lam(m) + sum_k P(K=k | m) (1 - k/m) e(m - k + 1),
        s(m) = 2/lam(m)^2 + 2/lam(m) sum_k P(K=k | m) (1 - k/m) e(m - k + 1)
               + sum_k P(K=k | m) (1 - k/m) s(m - k + 1),

    the tagged singleton surviving a k-merger of m blocks with
    probability 1 - k/m.  Merger rates lam(m, k) = B(a+k-2, b+m-k)/B(a, b)
    come from scipy's betaln."""
    e = np.zeros(n + 1)
    s = np.zeros(n + 1)
    log_fact = special.gammaln(np.arange(n + 1.0) + 1.0)   # log j!
    base = special.betaln(a, b)
    for m in range(2, n + 1):
        k = np.arange(2, m + 1)
        w = np.exp(log_fact[m] - log_fact[k] - log_fact[m - k]
                   + special.betaln(a + k - 2.0, b + m - k) - base)
        lam = w.sum()
        # k = m ends every branch; the rest land on m - k + 1 >= 2 blocks
        survive = w[:-1] * (1.0 - k[:-1] / m)
        rest = m - k[:-1] + 1
        ce, cs = np.dot(survive, e[rest]), np.dot(survive, s[rest])
        e[m] = (1.0 + ce) / lam
        s[m] = (2.0 + 2.0 * ce) / lam ** 2 + cs / lam
    return float(e[n]), float(s[n])


def moehle_rising_moment(n: int, t: float, r: int) -> float:
    """E[N(t) (N(t)+1) ... (N(t)+r-1)] for the Bolthausen-Sznitman block
    count from n blocks (Moehle): r! / Gamma(1 + w) * Gamma(n + w) /
    Gamma(n), w = r e^-t, here through the Pochhammer symbol."""
    w = r * math.exp(-t)
    return math.factorial(r) * special.poch(n, w) / special.gamma(1.0 + w)


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Cells, set-up pairs and checks of one workload at one size."""

    name = ""

    def __init__(self, size: str = "full"):
        self.p = SIZES[self.name][size]

    def setup_pairs(self) -> list[tuple[str, int]]:
        raise NotImplementedError

    def cells(self, cs, seed: int) -> dict:
        """Run every cell; returns {cell name: output}.  A cell that raises
        is recorded as its exception."""
        out = {}
        plan = self.plan(cs)
        for (label, fn), s in zip(plan, cell_seeds(seed, len(plan))):
            try:
                out[label] = fn(s)
            except Exception as exc:  # a failed cell is counted, not fatal
                out[label] = exc
        return out

    def plan(self, cs) -> list:
        raise NotImplementedError

    def checks(self, cs, out: dict) -> list[Check]:
        raise NotImplementedError


def _experiment(cs, measure, tag, n, reps, **kw):
    return lambda seed: cs.run_experiment(cs.ExperimentConfig(
        measure, tag, n, reps, seed=seed, **kw))


def _guarded(name, needs, out, fn) -> Check:
    """Run one check; it fails when a cell it reads failed or it raises."""
    missing = [c for c in needs if isinstance(out.get(c), Exception)]
    if missing:
        return Check(name, False, f"cell {missing[0]} failed: "
                     f"{out[missing[0]]!r}")
    try:
        passed, detail = fn()
    except Exception as exc:  # a broken output fails its check
        return Check(name, False, f"raised {exc!r}")
    return Check(name, bool(passed), detail)


class KingmanExtremes(Workload):
    name = "kingman-extremes"

    def setup_pairs(self):
        p = self.p
        return [(KINGMAN, n) for n in
                sorted({p["n"], p["replay_n"], p["engine_n"]})]

    def plan(self, cs):
        p = self.p

        def engine(seed):
            n = p["engine_n"]
            thresholds = np.array([0.0, 1.0, 2.0, 4.0, 8.0]) / n
            rates = cs.rates_for(cs.parse_measure(KINGMAN))
            res = cs.run_ensemble(
                rates, n, p["engine_reps"], seed,
                [lambda: cs.TopLengthsTracker(3),
                 lambda: cs.ThresholdCountTracker(thresholds)])
            return res["top_lengths"], res["exceed_counts"], thresholds

        return [
            ("T1.5", _experiment(cs, KINGMAN, "T1.5", p["n"], p["reps"])),
            ("L7.1", _experiment(cs, KINGMAN, "L7.1", p["replay_n"],
                                 p["replay_reps"],
                                 params={"variance_paths":
                                         p["variance_paths"]})),
            ("engine", engine),
        ]

    def checks(self, cs, out):
        def verdict():
            rep = out["T1.5"]
            vals = {s.name: round(s.value, 4) for s in rep.statistics}
            return rep.verdict == "PASS", f"{rep.verdict} {vals}"

        def replay_z():
            st = _stats(out["L7.1"])
            zs = [st[f"replay_zscore_r{r}"].value for r in (1, 2)]
            return max(zs) <= Z_BOUND, f"z {zs} <= {Z_BOUND}"

        def var_le_mean():
            v = _stats(out["L7.1"])["max_var_minus_mean"].value
            return v <= 1e-9, f"max Var - E = {v:.3g} <= 1e-9"

        def top_sorted():
            top = out["engine"][0]
            ok = bool(np.all(top > 0) and np.all(np.diff(top, axis=1) <= 0))
            return ok, "top lengths positive and descending"

        def counts_agree():
            top, counts, thr = out["engine"]
            ell = top.shape[1]
            above = (top[:, None, :] > thr[None, :, None]).sum(axis=2)
            ok = (np.array_equal(above, np.minimum(counts, ell))
                  and np.all(counts[:, 0] == self.p["engine_n"])
                  and np.all(np.diff(counts, axis=1) <= 0))
            return ok, ("counts match the top lengths and total n at "
                        "threshold 0")

        return [_guarded("t15_verdict", ["T1.5"], out, verdict),
                _guarded("replay_zscores", ["L7.1"], out, replay_z),
                _guarded("replay_var_le_mean", ["L7.1"], out, var_le_mean),
                _guarded("top_lengths_sorted", ["engine"], out, top_sorted),
                _guarded("threshold_counts_agree", ["engine"], out,
                         counts_agree)]


class BetaTypical(Workload):
    name = "beta-typical"

    def setup_pairs(self):
        return [(BETA, self.p["n"])]

    def plan(self, cs):
        return [("T1.1", _experiment(cs, BETA, "T1.1", self.p["n"],
                                     self.p["reps"]))]

    def checks(self, cs, out):
        def exact_mean():
            # The length's right tail has index 3, so the mean's z with the
            # sample's standard error has a heavy left tail (samples that
            # miss the far values) and with the exact one a heavy right
            # tail (a sample that catches one).  A mean that is off moves
            # both; only that fails.
            rep = out["T1.1"]
            st = _stats(rep)["scaled_mean"]
            scale = rep.config["resolved"]["scale"]
            mean, second = beta_tagged_moments(0.5, 1.5, self.p["n"])
            exact_se = scale * math.sqrt((second - mean ** 2) / self.p["reps"])
            diff = st.value - mean * scale
            z_sample, z_exact = diff / st.se, diff / exact_se
            return min(abs(z_sample), abs(z_exact)) <= Z_BOUND, (
                f"scaled mean {st.value:.5f} vs exact {mean * scale:.5f}, "
                f"z {z_sample:+.2f} (sample se), {z_exact:+.2f} (exact sd)")

        def exponent():
            alpha = out["T1.1"].config["resolved"]["alpha"]
            return alpha == 1.5, f"alpha {alpha} == 1.5"

        return [_guarded("tagged_mean_exact", ["T1.1"], out, exact_mean),
                _guarded("alpha_resolved", ["T1.1"], out, exponent)]


class BsExtremes(Workload):
    name = "bs-extremes"

    def setup_pairs(self):
        p = self.p
        return [(BS, n) for n in sorted({*p["trend_grid"], p["moment_n"]})]

    def plan(self, cs):
        p = self.p
        return [
            ("T1.6", _experiment(cs, BS, "T1.6", p["trend_grid"][0],
                                 p["reps"],
                                 params={"trend_grid": p["trend_grid"]})),
            ("L9.2", _experiment(cs, BS, "L9.2", p["moment_n"],
                                 p["moment_reps"], params={"r": 2})),
        ]

    def checks(self, cs, out):
        def trend():
            st = _stats(out["T1.6"])
            ks = [st[f"ks_logistic_n{n}"].value for n in self.p["trend_grid"]]
            return all(0.0 < v <= 1.0 for v in ks), f"KS trend {ks}"

        def moment(t):
            def check():
                rep = out["L9.2"]
                n, r = rep.config["n"], rep.config["resolved"]["r"]
                z = _stats(rep)[f"moment_zscore_r{r}_t{t:g}"].value
                mine = moehle_rising_moment(n, t, r)
                engine = float(cs.limits.moehle_factorial_moment(n, t, r))
                rel = abs(engine / mine - 1.0)
                return (z <= Z_BOUND and rel <= 1e-9,
                        f"|z| {z:.2f} <= {Z_BOUND}, target rel err {rel:.1e}")
            return check

        t_grid = (0.25, 0.5, 1.0)   # the L9.2 default
        return [_guarded("trend_reported", ["T1.6"], out, trend)] + [
            _guarded(f"moehle_moment_t{t:g}", ["L9.2"], out, moment(t))
            for t in t_grid]


class HeavyTailExtremes(Workload):
    name = "heavy-tail-extremes"

    def setup_pairs(self):
        p = self.p
        return [(HEAVY, n) for n in sorted({p["n"], *p["gap_grid"]})]

    def plan(self, cs):
        p = self.p

        def gaps(_seed):
            rates = cs.rates_for(cs.parse_measure(HEAVY))
            ex = cs.experiments
            return [ex.limit_gap(ex.finite_n_max_cdf(rates, n),
                                 rates.kappa(rates.s_at(n)), 1.5)
                    for n in p["gap_grid"]]

        return [("T1.5", _experiment(cs, HEAVY, "T1.5", p["n"], p["reps"])),
                ("gap", gaps)]

    def checks(self, cs, out):
        def ks_finite_n():
            v = _stats(out["T1.5"])["ks_max_vs_finite_n"].value
            return v <= KS_FINITE_N_BOUND, \
                f"KS vs F_n {v:.4f} <= {KS_FINITE_N_BOUND}"

        def falling():
            g = out["gap"]
            return all(b < a for a, b in zip(g, g[1:])), \
                "D_n " + " > ".join(f"{v:.4f}" for v in g)

        def same_gap():
            rep = out["T1.5"]
            i = list(self.p["gap_grid"]).index(self.p["n"])
            mine, theirs = out["gap"][i], rep.config["resolved"]["limit_gap"]
            return mine == theirs, f"report D_n {theirs} == {mine}"

        return [_guarded("ks_max_vs_finite_n", ["T1.5"], out, ks_finite_n),
                _guarded("limit_gap_falls", ["gap"], out, falling),
                _guarded("limit_gap_reported", ["T1.5", "gap"], out,
                         same_gap)]


WORKLOADS = {w.name: w for w in (KingmanExtremes, BetaTypical, BsExtremes,
                                 HeavyTailExtremes)}
