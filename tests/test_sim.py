"""Simulation layer: path invariants, determinism, sampler law checks, and
the derived per-path functionals."""

import io
import math

import numpy as np
import pytest
from scipy import special, stats

from coalsim import ensemble, sim
from coalsim.ensemble import BlockCountAtTimesTracker, ThresholdCountTracker
from coalsim.measure import (bolthausen_sznitman, kingman, parse_measure,
                             power_beta)
from coalsim.rates import RateFunctions, rates_for
from coalsim.sim import (_PAIR_DRAW_LANES, CoalescentPath, ExternalLengths,
                         MergerSizeSampler, _draw_singleton_loss,
                         as_rate_functions, simulate_path)
from labeled_oracle import simulate_labeled, two_sample_ks

BS = bolthausen_sznitman()
PB_HALF = power_beta(1.0, 0.5)
MIXED = parse_measure("kingman + dirac:p=0.5,m=1")


def handmade_path():
    # n = 5: a triple merger absorbing 3 singletons, then two pair mergers
    return CoalescentPath(
        n=5, seed=None,
        block_count_before=np.array([5, 3, 2]),
        merger_size=np.array([3, 2, 2]),
        absorbed_singletons=np.array([3, 1, 1]),
        jump_time=np.array([0.5, 0.75, 1.0]))


# ---------------------------------------------------------------------------
# paths

@pytest.mark.parametrize("measure", [kingman(), BS, PB_HALF, MIXED])
def test_path_invariants(measure):
    path = simulate_path(measure, 50, seed=7)
    x, k = path.block_count_before, path.merger_size
    assert x[0] == 50
    assert np.all(np.diff(x) < 0)
    assert np.all((k >= 2) & (k <= x))
    assert path.absorbed_singletons.sum() == 50
    assert x[-1] - k[-1] + 1 == 1
    assert path.jump_time[-1] == pytest.approx(path.waiting_time.sum())
    # the first merger acts on singletons only, so it absorbs exactly K
    assert path.absorbed_singletons[0] == path.merger_size[0]


def test_kingman_paths_are_pair_chains():
    path = simulate_path(kingman(), 6, seed=11)
    assert path.num_jumps == 5
    assert np.all(path.merger_size == 2)
    np.testing.assert_array_equal(path.block_count_before, [6, 5, 4, 3, 2])


def test_determinism_and_seed_sensitivity():
    a = simulate_path(BS, 40, seed=3)
    b = simulate_path(BS, 40, seed=3)
    c = simulate_path(BS, 40, seed=4)
    np.testing.assert_array_equal(a.merger_size, b.merger_size)
    np.testing.assert_array_equal(a.waiting_time, b.waiting_time)
    assert not (a.num_jumps == c.num_jumps
                and np.array_equal(a.waiting_time, c.waiting_time))


# (measure, n, seed) -> X_before, K, dY, t_jump of simulate_path, pinned
# bit for bit (numpy 2.4.6).  Rows with K = 2 on every live lane take dY
# from two uniforms per lane, and they consume both even when no
# singletons are left: kingman seed 3 has such a dY = 0 row before its
# last jump, whose time would move otherwise.  The K = 3 row of the
# mixture takes numpy's hypergeometric draw.
_PINNED_PATHS = {
    ("kingman", 6, 3): (
        [6, 5, 4, 3, 2], [2, 2, 2, 2, 2], [2, 2, 2, 0, 0],
        [0.12500330669282256, 0.31920752794675517, 0.33201241675143445,
         0.744480226461661, 5.075087070453943]),
    ("kingman + dirac:p=0.5,m=1", 8, 123456789): (
        [8, 7, 6, 5, 3, 2], [2, 2, 2, 3, 2, 2], [2, 2, 1, 2, 1, 0],
        [0.02897640741629165, 0.07222704892133261, 0.08944002716462926,
         0.1608991393785824, 0.2746698525453174, 0.5988665040070812]),
    ("beta:0.5,1.5", 6, 7): (
        [6, 4, 3, 2], [3, 2, 2, 2], [3, 2, 1, 0],
        [0.08944600531259209, 0.34169733821977943, 1.652550310861133,
         3.9178142334498878]),
}


@pytest.mark.parametrize("triple", sorted(_PINNED_PATHS))
def test_simulate_path_pinned(triple):
    measure, n, seed = triple
    path = simulate_path(parse_measure(measure), n, seed)
    x, k, dy, t = _PINNED_PATHS[triple]
    np.testing.assert_array_equal(path.block_count_before, x)
    np.testing.assert_array_equal(path.merger_size, k)
    np.testing.assert_array_equal(path.absorbed_singletons, dy)
    np.testing.assert_array_equal(path.jump_time, t)
    assert path.seed == seed


def test_simulate_path_validation():
    with pytest.raises(ValueError):
        simulate_path(BS, 1)
    with pytest.raises(ValueError):
        simulate_path(BS, 5, seed=-1)
    with pytest.raises(ValueError):
        simulate_path(BS, 5, seed=1.5)
    with pytest.raises(TypeError):
        as_rate_functions("kingman")
    r = rates_for(BS)
    assert as_rate_functions(r) is r


def test_path_constructor_rejects_broken_chains():
    good = handmade_path()
    with pytest.raises(ValueError):
        CoalescentPath(4, None, good.block_count_before, good.merger_size,
                       good.absorbed_singletons, good.jump_time)
    with pytest.raises(ValueError):
        CoalescentPath(5, None, np.array([5, 4, 2]), good.merger_size,
                       good.absorbed_singletons, good.jump_time)
    with pytest.raises(ValueError):
        CoalescentPath(5, None, good.block_count_before, good.merger_size,
                       np.array([3, 1, 0]), good.jump_time)
    for times in ([0.5, 0.5, 1.0], [0.0, 0.75, 1.0]):
        with pytest.raises(ValueError):
            CoalescentPath(5, None, good.block_count_before,
                           good.merger_size, good.absorbed_singletons,
                           np.array(times))


def test_path_constructor_rejects_non_finite_times():
    # a NaN compares false, so NaN waiting times passed the check for
    # strictly increasing times
    good = handmade_path()
    for times in ([0.5, np.nan, 1.0], [0.5, 0.75, np.inf],
                  [np.nan, np.nan, np.nan]):
        with pytest.raises(ValueError, match="jump times"):
            CoalescentPath(5, None, good.block_count_before,
                           good.merger_size, good.absorbed_singletons,
                           np.array(times))


def test_counting_processes_right_continuous():
    # the trackers read the block count N(t) and the singleton count M(t)
    # right-continuously: a time equal to a jump time sees the counts
    # after that jump
    path = handmade_path()
    t = np.array([0.0, 0.49, 0.5, 0.74, 0.75, 1.0, 5.0])
    trackers = (BlockCountAtTimesTracker(t), ThresholdCountTracker(t))
    for tr in trackers:
        tr.begin(1, path.n, None)
    y = path.n
    for x, k, dy, t_new in zip(path.block_count_before, path.merger_size,
                               path.absorbed_singletons, path.jump_time):
        for tr in trackers:
            tr.observe(np.array([0]), np.array([x]), np.array([y]),
                       np.array([k]), np.array([dy]), np.array([t_new]))
        y -= dy
    np.testing.assert_array_equal(trackers[0].result()["blocks_at"][0],
                                  [5, 5, 3, 3, 2, 1, 1])
    np.testing.assert_array_equal(trackers[1].result()["exceed_counts"][0],
                                  [5, 5, 2, 2, 1, 0, 0])


def test_singletons_match_external_length_tail():
    path = simulate_path(PB_HALF, 80, seed=5)
    ext = path.external_lengths()
    assert ext.total == 80
    # the lengths above x are the singletons no jump up to x absorbed
    for x in [0.0, 0.1, path.jump_time[-1]]:
        survivors = 80 - path.absorbed_singletons[path.jump_time <= x].sum()
        lengths = np.repeat(ext.values, ext.multiplicities)
        assert np.sum(lengths > x) == survivors


def test_external_lengths_validation_and_dump():
    with pytest.raises(ValueError):
        ExternalLengths(np.array([1.0, 0.5]), np.array([1, 1]))
    with pytest.raises(ValueError):
        ExternalLengths(np.array([1.0]), np.array([1, 2]))
    with pytest.raises(ValueError):
        ExternalLengths(np.array([1.0, 2.0]), np.array([1, 0]))
    out = io.StringIO()
    handmade_path().external_lengths().dump_csv(out)
    assert out.getvalue() == ("length,multiplicity\n"
                              "0.5,3\n0.75,1\n1.0,1\n")


def test_path_dump_csv_bytes():
    out = io.StringIO()
    handmade_path().dump_csv(out)
    assert out.getvalue() == ("j,X_before,K,dY,W,t_jump\n"
                              "0,5,3,3,0.5,0.5\n"
                              "1,3,2,1,0.25,0.75\n"
                              "2,2,2,1,0.25,1.0\n")


def test_stopping_times():
    path = handmade_path()
    assert path.stopping_times(5) == (0, 0.0)
    assert path.stopping_times(7.5) == (0, 0.0)
    assert path.stopping_times(3) == (1, 0.5)
    assert path.stopping_times(2) == (2, 0.75)
    assert path.stopping_times(1) == (3, 1.0)
    with pytest.raises(ValueError):
        path.stopping_times(0.5)


def test_conditional_factorial_moment_frozen():
    path = handmade_path()
    assert path.conditional_factorial_moment(0, 2) == 20.0
    # rho = 2: X = 2 singles survive with prob (1 - r/3)(1 - r/2) each stage
    assert path.conditional_factorial_moment(2, 1) == pytest.approx(2.0 / 3.0)
    assert path.conditional_factorial_moment(2, 2) == 0.0
    assert path.conditional_factorial_moment(2, 3) == 0.0   # r > X_rho
    with pytest.raises(ValueError):
        path.conditional_factorial_moment(4, 1)
    with pytest.raises(ValueError):
        path.conditional_factorial_moment(1, 0)


@pytest.mark.parametrize("call", [
    lambda path: path.stopping_times(np.nan),
    lambda path: path.stopping_times("5"),
    lambda path: path.stopping_times(True),
    lambda path: path.conditional_factorial_moment(1, True),
    lambda path: path.conditional_factorial_moment(1, 1.5),
    lambda path: path.conditional_factorial_moment(1.0, 1),
    lambda path: path.conditional_factorial_moment(True, 1)],
    ids=["nan_level", "text_level", "bool_level", "bool_r", "fraction_r",
         "float_rho", "bool_rho"])
def test_path_functionals_reject_bad_input(call):
    # a NaN level once raised IndexError, a text level TypeError, a level
    # True read as 1, r = True read as 1 and r = 1.5 raised TypeError
    with pytest.raises(ValueError):
        call(handmade_path())


@pytest.mark.parametrize("text", ["kingman", "powerbeta:c=1,a=0.5,b=1"])
@pytest.mark.parametrize("max_blocks", [1, True, 2.5, np.float64(3.0)],
                         ids=["one", "bool", "fraction", "float"])
def test_sampler_refuses_a_table_size_that_is_not_a_count(text, max_blocks):
    # 2.5 once built the tables for 2, and 1 raised IndexError for the
    # power-beta tables but built kingman's
    with pytest.raises(ValueError, match="max_blocks"):
        MergerSizeSampler(rates_for(parse_measure(text)), max_blocks)


def test_first_waiting_time_mean():
    # n = 2 under kingman:2 jumps at rate 2
    times = [simulate_path(kingman(2.0), 2, seed=s).jump_time[-1]
             for s in range(3000)]
    assert np.mean(times) == pytest.approx(0.5, abs=0.05)


# ---------------------------------------------------------------------------
# merger-size sampler

def empirical_pmf(measure, b, reps=200_000, seed=42):
    rates = RateFunctions(measure)
    sampler = MergerSizeSampler(rates, b)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    lam, k = sampler.sample_step(rng, np.full(reps, b, dtype=np.int64))
    np.testing.assert_allclose(lam, rates.total_jump_rate(b), rtol=1e-10)
    return np.bincount(k, minlength=b + 1)[2:] / reps


@pytest.mark.parametrize("measure", [BS, PB_HALF, MIXED])
def test_fast_sampler_matches_exact_law(measure):
    b = 7
    exact = rates_for(measure).merger_size_distribution(b)
    pmf = empirical_pmf(measure, b)
    assert np.max(np.abs(pmf - exact)) < 0.006


# one measure per kind of merger-size draw, and the largest block count a
# battery or benchmark run draws K at with it: 1e6 for Bolthausen-Sznitman
# (criterion 10), 1e5 for the others.  A paired lockstep iteration draws
# its second K at every X1 below n, so each kind is tested from B = 3 up
KS_KINDS = {"kingman": ("kingman", 100_000),
            "uniform": ("bolthausen-sznitman", 1_000_000),
            "powerbeta b = 1": ("powerbeta:c=1,a=0.5,b=1", 100_000),
            "powerbeta b > 1": ("beta:0.5,1.5", 100_000),
            "powerbeta b < 1": ("beta:0.5,0.5", 100_000),
            "pitman atom": ("dirac:p=0.5,m=1", 100_000),
            "pitman a >= 3": ("beta:5,20", 100_000)}


@pytest.mark.parametrize("kind", sorted(KS_KINDS))
def test_merger_size_draw_ks_at_every_block_count(kind):
    # K against merger_size_distribution(B) by the Kolmogorov-Smirnov
    # distance of the cdfs at 200 000 draws a case; 1.628 / sqrt(200 000)
    # = 0.00364 is the 1 % critical value of a continuous law, conservative
    # for a discrete one.  lam against total_jump_rate to 1e-8 relative, the
    # b = 1 rate table's distance from the closed form up to B = 1e6
    text, top = KS_KINDS[kind]
    rates = rates_for(parse_measure(text))
    sampler = MergerSizeSampler(rates, top)
    assert kind.split()[0] == sampler.strategy
    draws, critical = 200_000, 1.628 / math.sqrt(200_000)
    for b in (3, 100, 10_000, top):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(b)))
        lam, k = sampler.sample_step(rng, np.full(draws, b, dtype=np.int64))
        np.testing.assert_allclose(lam, rates.total_jump_rate(b), rtol=1e-8)
        cdf = np.cumsum(rates.merger_size_distribution(b))
        ecdf = np.cumsum(np.bincount(k, minlength=b + 1)[2:]) / draws
        assert np.abs(ecdf - cdf).max() < critical, (b, kind)


# b < 1: h decreases as g does, so K is drawn from the two-piece envelope
TWO_PIECE = parse_measure("beta:0.5,0.5")


def test_two_piece_sampler_matches_exact_law():
    b = 7
    assert MergerSizeSampler(rates_for(TWO_PIECE), b).strategy == "powerbeta"
    exact = rates_for(TWO_PIECE).merger_size_distribution(b)
    pmf = empirical_pmf(TWO_PIECE, b)
    assert np.max(np.abs(pmf - exact)) < 0.006


def test_two_piece_sampler_handles_mixed_block_counts():
    rates = RateFunctions(TWO_PIECE)
    sampler = MergerSizeSampler(rates, 9)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(1)))
    b = np.array([2, 5, 9, 5, 2], dtype=np.int64)
    lam, k = sampler.sample_step(rng, b)
    np.testing.assert_allclose(lam, rates.total_jump_rate(b), rtol=1e-12)
    assert np.all((k >= 2) & (k <= b))


# Beta(2 - alpha, alpha) with alpha = 1.5, an unnormalized power-beta with
# b > 1, a mixture that sends lanes to two components, and the a = 1 and
# a = 2 corners, whose rates are digamma limits.  Then the two-piece draw
# (b < 1, a < 3, also in a mixture), the one-piece draw with 2 < a < 3,
# and Pitman's construction (a >= 3), up to a = 100 with b = 1.
REJECTION_MEASURES = ["beta:0.5,1.5", "powerbeta:c=2,a=0.5,b=1.7",
                      "kingman + beta:0.5,1.5", "powerbeta:c=1,a=1,b=2",
                      "beta:1,1.5", "powerbeta:c=1,a=2,b=1",
                      "beta:0.5,0.5", "beta:1,0.3", "beta:0.2,0.1",
                      "powerbeta:c=0.7,a=2,b=0.5",
                      "kingman + beta:0.5,0.5", "beta:2.5,3",
                      "beta:3.5,0.5", "beta:5,20", "powerbeta:c=1,a=100,b=1"]


# Pitman's draw for atoms and for a >= 3.  At beta:3,50 P(K >= 2) under
# Beta(a - 2, b) is 1/459 at B = 3; the p = 0.5 atom's pmf at K = 2
# underflows from B = 1097 on; the p = 0.01 atom takes the pair route up
# to B = 141 (C(B, 2) < 1/p**2) and the plain route from 142 on
PITMAN_BLOCKS = {"dirac:p=0.5,m=1": (3, 50, 2000),
                 "dirac:p=0.01,m=1": (3, 50, 2000, 100_000),
                 "kingman + dirac:p=0.5,m=1": (3, 50, 2000),
                 "beta:3,50": (3, 50, 2000)}


@pytest.mark.parametrize("text", REJECTION_MEASURES + list(PITMAN_BLOCKS))
def test_powerbeta_rejection_chi_square(text):
    # one call over lanes with several block counts, so the rejection
    # rounds run on lanes with unequal B; each B is then tested on its own
    # lanes
    rates = rates_for(parse_measure(text))
    blocks = PITMAN_BLOCKS.get(text, (3, 50, 2000))
    sampler = MergerSizeSampler(rates, max(blocks))
    assert sampler.strategy.split("+")[-1] in ("powerbeta", "pitman")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(42)))
    draws = 400_000
    b = np.tile(np.array(blocks, dtype=np.int64), draws)
    _, k = sampler.sample_step(rng, b)
    for bi in blocks:
        observed = np.bincount(k[b == bi], minlength=bi + 1)[2:]
        expected = rates.merger_size_distribution(bi) * draws
        # pool the cells expected below 5 into one
        small = expected < 5.0
        obs = np.append(observed[~small], observed[small].sum())
        exp = np.append(expected[~small], expected[small].sum())
        if exp[-1] == 0.0:
            obs, exp = obs[:-1], exp[:-1]
        chi2 = float(((obs - exp) ** 2 / exp).sum())
        p_value = stats.chi2.sf(chi2, obs.size - 1)
        assert p_value > 1e-3, (bi, chi2, obs.size - 1)


@pytest.mark.parametrize("text", REJECTION_MEASURES
                         + ["powerbeta:c=1,a=0.5,b=1"])
def test_powerbeta_total_rate_matches_weight_sum(text):
    rates = rates_for(parse_measure(text))
    blocks = np.array([2, 3, 50, 2000, 4500], dtype=np.int64)
    sampler = MergerSizeSampler(rates, int(blocks.max()))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    lam, _ = sampler.sample_step(rng, blocks)
    exact = [rates.merger_size_weights(int(bi)).sum() for bi in blocks]
    np.testing.assert_allclose(lam, exact, rtol=1e-8)


def test_large_a_rates_and_draws_stay_finite():
    # a = 100, b = 1: the b = 1 prefix table of g overflowed near k = 1400,
    # which made lam(B) NaN and held K near 1400 for every larger B
    rates = rates_for(parse_measure("powerbeta:c=1,a=100,b=1"))
    blocks = (2, 3, 1500, 3000)
    draws = 2000
    b = np.repeat(np.array(blocks, dtype=np.int64), draws)
    sampler = MergerSizeSampler(rates, max(blocks))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    lam, k = sampler.sample_step(rng, b)
    assert np.all(np.isfinite(lam))
    exact = np.repeat([rates.merger_size_weights(bi).sum() for bi in blocks],
                      draws)
    np.testing.assert_allclose(lam, exact, rtol=1e-8)
    assert np.all((k >= 2) & (k <= b))
    for i, bi in enumerate(blocks[2:], start=2):
        pmf = rates.merger_size_distribution(bi)
        ks = np.arange(2, bi + 1)
        mean = float(pmf @ ks)
        sd = math.sqrt(float(pmf @ (ks - mean) ** 2))
        got = k[i * draws:(i + 1) * draws].mean()
        assert abs(got - mean) < 5.0 * sd / math.sqrt(draws), (bi, got, mean)


def _whole_powerbeta_tables(rates, dens, max_blocks):
    """The power-beta sampler's tables, each computed over one array; the
    prefix table is indexed by B, two -inf entries in front of the sums."""
    js = np.arange(max_blocks + 1.0)
    log_fact = special.gammaln(js + 1.0)
    ks = js[2:]
    g = np.exp(special.gammaln(dens.a + ks - 2.0) - log_fact[2:])
    sums = np.cumsum(g)
    prefix = np.concatenate(([-np.inf, -np.inf], sums))
    rate_table = np.zeros(max_blocks + 1)
    if dens.b == 1.0:
        rate_table[2:] = dens.c * np.exp(
            log_fact[2:] - special.gammaln(dens.a + ks - 1.0)) * sums
        return prefix, rate_table, None
    rate_table[2:] = rates.component_rates()[0](ks)
    return prefix, rate_table, special.gammaln(dens.b + js) - log_fact


@pytest.mark.parametrize("text", ["powerbeta:c=1,a=0.5,b=1",
                                  "beta:0.5,1.5"])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_blocked_powerbeta_tables_keep_their_bytes(text, shift):
    # the tables are filled block by block; at n around one block they
    # equal, byte for byte, the tables computed over one array
    rates = rates_for(parse_measure(text))
    dens = rates.measure.densities[0]
    n = sim._TABLE_BLOCK + shift
    _, rate_table, draw = MergerSizeSampler(rates, n)._components[0]
    prefix, log_h = draw.args[:2]
    tables = prefix, rate_table, log_h
    for got, want in zip(tables, _whole_powerbeta_tables(rates, dens, n)):
        if want is None:
            assert got is None
        else:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


SAMPLER_STRATEGIES = [
    (kingman(), "kingman"),
    (BS, "uniform"),
    (PB_HALF, "powerbeta"),
    (parse_measure("beta:0.5,1.5"), "powerbeta"),
    (parse_measure("kingman + beta:0.5,1.5"), "kingman+powerbeta"),
    (MIXED, "kingman+pitman"),
    (parse_measure("beta:1.5,0.5"), "powerbeta"),        # b < 1
    (parse_measure("beta:0.5,0.5"), "powerbeta"),        # b < 1
    (parse_measure("beta:2.5,3"), "powerbeta"),          # 2 < a < 3, b > 1
    (parse_measure("powerbeta:c=0.7,a=2,b=0.5"), "powerbeta"),  # b < 1, a = 2
    (parse_measure("beta:1,0.3"), "powerbeta"),          # b < 1
    (parse_measure("powerbeta:c=1,a=1,b=2"), "powerbeta"),
    (parse_measure("powerbeta:c=1,a=2,b=1"), "powerbeta"),
]


@pytest.mark.parametrize("measure, strategy", SAMPLER_STRATEGIES)
def test_sampler_strategy(measure, strategy):
    assert MergerSizeSampler(rates_for(measure), 10).strategy == strategy


@pytest.mark.parametrize("measure, strategy", SAMPLER_STRATEGIES)
def test_sampler_rates_are_the_component_rates(measure, strategy):
    # lam(B) of the sampler is the sum of the per-component rates of
    # `rates`, added in order, bit for bit; a b = 1 power-beta density
    # keeps the lam built from its prefix table, which normalises its draw
    n = 3000
    rates = rates_for(measure)
    blocks = np.arange(2, n + 1)
    want = np.zeros(blocks.size)
    for rate in rates.component_rates():
        want += rate(blocks.astype(float))
    assert want.tobytes() == rates.total_jump_rate(blocks).tobytes()
    rng = np.random.Generator(np.random.Philox(key=np.uint64(8)))
    lam, _ = MergerSizeSampler(rates, n).sample_step(rng, blocks)
    if any(d.b == 1.0 and d.a != 1.0 and d.a < 3.0
           for d in measure.densities):
        np.testing.assert_allclose(lam, want, rtol=1e-9)
    else:
        assert lam.tobytes() == want.tobytes()


@pytest.mark.parametrize("text, strategy", [
    ("kingman + beta:0.5,0.5", "kingman+powerbeta"),
    ("beta:5,20", "pitman"),
    ("powerbeta:c=1,a=100,b=1", "pitman"),
    ("beta:3,0.5 + beta:0.5,0.5 + dirac:p=0.5,m=1", "pitman+powerbeta"),
])
def test_each_density_draws_its_own_kind(text, strategy):
    # no component sends the whole measure to another sampler
    sampler = MergerSizeSampler(rates_for(parse_measure(text)), 10)
    assert sampler.strategy == strategy


@pytest.mark.parametrize("text, blocks", [
    ("beta:3,50", 3), ("beta:5,20", 3), ("beta:5,20", 50),
    ("powerbeta:c=1,a=100,b=1", 3), ("dirac:p=0.01,m=1", 141),
    ("dirac:p=0.01,m=1", 142)])
def test_pitman_rounds_per_draw(monkeypatch, text, blocks):
    # each lane takes the route with the larger acceptance, so a draw
    # takes few rounds also where P(K >= 2) under Beta(a - 2, b) is small
    # (1/459 at beta:3,50 with B = 3) and on each side of the p = 0.01
    # atom's route boundary
    lane_rounds = []
    real_round = sim._pitman_round

    def counted(*args):
        lane_rounds.append(args[-1].size)
        return real_round(*args)

    monkeypatch.setattr(sim, "_pitman_round", counted)
    sampler = MergerSizeSampler(rates_for(parse_measure(text)), blocks)
    assert sampler.strategy == "pitman"
    rng = np.random.Generator(np.random.Philox(key=np.uint64(6)))
    lanes = 20_000
    sampler.sample_step(rng, np.full(lanes, blocks, dtype=np.int64))
    assert sum(lane_rounds) / lanes <= 4.0, sum(lane_rounds) / lanes


def test_powerbeta_b1_draws_pinned():
    # b == 1 accepts every proposal and draws no acceptance uniform, so
    # three successive steps repeat the draws of the earlier b = 1 table
    # sampler number for number
    sampler = MergerSizeSampler(rates_for(PB_HALF), 1000)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(2024)))
    b = np.array([2, 3, 7, 50, 999, 1000, 400, 12, 5, 1000, 1000, 1000,
                  200, 30, 4, 1000], dtype=np.int64)
    steps = [sampler.sample_step(rng, b) for _ in range(3)]
    assert [k.tolist() for _, k in steps] == [
        [2, 2, 3, 3, 2, 3, 2, 2, 2, 2, 2, 3, 2, 2, 2, 2],
        [2, 2, 3, 3, 2, 2, 4, 2, 2, 2, 3, 2, 2, 3, 2, 2],
        [2, 2, 2, 2, 2, 2, 2, 4, 5, 5, 3, 6, 2, 2, 2, 2]]
    lam = steps[0][0]
    assert lam[[2, 3, 5]].tolist() == [20.020202020202035, 413.96225909453057,
                                       37351.92692079941]


# K of three successive sample_step calls on the lanes of
# test_powerbeta_b1_draws_pinned, and the stream's next uniform by
# float.hex: the one-piece draw (b > 1), whose first rejection round
# runs on every lane, and the two-piece draw (b < 1), whose rounds run
# on the lanes with more than two blocks (numpy 2.4.6)
_PINNED_REJECTION_DRAWS = {
    "beta:0.5,1.5": (
        [[2, 2, 3, 3, 2, 3, 2, 2, 2, 2, 2, 3, 2, 2, 2, 2],
         [2, 2, 2, 2, 2, 2, 2, 4, 5, 5, 3, 6, 2, 2, 2, 2],
         [2, 2, 2, 3, 2, 2, 2, 2, 2, 2, 2, 5, 2, 2, 3, 5]],
        "0x1.54decf8965ee6p-2"),
    "beta:0.5,0.5": (
        [[2, 3, 2, 2, 3, 3, 2, 2, 2, 2, 2, 3, 6, 2, 2, 3],
         [2, 3, 3, 2, 2, 2, 2, 2, 4, 2, 2, 16, 2, 2, 2, 2],
         [2, 2, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3]],
        "0x1.823602797a88cp-3"),
}


@pytest.mark.parametrize("text", sorted(_PINNED_REJECTION_DRAWS))
def test_powerbeta_rejection_draws_pinned(text):
    sampler = MergerSizeSampler(rates_for(parse_measure(text)), 1000)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(2024)))
    b = np.array([2, 3, 7, 50, 999, 1000, 400, 12, 5, 1000, 1000, 1000,
                  200, 30, 4, 1000], dtype=np.int64)
    rows = [sampler.sample_step(rng, b)[1].tolist() for _ in range(3)]
    assert (rows, float(rng.random()).hex()) == _PINNED_REJECTION_DRAWS[text]


@pytest.mark.parametrize("text", ["powerbeta:c=1,a=0.5,b=1",
                                  "powerbeta:c=1,a=2,b=1", "beta:0.5,1.5",
                                  "beta:1,1.5", "beta:2.5,3",
                                  "powerbeta:c=2,a=0.5,b=1.7"])
def test_proposal_stays_in_range_without_a_clamp(text):
    # t = u prefix[B] <= prefix[B] for u < 1, and t >= 0 > prefix[1], so
    # the table search proposes K in [2, B] at the extreme uniforms 0 and
    # 1 - 2**-53
    n = 3000
    sampler = MergerSizeSampler(rates_for(parse_measure(text)), n)
    prefix = sampler._components[0][2].args[0]
    blocks = np.arange(2, n + 1)
    for u in (0.0, 1.0 - 2.0 ** -53):
        k = sim._propose(prefix, np.full(blocks.shape, u), blocks)
        assert np.all((k >= 2) & (k <= blocks))
        np.testing.assert_array_equal(k, 2 if u == 0.0 else blocks)


def _pair_then_hypergeometric(rng, b, y, k):
    # the wide-step layout: one (2, lanes) block of uniforms decides every
    # lane's first two merging blocks, then the hypergeometric draws the
    # K >= 3 lanes' other K - 2 blocks, in lane order
    u = rng.random((2, k.size))
    first = (u[0] * b < y).astype(np.int64)
    dy = first + (u[1] * (b - 1) < y - first)
    wide = k > 2
    if wide.any():
        left = y[wide] - dy[wide]
        dy[wide] += rng.hypergeometric(left, b[wide] - 2 - left, k[wide] - 2)
    return dy


def _chi_square_p(observed, expected):
    """p-value of observed counts against expected ones, the cells
    expected below 5 merged into the largest."""
    small = expected < 5.0
    top = np.argmax(expected)
    observed, expected = observed.astype(float), expected.copy()
    observed[top] += observed[small].sum()
    expected[top] += expected[small].sum()
    observed, expected = observed[~small], expected[~small]
    if observed.size == 1:
        return 1.0
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    return stats.chi2.sf(chi2, observed.size - 1)


def test_pair_singleton_loss_chi_square():
    # one all-pair call over lanes with unequal (b, y), as the engine makes
    # it, and one call that mixes those lanes with K >= 3 lanes, shuffled,
    # at more than _PAIR_DRAW_LANES K = 2 lanes; each (b, y, K) case is
    # then held to hypergeom(b, y, K) on its own lanes.  The wider cases
    # take every block (K = b), leave no singleton after the pair
    # ((50, 2, 3), (30, 1, 4)) and have none or only singletons
    pairs = [(2, 0, 2), (2, 1, 2), (2, 2, 2), (3, 1, 2), (5, 3, 2),
             (1000, 7, 2), (1000, 999, 2)]
    wider = [(50, 0, 3), (50, 50, 3), (50, 20, 3), (1000, 7, 3),
             (50, 0, 4), (50, 50, 4), (50, 2, 3), (30, 1, 4),
             (50, 0, 12), (50, 50, 12), (50, 30, 12),
             (3, 1, 3), (4, 2, 4), (12, 0, 12), (12, 5, 12), (12, 12, 12)]
    draws = 200_000
    for cases in (pairs, pairs + wider):
        case = np.repeat(np.arange(len(cases)), draws)
        np.random.default_rng(len(cases)).shuffle(case)
        b, y, k = np.array(cases, dtype=np.int64)[case].T
        assert np.count_nonzero(k == 2) >= _PAIR_DRAW_LANES
        key = np.uint64(17)
        rng = np.random.Generator(np.random.Philox(key=key))
        dy = _draw_singleton_loss(rng, b, y, k)
        for i, (bi, yi, ki) in enumerate(cases):
            observed = np.bincount(dy[case == i], minlength=ki + 1)
            pmf = stats.hypergeom(bi, yi, ki).pmf(np.arange(ki + 1))
            support = pmf > 0
            assert observed.size == ki + 1
            assert observed[~support].sum() == 0, (bi, yi, ki)
            assert _chi_square_p(observed[support],
                                 pmf[support] * draws) > 1e-3, (bi, yi, ki)
        ref = np.random.Generator(np.random.Philox(key=key))
        np.testing.assert_array_equal(
            dy, _pair_then_hypergeometric(ref, b, y, k))
        np.testing.assert_equal(rng.bit_generator.state,
                                ref.bit_generator.state)


def _pair_loss_without_the_merged_block(rng, b, y, k, k2, second):
    # a defect: M = K1 + K2, as if the second merger never took the block
    # the first one formed
    m = k + k2
    return m, sim._hypergeometric_loss(rng, b, y, m)


def _split_pair_losses(rng, b, y, k, k2, pair_draw):
    # the pair's loss D in one draw, then split on every lane
    m, d = pair_draw(rng, b, y, k, k2, np.arange(b.size))
    first = sim._hypergeometric_loss(rng, m, d, k)
    return first, d - first


def test_pair_loss_chi_square():
    # (X0, Y0, K1, K2): the joint (dY1, dY2) of a split pair against two
    # hypergeometrics in turn, dY1 ~ hypergeom(X0, Y0, K1) and dY2 ~
    # hypergeom(X1, Y0 - dY1, K2) with X1 = X0 - K1 + 1 (the block the
    # first merger forms is no singleton).  Cases with only singletons,
    # none, K2 = X1 (the second merger takes every block) and the engine's
    # wide K; lanes of every case shuffled into one call.  Dropping the
    # indicator that the second merger takes the first one's block
    # (M = K1 + K2) is rejected on every case where K2 < X1 and Y0 > 0
    cases = [(6, 3, 2, 3), (10, 7, 3, 2), (12, 5, 4, 4), (8, 8, 3, 3),
             (9, 0, 2, 2), (7, 4, 3, 5), (5, 2, 2, 4), (40, 25, 10, 12),
             (200, 150, 3, 40)]
    draws = 100_000
    case = np.repeat(np.arange(len(cases)), draws)
    np.random.default_rng(3).shuffle(case)
    b, y, k, k2 = np.array(cases, dtype=np.int64)[case].T
    for pair_draw in (sim._draw_pair_loss,
                      _pair_loss_without_the_merged_block):
        exact = pair_draw is sim._draw_pair_loss
        lanes = np.ones(case.size, dtype=bool)
        if not exact:       # M = K1 + K2 would exceed X0 where K2 = X1
            lanes = (k2 < b - k + 1)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(29)))
        first, second = _split_pair_losses(
            rng, b[lanes], y[lanes], k[lanes], k2[lanes], pair_draw)
        for i, (x0, y0, k1, kk2) in enumerate(cases):
            x1 = x0 - k1 + 1
            if not exact and (kk2 == x1 or y0 == 0):
                continue
            on = case[lanes] == i
            cells = (k1 + 1, kk2 + 1)
            observed = np.bincount(
                np.ravel_multi_index((first[on], second[on]), cells),
                minlength=cells[0] * cells[1])
            joint = np.zeros(cells)
            for a in range(k1 + 1):
                joint[a] = (stats.hypergeom(x0, y0, k1).pmf(a)
                            * stats.hypergeom(x1, y0 - a, kk2).pmf(
                                np.arange(kk2 + 1)))
            joint = joint.ravel()
            support = joint > 0
            if exact:
                assert observed[~support].sum() == 0, cases[i]
                assert _chi_square_p(observed[support],
                                     joint[support] * draws) > 1e-3, cases[i]
            else:
                # a draw off the support rejects outright
                assert (observed[~support].sum() > 0
                        or _chi_square_p(observed[support],
                                         joint[support] * draws) < 1e-3), \
                    cases[i]


def test_in_uniform_subset_is_the_sequential_rule():
    # the one subset rule of dY's pair draw and the tagged leaves, against
    # a lane-by-lane loop: an undecided item j is taken when
    # u_j (den - seen) < num - taken; a decided one is skipped
    rng = np.random.default_rng(11)
    lanes, items = 400, 4
    den = rng.integers(items, 40, lanes)
    num = rng.integers(0, den + 1)
    u = rng.random((items, lanes))
    alive = rng.random((items, lanes)) < 0.7
    for mask in (alive, None):
        hits = sim._in_uniform_subset(u, mask, num, den)
        for lane in range(lanes):
            seen = taken = 0
            for j in range(items):
                if mask is not None and not mask[j, lane]:
                    assert hits[j][lane] == 0
                    continue
                hit = u[j, lane] * (den[lane] - seen) < num[lane] - taken
                assert hits[j][lane] == hit, (mask is None, lane, j)
                seen += 1
                taken += hit
    assert ensemble.MarkedLeafTracker._absorbed is sim._in_uniform_subset


@pytest.mark.parametrize("lanes", [1, 5, 19, _PAIR_DRAW_LANES + 40])
def test_few_lane_singleton_loss_is_the_array_draw(lanes):
    # below 20 lanes the hypergeometric dY is drawn lane by lane, and a
    # step with fewer than _PAIR_DRAW_LANES K = 2 lanes draws every lane by
    # the hypergeometric; each must give the array call's values and leave
    # the generator where it does.  At exactly _PAIR_DRAW_LANES K = 2
    # lanes the step takes the pair rule on every lane instead
    wide = lanes > _PAIR_DRAW_LANES
    state_rng = np.random.default_rng(lanes)
    for trial in range(20):
        b = state_rng.integers(3 if wide else 2, 60, lanes)
        k = np.minimum(state_rng.integers(3 if wide else 2, 30, lanes), b)
        y = np.minimum(state_rng.integers(0, 40, lanes), b)
        big = (trial + 1) % lanes
        b[big], k[big], y[big] = 50, 12, 30       # K >= 10: numpy's HRUA
        if lanes > 1 or trial % 2:
            y[trial % lanes] = 0                  # no singletons left
        widths = [k]
        if wide:                    # one short of the gate, and at it
            pairs = state_rng.permutation(lanes)[:_PAIR_DRAW_LANES]
            k[pairs[1:]] = 2
            at_gate = k.copy()
            at_gate[pairs[0]] = 2
            widths.append(at_gate)
        for kk in widths:
            gate = np.count_nonzero(kk == 2) >= _PAIR_DRAW_LANES
            assert gate == (kk is not k)
            key = np.uint64(1000 * lanes + trial)
            ours = np.random.Generator(np.random.Philox(key=key))
            ref = np.random.Generator(np.random.Philox(key=key))
            dy = _draw_singleton_loss(ours, b, y, kk)
            assert dy.dtype == np.int64
            expected = (_pair_then_hypergeometric(ref, b, y, kk) if gate
                        else ref.hypergeometric(y, b - y, kk))
            np.testing.assert_array_equal(dy, expected)
            np.testing.assert_equal(ours.bit_generator.state,
                                    ref.bit_generator.state)
            assert ours.random() == ref.random()


@pytest.mark.parametrize("text", ["powerbeta:c=1,a=0.5,b=1", "beta:0.5,1.5"])
def test_wide_powerbeta_proposal_is_the_table_search(text):
    # at a chunk's full width, lane i proposes K = 2 + the search of
    # u_i sums[B_i - 2] in sums[j] = g(2) + ... + g(j + 2), one uniform a
    # lane in lane order, and most proposals fall in the first entry
    # (K = 2)
    sampler = MergerSizeSampler(rates_for(parse_measure(text)), 3000)
    prefix = sampler._components[0][2].args[0]
    sums = prefix[2:]
    b = np.random.default_rng(5).integers(2, 3001, 2048)
    rng, ref = (np.random.Generator(np.random.Philox(key=np.uint64(8)))
                for _ in range(2))
    k = sim._propose(prefix, rng.random(b.shape), b)
    expect = [2 + int(np.searchsorted(sums, u * sums[top]))
              for u, top in zip(ref.random(b.size), b - 2)]
    assert np.count_nonzero(k == 2) > b.size // 2
    np.testing.assert_array_equal(k, expect)
    assert rng.random() == ref.random()


def _full_search_draw(draw, rng, b):
    """The power-beta draw of `draw` with every lane searching the table
    sums[j] = g(2) + ... + g(j + 2), indexed by B - 2: the same rounds,
    the same uniforms, K = 2 + the search of u sums[top]."""
    prefix, log_h, _, g_at, h_prefix = draw.args
    sums = prefix[2:]

    def propose(u, top):
        return sums.searchsorted(u * sums[top]) + 2

    if log_h is None:
        return propose(rng.random(b.shape), b - 2)
    k = np.full(b.shape, 2, dtype=np.int64)
    todo = np.arange(b.size) if h_prefix is None else np.nonzero(b > 2)[0]
    while todo.size:
        bb = b[todo]
        if h_prefix is None:
            u, v = rng.random((2, bb.size))
            kk = propose(u, bb - 2)
            ratio = np.exp(log_h[bb - kk] - log_h[bb - 2])
        else:
            m = np.maximum(bb // 2, 2)
            low = sums[m - 2] * np.exp(log_h[bb - m])
            high = g_at[m + 1] * h_prefix[bb - m - 1]
            pick, u, v = rng.random((3, bb.size))
            is_low = pick * (low + high) < low
            kk = np.where(is_low, propose(u, m - 2), bb - np.searchsorted(
                h_prefix, u * h_prefix[bb - m - 1]))
            ratio = np.where(is_low, np.exp(log_h[bb - kk] - log_h[bb - m]),
                             g_at[kk] / g_at[m + 1])
        k[todo] = kk
        todo = todo[v > ratio]
    return k


@pytest.mark.parametrize("text", ["powerbeta:c=1,a=0.5,b=1",   # b = 1
                                  "beta:0.5,1.5",              # one piece
                                  "beta:1.5,0.5"])             # two pieces
@pytest.mark.parametrize("width", [1, 19, 20, 256, 2048])
def test_powerbeta_draw_is_the_full_search(text, width):
    # only lanes whose target lies above the first entry search the table;
    # the others take K = 2.  Every B from 2 to n, in steps of `width`
    # lanes, draws the K a search on every lane draws, and leaves the
    # stream where that draw leaves it
    n = 3000
    sampler = MergerSizeSampler(rates_for(parse_measure(text)), n)
    draw = sampler._components[0][2]
    blocks = np.random.default_rng(width).permutation(np.arange(2, n + 1))
    rng, ref = (np.random.Generator(np.random.Philox(key=np.uint64(width)))
                for _ in range(2))
    for lo in range(0, blocks.size, width):
        b = blocks[lo:lo + width]
        np.testing.assert_array_equal(sampler.sample_step(rng, b)[1],
                                      _full_search_draw(draw, ref, b))
    assert rng.random() == ref.random()
    # at u = 0, at a target exactly on the first entry, just above it,
    # and on an entry further up
    prefix = draw.args[0]
    sums = prefix[2:]
    for lo in range(0, blocks.size, width):
        b = blocks[lo:lo + width]
        on_first = prefix[2] / prefix[b]
        above = np.nextafter(on_first, 1.0)
        on_middle = prefix[np.maximum(b // 2, 2)] / prefix[b]
        for u in (np.zeros(b.size), on_first, above, on_middle):
            expect = sums.searchsorted(u * sums[b - 2]) + 2
            np.testing.assert_array_equal(sim._propose(prefix, u, b), expect)
        exact = on_first * prefix[b] == prefix[2]
        assert np.all(sim._propose(prefix, on_first, b)[exact] == 2)


def test_uniform_inverse_cdf_matches_exact():
    # P(K <= j | b) = b (j - 1) / ((b - 1) j) for the uniform density
    b = 6.0
    u = np.linspace(0.013, 0.987, 197)
    raw = np.clip(np.ceil(1.0 / (1.0 - u * (b - 1.0) / b)), 2, b)
    js = np.arange(2.0, b + 1.0)
    cdf = b * (js - 1.0) / ((b - 1.0) * js)
    expected = js[np.searchsorted(cdf, u, side="left")]
    np.testing.assert_array_equal(raw, expected)


# ---------------------------------------------------------------------------
# labeled runs

def test_labeled_history_structure():
    hist = simulate_labeled(BS, 6, seed=9)
    leaves = set(range(6))
    for part in hist.partitions:
        union = set().union(*part)
        assert union == leaves
        assert sum(len(blk) for blk in part) == 6
    assert len(hist.partitions[-1]) == 1
    assert np.all(np.isfinite(hist.leaf_absorption_times))
    assert np.all(np.diff(hist.jump_times) > 0)
    # each absorption time is one of the jump times
    assert set(hist.leaf_absorption_times) <= set(hist.jump_times)


def test_labeled_block_path_round_trip():
    hist = simulate_labeled(MIXED, 8, seed=2)
    path = hist.block_path()     # constructor re-validates the chain
    assert path.n == 8
    np.testing.assert_allclose(path.jump_time, hist.jump_times)
    assert path.absorbed_singletons.sum() == 8
    again = simulate_labeled(MIXED, 8, seed=2)
    assert hist.partitions == again.partitions


def test_labeled_bounds():
    with pytest.raises(ValueError):
        simulate_labeled(BS, 1)
    with pytest.raises(ValueError):
        simulate_labeled(BS, 13)


def test_two_sample_ks():
    assert two_sample_ks([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert two_sample_ks([1.0], [2.0]) == 1.0
    assert two_sample_ks([1.0, 3.0], [2.0, 4.0]) == 0.5


def test_two_sample_ks_empty_rejected():
    # an empty sample once gave nan with a RuntimeWarning
    with pytest.raises(ValueError):
        two_sample_ks([], [1.0, 2.0])
    with pytest.raises(ValueError):
        two_sample_ks([1.0], [])
