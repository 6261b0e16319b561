"""Ensemble layer: streaming trackers are checked jump for jump against
the paths a PathRecorder stores on the same run, plus the reproducibility
and validation contracts."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import coalsim
from coalsim import ensemble
from coalsim.ensemble import (CHUNK_SIZE, BlockCountAtTimesTracker,
                              LevelCrossingTracker, MarkedLeafTracker,
                              PathRecorder, ThresholdCountTracker,
                              TopLengthsTracker, _run_chunk, run_ensemble)
from coalsim.measure import bolthausen_sznitman, kingman, parse_measure
from coalsim.rates import rates_for
from coalsim.sim import MergerSizeSampler

BS = bolthausen_sznitman()
MIXED = parse_measure("kingman + dirac:p=0.5,m=1")


def absorption():
    """Passage to one block: absorption time and jump count of each path."""
    return LevelCrossingTracker(1, name="absorption")


def test_singleton_trackers_match_stored_paths():
    # kingman takes every dY from the two-uniform pair draw; the mixture
    # also has steps with K = 3 lanes, which take numpy's hypergeometric
    for measure in (MIXED, kingman()):
        check_singleton_trackers(measure)


def check_singleton_trackers(measure):
    # every leaf is marked, so the marks, decided against the run's dY,
    # are each path's external lengths in some order
    n, size, key = 12, 64, 777

    def run(thresholds):
        factories = [lambda: MarkedLeafTracker(k=n),
                     lambda: TopLengthsTracker(3),
                     lambda: TopLengthsTracker(n + 3, name="top_all"),
                     lambda: ThresholdCountTracker(thresholds),
                     absorption,
                     PathRecorder]
        return run_ensemble(measure, n, size, key, factories)

    # a threshold equal to an external length of path 0 (counts are of
    # lengths strictly above it) and a negative one (every length counts);
    # thresholds draw nothing, so the rerun repeats the paths
    first = run((0.5, 1.5))
    values = first["paths"][0].external_lengths().values
    tie = values[len(values) // 2]
    thresholds = (-0.5, 0.5, 1.5, tie)
    real = run(thresholds)
    for r, path in enumerate(real["paths"]):
        np.testing.assert_array_equal(path.jump_time,
                                      first["paths"][r].jump_time)
        lengths = np.sort(path.external_lengths().flat())[::-1]
        np.testing.assert_array_equal(
            np.sort(real["marked_lengths"][r])[::-1], lengths)
        np.testing.assert_array_equal(real["top_lengths"][r], lengths[:3])
        np.testing.assert_array_equal(real["top_all"][r],
                                      np.append(lengths, np.zeros(3)))
        for c, thr in enumerate(thresholds):
            assert real["exceed_counts"][r, c] == np.sum(lengths > thr)
        assert real["absorption_time"][r] == path.absorption_time
        assert real["absorption_jumps"][r] == path.num_jumps
    assert real["exceed_counts"][0, 0] == n
    # the tie is strict: path 0 has lengths equal to it, none counted
    lengths = real["paths"][0].external_lengths().flat()
    assert real["exceed_counts"][0, 3] < np.sum(lengths >= tie)


def test_dy_free_trackers_match_stored_paths():
    # The recorder draws singleton losses, so these trackers run on the
    # dY branch of the loop here; the dY-free branch is covered by
    # test_absorption_time_mean_kingman.
    n, size, key = 30, 32, 99
    times_q = (0.3, 1.0, 2.5)
    factories = [lambda: BlockCountAtTimesTracker(times_q),
                 lambda: LevelCrossingTracker(5),
                 absorption,
                 PathRecorder]
    real = run_ensemble(BS, n, size, key, factories)
    for r, path in enumerate(real["paths"]):
        hx, ht = path.block_count_before, path.jump_time
        t_old = np.concatenate([[0.0], ht[:-1]])
        for c, q in enumerate(times_q):
            inside = (t_old <= q) & (q < ht)
            expect = hx[inside][0] if inside.any() else 1
            assert real["blocks_at"][r, c] == expect
        rho, rho_time = path.stopping_times(5)
        assert real["crossing_jumps"][r] == rho
        assert real["crossing_time"][r] == rho_time
        assert real["crossing_inv_sum"][r] == pytest.approx(
            np.sum(1.0 / hx[:rho]), rel=1e-13)
        assert real["absorption_jumps"][r] == path.num_jumps


def test_crossing_trivial_when_level_above_n():
    out = run_ensemble(BS, 10, 20, 1, [lambda: LevelCrossingTracker(40)])
    assert np.all(out["crossing_jumps"] == 0)
    assert np.all(out["crossing_time"] == 0.0)
    assert np.all(out["crossing_inv_sum"] == 0.0)


def test_chunks_concatenate_in_replication_order():
    n, reps, seed = 200, 2 * CHUNK_SIZE + 452, 31415
    factories = [lambda: MarkedLeafTracker(), absorption]
    out = run_ensemble(BS, n, reps, seed, factories)
    assert set(out) == {"marked_lengths", "absorption_time",
                        "absorption_jumps", "absorption_inv_sum"}
    for name in out:
        assert len(out[name]) == reps
    # chunk i is keyed by the Philox key words (seed, i)
    sampler = MergerSizeSampler(rates_for(BS), n)
    for ci in range(3):
        lo = ci * CHUNK_SIZE
        size = min(CHUNK_SIZE, reps - lo)
        alone = _run_chunk(sampler, n, size, seed, ci, factories)
        for name in out:
            np.testing.assert_array_equal(out[name][lo:lo + size],
                                          alone[name])


def test_seeds_differing_in_low_bits_draw_different_streams():
    # keyed by seed XOR chunk, seeds 1, 2 and 3 ran the same eight
    # streams in another order, so every order-free statistic agreed
    runs = [np.sort(run_ensemble(kingman(), 10, 8 * CHUNK_SIZE, seed,
                                 [absorption])["absorption_time"])
            for seed in (1, 2, 3)]
    for i in range(3):
        for j in range(i):
            assert not np.array_equal(runs[i], runs[j])


def three_chunk_run():
    return run_ensemble(BS, 40, 3 * CHUNK_SIZE - 5, 2718,
                        [lambda: TopLengthsTracker(2)])["top_lengths"]


_PINNED_RUN = """
import os, sys
import numpy as np
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[2])
from coalsim.ensemble import _usable_cpus
from test_ensemble import three_chunk_run
np.save(sys.argv[1], three_chunk_run())
print(_usable_cpus())
"""


def test_bytes_do_not_depend_on_cpu_count(tmp_path):
    # a child pinned to one CPU runs the chunks in order; this process
    # runs them on a fork pool when it may use two or more CPUs
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("CPU affinity is not available")
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork is not available")
    src = str(Path(coalsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    saved = tmp_path / "pinned.npy"
    proc = subprocess.run([sys.executable, "-c", _PINNED_RUN, str(saved),
                           str(Path(__file__).resolve().parent)],
                          env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "1"
    assert np.load(saved).tobytes() == three_chunk_run().tobytes()


def _two_chunk_absorption(seed):
    return run_ensemble(kingman(), 10, CHUNK_SIZE + 1, seed,
                        [absorption])["absorption_time"]


def test_run_inside_a_pool_worker_runs_in_order():
    # a pool's workers are daemons, which may not start a pool of their own
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork is not available")
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside = pool.map(_two_chunk_absorption, [5])[0]
    assert inside.tobytes() == _two_chunk_absorption(5).tobytes()


def test_absorption_time_mean_kingman():
    # E[tau] = sum_b 2/(b(b-1)) = 2 (1 - 1/n)
    out = run_ensemble(kingman(), 50, 4096, 8, [absorption])
    assert out["absorption_time"].mean() == pytest.approx(1.96, abs=0.08)
    assert np.all(out["absorption_jumps"] == 49)


def beta_tagged_mean(a, b, n):
    """Exact mean external length of a tagged leaf of the Beta(a, b)
    coalescent from n blocks, by first-step analysis over the holding
    time and the merger size K, the tag surviving a k-merger of m blocks
    with probability 1 - k/m:

        e(m) = (1 + sum_k lam(m, k) C(m, k) (1 - k/m) e(m - k + 1)) / lam(m)

    with lam(m, k) = B(a+k-2, b+m-k)/B(a, b) from scipy's betaln."""
    e = np.zeros(n + 1)
    log_fact = special.gammaln(np.arange(n + 1.0) + 1.0)
    base = special.betaln(a, b)
    for m in range(2, n + 1):
        k = np.arange(2, m + 1)
        w = np.exp(log_fact[m] - log_fact[k] - log_fact[m - k]
                   + special.betaln(a + k - 2.0, b + m - k) - base)
        # k = m ends every branch; the rest land on m - k + 1 >= 2 blocks
        survive = w[:-1] * (1.0 - k[:-1] / m)
        e[m] = (1.0 + np.dot(survive, e[m - k[:-1] + 1])) / w.sum()
    return float(e[n])


def tagged_mean_z(tracker, measure, exact, k, n=200, reps=4096, seed=606):
    """z-score of each mark's mean length against the exact mean, from a
    run whose only tracker is `tracker(k)`, so that no dY is drawn."""
    lengths = run_ensemble(parse_measure(measure), n, reps, seed,
                           [lambda: tracker(k)])["marked_lengths"]
    se = lengths.std(axis=0, ddof=1) / np.sqrt(reps)
    return (lengths.mean(axis=0) - exact) / se


TAGGED = {"kingman": 2.0 / 200,          # E = 2/n for Kingman
          "beta:0.5,1.5": beta_tagged_mean(0.5, 1.5, 200),
          "beta:1.5,0.7": beta_tagged_mean(1.5, 0.7, 200)}


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("measure", sorted(TAGGED))
def test_marked_lengths_have_the_exact_mean(measure, k):
    z = tagged_mean_z(MarkedLeafTracker, measure, TAGGED[measure], k)
    assert np.all(np.abs(z) <= 4.5), z


class AbsorbsKMinusOne(MarkedLeafTracker):
    """Seeded defect: a mark goes with probability (K - 1)/X."""

    @staticmethod
    def _absorbed(u, alive, num, den):
        return MarkedLeafTracker._absorbed(u, alive, num - 1, den)


class ForgetsTaken(MarkedLeafTracker):
    """Seeded defect: a mark's threshold ignores the marks taken before
    it at the same jump, so a second mark goes with probability
    K/(X - 1) after the first went."""

    @staticmethod
    def _absorbed(u, alive, num, den):
        hit = np.empty_like(alive)
        for j, a in enumerate(alive):
            hit[j] = a & (u[j] * den < num)
            den = den - a
        return hit


@pytest.mark.parametrize("defect", [AbsorbsKMinusOne, ForgetsTaken])
def test_mean_check_catches_seeded_defects(defect):
    # the exact-mean check for two marks of beta:0.5,1.5 at n = 10 and
    # 2**15 reps: ForgetsTaken errs only at jumps that take both marks,
    # which are rare unless few blocks are left, so n is small: its z is
    # about -14 here, while at n = 200 with 4096 reps it moves z by 0.2
    n, reps = 10, 2 ** 15
    exact = beta_tagged_mean(0.5, 1.5, n)
    real = tagged_mean_z(MarkedLeafTracker, "beta:0.5,1.5", exact, 2, n, reps)
    assert np.all(np.abs(real) <= 4.5), real
    broken = tagged_mean_z(defect, "beta:0.5,1.5", exact, 2, n, reps)
    assert np.any(np.abs(broken) > 4.5), broken


def test_marked_leaves_alone_draw_no_singleton_loss(monkeypatch):
    def refuse(*args):
        raise AssertionError("dY drawn")

    monkeypatch.setattr(ensemble, "_draw_singleton_loss", refuse)
    # one chunk, so the run stays in this process
    for measure in (kingman(), MIXED, BS):
        out = run_ensemble(measure, 30, 64, 3,
                           [lambda: MarkedLeafTracker(k=2)])
        assert np.all(out["marked_lengths"] > 0)
    with pytest.raises(AssertionError, match="dY drawn"):
        run_ensemble(BS, 30, 64, 3, [MarkedLeafTracker, PathRecorder])


def test_duplicate_output_names_rejected():
    with pytest.raises(ValueError):
        run_ensemble(BS, 10, 10, 1, [absorption, absorption])


def test_validation():
    with pytest.raises(ValueError):
        run_ensemble(BS, 1, 10, 1, [absorption])
    with pytest.raises(ValueError):
        run_ensemble(BS, 10, 0, 1, [absorption])
    # n and reps are integers, never truncated floats or bools
    for n in (10.5, 10.0, True, "10"):
        with pytest.raises(ValueError):
            run_ensemble(BS, n, 10, 1, [absorption])
    for reps in (10.5, 10.0, True):
        with pytest.raises(ValueError):
            run_ensemble(BS, 10, reps, 1, [absorption])
    for seed in (-1, 1.5, 2 ** 64, "7", True):
        with pytest.raises(ValueError):
            run_ensemble(BS, 10, 10, seed, [absorption])
    out = run_ensemble(BS, np.int64(10), np.int32(3), np.uint64(1),
                       [absorption])
    assert out["absorption_jumps"].shape == (3,)
    with pytest.raises(ValueError):
        MarkedLeafTracker(k=0)
    with pytest.raises(ValueError):
        TopLengthsTracker(0)
    with pytest.raises(ValueError):
        BlockCountAtTimesTracker([-1.0])
    with pytest.raises(ValueError):
        LevelCrossingTracker(0.5)
    with pytest.raises(ValueError):
        # more marks than leaves surfaces at begin time
        run_ensemble(BS, 4, 8, 1, [lambda: MarkedLeafTracker(k=5)])
