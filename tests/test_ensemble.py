"""Ensemble layer: streaming trackers are checked jump for jump against
the paths a PathRecorder stores on the same run, plus the reproducibility
and validation contracts."""

import hashlib
import math
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import coalsim
from coalsim import ensemble
from coalsim.ensemble import (MAX_LANES, BlockCountAtTimesTracker,
                              ChunkTracker, LevelCrossingTracker,
                              MarkedLeafTracker, PathRecorder,
                              ThresholdCountTracker, TopLengthsTracker,
                              _run_chunk, run_ensemble)
from coalsim.experiments import _ChainMomentsTracker
from coalsim.measure import bolthausen_sznitman, kingman, parse_measure
from coalsim.rates import rates_for
from coalsim.sim import MergerSizeSampler
from labeled_oracle import two_sample_ks

BS = bolthausen_sznitman()
MIXED = parse_measure("kingman + dirac:p=0.5,m=1")
HEAVY = parse_measure("powerbeta:c=1,a=0.5,b=1")


def absorption():
    """Passage to one block: absorption time and jump count of each path."""
    return LevelCrossingTracker(1)


def test_singleton_trackers_match_stored_paths():
    # kingman takes every dY from the two-uniform pair draw; the mixture
    # also has steps with K = 3 lanes, which take numpy's hypergeometric
    for measure in (MIXED, kingman()):
        check_singleton_trackers(measure)


def check_singleton_trackers(measure):
    # every leaf is marked, so the marks, decided against the run's dY,
    # are each path's external lengths in some order
    n, size, key = 12, 64, 777

    def run(thresholds, ell):
        factories = [lambda: MarkedLeafTracker(k=n),
                     lambda: TopLengthsTracker(ell),
                     lambda: ThresholdCountTracker(thresholds),
                     absorption,
                     PathRecorder]
        return run_ensemble(measure, n, size, key, factories)

    # a threshold equal to an external length of path 0 (counts are of
    # lengths strictly above it) and a negative one (every length counts);
    # thresholds and top lengths draw nothing, so the rerun repeats the
    # paths, and the first run's top lengths are all n lengths
    first = run((0.5, 1.5), n)
    values = first["paths"][0].external_lengths().values
    tie = values[len(values) // 2]
    thresholds = (-0.5, 0.5, 1.5, tie)
    real = run(thresholds, 3)
    for r, path in enumerate(real["paths"]):
        np.testing.assert_array_equal(path.jump_time,
                                      first["paths"][r].jump_time)
        ext = path.external_lengths()
        lengths = np.sort(np.repeat(ext.values, ext.multiplicities))[::-1]
        np.testing.assert_array_equal(
            np.sort(real["marked_lengths"][r])[::-1], lengths)
        np.testing.assert_array_equal(real["top_lengths"][r], lengths[:3])
        np.testing.assert_array_equal(first["top_lengths"][r], lengths)
        for c, thr in enumerate(thresholds):
            assert real["exceed_counts"][r, c] == np.sum(lengths > thr)
        assert real["crossing_time"][r] == path.jump_time[-1]
        assert real["crossing_jumps"][r] == path.num_jumps
    assert real["exceed_counts"][0, 0] == n
    # the tie is strict: path 0 has lengths equal to it, none counted
    ext = real["paths"][0].external_lengths()
    lengths = np.repeat(ext.values, ext.multiplicities)
    assert real["exceed_counts"][0, 3] < np.sum(lengths >= tie)


def test_dy_free_trackers_match_stored_paths():
    # The recorder draws singleton losses, so these trackers run on the
    # dY branch of the loop here; the dY-free branch is covered by
    # test_absorption_time_mean_kingman.
    n, size, key = 30, 32, 99
    times_q = (0.3, 1.0, 2.5)
    factories = [lambda: BlockCountAtTimesTracker(times_q),
                 lambda: LevelCrossingTracker(5),
                 PathRecorder]
    real = run_ensemble(BS, n, size, key, factories)
    # the crossing of level 1 comes from a second run on the same key:
    # the first run's trackers draw nothing, so it repeats the paths
    absorbed = run_ensemble(BS, n, size, key, [absorption, PathRecorder])
    for r, path in enumerate(real["paths"]):
        np.testing.assert_array_equal(absorbed["paths"][r].jump_time,
                                      path.jump_time)
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
        assert absorbed["crossing_jumps"][r] == path.num_jumps


def test_crossing_trivial_when_level_above_n():
    out = run_ensemble(BS, 10, 20, 1, [lambda: LevelCrossingTracker(40)])
    assert np.all(out["crossing_jumps"] == 0)
    assert np.all(out["crossing_time"] == 0.0)
    assert np.all(out["crossing_inv_sum"] == 0.0)


def _chunk_draws(n, size, seed, chunk, factories):
    sampler = MergerSizeSampler(rates_for(BS), n)
    return _run_chunk(sampler, n, size, seed, chunk, factories)


def test_chunks_concatenate_in_replication_order():
    n, reps, seed = 200, 2 * MAX_LANES + 451, 31415
    factories = [lambda: MarkedLeafTracker(), absorption]
    out = run_ensemble(BS, n, reps, seed, factories)
    assert set(out) == {"marked_lengths", "crossing_time",
                        "crossing_jumps", "crossing_inv_sum"}
    for name in out:
        assert len(out[name]) == reps
    # three chunks of near-equal size, the larger first; chunk i is keyed
    # by the Philox key words (seed, i)
    q, r = divmod(reps, 3)
    assert r
    lo = 0
    for ci, size in enumerate([q + (ci < r) for ci in range(3)]):
        alone = _chunk_draws(n, size, seed, ci, factories)
        for name in out:
            np.testing.assert_array_equal(out[name][lo:lo + size],
                                          alone[name])
        lo += size
    assert lo == reps


def record_chunks(monkeypatch):
    """Replace _run_chunk by a stub that logs (size, seed, chunk) for each
    chunk a run makes, in call order, and draws nothing."""
    calls = []

    def stub(sampler, n, size, seed, chunk, factories):
        calls.append((size, seed, chunk))
        return {"lane": np.zeros(size)}

    monkeypatch.setattr(ensemble, "_run_chunk", stub)
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 1)
    return calls


@pytest.mark.parametrize("reps", [
    1, MAX_LANES // 4, MAX_LANES // 4 + 1, MAX_LANES // 2,
    MAX_LANES // 2 + 1, MAX_LANES - 1, MAX_LANES, MAX_LANES + 1,
    2 * MAX_LANES + 1, 3 * MAX_LANES - 5, 5 * MAX_LANES - 1,
])
@pytest.mark.parametrize("pool_min_work, splits", [
    (lambda reps: 2 * reps + 1, False),   # below POOL_MIN_WORK
    (lambda reps: 0, True),               # far above POOL_MIN_WORK
    (lambda reps: 2 * reps, True),        # exactly at POOL_MIN_WORK
], ids=["light", "pool-min-work", "split-min-work"])
def test_chunk_sizes_differ_by_at_most_one(monkeypatch, reps, pool_min_work,
                                           splits):
    # the fewest chunks of at most MAX_LANES lanes, raised to two for a
    # run of more than MAX_LANES // 4 replications whose replications
    # times n reach POOL_MIN_WORK, cut into near-equal sizes, the larger
    # first, on keys (seed, i)
    monkeypatch.setattr(ensemble, "POOL_MIN_WORK", pool_min_work(reps))
    calls = record_chunks(monkeypatch)
    run_ensemble(BS, 2, reps, 17, [absorption])
    sizes = [size for size, _, _ in calls]
    chunks = -(-reps // MAX_LANES)
    if splits and reps > MAX_LANES // 4:
        chunks = max(chunks, 2)
    assert len(sizes) == chunks
    assert sum(sizes) == reps
    assert max(sizes) <= MAX_LANES
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)
    assert [(seed, chunk) for _, seed, chunk in calls] == [
        (17, ci) for ci in range(chunks)]


@pytest.mark.parametrize("n, reps, chunks", [
    (2000, 2048, [(1024, 5, 0), (1024, 5, 1)]),   # from POOL_MIN_WORK on
    (500, 2048, [(2048, 5, 0)]),                  # below POOL_MIN_WORK
    (10_000, 1000, [(500, 5, 0), (500, 5, 1)]),   # from POOL_MIN_WORK on
    (1999, 1000, [(1000, 5, 0)]),                 # below POOL_MIN_WORK
    (1_000_000, 256, [(256, 5, 0)]),              # too narrow to split
], ids=["kingman-t15-smoke", "light-wide", "heavy-half-width",
        "light-half-width", "criterion-9-c-branch"])
def test_module_constants_split_runs_for_a_second_cpu(monkeypatch, n, reps,
                                                      chunks):
    # under the module's own constants a run of more than MAX_LANES // 4
    # replications splits in two from POOL_MIN_WORK on.  2048
    # replications at n = 2000 is the benchmark's smoke-size Kingman T1.5
    # cell, 1000 at n = 1e4 the benchmark's bs-extremes T1.6 run at that
    # size; 256 at n = 1e6 is acceptance criterion 9's c branch, which
    # must draw one chunk on key (seed, 0)
    assert MAX_LANES // 2 < 2048 <= MAX_LANES
    assert MAX_LANES // 4 < 1000 <= MAX_LANES // 2
    assert 256 <= MAX_LANES // 4
    assert 500 * 2048 < ensemble.POOL_MIN_WORK <= 2000 * 2048
    assert 1999 * 1000 < ensemble.POOL_MIN_WORK <= 10_000 * 1000
    calls = record_chunks(monkeypatch)
    run_ensemble(BS, n, reps, 5, [absorption])
    assert calls == chunks


def test_readme_reproducibility_quotes_the_chunk_rule():
    # the section quotes MAX_LANES and POOL_MIN_WORK at their module
    # values and names no constant the module lacks (it named
    # SPLIT_MIN_WORK after the chunk rule had dropped it)
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    section = " ".join(text.split("\n## Reproducibility\n")[1]
                       .split("\n## ")[0].split())
    named = set(re.findall(r"`(?:ensemble\.)?([A-Z][A-Z_]+)`", section))
    assert named <= set(vars(ensemble)), named - set(vars(ensemble))
    quoted = re.findall(r"`ensemble\.([A-Z_]+)` \(([0-9.e]+)\)", section)
    assert {name: float(value) for name, value in quoted} == {
        "MAX_LANES": MAX_LANES, "POOL_MIN_WORK": ensemble.POOL_MIN_WORK}
    assert f"more than {MAX_LANES // 4} replications" in section


def test_seeds_differing_in_low_bits_draw_different_streams():
    # keyed by seed XOR chunk, seeds 1, 2 and 3 ran the same eight
    # streams in another order, so every order-free statistic agreed
    runs = [np.sort(run_ensemble(kingman(), 10, 8 * MAX_LANES, seed,
                                 [absorption])["crossing_time"])
            for seed in (1, 2, 3)]
    for i in range(3):
        for j in range(i):
            assert not np.array_equal(runs[i], runs[j])


def three_chunk_run():
    """A run that draws dY and one whose lanes retire, each of three
    chunks and more than 2 * MAX_LANES replications, and a one-chunk run
    split in two halves (with POOL_MIN_WORK set to 0)."""
    reps = 3 * MAX_LANES - 5
    top = run_ensemble(BS, 40, reps, 2718,
                       [lambda: TopLengthsTracker(2)])["top_lengths"]
    marked = run_ensemble(BS, 40, reps, 2718,
                          [lambda: MarkedLeafTracker(2)])["marked_lengths"]
    split = run_ensemble(BS, 40, MAX_LANES - 23, 2718,
                         [lambda: TopLengthsTracker(2)])["top_lengths"]
    return np.concatenate([top, marked, split])


# What each _run_pooled call of this process returned: True for the
# chunks' arrays, False for None (the run then went in order).  A forked
# pool worker logs into its own copy.
_POOLED = []


def log_pooling(monkeypatch):
    """Pool every run of two or more chunks, however small, split every
    run of more than MAX_LANES // 4 and at most MAX_LANES replications,
    and log each _run_pooled call into _POOLED."""
    real = ensemble._run_pooled

    def spy(job, workers):
        parts = real(job, workers)
        _POOLED.append(parts is not None)
        return parts

    _POOLED.clear()
    monkeypatch.setattr(ensemble, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(ensemble, "_run_pooled", spy)


_PINNED_RUN = """
import os, sys
import numpy as np
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[2])
from coalsim import ensemble
from coalsim.ensemble import _usable_cpus
from test_ensemble import three_chunk_run
ensemble.POOL_MIN_WORK = 0
np.save(sys.argv[1], three_chunk_run())
print(_usable_cpus())
"""


def test_bytes_do_not_depend_on_cpu_count(tmp_path, monkeypatch):
    # a child pinned to one CPU runs the chunks in order; this process
    # runs them on a fork pool when it may use two or more CPUs
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("CPU affinity is not available")
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork is not available")
    log_pooling(monkeypatch)
    src = str(Path(coalsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    saved = tmp_path / "pinned.npy"
    proc = subprocess.run([sys.executable, "-c", _PINNED_RUN, str(saved),
                           str(Path(__file__).resolve().parent)],
                          env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "1"
    assert np.load(saved).tobytes() == three_chunk_run().tobytes()
    # on one CPU (as the child is) a run never tries the pool
    assert _POOLED == ([True] * 3 if ensemble._usable_cpus() > 1 else [])


def _two_chunk_absorption(seed):
    return run_ensemble(kingman(), 10, MAX_LANES + 1, seed,
                        [absorption])["crossing_time"]


def _logged_two_chunk_absorption(seed):
    return _two_chunk_absorption(seed), list(_POOLED)


def test_run_inside_a_pool_worker_runs_in_order(monkeypatch):
    # a pool's workers are daemons, which may not start a pool of their own
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork is not available")
    log_pooling(monkeypatch)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        inside, worker_log = pool.map(_logged_two_chunk_absorption, [5])[0]
    assert inside.tobytes() == _two_chunk_absorption(5).tobytes()
    if ensemble._usable_cpus() > 1:
        assert worker_log == [False]
        assert _POOLED == [True]


def test_small_runs_stay_in_order(monkeypatch):
    # below POOL_MIN_WORK (replications times n) no pool is started
    def refuse(job, workers):
        raise AssertionError("pooled")

    monkeypatch.setattr(ensemble, "_run_pooled", refuse)
    reps = ensemble.POOL_MIN_WORK // 100 - 1
    assert reps > MAX_LANES
    out = run_ensemble(kingman(), 100, reps, 5, [absorption])
    assert out["crossing_time"].shape == (reps,)


def test_wide_run_splits_into_two_keyed_halves(monkeypatch):
    # from POOL_MIN_WORK on, ceil(reps/2) lanes on key (seed, 0) and
    # floor(reps/2) on key (seed, 1)
    n, reps, seed = 40, MAX_LANES - 23, 99
    monkeypatch.setattr(ensemble, "POOL_MIN_WORK", n * reps)
    factories = [lambda: TopLengthsTracker(2), absorption]
    out = run_ensemble(BS, n, reps, seed, factories)
    halves = [_chunk_draws(n, (reps + 1) // 2, seed, 0, factories),
              _chunk_draws(n, reps // 2, seed, 1, factories)]
    assert set(out) == set(halves[0])
    for name in out:
        np.testing.assert_array_equal(
            out[name], np.concatenate([h[name] for h in halves]))


@pytest.mark.parametrize("sub_run", [1, 2, 2 ** 32 - 1])
def test_sub_run_chunks_draw_on_their_own_key_block(monkeypatch, sub_run):
    # chunk c of sub-run i draws on the key words (seed, i * 2**32 + c),
    # pooled where two CPUs are usable; the seed stays the first word, up
    # to the top of its range
    log_pooling(monkeypatch)
    n, reps, seed = 40, 2 * MAX_LANES + 1, 2 ** 64 - 1
    factories = [lambda: TopLengthsTracker(2)]
    out = run_ensemble(BS, n, reps, seed, factories, sub_run=sub_run)
    sizes = [reps // 3 + 1, reps // 3 + 1, reps // 3]
    assert sum(sizes) == reps
    chunks = [_chunk_draws(n, size, seed, (sub_run << 32) + c, factories)
              for c, size in enumerate(sizes)]
    assert (out["top_lengths"].tobytes() == np.concatenate(
        [chunk["top_lengths"] for chunk in chunks]).tobytes())
    assert _POOLED == ([True] if ensemble._usable_cpus() > 1 else [])


@pytest.mark.parametrize("reps, pool_min_work", [
    (MAX_LANES // 4, 0),                         # too narrow to split
    (MAX_LANES // 2, 40 * (MAX_LANES // 2) + 1),  # below the threshold
])
def test_narrow_or_light_runs_stay_one_chunk(monkeypatch, reps,
                                             pool_min_work):
    # such a run draws exactly chunk 0 of the same seed
    monkeypatch.setattr(ensemble, "POOL_MIN_WORK", pool_min_work)
    factories = [lambda: TopLengthsTracker(2)]
    out = run_ensemble(BS, 40, reps, 99, factories)
    np.testing.assert_array_equal(
        out["top_lengths"],
        _chunk_draws(40, reps, 99, 0, factories)["top_lengths"])


def test_path_recorder_pools_in_chunk_order(monkeypatch):
    # a recorder run forced into two chunks returns the same paths, in
    # replication order, from a fork pool and in order
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork is not available")
    log_pooling(monkeypatch)
    factories = [absorption, PathRecorder]
    reps = MAX_LANES // 4 + 1
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 2)
    pooled = run_ensemble(BS, 20, reps, 7, factories)
    assert _POOLED == [True]
    monkeypatch.setattr(ensemble, "_usable_cpus", lambda: 1)
    in_order = run_ensemble(BS, 20, reps, 7, factories)
    assert _POOLED == [True]
    assert pooled["paths"].shape == in_order["paths"].shape == (reps,)
    fields = ("block_count_before", "merger_size", "absorbed_singletons",
              "jump_time")
    for a, b in zip(pooled["paths"], in_order["paths"]):
        for field in fields:
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
    assert (pooled["crossing_time"].tobytes()
            == in_order["crossing_time"].tobytes())


def test_absorption_time_mean_kingman():
    # E[tau] = sum_b 2/(b(b-1)) = 2 (1 - 1/n)
    out = run_ensemble(kingman(), 50, 4096, 8, [absorption])
    assert out["crossing_time"].mean() == pytest.approx(1.96, abs=0.08)
    assert np.all(out["crossing_jumps"] == 49)


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


class RetiresOneJumpEarly(MarkedLeafTracker):
    """Seeded defect: also stops reading a lane once it is down to two
    blocks, one jump early for the marks still alive, which the last
    merger would take."""

    def observe(self, rows, x_before, y_before, k, dy, t_new):
        reading = super().observe(rows, x_before, y_before, k, dy, t_new)
        return reading & (x_before - k + 1 != 2)


class RetiresAtFirstMark(MarkedLeafTracker):
    """Seeded defect: stops reading a lane once any one of its marks is
    absorbed, while a second may still be alive."""

    def observe(self, rows, x_before, y_before, k, dy, t_new):
        super().observe(rows, x_before, y_before, k, dy, t_new)
        return self.alive[rows].all(1)


@pytest.mark.parametrize("defect", [AbsorbsKMinusOne, ForgetsTaken,
                                    RetiresOneJumpEarly, RetiresAtFirstMark])
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


class CountsObserves(MarkedLeafTracker):
    """Counts the observe calls that include each lane, and notes the
    count at the jump that absorbs the lane's mark."""

    def begin(self, size, n, rng):
        super().begin(size, n, rng)
        self.calls = np.zeros(size, dtype=np.int64)
        self.absorbed_at = np.zeros(size, dtype=np.int64)

    def observe(self, rows, x_before, y_before, k, dy, t_new):
        self.calls[rows] += 1
        before = self.alive[rows, 0]
        reading = super().observe(rows, x_before, y_before, k, dy, t_new)
        went = rows[before & ~self.alive[rows, 0]]
        self.absorbed_at[went] = self.calls[went]
        return reading

    def result(self):
        return {**super().result(), "calls": self.calls,
                "absorbed_at": self.absorbed_at}


@pytest.mark.parametrize("measure", [kingman(), BS, MIXED])
def test_lane_retires_at_the_jump_that_absorbs_its_mark(measure):
    # the jumps up to the absorbing one reach the tracker, and no more
    out = run_ensemble(measure, 300, 256, 41, [lambda: CountsObserves(1)])
    assert np.all(out["absorbed_at"] >= 1)
    np.testing.assert_array_equal(out["calls"], out["absorbed_at"])


class CountsCrossingObserves(LevelCrossingTracker):
    """Counts the observe calls that include each lane."""

    def begin(self, size, n, rng):
        super().begin(size, n, rng)
        self.calls = np.zeros(size, dtype=np.int64)

    def observe(self, rows, x_before, y_before, k, dy, t_new):
        self.calls[rows] += 1
        return super().observe(rows, x_before, y_before, k, dy, t_new)

    def result(self):
        return {**super().result(), "calls": self.calls}


def test_lane_retires_at_the_jump_that_crosses_its_level():
    out = run_ensemble(BS, 300, 256, 41,
                       [lambda: CountsCrossingObserves(20)])
    assert np.all(out["crossing_jumps"] >= 1)
    np.testing.assert_array_equal(out["calls"], out["crossing_jumps"])


def test_lane_runs_on_until_every_tracker_is_done():
    # the mark is absorbed early, the level-1 crossing only at the end
    out = run_ensemble(kingman(), 50, 256, 8, [MarkedLeafTracker, absorption])
    assert np.all(out["crossing_jumps"] == 49)
    assert np.all(out["marked_lengths"][:, 0] <= out["crossing_time"])


class ReadingChecked:
    """Mixin: the mask that every observe returns must equal what the
    tracker's own arrays say of those lanes: True for the lanes it still
    reads."""

    checks = 0

    def observe(self, rows, x_before, y_before, k, dy, t_new):
        reading = super().observe(rows, x_before, y_before, k, dy, t_new)
        if isinstance(self, LevelCrossingTracker):
            want = ~self.crossed[rows]
        else:
            want = self.alive[rows].any(1)
        assert reading.dtype == bool
        np.testing.assert_array_equal(reading, want)
        self.checks += 1
        return reading


class CheckedMarks(ReadingChecked, MarkedLeafTracker):
    pass


class CheckedAbsorbsKMinusOne(ReadingChecked, AbsorbsKMinusOne):
    pass


class CheckedForgetsTaken(ReadingChecked, ForgetsTaken):
    pass


class CheckedCrossing(ReadingChecked, LevelCrossingTracker):
    pass


@pytest.mark.parametrize("with_dy", [False, True])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("marks", [CheckedMarks, CheckedAbsorbsKMinusOne,
                                   CheckedForgetsTaken])
def test_done_answers_for_the_rows_just_observed(marks, k, with_dy):
    # the mask observe(rows) returns, which says which of those lanes the
    # tracker is done with, must be what its arrays say.  A run with a
    # top-lengths tracker draws dY and never retires a lane, so there the
    # check alone reads the masks
    made = []

    def track(tracker):
        made.append(tracker)
        return tracker

    factories = [lambda: track(marks(k)), lambda: track(CheckedCrossing(5))]
    if with_dy:
        factories.append(lambda: TopLengthsTracker(1))
    for measure in ("beta:0.5,1.5", "kingman + dirac:p=0.5,m=1"):
        run_ensemble(parse_measure(measure), 40, 64, 5, factories)
    assert len(made) == 4 and all(tr.checks for tr in made)


def _recording(cls):
    """cls, also noting what each observe returned: None, or the dtype and
    length of the mask with the number of rows it came for."""

    class Recording(cls):
        def observe(self, rows, x_before, y_before, k, dy, t_new):
            reading = super().observe(rows, x_before, y_before, k, dy,
                                      t_new)
            self.returned.append(None if reading is None else (
                reading.dtype, reading.shape, rows.size))
            return reading

    return Recording


class ReadsEveryLane(ChunkTracker):
    """Keeps every lane running down to one block, and records nothing."""

    def begin(self, size, n, rng):
        pass

    def observe(self, rows, x_before, y_before, k, dy, t_new):
        return None

    def result(self):
        return {}


# each library tracker: the arguments it is built with, and whether it
# finishes with lanes, so that it returns masks
_LIBRARY_TRACKERS = {
    MarkedLeafTracker: ((2,), True), TopLengthsTracker: ((3,), False),
    ThresholdCountTracker: (((0.1, 1.0),), False),
    BlockCountAtTimesTracker: (((0.1, 1.0),), False),
    LevelCrossingTracker: ((5,), True), PathRecorder: ((), False),
    _ChainMomentsTracker: ((5,), True)}


@pytest.mark.parametrize("alongside", [False, True])
@pytest.mark.parametrize("cls", _LIBRARY_TRACKERS,
                         ids=lambda cls: cls.__name__)
def test_observe_returns_none_or_a_mask_on_every_jump(cls, alongside):
    # a library tracker that never finishes with a lane returns None at
    # every jump, one that can returns at every jump a bool mask with one
    # entry per row; beside a tracker that returns None the lanes run on
    # to one block, past the jump at which it is done
    args, retires = _LIBRARY_TRACKERS[cls]
    made = []

    def factory():
        tracker = _recording(cls)(*args)
        tracker.returned = []
        made.append(tracker)
        return tracker

    factories = [factory] + ([ReadsEveryLane] if alongside else [])
    for measure in ("beta:0.5,1.5", "kingman + dirac:p=0.5,m=1"):
        run_ensemble(parse_measure(measure), 40, 16, 5, factories)
    returned = [r for tracker in made for r in tracker.returned]
    assert len(made) == 2 and returned
    if retires:
        assert all(r is not None and r[0] == bool and r[1] == (r[2],)
                   for r in returned)
    else:
        assert all(r is None for r in returned)


# marked_lengths of run_ensemble(measure, 12, 3, 2026, [MarkedLeafTracker(2)])
# by float.hex (numpy 2.4.6): the one-piece (b > 1) and two-piece (b < 1)
# power-beta draws and Pitman's construction (a >= 3), each with its
# rejection rounds, then the marks' uniforms, on lanes that retire
_PINNED_MARKS = {
    "beta:0.5,1.5": [
        ["0x1.d018e33915c4bp-4", "0x1.c70f2161781d0p-4"],
        ["0x1.96c573d7d2b04p-4", "0x1.7213c22a0f457p-8"],
        ["0x1.45b12e5c3b221p-6", "0x1.2b00bf33973b4p-3"]],
    "beta:0.5,0.5": [
        ["0x1.ec0f7881bc28bp-2", "0x1.c667dbee90aaep-2"],
        ["0x1.23de4ef559317p-4", "0x1.bdfb842c31cc6p-3"],
        ["0x1.75af1e39ffd79p-3", "0x1.5de3f82d79d73p-3"]],
    "beta:3,5": [
        ["0x1.1de6c49847284p-1", "0x1.0ff774a1954d0p-2"],
        ["0x1.513416c8c0fe1p+0", "0x1.27697fc89c5c8p-1"],
        ["0x1.5f657d6ff59dap-4", "0x1.c0a36af259d74p-6"]],
}


@pytest.mark.parametrize("measure", sorted(_PINNED_MARKS))
def test_marked_lengths_pinned(measure):
    out = run_ensemble(parse_measure(measure), 12, 3, 2026,
                       [lambda: MarkedLeafTracker(2)])["marked_lengths"]
    assert [[float(v).hex() for v in row] for row in out] \
        == _PINNED_MARKS[measure]


def test_level_crossing_pinned():
    # beta:0.5,1.5 from 40 blocks to <= 6, each lane retired at its
    # crossing; floats by float.hex (numpy 2.4.6)
    out = run_ensemble(parse_measure("beta:0.5,1.5"), 40, 3, 2026,
                       [lambda: LevelCrossingTracker(6)])
    assert out["crossing_jumps"].tolist() == [26, 16, 27]
    assert [float(v).hex() for v in out["crossing_time"]] == [
        "0x1.c992ef24743eep-2", "0x1.df1f6f04dbab2p-2",
        "0x1.9bcd2b3dd7d51p-1"]
    assert [float(v).hex() for v in out["crossing_inv_sum"]] == [
        "0x1.4785f1af1afd0p+0", "0x1.c4e67c6bb9318p-1",
        "0x1.7a7b879b4d42fp+0"]


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


# ---------------------------------------------------------------------------
# paired iterations: two jumps where every tracker can split them


@pytest.fixture
def paired(monkeypatch):
    """The live lanes of each paired iteration of the in-process runs."""
    widths = []
    second_jump = ensemble._second_jump

    def counted(sampler, rng, trackers, rows, *state):
        widths.append(rows.size)
        return second_jump(sampler, rng, trackers, rows, *state)

    monkeypatch.setattr(ensemble, "_second_jump", counted)
    return widths


@pytest.mark.parametrize("measure", [BS, HEAVY], ids=["bs", "heavy"])
def test_paired_run_counts_agree_with_top_lengths(paired, measure):
    # TopLengthsTracker(n) splits every pair that takes a singleton, and
    # the threshold counts every pair with a threshold before its end, so
    # most pairs are split; each lane's count above a threshold, the
    # singleton count held there, must equal its top lengths above it
    n, thresholds = 60, (0.002, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0)
    out = run_ensemble(measure, n, 256, 41,
                       [lambda: TopLengthsTracker(n),
                        lambda: ThresholdCountTracker(thresholds)])
    assert paired
    top, counts = out["top_lengths"], out["exceed_counts"]
    assert np.all(top > 0)
    for c, thr in enumerate(thresholds):
        np.testing.assert_array_equal(counts[:, c], (top > thr).sum(1))
    assert 0 < counts.mean() < n


@pytest.mark.parametrize("n, thresholds", [
    (200, ()), (200, (0.5, 1.0, 1.5)), (2000, ())],
    ids=["top", "top-and-counts", "top-n2000"])
def test_paired_run_matches_one_jump_run(paired, n, thresholds):
    # Bolthausen-Sznitman in 500-lane runs, which pair every iteration,
    # against runs held to one jump per iteration by a PathRecorder: the
    # longest external length within the two-sample 1 % Kolmogorov-Smirnov
    # critical value 1.628 sqrt(2 / draws), and the mean threshold counts
    # within 4.5 standard errors.  The counts split most pairs; the top
    # length alone splits a pair once per lane, so at n = 2000 most pairs
    # are shown as one jump
    def runs(extra, seed):
        outs = [run_ensemble(BS, n, 500, seed + i,
                             [lambda: TopLengthsTracker(1),
                              lambda: ThresholdCountTracker(thresholds)]
                             + extra) for i in range(8)]
        return (np.concatenate([o["top_lengths"][:, 0] for o in outs]),
                np.concatenate([o["exceed_counts"] for o in outs]))

    one_top, one_counts = runs([PathRecorder], 100)
    assert not paired
    top, counts = runs([], 200)
    assert paired
    draws = top.size
    assert two_sample_ks(one_top, top) < 1.628 * math.sqrt(2 / draws)
    se = np.sqrt((one_counts.var(0, ddof=1) + counts.var(0, ddof=1)) / draws)
    assert np.all(np.abs(one_counts.mean(0) - counts.mean(0)) < 4.5 * se)


@pytest.mark.parametrize("factories", [
    [lambda: TopLengthsTracker(2), PathRecorder],
    [lambda: TopLengthsTracker(2), lambda: MarkedLeafTracker(1)],
    [lambda: ThresholdCountTracker((0.1,)), absorption],
    [lambda: BlockCountAtTimesTracker((0.1,))]],
    ids=["recorder", "marks", "crossing", "no-dy"])
def test_runs_without_a_split_take_one_jump_per_iteration(paired, factories):
    # a tracker without `split` reads every jump, and a run without dY
    # has no whole-lane hypergeometric to save
    run_ensemble(BS, 60, 64, 3, factories)
    assert not paired


def _digest(out):
    """sha256 over a run's arrays, by name."""
    h = hashlib.sha256()
    for name in sorted(out):
        h.update(name.encode())
        h.update(out[name].tobytes())
    return h.hexdigest()


def test_runs_that_never_pair_keep_their_bytes(paired):
    # numpy 2.4.6; the digests of the one-jump loop.  Kingman has K = 2 on
    # every lane, so every dY takes the pair rule and no iteration pairs
    out = run_ensemble(kingman(), 200, 300, 2026,
                       [lambda: TopLengthsTracker(3),
                        lambda: ThresholdCountTracker((0.0, 0.01, 0.05, 0.2))])
    assert _digest(out) == ("eb7aa24d47b68445e205a550749942ce"
                            "464be5975e2573843dcf6e464d4dbdce")
    assert not paired
    # power-beta a = 0.5 on 2048 lanes: its wide steps, at least
    # _PAIR_DRAW_LANES K = 2 lanes each, take the pair rule, and these
    # early counts are read while every step is wide; only the narrow
    # steps of the tail pair
    out = run_ensemble(HEAVY, 64, 2048, 2026,
                       [lambda: ThresholdCountTracker((0.001, 0.005, 0.02))])
    assert _digest(out) == ("157dbe66c086525fba049a21c2bd8700"
                            "25935d4c72873bdc65ceab4cee7567d9")
    assert paired


# sha256 of run_ensemble(measure, 100, 64, 2026, [TopLengthsTracker(3),
# ThresholdCountTracker((0.05, 0.3, 1.0))]) (numpy 2.4.6): every narrow
# mixed step pairs, in the draw order of `sim`, K1, W1, K2, W2, the
# uniforms that decide I, D and the split draws
_PINNED_PAIRED_RUNS = {
    "bolthausen-sznitman": ("cee084a93222bcf18a55901a941475c7"
                            "3573dfe1ed4d91a6c9237142d896b284"),
    "powerbeta:c=1,a=0.5,b=1": ("91a246f83c6cd30c732d60a5e8189ad0"
                                "b03d3ff14c9a4be32bb60e22444913cc")}


@pytest.mark.parametrize("measure", sorted(_PINNED_PAIRED_RUNS))
def test_paired_run_pinned(paired, measure):
    out = run_ensemble(parse_measure(measure), 100, 64, 2026,
                       [lambda: TopLengthsTracker(3),
                        lambda: ThresholdCountTracker((0.05, 0.3, 1.0))])
    assert _digest(out) == _PINNED_PAIRED_RUNS[measure]
    assert paired


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
    for sub_run in (-1, 2 ** 32, 1.0, True, "1"):
        with pytest.raises(ValueError, match="sub_run"):
            run_ensemble(BS, 10, 10, 1, [absorption], sub_run=sub_run)
    out = run_ensemble(BS, np.int64(10), np.int32(3), np.uint64(1),
                       [absorption])
    assert out["crossing_jumps"].shape == (3,)
    # no tracker: nothing to simulate for
    with pytest.raises(ValueError):
        run_ensemble(BS, 10, 10, 1, [])
    # bad tracker arguments raise at construction, never in a worker
    for k in (0, True, 1.0, 2.5):
        with pytest.raises(ValueError):
            MarkedLeafTracker(k=k)
        with pytest.raises(ValueError):
            TopLengthsTracker(k)
    with pytest.raises(ValueError):
        BlockCountAtTimesTracker([-1.0])
    for level in (0.5, np.nan):
        with pytest.raises(ValueError):
            LevelCrossingTracker(level)
    for tracker in (ThresholdCountTracker, BlockCountAtTimesTracker):
        with pytest.raises(ValueError):
            tracker([0.5, np.nan])
        # times are a 1-d sequence, refused before any work; none is fine
        for times in (0.5, [[0.1, 0.2]]):
            with pytest.raises(ValueError, match="1-d"):
                tracker(times)
            with pytest.raises(ValueError, match="1-d"):
                run_ensemble(kingman(), 10, 4, 1, [lambda: tracker(times)])
        out = run_ensemble(kingman(), 10, 4, 1, [lambda: tracker([])])
        assert all(arr.shape == (4, 0) for arr in out.values())
    # more marks or top lengths than leaves surface at begin time
    for tracker in (MarkedLeafTracker, TopLengthsTracker):
        with pytest.raises(ValueError):
            run_ensemble(BS, 4, 8, 1, [lambda: tracker(5)])
        out = run_ensemble(BS, 4, 8, 1, [lambda: tracker(4)])
        assert all(arr.shape == (8, 4) for arr in out.values())
