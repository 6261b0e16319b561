"""Ensemble layer: streaming trackers are checked jump for jump against
the paths a PathRecorder stores on the same run, plus the reproducibility
and validation contracts."""

import numpy as np
import pytest

from coalsim.ensemble import (BlockCountAtTimesTracker, LevelCrossingTracker,
                              MarkedLeafTracker, PathRecorder,
                              ThresholdCountTracker, TopLengthsTracker,
                              run_ensemble)
from coalsim.measure import bolthausen_sznitman, kingman, parse_measure

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
    n, size, key = 12, 64, 777
    marks = []

    def marked():
        marks.append(MarkedLeafTracker(k=2))
        return marks[-1]

    def run(thresholds):
        marks.clear()
        factories = [marked,
                     lambda: TopLengthsTracker(3),
                     lambda: TopLengthsTracker(n + 3, name="top_all"),
                     lambda: ThresholdCountTracker(thresholds),
                     absorption,
                     PathRecorder]
        return run_ensemble(measure, n, size, key, factories,
                            chunk_size=size)

    # a threshold equal to an external length of path 0 (counts are of
    # lengths strictly above it) and a negative one (every length counts);
    # thresholds draw nothing, so the rerun repeats the paths
    first = run((0.5, 1.5))
    values = first["paths"][0].external_lengths().values
    tie = values[len(values) // 2]
    thresholds = (-0.5, 0.5, 1.5, tie)
    real = run(thresholds)
    positions = marks[0].positions
    for r, path in enumerate(real["paths"]):
        np.testing.assert_array_equal(path.jump_time,
                                      first["paths"][r].jump_time)
        cum = np.cumsum(path.absorbed_singletons)
        for j, pos in enumerate(positions[r]):
            expect = path.jump_time[np.searchsorted(cum, pos, side="right")]
            assert real["marked_lengths"][r, j] == expect
        lengths = np.sort(path.external_lengths().flat())[::-1]
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
    real = run_ensemble(BS, n, size, key, factories, chunk_size=size)
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
    factories = [lambda: MarkedLeafTracker(), absorption]
    out = run_ensemble(BS, 200, 2500, 31415, factories, chunk_size=512)
    assert set(out) == {"marked_lengths", "absorption_time",
                        "absorption_jumps", "absorption_inv_sum"}
    for name in out:
        assert len(out[name]) == 2500
    # chunk i is keyed by seed XOR i: chunks 0 and 1 are one-chunk runs
    for ci in (0, 1):
        alone = run_ensemble(BS, 200, 512, 31415 ^ ci, factories)
        for name in out:
            np.testing.assert_array_equal(
                out[name][512 * ci:512 * (ci + 1)], alone[name])


def test_absorption_time_mean_kingman():
    # E[tau] = sum_b 2/(b(b-1)) = 2 (1 - 1/n)
    out = run_ensemble(kingman(), 50, 4096, 8, [absorption])
    assert out["absorption_time"].mean() == pytest.approx(1.96, abs=0.08)
    assert np.all(out["absorption_jumps"] == 49)


def test_marked_positions_distinct():
    tr = MarkedLeafTracker(k=3)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(5)))
    tr.begin(512, 5, rng)
    srt = np.sort(tr.positions, axis=1)
    assert np.all(np.diff(srt, axis=1) > 0)


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
        run_ensemble(BS, 10, 10, 1, [absorption],
                     chunk_size=0)
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
