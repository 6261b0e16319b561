"""Vectorized Monte Carlo over many independent trajectories.

All replications in a chunk advance in lockstep: one jump of every live
path per iteration, with the merger-size draws, waiting times and
hypergeometric singleton losses batched across the chunk.  Statistics are
accumulated by streaming trackers, so paths are not stored unless a
PathRecorder asks for them.  This is the only jump loop: single paths
(`sim.simulate_path`) are one-replication runs with a recorder.

Reproducibility contract: replications are split into fixed-size chunks,
run one after another, and chunk i runs on its own Philox stream keyed by
seed XOR i.  Results therefore depend on (measure, n, reps, seed,
chunk_size, tracker order) and on nothing else.
"""

from __future__ import annotations

import numpy as np

from .sim import (CoalescentPath, MergerSizeSampler, _check_seed, _make_rng,
                  as_rate_functions)

DEFAULT_CHUNK_SIZE = 1024


class ChunkTracker:
    """One statistic over one chunk.  Subclasses allocate in begin(),
    update in observe() for every batched jump, and hand back named
    arrays (first axis = replication) from result()."""

    needs_singletons = False

    def begin(self, size: int, n: int, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def observe(self, rows, x_before, k, dy, t_old, t_new) -> None:
        raise NotImplementedError

    def result(self) -> dict[str, np.ndarray]:
        raise NotImplementedError


class MarkedLeafTracker(ChunkTracker):
    """External branch lengths of k uniformly chosen distinct leaves.

    Lengths are emitted in absorption order, so marking k distinct
    positions of that order gives the joint law of k tagged leaves by
    exchangeability; position j is absorbed by the first jump whose
    cumulative singleton loss passes j.
    """

    needs_singletons = True

    def __init__(self, k: int = 1, name: str = "marked_lengths"):
        if k < 1:
            raise ValueError("need at least one marked leaf")
        self.k = k
        self.name = name

    def begin(self, size, n, rng):
        if self.k > n:
            raise ValueError("cannot mark more leaves than the sample has")
        pos = rng.integers(0, n, size=(size, self.k))
        if self.k > 1:
            while True:
                srt = np.sort(pos, axis=1)
                bad = (np.diff(srt, axis=1) == 0).any(axis=1)
                if not bad.any():
                    break
                pos[bad] = rng.integers(0, n, size=(int(bad.sum()), self.k))
        self.positions = pos
        self.lengths = np.zeros((size, self.k))
        self.cum = np.zeros(size, dtype=np.int64)

    def observe(self, rows, x_before, k, dy, t_old, t_new):
        lo = self.cum[rows]
        hi = lo + dy
        pos = self.positions[rows]
        hit = (pos >= lo[:, None]) & (pos < hi[:, None])
        if hit.any():
            self.lengths[rows] = np.where(hit, t_new[:, None],
                                          self.lengths[rows])
        self.cum[rows] = hi

    def result(self):
        return {self.name: self.lengths}


class TopLengthsTracker(ChunkTracker):
    """The ell largest external lengths, kept sorted descending.  Lengths
    arrive in increasing order, so a jump emitting dY of them shifts the
    current top by dY and fills the lead slots with the jump time."""

    needs_singletons = True

    def __init__(self, ell: int, name: str = "top_lengths"):
        if ell < 1:
            raise ValueError("ell must be positive")
        self.ell = ell
        self.name = name

    def begin(self, size, n, rng):
        self.top = np.zeros((size, self.ell))

    def observe(self, rows, x_before, k, dy, t_old, t_new):
        emitting = dy > 0
        if not emitting.any():
            return
        sub = rows[emitting]
        shift = dy[emitting]
        t = t_new[emitting]
        old = self.top[sub]
        new = np.empty_like(old)
        for j in range(self.ell):
            src = np.clip(j - shift, 0, self.ell - 1)
            new[:, j] = np.where(shift > j, t, old[np.arange(len(sub)), src])
        self.top[sub] = new

    def result(self):
        return {self.name: self.top}


class ThresholdCountTracker(ChunkTracker):
    """Number of external lengths strictly exceeding each threshold."""

    needs_singletons = True

    def __init__(self, thresholds, name: str = "exceed_counts"):
        self.thresholds = np.asarray(thresholds, dtype=float)
        self.name = name

    def begin(self, size, n, rng):
        self.counts = np.zeros((size, len(self.thresholds)), dtype=np.int64)

    def observe(self, rows, x_before, k, dy, t_old, t_new):
        emitting = dy > 0
        if not emitting.any():
            return
        sub = rows[emitting]
        add = dy[emitting, None] * (t_new[emitting, None]
                                    > self.thresholds[None, :])
        self.counts[sub] += add

    def result(self):
        return {self.name: self.counts}


class BlockCountAtTimesTracker(ChunkTracker):
    """Right-continuous block count sampled at fixed absolute times."""

    def __init__(self, times, name: str = "blocks_at"):
        self.times = np.asarray(times, dtype=float)
        if np.any(self.times < 0):
            raise ValueError("query times must be nonnegative")
        self.name = name

    def begin(self, size, n, rng):
        # 1 is the value beyond absorption; every earlier query time falls
        # in exactly one holding interval and is overwritten there.
        self.values = np.ones((size, len(self.times)), dtype=np.int64)

    def observe(self, rows, x_before, k, dy, t_old, t_new):
        q = self.times[None, :]
        crossed = (t_old[:, None] <= q) & (q < t_new[:, None])
        if crossed.any():
            self.values[rows] = np.where(crossed, x_before[:, None],
                                         self.values[rows])

    def result(self):
        return {self.name: self.values}


class LevelCrossingTracker(ChunkTracker):
    """First passage of the block count to <= r_level: jump index, absolute
    time, and sum of 1/X over the states visited strictly before."""

    def __init__(self, r_level: float, name: str = "crossing"):
        if r_level < 1:
            raise ValueError("r_level must be >= 1")
        self.r_level = r_level
        self.name = name

    def begin(self, size, n, rng):
        self.inv_sum = np.zeros(size)
        self.time = np.zeros(size)
        self.jumps = np.zeros(size, dtype=np.int64)
        self.done = np.full(size, n <= self.r_level)

    def observe(self, rows, x_before, k, dy, t_old, t_new):
        act = ~self.done[rows]
        if not act.any():
            return
        sub = rows[act]
        self.inv_sum[sub] += 1.0 / x_before[act]
        self.jumps[sub] += 1
        hit = (x_before[act] - k[act] + 1) <= self.r_level
        self.time[sub[hit]] = t_new[act][hit]
        self.done[sub[hit]] = True

    def result(self):
        return {f"{self.name}_inv_sum": self.inv_sum,
                f"{self.name}_time": self.time,
                f"{self.name}_jumps": self.jumps}


class AbsorptionTracker(ChunkTracker):
    """Total jump count and absorption time of each path."""

    def __init__(self, name: str = "absorption"):
        self.name = name

    def begin(self, size, n, rng):
        self.tau = np.zeros(size)
        self.jumps = np.zeros(size, dtype=np.int64)

    def observe(self, rows, x_before, k, dy, t_old, t_new):
        self.tau[rows] = t_new
        self.jumps[rows] += 1

    def result(self):
        return {f"{self.name}_time": self.tau,
                f"{self.name}_jumps": self.jumps}


class PathRecorder(ChunkTracker):
    """Every jump of every replication, returned as one CoalescentPath per
    replication (an object array) for per-path functionals.

    A path makes at most n - 1 jumps, so each replication gets rows of
    that length, written jump by jump; the operating system commits
    memory only for the pages written, so memory grows with the jumps
    actually made and is never copied at the end."""

    needs_singletons = True

    def __init__(self, name: str = "paths"):
        self.name = name

    def begin(self, size, n, rng):
        self.n = n
        self.jumps = np.zeros(size, dtype=np.int64)
        self.x, self.k, self.dy = (np.empty((size, n - 1), dtype=np.int64)
                                   for _ in range(3))
        self.t = np.empty((size, n - 1))

    def observe(self, rows, x_before, k, dy, t_old, t_new):
        j = self.jumps[rows]
        self.x[rows, j] = x_before
        self.k[rows, j] = k
        self.dy[rows, j] = dy
        self.t[rows, j] = t_new
        self.jumps[rows] = j + 1

    def result(self):
        paths = np.empty(self.jumps.size, dtype=object)
        for i, m in enumerate(self.jumps):
            paths[i] = CoalescentPath(self.n, None, self.x[i, :m],
                                      self.k[i, :m], self.dy[i, :m],
                                      self.t[i, :m])
        return {self.name: paths}


def _run_chunk(sampler: MergerSizeSampler, n: int, size: int, key: int,
               factories) -> dict[str, np.ndarray]:
    rng = _make_rng(key)
    trackers = [f() for f in factories]
    for tr in trackers:
        tr.begin(size, n, rng)
    needs_dy = any(tr.needs_singletons for tr in trackers)
    x = np.full(size, n, dtype=np.int64)
    y = np.full(size, n, dtype=np.int64)
    t = np.zeros(size)
    alive = np.arange(size)
    while alive.size:
        b = x[alive]
        lam, k = sampler.sample_step(rng, b)
        w = rng.standard_exponential(alive.size) / lam
        t_old = t[alive]
        t_new = t_old + w
        dy = rng.hypergeometric(y[alive], b - y[alive], k) if needs_dy \
            else None
        for tr in trackers:
            tr.observe(alive, b, k, dy, t_old, t_new)
        t[alive] = t_new
        x[alive] = b - k + 1
        if needs_dy:
            y[alive] -= dy
        alive = alive[x[alive] > 1]
    out: dict[str, np.ndarray] = {}
    for tr in trackers:
        for name, arr in tr.result().items():
            if name in out:
                raise ValueError(f"duplicate tracker output {name!r}")
            out[name] = arr
    return out


def run_ensemble(rates, n: int, reps: int, seed: int, tracker_factories,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> dict[str, np.ndarray]:
    """Simulate `reps` paths of size n, returning each tracker's arrays
    concatenated in replication order.  `rates` may be a RateFunctions
    instance or the underlying measure; `seed` is an integer in
    [0, 2**64)."""
    if n < 2:
        raise ValueError("need n >= 2 blocks")
    if reps < 1:
        raise ValueError("need at least one replication")
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    seed = _check_seed(seed)
    factories = tuple(tracker_factories)
    sampler = MergerSizeSampler(as_rate_functions(rates), n)
    sizes = [chunk_size] * (reps // chunk_size)
    if reps % chunk_size:
        sizes.append(reps % chunk_size)
    parts = [_run_chunk(sampler, n, size, seed ^ ci, factories)
             for ci, size in enumerate(sizes)]
    return {name: np.concatenate([p[name] for p in parts])
            for name in parts[0]}
