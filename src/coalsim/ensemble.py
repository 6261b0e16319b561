"""Vectorized Monte Carlo over many independent trajectories.

All replications in a chunk advance in lockstep: one jump of every live
path per iteration, with the merger-size draws, waiting times and
hypergeometric singleton losses batched across the chunk (draw order in
`sim`).  The loop keeps the state of the live lanes only (block count X,
singleton count Y, time) and drops lanes as they reach one block.
Statistics are accumulated by streaming trackers, which see each jump as
(rows, X_before, Y_before, K, dY, t_old, t_new); Y_before and dY are drawn
and passed only when some tracker sets `needs_singletons`, and are None
otherwise.  A tracker may draw from the chunk's stream itself, after dY
and in tracker order: MarkedLeafTracker decides its tagged leaves from
its own uniforms, so a run that tracks only tagged leaves draws no dY.
Paths are not stored unless a PathRecorder asks for them.
This is the only jump loop: single paths (`sim.simulate_path`) are
one-replication runs with a recorder.

Reproducibility contract: replications are split into chunks of
CHUNK_SIZE, and chunk i runs on its own Philox stream, keyed by the two
key words (seed, i).  Chunk 0's key is the one `Philox(key=seed)` takes,
so a run of at most CHUNK_SIZE replications draws what a single stream
under `seed` draws.  When a run has two or more chunks and the process
may use two or more CPUs, the chunks run in a pool of forked worker
processes, one per usable CPU (at most one per chunk); otherwise they run
in order in this process.  Either way the chunks' arrays are joined in
chunk order, so results depend on (measure, n, reps, seed, tracker order)
and on nothing else: they are byte-identical for any CPU count.  To use
fewer CPUs, restrict the process's affinity (for example with `taskset`).
"""

from __future__ import annotations

import os

import numpy as np

from .sim import (CoalescentPath, MergerSizeSampler, _check_seed,
                  _draw_singleton_loss, _is_integer, _make_rng,
                  as_rate_functions)

CHUNK_SIZE = 1024


class ChunkTracker:
    """One statistic over one chunk.  Subclasses allocate in begin(),
    update in observe() for every batched jump, and hand back named
    arrays (first axis = replication) from result().  A tracker that
    reads the singleton count sets `needs_singletons`: then y_before and
    dy are arrays aligned with rows, else None.  A tracker that draws
    keeps the chunk's rng from begin() and draws in observe().

    `run_ensemble` builds one tracker per chunk by calling its factory,
    and a chunk may run in a forked worker process: there the factory's
    and the tracker's side effects stay in the worker, and only the
    arrays of result() come back."""

    needs_singletons = False

    def begin(self, size: int, n: int, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def observe(self, rows, x_before, y_before, k, dy, t_old, t_new) -> None:
        """One jump of the live lanes `rows` (replication indices within
        the chunk): block count X and singleton count Y before the jump,
        merger size K, singletons absorbed dY, and the jump's holding
        interval [t_old, t_new)."""
        raise NotImplementedError

    def result(self) -> dict[str, np.ndarray]:
        raise NotImplementedError


class MarkedLeafTracker(ChunkTracker):
    """External branch lengths of k distinct tagged leaves.

    An unabsorbed tagged leaf is a singleton block, and the K merging
    blocks, a uniform K-subset of the X current blocks, take it with
    probability K/X.  Each jump draws k uniforms per live lane, one per
    mark, and decides the unabsorbed marks in mark order, without
    replacement: mark j goes when u_j (X - seen) < K - taken, where seen
    counts the unabsorbed marks decided before it at this jump and taken
    those of them that went.  So no singleton count is read.  When another
    tracker makes the run draw dY, the absorbed singletons are a uniform
    dY-subset of the Y singletons, and the marks are decided against
    (dY, Y) in place of (K, X), so that they agree with the run's paths.
    Each comparison is exact up to one point of the 2**-53 grid.
    """

    def __init__(self, k: int = 1, name: str = "marked_lengths"):
        if k < 1:
            raise ValueError("need at least one marked leaf")
        self.k = k
        self.name = name

    def begin(self, size, n, rng):
        if self.k > n:
            raise ValueError("cannot mark more leaves than the sample has")
        self.rng = rng
        self.lengths = np.zeros((size, self.k))
        self.alive = np.ones((size, self.k), dtype=bool)

    def observe(self, rows, x_before, y_before, k, dy, t_old, t_new):
        u = self.rng.random((self.k, rows.size))
        num, den = (k, x_before) if dy is None else (dy, y_before)
        mark, lane = np.nonzero(
            self._absorbed(u, self.alive[rows].T, num, den))
        if lane.size:
            sub = rows[lane]
            self.lengths[sub, mark] = t_new[lane]
            self.alive[sub, mark] = False

    @staticmethod
    def _absorbed(u, alive, num, den):
        """Which of the unabsorbed marks `alive` (marks x lanes), distinct
        members of a pool of `den` per lane, fall in a uniform num-subset
        of it; u holds one row of uniforms per mark.  Each mark visited
        leaves the pool, and each mark taken leaves the subset."""
        hit = np.empty_like(alive)
        for j, a in enumerate(alive):
            hit[j] = a & (u[j] * den < num)
            if j + 1 < len(alive):
                den = den - a
                num = num - hit[j]
        return hit

    def result(self):
        return {self.name: self.lengths}


class TopLengthsTracker(ChunkTracker):
    """The ell largest external lengths, sorted descending.  Lengths
    arrive in increasing order, so the (j+1)-th longest is the time of the
    jump that takes the singleton count from above j to at most j; a lane
    touches its row only on the jumps that end below ell singletons."""

    needs_singletons = True

    def __init__(self, ell: int, name: str = "top_lengths"):
        if ell < 1:
            raise ValueError("ell must be positive")
        self.ell = ell
        self.name = name

    def begin(self, size, n, rng):
        self.top = np.zeros((size, self.ell))
        self.slots = np.arange(self.ell)

    def observe(self, rows, x_before, y_before, k, dy, t_old, t_new):
        y_after = y_before - dy
        hit = np.nonzero(y_after < np.minimum(y_before, self.ell))[0]
        if not hit.size:
            return
        fill = ((self.slots >= y_after[hit, None])
                & (self.slots < y_before[hit, None]))
        sub = rows[hit]
        self.top[sub] = np.where(fill, t_new[hit, None], self.top[sub])

    def result(self):
        return {self.name: self.top}


class _HeldAtTimesTracker(ChunkTracker):
    """A count read at fixed times: the value held over the holding
    interval [t_old, t_new) that contains a time is recorded at that jump.
    Times below 0 precede every interval and keep their initial value, as
    do times beyond absorption.  Jump times increase along a lane, so each
    lane meets the times in sorted order and keeps the next one it has not
    passed: a jump costs one comparison per lane, however many times."""

    def __init__(self, times, name: str):
        self.times = np.asarray(times, dtype=float)
        self.name = name

    def _start(self, size: int, initial: np.ndarray) -> None:
        self.values = np.tile(initial.astype(np.int64), (size, 1))
        self.order = np.argsort(self.times, kind="stable")
        self.queue = np.append(self.times[self.order], np.inf)
        self.passed = np.full(size, np.searchsorted(self.queue, 0.0))
        self.upcoming = self.queue[self.passed]

    def _record(self, rows, held, t_new) -> None:
        hit = np.nonzero(self.upcoming[rows] < t_new)[0]
        while hit.size:
            lanes = rows[hit]
            j = self.passed[lanes]
            self.values[lanes, self.order[j]] = held[hit]
            self.passed[lanes] = j + 1
            self.upcoming[lanes] = self.queue[j + 1]
            hit = hit[self.upcoming[lanes] < t_new[hit]]

    def result(self):
        return {self.name: self.values}


class ThresholdCountTracker(_HeldAtTimesTracker):
    """Number of external lengths strictly exceeding each threshold: the
    singleton count held at the threshold (n for a negative threshold,
    0 beyond absorption)."""

    needs_singletons = True

    def __init__(self, thresholds, name: str = "exceed_counts"):
        super().__init__(thresholds, name)

    def begin(self, size, n, rng):
        self._start(size, np.where(self.times < 0, n, 0))

    def observe(self, rows, x_before, y_before, k, dy, t_old, t_new):
        self._record(rows, y_before, t_new)


class BlockCountAtTimesTracker(_HeldAtTimesTracker):
    """Right-continuous block count sampled at fixed absolute times."""

    def __init__(self, times, name: str = "blocks_at"):
        super().__init__(times, name)
        if np.any(self.times < 0):
            raise ValueError("query times must be nonnegative")

    def begin(self, size, n, rng):
        # 1 is the block count from absorption onward
        self._start(size, np.ones(len(self.times)))

    def observe(self, rows, x_before, y_before, k, dy, t_old, t_new):
        self._record(rows, x_before, t_new)


class LevelCrossingTracker(ChunkTracker):
    """First passage of the block count to <= r_level: jump index, absolute
    time, and sum of 1/X over the states visited strictly before.  At
    r_level = 1 the passage is absorption: the jump count and absorption
    time of each path."""

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

    def observe(self, rows, x_before, y_before, k, dy, t_old, t_new):
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

    def observe(self, rows, x_before, y_before, k, dy, t_old, t_new):
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


def _run_chunk(sampler: MergerSizeSampler, n: int, size: int, seed: int,
               chunk: int, factories) -> dict[str, np.ndarray]:
    rng = _make_rng(seed, chunk)
    trackers = [f() for f in factories]
    for tr in trackers:
        tr.begin(size, n, rng)
    needs_dy = any(tr.needs_singletons for tr in trackers)
    # State of the live lanes only, aligned with `rows`; lanes that reach
    # one block are dropped from all of it at once.
    rows = np.arange(size)
    x = np.full(size, n, dtype=np.int64)
    y = np.full(size, n, dtype=np.int64) if needs_dy else None
    t = np.zeros(size)
    dy = None
    while rows.size:
        lam, k = sampler.sample_step(rng, x)
        t_new = t + rng.standard_exponential(rows.size) / lam
        if needs_dy:
            dy = _draw_singleton_loss(rng, x, y, k)
        for tr in trackers:
            tr.observe(rows, x, y, k, dy, t, t_new)
        x = x - k + 1
        t = t_new
        if needs_dy:
            y = y - dy
        live = x > 1
        if not live.all():
            rows, x, t = rows[live], x[live], t[live]
            if needs_dy:
                y = y[live]
    out: dict[str, np.ndarray] = {}
    for tr in trackers:
        for name, arr in tr.result().items():
            if name in out:
                raise ValueError(f"duplicate tracker output {name!r}")
            out[name] = arr
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


# The run a pool worker serves, set in each worker by _adopt when the pool
# starts: under fork the sampler and the tracker factories (often lambdas)
# are inherited, never pickled or rebuilt.
_JOB = None


def _adopt(job) -> None:
    global _JOB
    _JOB = job


def _pooled_chunk(chunk: int) -> dict[str, np.ndarray]:
    sampler, n, sizes, seed, factories = _JOB
    return _run_chunk(sampler, n, sizes[chunk], seed, chunk, factories)


def _run_pooled(job, workers: int) -> list[dict[str, np.ndarray]] | None:
    """Every chunk of `job` on a fork pool, in chunk order; None where the
    platform cannot fork or this process is a daemon, such as a worker of
    another pool, which may not start processes."""
    import multiprocessing   # only here: its import cost is paid per pool

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    sizes = job[2]
    with multiprocessing.get_context("fork").Pool(
            workers, initializer=_adopt, initargs=(job,)) as pool:
        return pool.map(_pooled_chunk, range(len(sizes)), chunksize=1)


def run_ensemble(rates, n: int, reps: int, seed: int,
                 tracker_factories) -> dict[str, np.ndarray]:
    """Simulate `reps` paths of size n, returning each tracker's arrays
    concatenated in replication order.  `rates` may be a RateFunctions
    instance or the underlying measure; `seed` is an integer in
    [0, 2**64)."""
    if not _is_integer(n) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    if not _is_integer(reps) or reps < 1:
        raise ValueError(f"reps must be an integer >= 1, got {reps!r}")
    seed = _check_seed(seed)
    factories = tuple(tracker_factories)
    sampler = MergerSizeSampler(as_rate_functions(rates), n)
    sizes = [CHUNK_SIZE] * (reps // CHUNK_SIZE)
    if reps % CHUNK_SIZE:
        sizes.append(reps % CHUNK_SIZE)
    workers = min(len(sizes), _usable_cpus())
    parts = None
    if workers > 1:
        parts = _run_pooled((sampler, n, sizes, seed, factories), workers)
    if parts is None:
        parts = [_run_chunk(sampler, n, size, seed, ci, factories)
                 for ci, size in enumerate(sizes)]
    return {name: np.concatenate([p[name] for p in parts])
            for name in parts[0]}
