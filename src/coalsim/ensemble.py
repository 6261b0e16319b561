"""Vectorized Monte Carlo over many independent trajectories.

All replications in a chunk advance in lockstep: one jump of every live
path per iteration, or two where the trackers allow it (`ChunkTracker`),
with the merger-size draws, waiting times and hypergeometric singleton
losses batched across the chunk (draw order in `sim`).  The loop keeps
the state of the live lanes only (block count X, singleton count Y,
time) and drops lanes as they reach one block.
Statistics are accumulated by streaming trackers, which see each jump as
(rows, X_before, Y_before, K, dY, t_new), t_new the time of the jump;
Y_before and dY are drawn and passed only when some tracker sets
`needs_singletons`, and are None otherwise.  A tracker may draw from the
chunk's stream itself, after dY and in tracker order: MarkedLeafTracker
decides its tagged leaves from its own uniforms, so a run that tracks
only tagged leaves draws no dY.  Paths are not stored unless a
PathRecorder asks for them.

A tracker that can finish with a lane says so by what observe returns:
a bool mask over the rows it saw, True for the lanes it still reads.  A
tagged-leaf tracker keeps a lane until its marks are absorbed, a level
crossing until the lane has crossed.  When every tracker of a run returns
a mask at a jump, the loop retires, with their state, the lanes that no
mask keeps, and such a lane draws nothing more.  A tracker that never
finishes with a lane returns None, and in a run with one, every lane
runs down to one block.

This is the only jump loop: single paths (`sim.simulate_path`) are
one-replication runs with a recorder.

Reproducibility contract: a run of reps replications is cut into
P = ceil(reps / MAX_LANES) chunks of near-equal size, the larger first
(sizes differ by at most one), and chunk c runs on its own Philox
stream, keyed by the two key words (seed, i * 2**32 + c), i the run's
sub-run index in [0, 2**32), 0 unless its caller gives one: no two
seeds, and no two sub-runs of one seed, share a stream.  One work
threshold, POOL_MIN_WORK, decides when a run uses a second CPU: a run of
more than MAX_LANES // 4 replications whose replications times n reach
it has P raised to two, so that a second CPU can take half of it.  The
key of chunk 0 of sub-run 0 is the one `Philox(key=seed)` takes, so a
one-chunk run draws what a single stream under `seed` draws.  When a run
has two or more chunks, its replications times n reach POOL_MIN_WORK,
and the process may use two or more CPUs, the chunks run in a pool of
forked worker processes, one per usable CPU (at most one per chunk);
otherwise they run in order in this process, since a smaller run loses
more to the pool's start-up than it gains.  Either way the chunks'
arrays are joined in chunk order, so results depend on (measure, n,
reps, seed, sub-run, trackers) and on nothing else: the chunk count
reads only n and reps, and results are byte-identical for any CPU count
and either choice.  To use fewer CPUs, restrict the process's affinity
(for example with `taskset`).

Wide chunks pay the fixed cost of a lockstep step (a few tens of
microseconds, whatever the width) fewer times, and two of them fill two
CPUs.  The price is on larger machines: a run uses at most P CPUs, so a
run of MAX_LANES + 1 to 2 * MAX_LANES replications keeps two CPUs busy
however many the machine has.
"""

from __future__ import annotations

import os

import numpy as np

from .rates import _count_arg
from .sim import (CoalescentPath, MergerSizeSampler, _check_level,
                  _draw_pair_loss, _draw_singleton_loss,
                  _hypergeometric_loss, _in_uniform_subset, _make_rng,
                  as_rate_functions)

# The most lanes a chunk holds.  A lockstep step has a fixed cost,
# whatever its width (one CPU, 2-vCPU Xeon VM, lanes held at X = 3000,
# Y = 2000 with TopLengthsTracker(5) and ThresholdCountTracker at
# n = 1e4): power-beta a = 0.5 takes 50, 161 and 252 us per step at 32,
# 1024 and 2048 lanes, Bolthausen-Sznitman 53, 155 and 255 us, Kingman
# 22, 54 and 95 us, so one 2048-lane step costs 20 to 22 % less than two
# of 1024.  Measured 2048 against 4096 on whole runs, 2 vCPUs, medians
# of 5 alternated runs: 4096 is 4 to 15 % faster on runs of more than
# 4096 replications (T1.1 at 10 000 replications: Bolthausen-Sznitman
# 0.49 against 0.55 s, power-beta 1.95 against 2.03 s, Kingman 1.11
# against 1.20 s; power-beta T1.5 at 8192 replications 4.05 against
# 4.75 s), but then only a run of more than 1024 replications splits
# for a second CPU, and the Bolthausen-Sznitman T1.6 run at n = 1e5 with
# 1000 replications takes 2.44 s whole against 2.02 s in two halves.
MAX_LANES = 2048
# The work, counted as replications times n, from which a run uses a
# second CPU: a run of more than MAX_LANES // 4 replications runs as at
# least two chunks from here on, and a run of two or more chunks pools
# them.  Below it the pool's fixed cost (fork, worker start-up, sending
# the arrays back) outweighs the CPU it adds.  Measured pooled against
# in order on a 2-vCPU Xeon VM, with one TopLengthsTracker(3) and 2048
# replications: kingman at n = 200 takes 0.035 s against 0.020 s, at
# n = 1000 0.058 s against 0.093 s; Bolthausen-Sznitman at n = 200
# 0.029 s against 0.020 s, at n = 1000 0.045 s against 0.064 s.
# Measured one chunk against two pooled halves, same VM, medians of 7 to
# 9 alternated runs: at 2048 replications and n = 2500 (5.1e6),
# power-beta a = 0.5 with TopLengthsTracker(5) and ThresholdCountTracker
# takes 0.45 s in halves against 0.60 s whole, Kingman with the same
# trackers 0.28 against 0.36 s, Bolthausen-Sznitman with
# TopLengthsTracker(1) 0.17 against 0.21 s; at 1000 replications and
# n = 1e4 Kingman and power-beta a = 0.5 take 0.68 against 0.81 s and
# 0.94 against 1.32 s.  Near the threshold the two are close (halves /
# whole 0.89 to 1.19 over those three at 2048 replications and n = 1000,
# 0.92 to 1.03 at 1100 and n = 2000).  The cheapest lane steps lose by
# splitting: Bolthausen-Sznitman with BlockCountAtTimesTracker alone
# takes 0.157 s split against 0.116 s whole at 1000 replications and
# n = 1e4, and 0.092 against 0.060 s at 2048 and n = 2500.  Summed over
# eight experiment cells at 1000 replications and n = 1e4 (T1.1, T1.5,
# T1.6, T4.1, P2.1 and L9.2 over four measures, medians of 8 alternated
# runs) the halves still save 0.15 s of 3.50 s.  Runs of at
# most MAX_LANES // 4 replications stay whole: each half pays the fixed
# cost of a step, so narrow halves gain nothing (Bolthausen-Sznitman
# with TopLengthsTracker(1) at n = 1e5 took 2.26 s whole against 2.43 s
# split at 512 replications, and 1.59 against 1.58 s at 256).
POOL_MIN_WORK = 2_000_000


class ChunkTracker:
    """One statistic over one chunk.  Subclasses allocate in begin(),
    update in observe() for every batched jump, and hand back named
    arrays (first axis = replication) from result().  A tracker that
    reads the singleton count sets `needs_singletons`: then y_before and
    dy are arrays aligned with rows, else None.  A tracker that draws
    keeps the chunk's rng from begin() and draws in observe().  observe()
    returns None when the tracker never finishes with a lane; otherwise
    it returns, at every jump, a bool array aligned with `rows` that is
    True for the lanes it still reads.  The loop ORs the masks of a
    jump's trackers and retires the lanes that none keeps, unless some
    tracker returned None.

    A tracker that can see two jumps of a lane as one gives a method
    `split`, which takes the pair as one jump, with observe's arguments
    (K the two mergers' K1 + K2 - 1, dY their joint loss, t_new the
    second jump's time), and returns one bool per lane: True where it
    must see the two jumps apart.  In a run that draws dY and whose
    trackers all give `split`, a lockstep iteration whose dY would take
    the whole-lane hypergeometric takes a second jump on every lane with
    two or more blocks left (draw order in `sim`).  The lanes that some
    tracker splits are shown first their first jump, then their second;
    every other lane is shown the pair as one jump.  Only the masks that
    observe returns for the last of these two calls retire lanes.

    `run_ensemble` builds one tracker per chunk of up to MAX_LANES
    lanes by calling its factory, and a chunk may run in a forked worker
    process (when the run pools: two or more chunks, replications times
    n at least POOL_MIN_WORK, two or more usable CPUs): there the
    factory's and the tracker's side effects stay in the worker, and
    only the arrays of result() come back."""

    needs_singletons = False
    # split(rows, x_before, y_before, k, dy, t_new) -> bool array, or None
    split = None

    def begin(self, size: int, n: int, rng: np.random.Generator) -> None:
        raise NotImplementedError

    def observe(self, rows, x_before, y_before, k, dy,
                t_new) -> np.ndarray | None:
        """One jump of the live lanes `rows` (replication indices within
        the chunk): block count X and singleton count Y before the jump,
        merger size K, singletons absorbed dY, and the time t_new of the
        jump, which ends the holding interval of X and Y.  Returns None,
        or one bool per lane of `rows`: True while the tracker still
        reads the lane after this jump."""
        raise NotImplementedError

    def result(self) -> dict[str, np.ndarray]:
        raise NotImplementedError


class MarkedLeafTracker(ChunkTracker):
    """External branch lengths of k distinct tagged leaves.

    An unabsorbed tagged leaf is a singleton block, and the K merging
    blocks, a uniform K-subset of the X current blocks, take it with
    probability K/X.  Each jump draws k uniforms per live lane, one per
    mark, and decides the unabsorbed marks in mark order by the
    without-replacement rule of `sim._in_uniform_subset`, which dY's pair
    rule shares: mark j goes when u_j (X - seen) < K - taken, where seen
    counts the unabsorbed marks decided before it at this jump and taken
    those of them that went.  So no singleton count is read.  When another
    tracker makes the run draw dY, the absorbed singletons are a uniform
    dY-subset of the Y singletons, and the marks are decided against
    (dY, Y) in place of (K, X), so that they agree with the run's paths.
    `_absorbed` names the rule, so that a subclass can replace it.
    """

    def __init__(self, k: int = 1):
        self.k = _count_arg(k, "k", 1)

    def begin(self, size, n, rng):
        if self.k > n:
            raise ValueError("cannot mark more leaves than the sample has")
        self.rng = rng
        self.lengths = np.zeros((size, self.k))
        self.alive = np.ones((size, self.k), dtype=bool)

    def observe(self, rows, x_before, y_before, k, dy, t_new):
        u = self.rng.random((self.k, rows.size))
        num, den = (k, x_before) if dy is None else (dy, y_before)
        alive = self.alive.take(rows, 0).T
        for mark, hit in enumerate(self._absorbed(u, alive, num, den)):
            lane = hit.nonzero()[0]
            if lane.size:
                sub = rows[lane]
                self.lengths[sub, mark] = t_new[lane]
                self.alive[sub, mark] = False
                alive[mark, lane] = False
        return alive.any(0)

    _absorbed = staticmethod(_in_uniform_subset)

    def result(self):
        return {"marked_lengths": self.lengths}


class TopLengthsTracker(ChunkTracker):
    """The ell largest external lengths, sorted descending.  Lengths
    arrive in increasing order, so the (j+1)-th longest is the time of the
    jump that takes the singleton count from above j to at most j; a lane
    touches its row only on the jumps that end below ell singletons."""

    needs_singletons = True

    def __init__(self, ell: int):
        self.ell = _count_arg(ell, "ell", 1)

    def begin(self, size, n, rng):
        if self.ell > n:
            raise ValueError("cannot track more lengths than the sample "
                             "has leaves")
        self.top = np.zeros((size, self.ell))
        self.slots = np.arange(self.ell)

    def split(self, rows, x_before, y_before, k, dy, t_new):
        return y_before - dy < np.minimum(y_before, self.ell)

    def observe(self, rows, x_before, y_before, k, dy, t_new):
        y_after = y_before - dy
        hit = np.nonzero(y_after < np.minimum(y_before, self.ell))[0]
        if not hit.size:
            return
        fill = ((self.slots >= y_after[hit, None])
                & (self.slots < y_before[hit, None]))
        sub = rows[hit]
        self.top[sub] = np.where(fill, t_new[hit, None], self.top[sub])

    def result(self):
        return {"top_lengths": self.top}


class _HeldAtTimesTracker(ChunkTracker):
    """A count read at fixed times: a time gets the value held just before
    the first jump later than it, recorded at that jump.
    Times below 0 precede every interval and keep their initial value, as
    do times beyond absorption.  Jump times increase along a lane, so each
    lane meets the times in sorted order and keeps the next one it has not
    passed: a jump costs one comparison per lane, however many times.
    A subclass names its output by `key`."""

    def __init__(self, times):
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1:
            raise ValueError(f"times must be a 1-d sequence, got "
                             f"{self.times.ndim} dimensions")
        if np.isnan(self.times).any():
            raise ValueError("times must not be NaN")

    def _start(self, size: int, initial: np.ndarray) -> None:
        self.values = np.tile(initial.astype(np.int64), (size, 1))
        self.order = np.argsort(self.times, kind="stable")
        self.queue = np.append(self.times[self.order], np.inf)
        self.passed = np.full(size, np.searchsorted(self.queue, 0.0))
        self.upcoming = self.queue[self.passed]

    def split(self, rows, x_before, y_before, k, dy, t_new):
        # a lane whose next time comes before the pair's end reads the
        # count held between its two jumps
        return self.upcoming[rows] < t_new

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
        return {self.key: self.values}


class ThresholdCountTracker(_HeldAtTimesTracker):
    """Number of external lengths strictly exceeding each threshold: the
    singleton count held at the threshold (n for a negative threshold,
    0 beyond absorption)."""

    needs_singletons = True
    key = "exceed_counts"

    def begin(self, size, n, rng):
        self._start(size, np.where(self.times < 0, n, 0))

    def observe(self, rows, x_before, y_before, k, dy, t_new):
        self._record(rows, y_before, t_new)


class BlockCountAtTimesTracker(_HeldAtTimesTracker):
    """Right-continuous block count sampled at fixed absolute times."""

    key = "blocks_at"

    def __init__(self, times):
        super().__init__(times)
        if np.any(self.times < 0):
            raise ValueError("query times must be nonnegative")

    def begin(self, size, n, rng):
        # 1 is the block count from absorption onward
        self._start(size, np.ones(len(self.times)))

    def observe(self, rows, x_before, y_before, k, dy, t_new):
        self._record(rows, x_before, t_new)


class LevelCrossingTracker(ChunkTracker):
    """First passage of the block count to <= r_level: jump index, absolute
    time, and sum of 1/X over the states visited strictly before.  At
    r_level = 1 the passage is absorption: the jump count and absorption
    time of each path."""

    def __init__(self, r_level: float):
        self.r_level = _check_level(r_level)

    def begin(self, size, n, rng):
        self.inv_sum = np.zeros(size)
        self.time = np.zeros(size)
        self.jumps = np.zeros(size, dtype=np.int64)
        self.crossed = np.full(size, n <= self.r_level)

    def observe(self, rows, x_before, y_before, k, dy, t_new):
        reading = ~self.crossed[rows]
        act = reading.nonzero()[0]
        if not act.size:
            return reading
        sub = rows[act]
        x_act = x_before[act]
        self.inv_sum[sub] += 1.0 / x_act
        self.jumps[sub] += 1
        lanes = act[(x_act - k[act] + 1 <= self.r_level).nonzero()[0]]
        went = rows[lanes]
        self.time[went] = t_new[lanes]
        self.crossed[went] = True
        reading[lanes] = False
        return reading

    def result(self):
        return {"crossing_inv_sum": self.inv_sum, "crossing_time": self.time,
                "crossing_jumps": self.jumps}


class PathRecorder(ChunkTracker):
    """Every jump of every replication, returned as one CoalescentPath per
    replication (an object array) for per-path functionals.

    A path makes at most n - 1 jumps, so each replication gets rows of
    that length, written jump by jump; the operating system commits
    memory only for the pages written, so memory grows with the jumps
    actually made and is never copied at the end.  A pooled run pickles
    every path's arrays back from its workers: kingman n = 1000 with 2048
    replications took 0.35 s pooled against 0.21 s in order on 2 vCPUs,
    so it serves single paths and small runs."""

    needs_singletons = True

    def begin(self, size, n, rng):
        self.n = n
        self.jumps = np.zeros(size, dtype=np.int64)
        self.x, self.k, self.dy = (np.empty((size, n - 1), dtype=np.int64)
                                   for _ in range(3))
        self.t = np.empty((size, n - 1))

    def observe(self, rows, x_before, y_before, k, dy, t_new):
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
        return {"paths": paths}


def _second_jump(sampler: MergerSizeSampler, rng: np.random.Generator,
                 trackers, rows, x, y, k, t_new) -> tuple:
    """The rest of a lockstep iteration that takes two jumps, after the
    first jump's K = k and time t_new: K2 and W2 on the lanes with two or
    more blocks left, the pair's singleton loss in one draw
    (`sim._draw_pair_loss`), and its split into the two jumps' losses on
    the lanes that some tracker splits, which are shown their first jump
    here.  Returns the jump every lane is shown last, (x_before,
    y_before, K, dY, t_new): the second jump where the pair was split,
    the pair as one jump elsewhere."""
    x1 = x - k + 1
    second = (x1 > 1).nonzero()[0]
    k2 = np.ones_like(k)        # no second jump: a merger of one block
    t2 = t_new.copy()
    if second.size:
        if second.size == x1.size:      # views of every lane, no copies
            second = slice(None)
        lam, k2[second] = sampler.sample_step(rng, x1[second])
        t2[second] += rng.standard_exponential(lam.size) / lam
    m, dy = _draw_pair_loss(rng, x, y, k, k2, second)
    joined = k + k2 - 1
    reads = trackers[0].split(rows, x, y, joined, dy, t2)
    for tr in trackers[1:]:
        reads = reads | tr.split(rows, x, y, joined, dy, t2)
    split = reads & (k2 > 1)
    lanes = split.nonzero()[0]
    if not lanes.size:
        return x, y, joined, dy, t2
    first = np.zeros_like(dy)
    first[lanes] = _hypergeometric_loss(rng, m[lanes], dy[lanes], k[lanes])
    for tr in trackers:
        tr.observe(rows[lanes], x[lanes], y[lanes], k[lanes], first[lanes],
                   t_new[lanes])
    return (np.where(split, x1, x), y - first, np.where(split, k2, joined),
            dy - first, t2)


def _run_chunk(sampler: MergerSizeSampler, n: int, size: int, seed: int,
               stream: int, factories) -> dict[str, np.ndarray]:
    rng = _make_rng(seed, stream)
    trackers = [f() for f in factories]
    for tr in trackers:
        tr.begin(size, n, rng)
    needs_dy = any(tr.needs_singletons for tr in trackers)
    # whether an iteration whose dY takes the whole-lane hypergeometric
    # takes a second jump (ChunkTracker.split)
    pairs = needs_dy and all(tr.split is not None for tr in trackers)
    # State of the live lanes only, aligned with `rows`; lanes that reach
    # one block, or that no tracker still reads, are dropped from all
    # of it at once.
    rows = np.arange(size)
    x = np.full(size, n, dtype=np.int64)
    y = np.full(size, n, dtype=np.int64) if needs_dy else None
    t = np.zeros(size)
    dy = None
    while rows.size:
        lam, k = sampler.sample_step(rng, x)
        t_new = t + rng.standard_exponential(rows.size) / lam
        if needs_dy:
            dy = _draw_singleton_loss(rng, x, y, k, pairs)
            if dy is None:
                x, y, k, dy, t_new = _second_jump(sampler, rng, trackers,
                                                  rows, x, y, k, t_new)
        # the lanes some tracker still reads; None when one reads them all
        reading = trackers[0].observe(rows, x, y, k, dy, t_new)
        for tr in trackers[1:]:
            mask = tr.observe(rows, x, y, k, dy, t_new)
            if reading is not None:
                reading = None if mask is None else reading | mask
        x -= k - 1
        t = t_new
        if needs_dy:
            y = y - dy
        live = x > 1
        if reading is not None:
            live &= reading
        # count_nonzero: 0.4-0.8 us against 1.1-1.3 us for live.all() at
        # 100 to 2048 lanes
        if np.count_nonzero(live) < live.size:
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
    sampler, n, plan, seed, factories = _JOB
    size, stream = plan[chunk]
    return _run_chunk(sampler, n, size, seed, stream, factories)


def _run_pooled(job, workers: int) -> list[dict[str, np.ndarray]] | None:
    """Every chunk of `job` on a fork pool, in chunk order; None where the
    platform cannot fork or this process is a daemon, such as a worker of
    another pool, which may not start processes."""
    import multiprocessing   # only here: its import cost is paid per pool

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return None
    plan = job[2]
    with multiprocessing.get_context("fork").Pool(
            workers, initializer=_adopt, initargs=(job,)) as pool:
        return pool.map(_pooled_chunk, range(len(plan)), chunksize=1)


def run_ensemble(rates, n: int, reps: int, seed: int, tracker_factories,
                 sub_run: int = 0) -> dict[str, np.ndarray]:
    """Simulate `reps` paths of size n, returning each tracker's arrays
    concatenated in replication order.  `rates` may be a RateFunctions
    instance or the underlying measure; `seed` is an integer in
    [0, 2**64), and chunk c runs on the key (seed, sub_run * 2**32 + c)."""
    n = _count_arg(n, "n", 2)
    reps = _count_arg(reps, "reps", 1)
    seed = _count_arg(seed, "seed", 0, 2 ** 64)
    sub_run = _count_arg(sub_run, "sub_run", 0, 2 ** 32)
    factories = tuple(tracker_factories)
    if not factories:
        raise ValueError("need at least one tracker factory")
    sampler = MergerSizeSampler(as_rate_functions(rates), n)
    work = reps * n
    chunks = -(-reps // MAX_LANES)
    if reps > MAX_LANES // 4 and work >= POOL_MIN_WORK:
        chunks = max(chunks, 2)
    # (size, key word) of each chunk: near-equal sizes, the larger first
    plan = [((reps + chunks - 1 - c) // chunks, (sub_run << 32) + c)
            for c in range(chunks)]
    workers = min(chunks, _usable_cpus())
    parts = None
    if workers > 1 and work >= POOL_MIN_WORK:
        parts = _run_pooled((sampler, n, plan, seed, factories), workers)
    if parts is None:
        parts = [_run_chunk(sampler, n, size, seed, stream, factories)
                 for size, stream in plan]
    return {name: np.concatenate([p[name] for p in parts])
            for name in parts[0]}
