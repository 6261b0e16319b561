"""Paths of the block and singleton counting processes.

A path starts from n blocks, all singletons.  While b > 1 blocks remain:
draw the waiting time W ~ Exp(lam(b)), the merger size K from the embedded
chain P(K = k) proportional to C(b,k) lam(b,k), and the number dY of current
singletons swallowed by the merger, which given (b, Y, K) is hypergeometric
(the K merging blocks are a uniform K-subset).  The external branch length
of a leaf is the absolute time at which its singleton block disappears, so
the multiset of external lengths is exactly {(t_jump, dY)} expanded.
`MergerSizeSampler` draws K and reads lam(b) from tables of the rates in
`rates`.

Paths are simulated by the lockstep engine in `ensemble`; `simulate_path`
runs it with one replication and records every jump.  RNG is counter-based
(Philox keyed by the seed) and the draw order per lockstep step is fixed,
so a (measure, n, seed) triple pins the path bit for bit:

1. K for every live lane: a mixture first draws one selection uniform per
   lane, then each component draws for its lanes in component order; a
   measure with one component draws no selection uniform.  A power-beta
   rejection round draws its uniforms as one block, row by row: the
   one-piece round a (2, lanes) block, every lane's proposal uniform
   before every acceptance uniform, the stream order of one call for the
   proposals followed by one for the acceptances; the two-piece round a
   (3, lanes) block.  A Pitman round draws, in lane order, a beta per
   lane (densities only), a binomial per lane, then a uniform per lane
   on the pair route;
2. W, one standard exponential per lane;
3. dY, when some tracker reads the singletons (`_draw_singleton_loss`):
   when every live lane has K = 2, or at least _PAIR_DRAW_LANES do, two
   uniforms per lane, all lanes' first before their second, also for
   lanes with no singletons left, then numpy's hypergeometric draw of
   the other K - 2 merging blocks over the K >= 3 lanes; otherwise the
   hypergeometric draw over all lanes, unless every tracker can split a
   pair of jumps (`ensemble.ChunkTracker`).  Then the iteration takes a
   second jump in its place: K2 for the lanes left with X1 >= 2 blocks,
   drawn as in step 1, W2, one standard exponential per such lane, one
   uniform per such lane, which decides whether the block the first
   merger formed is among the second's K2, the pair's loss D over all
   lanes in lane order (`_draw_pair_loss`), and last, in lane order over
   the lanes that some tracker splits, the first jump's share of D;
4. each tracker's own draws, in tracker order (`MarkedLeafTracker`: one
   uniform per mark and live lane).

A lane is live until it reaches one block or, in a run whose trackers
can all finish with a lane, until no tracker still reads it (a
tagged-leaf run: once the lane's marks are absorbed).  A retired lane
draws nothing in any of the four steps.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy import special

from .measure import LambdaMeasure, PowerBetaDensity
from .rates import RateFunctions, _count_arg, rates_for

DEFAULT_SEED = 123456789

# A scalar hypergeometric call costs about 1.2 us a lane, an array call
# about 25 us whatever its length (one CPU of a 2-vCPU Xeon VM); below
# this many lanes the scalar loop wins.  It pays most on a single path,
# where every step has one lane: simulate_path at n = 1e4 takes 0.026 s
# for Bolthausen-Sznitman and 0.124 s for beta:0.5,1.5 with it, 0.040 s
# and 0.151 s without.  A wide chunk meets it only in its narrow tail: a
# 2048-lane power-beta a = 0.5 T1.5 chunk at n = 1e4 took 1.150 s with it
# and 1.169 s without, a 500-lane Bolthausen-Sznitman chunk at n = 1e5
# 0.99 s and 1.06 s (medians of 8 alternated runs).
_SCALAR_DRAW_LANES = 20

# From this many K = 2 lanes on, a step whose K are mixed decides the
# first two merging blocks of every lane by the pair rule and draws only
# the other K - 2 of its K >= 3 lanes by the hypergeometric
# (`_draw_singleton_loss`).  Below it the whole-lane hypergeometric is
# cheaper, up to 1023 the two are a draw, and from 1024 on the pair rule
# first is cheaper.  Cost of one dY call in us, hypergeometric on all
# lanes -> pair rule first, over the mixed calls of one chunk of T1.5 at
# n = 1e4 (1e5 for Bolthausen-Sznitman) grouped by their count of K = 2
# lanes; each call's fastest of 7, the two interleaved, averaged over
# the group, on one CPU of a 2-vCPU Xeon VM whose speed drifts between
# the two runs:
#
#   measure                  lanes  K = 2 lanes    run 1      run 2
#   powerbeta a=0.5, b=1      2048  1536-2047    196  170   191  170
#   powerbeta a=0.5, b=1      2048  1024-1535    193  172   167  146
#   powerbeta a=0.5, b=1      2048   768-1023    129  127    86   78
#   powerbeta a=0.5, b=1      2048   512-767     104  112    64   64
#   powerbeta a=0.5, b=1      2048   384-511      88  102    51   56
#   powerbeta a=0.5, b=1      1000   640-895      81   77   119  120
#   powerbeta a=0.5, b=1      1000   512-639      78   82   103  110
#   powerbeta a=0.5, b=1       512   384-511      51   57    54   60
#   bolthausen-sznitman       1000   512-639     104  104   119  121
#   bolthausen-sznitman       1000   384-511     112  117    96   97
#   bolthausen-sznitman        500   128-255      72   84    66   79
_PAIR_DRAW_LANES = 512

# Entries per block when the sampler fills its tables: 128 kB per
# temporary (65_536 took 1.7 MB more peak memory, and no less time).
_TABLE_BLOCK = 16_384


def _check_level(r_level):
    """A block-count level: a real number >= 1, not a bool or NaN."""
    if (isinstance(r_level, bool) or not isinstance(r_level, numbers.Real)
            or not r_level >= 1):
        raise ValueError(f"r_level must be a number >= 1, got {r_level!r}")
    return r_level


def _make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The Philox stream keyed by the two key words (seed, stream); a seed
    is an integer in [0, 2**64), the range of a key word.  Stream 0 is the
    stream `Philox(key=seed)` gives."""
    key = np.array([_count_arg(seed, "seed", 0, 2 ** 64), stream],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def as_rate_functions(source) -> RateFunctions:
    """Accept either a RateFunctions instance or a plain measure."""
    if isinstance(source, RateFunctions):
        return source
    if isinstance(source, LambdaMeasure):
        return rates_for(source)
    raise TypeError("expected RateFunctions or LambdaMeasure, "
                    f"got {type(source).__name__}")


# ---------------------------------------------------------------------------
# merger-size sampling, vectorized over replications with unequal b

class MergerSizeSampler:
    """Draws (total rate, merger size) for arrays of block counts.

    Each component of the measure is a kind, a table of its own total
    rate over B <= max_blocks from `RateFunctions.component_rates`, and
    its own draw of K; `strategy` joins the kinds.  Each lane, with B
    blocks, picks a component in proportion to its share of lam(B).
    Power-beta components have density c p**(a-1) (1-p)**(b-1):

    * ``kingman`` (mass at 0): K = 2;
    * ``uniform`` (power-beta a = b = 1, Bolthausen-Sznitman): exact
      inverse CDF;
    * ``powerbeta`` (power-beta with a < 3, which covers the
      Beta(2-alpha, alpha) coalescents): C(B,k) lam(B,k) = const(B) g(k)
      h(B-k) with g(k) = Gamma(a+k-2)/k!, decreasing for a < 3, and
      h(j) = Gamma(b+j)/j!.  For b >= 1, h is nondecreasing: K is proposed
      from g truncated at B by one global prefix table indexed by B (a
      lane whose target falls in its first entry takes K = 2 without a
      search) and accepted with probability h(B-K)/h(B-2).  For b = 1, h
      is constant: every proposal is accepted, no acceptance uniform is
      drawn, and the rate table is const(B) prefix[B], which normalises
      the draw, in place of the closed form (up to 1e-10 relative apart
      for B <= 1e4, 1e-8 for B <= 1e6).  For b < 1, h decreases too, and
      the envelope has two pieces split at m = max(floor(B/2), 2): K <= m
      proposed from g's table and accepted with h(B-K)/h(B-m), and
      j = B-K < B-m proposed from a prefix table of h and accepted with
      g(K)/g(m+1).  Each round draws a selection uniform, which picks a
      piece in proportion to its envelope mass, then a proposal and an
      acceptance uniform;
    * ``pitman`` (interior atoms, and power-beta with a >= 3, where g
      does not decrease): Pitman's (1999) Poisson construction, as
      C(B,k) lam(B,k) is the integral of C(B,k) p**k (1-p)**(B-k) against
      Lambda(dp)/p**2.  R is the mass of Lambda/p**2 over that of Lambda
      (1/p**2, or (a+b-1)(a+b-2)/((a-1)(a-2))).  Lanes with C(B,2) < R
      take the pair route: p from Lambda (the atom's p, or Beta(a, b)),
      K = 2 + Binomial(B-2, p), accepted with probability 2/(K(K-1)).
      The others draw p from Lambda/p**2 (or Beta(a-2, b)) and
      K ~ Binomial(B, p), redrawn while K < 2.  Each lane so takes the
      route of larger acceptance: on average at most 2.43 rounds per
      draw for an atom, 4.0 for a >= 3 (B = 3 to 1e6, b = 0.002 to 1000).

    The b < 1 and ``pitman`` draws give K = 2 at B = 2 without drawing.
    """

    def __init__(self, rates: RateFunctions, max_blocks: int):
        measure = rates.measure
        size = _count_arg(max_blocks, "max_blocks", 2) + 1
        rate_fns = rates.component_rates()
        self._rate_tables = np.zeros((len(rate_fns), size))
        rows = iter(self._rate_tables)
        # (kind, rate table, draw(rng, b) -> K), in the order of the rows
        self._components: list[tuple] = []
        if measure.atom_at_zero:
            self._components.append(("kingman", next(rows), _pair_draw))
        for (p, _), rate in zip(measure.atoms, rows):
            self._components.append(
                ("pitman", rate, partial(_pitman_draw, None, p ** -2.0, p)))
        for dens, rate in zip(measure.densities, rows):
            a, b = dens.a, dens.b
            if a == 1.0 and b == 1.0:
                comp = ("uniform", rate, _uniform_draw)
            elif a >= 3.0:
                ratio = (a + b - 1.0) * (a + b - 2.0) / ((a - 1.0) * (a - 2.0))
                comp = ("pitman", rate,
                        partial(_pitman_draw, (a, b), ratio, None))
            else:
                tables = _powerbeta_tables(dens, rate)
                if b == 1.0:    # the rate table is filled already
                    rate_fns[len(self._components)] = None
                comp = ("powerbeta", rate, partial(_powerbeta_draw, *tables))
            self._components.append(comp)
        for lo in range(2, size, _TABLE_BLOCK):
            bs = np.arange(float(lo), float(min(lo + _TABLE_BLOCK, size)))
            for rate, rate_fn in zip(self._rate_tables, rate_fns):
                if rate_fn is not None:
                    rate[lo:lo + bs.size] = rate_fn(bs)

    @property
    def strategy(self) -> str:
        """The component kinds joined by ``+``."""
        return "+".join(dict.fromkeys(comp[0] for comp in self._components))

    def sample_step(self, rng: np.random.Generator,
                    b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lam(b), K) for an int64 array of current block counts >= 2."""
        if len(self._components) == 1:
            # no mixture: no selection uniform, every lane draws K here
            _, rate, draw = self._components[0]
            return rate[b], draw(rng, b)
        per_comp = self._rate_tables[:, b]
        lam = per_comp.sum(axis=0)
        u = rng.random(b.shape) * lam
        which = (np.cumsum(per_comp, axis=0) < u).sum(axis=0)
        which = np.minimum(which, len(self._components) - 1)
        k_out = np.full(b.shape, 2, dtype=np.int64)
        for ci, (_, _, draw) in enumerate(self._components):
            rows = np.nonzero(which == ci)[0]
            if rows.size:
                k_out[rows] = draw(rng, b[rows])
        return lam, k_out


def _powerbeta_tables(dens: PowerBetaDensity, rate: np.ndarray) -> tuple:
    """(prefix, log_h, log_h_lag, g_at, h_prefix) of the ``powerbeta``
    draw for block counts below rate.size, and for b = 1 the rate table
    const(B) prefix[B], which normalises the draw.  prefix is indexed by
    B: prefix[B] = sum_{k=2}^{B} g(k), so P(K <= j | B) under the
    proposal is prefix[j]/prefix[B] and one table serves all B; its two
    leading entries are -inf, so a search of t >= 0 returns K itself.
    log_h[j] = log h(j) and log_h_lag[B] = log h(B-2) are two views of
    one array whose two leading entries are -inf (h vanishes below 0);
    both are None for b = 1.  g_at[k] = g(k) and h_prefix[j] =
    sum_{i=0}^{j} h(i) serve the b < 1 draw, None otherwise.  Blocks of
    _TABLE_BLOCK entries keep the temporaries small; each block's first g
    (and h) carries the sum so far, so cumsum makes the same additions in
    the same order as over the whole array."""
    size = rate.size
    two_piece = dens.b < 1.0
    prefix = np.empty(size)
    prefix[:2] = -np.inf
    log_h = log_h_lag = None
    if dens.b != 1.0:
        padded = np.empty(size + 2)
        padded[:2] = -np.inf
        log_h, log_h_lag = padded[2:], padded[:size]
    g_at = np.empty(size) if two_piece else None
    h_prefix = np.empty(size) if two_piece else None
    total = h_total = 0.0
    for lo in range(0, size, _TABLE_BLOCK):
        hi = min(lo + _TABLE_BLOCK, size)
        js = np.arange(float(lo), float(hi))
        log_fact = special.gammaln(js + 1.0)    # log j!
        if log_h is not None:
            log_h[lo:hi] = special.gammaln(dens.b + js) - log_fact
        if two_piece:
            h = np.exp(log_h[lo:hi])
            h[0] += h_total
            h_total = np.cumsum(h, out=h_prefix[lo:hi])[-1]
        first = max(lo, 2)
        ks, log_fact = js[first - lo:], log_fact[first - lo:]
        g = np.exp(special.gammaln(dens.a + ks - 2.0) - log_fact)
        if two_piece:
            g_at[first:hi] = g
        g[0] += total
        part = np.cumsum(g, out=prefix[first:hi])
        total = part[-1]
        if log_h is None:
            rate[first:hi] = dens.c * np.exp(
                log_fact - special.gammaln(dens.a + ks - 1.0)) * part
    return prefix, log_h, log_h_lag, g_at, h_prefix


# ---------------------------------------------------------------------------
# merger-size draws: draw(rng, b) -> K for an int64 array of block counts

def _pair_draw(rng: np.random.Generator, b: np.ndarray) -> np.ndarray:
    return np.full(b.shape, 2, dtype=np.int64)


def _uniform_draw(rng: np.random.Generator, b: np.ndarray) -> np.ndarray:
    bb = b.astype(float)
    u = rng.random(b.shape)
    raw = np.ceil(1.0 / (1.0 - u * (bb - 1.0) / bb))
    return np.minimum(np.maximum(raw, 2.0), bb).astype(np.int64)


def _powerbeta_draw(prefix, log_h, log_h_lag, g_at, h_prefix,
                    rng: np.random.Generator, b: np.ndarray) -> np.ndarray:
    if log_h is None:       # b = 1: every proposal is accepted
        return _propose(prefix, rng.random(b.shape), b)
    if h_prefix is None:
        return _redraw_until_accepted(
            _one_piece_round, (prefix, log_h, log_h_lag, rng), b, None)
    return _redraw_until_accepted(
        _two_piece_round, (prefix, log_h, g_at, h_prefix, rng), b,
        np.nonzero(b > 2)[0])


def _propose(prefix, u: np.ndarray, top: np.ndarray) -> np.ndarray:
    """K from g truncated at top by a search of the B-indexed prefix
    table, for lanes with one uniform u each.  For u < 1, t = u
    prefix[top] <= prefix[top], and t >= 0 > prefix[1], so the search
    returns K in [2, top] without a clamp.  Most lanes have t <=
    prefix[2], where the search would return 2; only the others search."""
    t = u * prefix[top]
    wide = (t > prefix[2]).nonzero()[0]
    k = np.empty(t.shape, dtype=np.int64)   # np.full costs 1 us more
    k.fill(2)
    k[wide] = prefix.searchsorted(t[wide])
    return k


def _one_piece_round(prefix, log_h, log_h_lag, rng: np.random.Generator,
                     bb):
    # proposal row, then acceptance row, indexed: unpacking costs more
    uv = rng.random((2, bb.size))
    k = _propose(prefix, uv[0], bb)
    return k, uv[1] > np.exp(log_h[bb - k] - log_h_lag[bb])


def _two_piece_round(prefix, log_h, g_at, h_prefix,
                     rng: np.random.Generator, bb):
    m = np.maximum(bb // 2, 2)
    low = prefix[m] * np.exp(log_h[bb - m])       # K <= m
    high = g_at[m + 1] * h_prefix[bb - m - 1]     # K > m
    pick, u, v = rng.random((3, bb.size))
    is_low = pick * (low + high) < low
    k = np.where(is_low, _propose(prefix, u, m),
                 bb - np.searchsorted(h_prefix, u * h_prefix[bb - m - 1]))
    ratio = np.where(is_low, np.exp(log_h[bb - k] - log_h[bb - m]),
                     g_at[k] / g_at[m + 1])
    return k, v > ratio


def _pitman_draw(shapes, ratio: float, p, rng: np.random.Generator,
                 b: np.ndarray) -> np.ndarray:
    return _redraw_until_accepted(_pitman_round, (shapes, ratio, p, rng), b,
                                  np.nonzero(b > 2)[0])


def _pitman_round(shapes, ratio: float, p, rng: np.random.Generator, bb):
    pair = bb * (bb - 1) < 2.0 * ratio      # C(B, 2) < R: the pair route
    if shapes is not None:      # p from Beta(a, b), or Beta(a - 2, b)
        a, b = shapes
        p = rng.beta(np.where(pair, a, a - 2.0), b)
    k = rng.binomial(bb - 2 * pair, p) + 2 * pair
    rejected = k < 2
    if pair.any():
        kp = k[pair]
        rejected[pair] = rng.random(kp.size) * (kp * (kp - 1)) >= 2.0
    return k, rejected


def _redraw_until_accepted(one_round, args: tuple, b: np.ndarray,
                           todo: np.ndarray | None) -> np.ndarray:
    """K for lanes with block counts b from rounds of one_round(*args,
    block counts) -> (K, rejected), each over the lanes the round before
    rejected.  With todo None the first round runs on every lane, on b
    itself; otherwise on the lanes in `todo`, and the others take 2."""
    if todo is None:
        k, rejected = one_round(*args, b)
        todo = rejected.nonzero()[0]
    else:
        k = np.full(b.shape, 2, dtype=np.int64)
    while todo.size:
        k[todo], rejected = one_round(*args, b[todo])
        todo = todo[rejected]
    return k


# ---------------------------------------------------------------------------
# singleton losses

def _draw_singleton_loss(rng: np.random.Generator, b: np.ndarray,
                         y: np.ndarray, k: np.ndarray,
                         pairs: bool = False) -> np.ndarray | None:
    """dY for each lane: how many of the K merging blocks, a uniform
    K-subset of the b current blocks, are among the y singletons
    (hypergeometric).  b, y and k are int64 arrays, one entry per lane.

    When every lane has K = 2, or at least _PAIR_DRAW_LANES lanes do,
    the pair rule decides the first two merging blocks of every lane:
    `_in_uniform_subset` against the y singletons out of the b blocks,
    with one (2, lanes) block of uniforms, all first uniforms before all
    second ones, also for lanes with no singletons left.  numpy's
    hypergeometric then draws the other K - 2 blocks of the K >= 3
    lanes, in lane order, from the b - 2 blocks left, y - taken of them
    singletons; it consumes nothing for a lane with none left.  A
    narrower mixed step draws every lane by the hypergeometric, or, with
    `pairs` set, draws nothing and returns None: the caller then takes
    the step as the first jump of a pair (`_draw_pair_loss`).

    Below _SCALAR_DRAW_LANES lanes the hypergeometric is drawn as one
    scalar call per lane, in lane order: the same draws from the same
    stream, without the array call's fixed cost of checking its
    arguments."""
    lanes = y.size
    pair = k == 2
    count = np.count_nonzero(pair)
    if count < lanes and count < _PAIR_DRAW_LANES:
        return None if pairs else _hypergeometric_loss(rng, b, y, k)
    first, second = _in_uniform_subset(rng.random((2, lanes)), None, y, b)
    dy = np.add(first, second, dtype=np.int64)
    if count < lanes:
        rest = (~pair).nonzero()[0]
        dy[rest] += _hypergeometric_loss(rng, b[rest] - 2,
                                         y[rest] - dy[rest], k[rest] - 2)
    return dy


def _draw_pair_loss(rng: np.random.Generator, b: np.ndarray,
                    y: np.ndarray, k: np.ndarray, k2: np.ndarray,
                    second) -> tuple[np.ndarray, np.ndarray]:
    """(M, D) of two jumps taken as a pair: M of the b blocks before the
    pair are taken by either merger, a uniform M-subset of them, and D of
    those are among the y singletons (hypergeometric, in lane order).
    The first merger takes k blocks, the second k2 of the b - k + 1 left,
    and `second` (an index array or a slice) picks the lanes that take a
    second jump; the others have k2 = 1 and M = k.  The block the first
    merger forms is among the second's k2 with probability
    k2 / (b - k + 1), decided by one uniform per lane of `second`, in
    lane order, and M = k + k2 - 1 when it is, k + k2 otherwise.  Given
    D, the first jump's loss is hypergeometric, its k blocks a uniform
    k-subset of the M: `_hypergeometric_loss(rng, M, D, k)`."""
    m = k + k2 - 1
    k2 = k2[second]
    if k2.size:
        # the first merger's block is left out of the second merger
        left_out = rng.random(k2.size) * (b[second] - k[second] + 1) >= k2
        m[second] += left_out
    return m, _hypergeometric_loss(rng, b, y, m)


def _in_uniform_subset(u, alive, num, den) -> list[np.ndarray]:
    """Which of len(u) distinct items of a pool of `den` per lane fall in
    a uniform num-subset of it, one bool row per item.  Decided
    in turn, without replacement, item j is taken when u_j (den - seen) <
    num - taken, seen counting the items decided before it and taken
    those of them taken; each comparison is exact up to one point of the
    2**-53 grid.  u holds one row of uniforms per item; `alive` (items x
    lanes), unless None, marks the undecided items, and the others are
    neither taken, seen nor counted."""
    hits = []
    for j in range(len(u)):
        if j:
            den = den - (1 if alive is None else alive[j - 1])
            num = num - hit
        hit = u[j] * den < num
        if alive is not None:
            hit &= alive[j]
        hits.append(hit)
    return hits


def _hypergeometric_loss(rng: np.random.Generator, b, y,
                         k) -> np.ndarray:
    """dY by numpy's hypergeometric draw, lane by lane below
    _SCALAR_DRAW_LANES lanes."""
    if len(y) < _SCALAR_DRAW_LANES:
        lanes = zip(y.tolist(), (b - y).tolist(), k.tolist())
        return np.array([rng.hypergeometric(*lane) for lane in lanes],
                        dtype=np.int64)
    return rng.hypergeometric(y, b - y, k)


# ---------------------------------------------------------------------------
# path containers

@dataclass(frozen=True, eq=False)
class ExternalLengths:
    """Sorted multiset of external branch lengths: values[i] occurs
    multiplicities[i] times; multiplicities sum to the sample size."""

    values: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != self.multiplicities.shape:
            raise ValueError("values and multiplicities must align")
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("values must be strictly increasing")
        if np.any(self.multiplicities < 1):
            raise ValueError("multiplicities are positive integers")

    @property
    def total(self) -> int:
        return int(self.multiplicities.sum())

    def dump_csv(self, stream) -> None:
        stream.write("length,multiplicity\n")
        for v, m in zip(self.values, self.multiplicities):
            stream.write(f"{float(v)!r},{int(m)}\n")


@dataclass(frozen=True, eq=False)
class CoalescentPath:
    """Full record of one run: per-jump state plus the seed that made it
    (None when the path is one replication of an ensemble run)."""

    n: int
    seed: int | None
    block_count_before: np.ndarray   # X_before, strictly decreasing from n
    merger_size: np.ndarray          # K, in [2, X_before]
    absorbed_singletons: np.ndarray  # dY
    jump_time: np.ndarray            # t_jump, strictly increasing from > 0

    def __post_init__(self) -> None:
        x, k = self.block_count_before, self.merger_size
        dy, t = self.absorbed_singletons, self.jump_time
        if not (len(x) == len(k) == len(dy) == len(t)):
            raise ValueError("jump arrays must align")
        if self.n < 2 or x[0] != self.n:
            raise ValueError("path must start at n >= 2 blocks")
        after = x - k + 1
        if np.any(x[1:] != after[:-1]) or after[-1] != 1:
            raise ValueError("block counts must chain down to 1")
        if np.any(k < 2) or np.any(k > x):
            raise ValueError("merger sizes must lie in [2, X_before]")
        if dy.sum() != self.n or np.any(dy < 0) or np.any(dy > k):
            raise ValueError("absorbed singletons must total n")
        if np.any(np.cumsum(dy) > self.n):
            raise ValueError("singleton count went negative")
        if not np.all(np.isfinite(t)) or np.any(self.waiting_time <= 0):
            raise ValueError("jump times must be finite and increase "
                             "strictly from 0")

    @property
    def waiting_time(self) -> np.ndarray:
        """W: holding time before each jump, the increments of jump_time."""
        return np.diff(self.jump_time, prepend=0.0)

    @property
    def num_jumps(self) -> int:
        return len(self.merger_size)

    def _blocks_after(self) -> np.ndarray:
        return self.block_count_before - self.merger_size + 1

    def external_lengths(self) -> ExternalLengths:
        keep = self.absorbed_singletons > 0
        return ExternalLengths(self.jump_time[keep],
                               self.absorbed_singletons[keep])

    def stopping_times(self, r_level: float) -> tuple[int, float]:
        """(rho, rho~): jump index and time of first reaching <= r_level
        blocks; (0, 0.0) when r_level >= n."""
        if _check_level(r_level) >= self.n:
            return 0, 0.0
        after = self._blocks_after()
        hits = np.nonzero(after <= r_level)[0]
        j = int(hits[0])  # nonempty: the path ends at 1 <= r_level
        return j + 1, float(self.jump_time[j])

    def conditional_factorial_moment(self, rho_index: int, r: int) -> float:
        """E[(Y_rho)_r | block chain] = (X_rho)_r prod_{j<=rho} (1 - r/X_j).

        Exact given the realized chain; 0 whenever r exceeds X_rho.
        """
        rho_index = _count_arg(rho_index, "rho_index", 0, self.num_jumps + 1)
        r = _count_arg(r, "r", 1)
        after = self._blocks_after()
        x_rho = self.n if rho_index == 0 else int(after[rho_index - 1])
        if r > x_rho:
            return 0.0
        value = 1.0
        for i in range(r):
            value *= x_rho - i
        for j in range(rho_index):
            value *= 1.0 - r / float(after[j])
        return value

    def dump_csv(self, stream) -> None:
        stream.write("j,X_before,K,dY,W,t_jump\n")
        for j in range(self.num_jumps):
            stream.write(f"{j},{self.block_count_before[j]},"
                         f"{self.merger_size[j]},{self.absorbed_singletons[j]},"
                         f"{float(self.waiting_time[j])!r},"
                         f"{float(self.jump_time[j])!r}\n")


# ---------------------------------------------------------------------------
# simulators

def simulate_path(rates, n: int, seed: int = DEFAULT_SEED) -> CoalescentPath:
    """One full trajectory from n blocks down to 1: a one-replication
    ensemble run whose only chunk is keyed by `seed` itself.  `rates` may
    be a RateFunctions instance or the underlying measure."""
    from .ensemble import PathRecorder, run_ensemble

    paths = run_ensemble(rates, n, 1, seed, [PathRecorder])["paths"]
    return replace(paths[0], seed=seed)
