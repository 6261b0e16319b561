"""Paths of the block and singleton counting processes.

A path starts from n blocks, all singletons.  While b > 1 blocks remain:
draw the waiting time W ~ Exp(lam(b)), the merger size K from the embedded
chain P(K = k) proportional to C(b,k) lam(b,k), and the number dY of current
singletons swallowed by the merger, which given (b, Y, K) is hypergeometric
(the K merging blocks are a uniform K-subset).  The external branch length
of a leaf is the absolute time at which its singleton block disappears, so
the multiset of external lengths is exactly {(t_jump, dY)} expanded.

Paths are simulated by the lockstep engine in `ensemble`; `simulate_path`
runs it with one replication and records every jump.  RNG is counter-based
(Philox keyed by the seed) and the draw order per lockstep step is fixed,
so a (measure, n, seed) triple pins the path bit for bit:

1. K for every live lane: a mixture first draws one selection uniform per
   lane, then each component draws for its lanes in component order; a
   measure with one component draws no selection uniform;
2. W, one standard exponential per lane;
3. dY, when some tracker reads the singletons: when every live lane has
   K = 2, two uniforms per lane, all lanes' first before their second,
   also for lanes with no singletons left (`_draw_singleton_loss`);
   otherwise numpy's hypergeometric draw over all lanes;
4. each tracker's own draws, in tracker order (`MarkedLeafTracker`: one
   uniform per mark and live lane).

The labeled simulator here is an independent oracle that tracks partitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .measure import LambdaMeasure, PowerBetaDensity
from .rates import RateFunctions, _log_binom, rates_for

DEFAULT_SEED = 123456789

_LABELED_MAX_N = 12

# A scalar hypergeometric call costs about 2.5 us, an array call about
# 50 us whatever its length; below this many lanes the scalar loop wins.
_SCALAR_DRAW_LANES = 20


def _is_integer(value) -> bool:
    """A Python or numpy integer; a bool is not one."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool))


def _check_seed(seed) -> int:
    """The seed as a Python int; anything but an integer in [0, 2**64),
    the range of a Philox key word, raises ValueError."""
    if not _is_integer(seed) or not 0 <= seed < 2 ** 64:
        raise ValueError("seed must be an integer in [0, 2**64)")
    return int(seed)


def _make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """The Philox stream keyed by the two key words (seed, stream).
    Stream 0 is the stream `Philox(key=seed)` gives."""
    key = np.array([_check_seed(seed), stream], dtype=np.uint64)
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

    The strategy is chosen once per measure and depends on the measure
    alone; `strategy` names it.  Power-beta components have density
    c p**(a-1) (1-p)**(b-1); B is a lane's block count.  When every
    component is recognized, each has closed-form rates and its own draw
    of K, and each lane picks a component in proportion to its share of
    lam(B):

    * ``kingman`` (mass at 0): rate B(B-1)/2, K = 2;
    * ``atom`` (interior atom): a short ratio walk up the binomial pmf;
    * ``uniform`` (power-beta a = b = 1, Bolthausen-Sznitman): exact
      inverse CDF;
    * ``powerbeta`` (power-beta with b > 1, a < 2, a != 1, which covers
      the Beta(2-alpha, alpha) coalescents, or b = 1, a not in {1, 2}):
      C(B,k) lam(B,k) = const(B) g(k) h(B-k) with g(k) = Gamma(a+k-2)/k!
      and h(j) = Gamma(b+j)/j!.  K is proposed from g truncated at B by one
      global prefix table and accepted with probability h(B-K)/h(B-2),
      which is at most 1 because h is nondecreasing for b >= 1.  The mean
      number of rounds is at most prefix[B-2]/g(2), bounded in B for
      a < 2.  For b = 1, h is constant: every proposal is accepted, no
      acceptance uniform is drawn and lam(B) = const(B) prefix[B-2];
      otherwise lam(B) comes from the closed-form total rate.

    Several components join as e.g. ``kingman+powerbeta``.  Anything else
    (power-beta with b < 1, a >= 2 and b != 1, a = 1 and b != 1, or custom
    densities) is ``grouped``: lanes are grouped by unique B and invert the
    exact cached probability vector.
    Same law, far slower for large n.
    """

    def __init__(self, rates: RateFunctions, max_blocks: int):
        self.rates = rates
        self.max_blocks = int(max_blocks)
        self._grouped_cache: dict[int, tuple[np.ndarray, float]] = {}
        self._components: list[tuple] = []
        self._fast = True
        measure = rates.measure
        if measure.atom_at_zero:
            self._components.append(("kingman", measure.atom_at_zero))
        for p, m in measure.atoms:
            self._components.append(("atom", p, m))
        for dens in measure.densities:
            if not isinstance(dens, PowerBetaDensity):
                self._fast = False
            elif dens.a == 1.0 and dens.b == 1.0:
                self._components.append(("uniform", dens.c))
            elif (dens.b == 1.0 and dens.a not in (1.0, 2.0)) or \
                    (dens.b > 1.0 and dens.a < 2.0 and dens.a != 1.0):
                self._components.append(self._powerbeta_component(dens))
            else:
                self._fast = False
        if not self._fast:
            self._components = []

    @property
    def strategy(self) -> str:
        """``grouped``, or the component kinds joined by ``+``."""
        if not self._fast:
            return "grouped"
        return "+".join(dict.fromkeys(comp[0] for comp in self._components))

    def _powerbeta_component(self, dens: PowerBetaDensity) -> tuple:
        # prefix[j] = sum_{k=2}^{j+2} g(k); P(K <= j+2 | B) under the
        # proposal is prefix[j]/prefix[B-2] for every B, so one table
        # serves all B.
        js = np.arange(self.max_blocks + 1.0)
        log_fact = special.gammaln(js + 1.0)    # log j!, j = 0 .. max_blocks
        ks = js[2:]
        g = np.exp(special.gammaln(dens.a + ks - 2.0) - log_fact[2:])
        prefix = np.cumsum(g)
        rate_table = np.zeros(self.max_blocks + 1)
        if dens.b == 1.0:
            rate_table[2:] = dens.c * np.exp(
                log_fact[2:] - special.gammaln(dens.a + ks - 1.0)) * prefix
            return ("powerbeta", prefix, rate_table, None)
        rate_table[2:] = self.rates._powerbeta_total_rate(dens, ks)
        log_h = special.gammaln(dens.b + js) - log_fact
        return ("powerbeta", prefix, rate_table, log_h)

    @staticmethod
    def _component_rate(comp: tuple, b: np.ndarray) -> np.ndarray:
        kind = comp[0]
        if kind == "kingman":
            return comp[1] * b * (b - 1.0) / 2.0
        if kind == "uniform":
            return comp[1] * (b - 1.0)
        if kind == "powerbeta":
            return comp[2][b]
        _, p, m = comp
        z = (b - 1.0) * math.log1p(-p) + np.log1p((b - 1.0) * p)
        return -np.expm1(z) * (m / p ** 2)

    def _component_draw(self, rng: np.random.Generator, comp: tuple,
                        b: np.ndarray) -> np.ndarray:
        kind = comp[0]
        if kind == "kingman":
            return np.full(b.shape, 2, dtype=np.int64)
        if kind == "uniform":
            bb = b.astype(float)
            u = rng.random(b.shape)
            raw = np.ceil(1.0 / (1.0 - u * (bb - 1.0) / bb))
            return np.clip(raw, 2, bb).astype(np.int64)
        if kind == "powerbeta":
            return self._powerbeta_draw(rng, comp, b)
        return self._atom_walk(rng, comp, b)

    def sample_step(self, rng: np.random.Generator,
                    b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(lam(b), K) for an int64 array of current block counts >= 2."""
        if not self._fast:
            return self._grouped_step(rng, b)
        if len(self._components) == 1:
            # no mixture: no selection uniform, every lane draws K here
            comp = self._components[0]
            return (self._component_rate(comp, b),
                    self._component_draw(rng, comp, b))
        per_comp = np.vstack([self._component_rate(comp, b)
                              for comp in self._components])
        lam = per_comp.sum(axis=0)
        u = rng.random(b.shape) * lam
        which = (np.cumsum(per_comp, axis=0) < u).sum(axis=0)
        which = np.minimum(which, len(self._components) - 1)
        k_out = np.full(b.shape, 2, dtype=np.int64)
        for ci, comp in enumerate(self._components):
            rows = np.nonzero(which == ci)[0]
            if rows.size and comp[0] != "kingman":
                k_out[rows] = self._component_draw(rng, comp, b[rows])
        return lam, k_out

    @staticmethod
    def _powerbeta_draw(rng: np.random.Generator, comp: tuple,
                        b: np.ndarray) -> np.ndarray:
        _, prefix, _, log_h = comp

        def propose(bb):
            t = rng.random(bb.shape) * prefix[bb - 2]
            return np.minimum(np.searchsorted(prefix, t, side="left") + 2, bb)

        k = propose(b)
        if log_h is None:
            return k
        todo = np.arange(b.size)
        while True:
            bb = b[todo]
            accept = rng.random(todo.shape) <= np.exp(log_h[bb - k[todo]]
                                                      - log_h[bb - 2])
            todo = todo[~accept]
            if not todo.size:
                return k
            k[todo] = propose(b[todo])

    def _atom_walk(self, rng: np.random.Generator, comp: tuple,
                   b: np.ndarray) -> np.ndarray:
        _, p, m = comp
        bb = b.astype(float)
        z = (bb - 1.0) * math.log1p(-p) + np.log1p((bb - 1.0) * p)
        target = rng.random(b.shape) * (-np.expm1(z) * (m / p ** 2))
        w = m * np.exp(_log_binom(bb, 2.0) + (bb - 2.0) * math.log1p(-p))
        cdf = w.copy()
        k = np.full(b.shape, 2, dtype=np.int64)
        odds = p / (1.0 - p)
        active = (cdf < target) & (k < b)
        while np.any(active):
            kk = k[active].astype(float)
            w[active] *= (bb[active] - kk) / (kk + 1.0) * odds
            cdf[active] += w[active]
            k[active] += 1
            active = (cdf < target) & (k < b)
        return k

    def _grouped_step(self, rng: np.random.Generator,
                      b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lam = np.empty(b.shape)
        k_out = np.empty(b.shape, dtype=np.int64)
        u = rng.random(b.shape)
        for bi in np.unique(b):
            entry = self._grouped_cache.get(int(bi))
            if entry is None:
                w = self.rates.merger_size_weights(int(bi))
                entry = (np.cumsum(w), float(w.sum()))
                if len(self._grouped_cache) < 4096:
                    self._grouped_cache[int(bi)] = entry
            cum, tot = entry
            rows = np.nonzero(b == bi)[0]
            idx = np.searchsorted(cum, u[rows] * tot, side="left")
            k_out[rows] = np.minimum(idx + 2, bi)
            lam[rows] = tot
        return lam, k_out


# ---------------------------------------------------------------------------
# singleton losses

def _draw_singleton_loss(rng: np.random.Generator, b, y,
                         k) -> np.ndarray:
    """dY for each lane: how many of the K merging blocks, a uniform
    K-subset of the b current blocks, are among the y singletons
    (hypergeometric).  When every K is 2, two uniforms per lane decide the
    two blocks in turn, all lanes' first uniforms before their second:
    the first block is a singleton when u1 b < y, the second when
    u2 (b - 1) < y - first.  Each comparison is exact up to one point of
    the 2**-53 grid, and a lane with no singletons left still consumes its
    two uniforms.  Otherwise numpy's hypergeometric draw covers every
    lane; it consumes nothing for a lane with no singletons left.  Below
    _SCALAR_DRAW_LANES lanes it is made as one scalar call per lane, in
    lane order: the same draws from the same stream, without the array
    call's fixed cost of checking its arguments."""
    if np.all(k == 2):
        u = rng.random((2, len(y)))
        first = (u[0] * b < y).astype(np.int64)
        return first + (u[1] * (b - 1) < y - first)
    if len(y) < _SCALAR_DRAW_LANES:
        return np.array([rng.hypergeometric(*lane) for lane in
                         zip(y.tolist(), (b - y).tolist(), k.tolist())],
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

    def flat(self) -> np.ndarray:
        return np.repeat(self.values, self.multiplicities)

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
        if np.any(self.waiting_time <= 0):
            raise ValueError("jump times must increase strictly from 0")

    @property
    def waiting_time(self) -> np.ndarray:
        """W: holding time before each jump, the increments of jump_time."""
        return np.diff(self.jump_time, prepend=0.0)

    @property
    def num_jumps(self) -> int:
        return len(self.merger_size)

    @property
    def absorption_time(self) -> float:
        return float(self.jump_time[-1])

    def _blocks_after(self) -> np.ndarray:
        return self.block_count_before - self.merger_size + 1

    def external_lengths(self) -> ExternalLengths:
        keep = self.absorbed_singletons > 0
        return ExternalLengths(self.jump_time[keep],
                               self.absorbed_singletons[keep])

    def stopping_times(self, r_level: float) -> tuple[int, float]:
        """(rho, rho~): jump index and time of first reaching <= r_level
        blocks; (0, 0.0) when r_level >= n."""
        if r_level < 1:
            raise ValueError("r_level must be >= 1")
        if r_level >= self.n:
            return 0, 0.0
        after = self._blocks_after()
        hits = np.nonzero(after <= r_level)[0]
        j = int(hits[0])  # nonempty: the path ends at 1 <= r_level
        return j + 1, float(self.jump_time[j])

    def conditional_factorial_moment(self, rho_index: int, r: int) -> float:
        """E[(Y_rho)_r | block chain] = (X_rho)_r prod_{j<=rho} (1 - r/X_j).

        Exact given the realized chain; 0 whenever r exceeds X_rho.
        """
        if not 0 <= rho_index <= self.num_jumps:
            raise ValueError("rho_index out of range")
        if r < 1:
            raise ValueError("r must be a positive integer")
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


@dataclass(frozen=True, eq=False)
class LabeledHistory:
    """Explicit-partition run for small n: every state is a tuple of
    frozensets of leaf labels 0..n-1."""

    n: int
    seed: int | None
    jump_times: np.ndarray
    partitions: tuple              # state after each jump
    leaf_absorption_times: np.ndarray

    def block_path(self) -> CoalescentPath:
        """The induced block-count record (for equivalence checks)."""
        sizes = [self.n] + [len(part) for part in self.partitions]
        x = np.array(sizes[:-1], dtype=np.int64)
        k = x - np.array(sizes[1:], dtype=np.int64) + 1
        times = np.asarray(self.jump_times)
        dy = np.array([np.sum(self.leaf_absorption_times == t)
                       for t in times], dtype=np.int64)
        return CoalescentPath(self.n, self.seed, x, k, dy, times)


def simulate_labeled(rates, n: int, seed: int = DEFAULT_SEED) -> LabeledHistory:
    """Partition-valued run, n <= 12: merger size first, then a uniform
    K-subset of the current blocks."""
    if not 2 <= n <= _LABELED_MAX_N:
        raise ValueError(f"labeled simulation supports 2 <= n <= {_LABELED_MAX_N}")
    rates = as_rate_functions(rates)
    rng = _make_rng(seed)
    blocks = [frozenset([i]) for i in range(n)]
    t = 0.0
    times, states = [], []
    absorbed = np.full(n, np.nan)
    while len(blocks) > 1:
        b = len(blocks)
        lam = rates.total_jump_rate(b)
        t += rng.standard_exponential() / lam
        probs = rates.merger_size_distribution(b)
        k = 2 + int(np.searchsorted(np.cumsum(probs), rng.random(),
                                    side="left"))
        k = min(k, b)
        chosen = rng.choice(b, size=k, replace=False)
        merged = frozenset().union(*(blocks[i] for i in chosen))
        for i in sorted(chosen, reverse=True):
            if len(blocks[i]) == 1:
                absorbed[next(iter(blocks[i]))] = t
            del blocks[i]
        blocks.append(merged)
        times.append(t)
        states.append(tuple(blocks))
    return LabeledHistory(n, seed, np.array(times), tuple(states), absorbed)
