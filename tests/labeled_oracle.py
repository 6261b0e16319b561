"""Labeled partition simulator: the independent oracle of the block-count
engine for small n.

Every state is a tuple of frozensets of leaf labels 0..n-1.  Each jump
draws the waiting time, the merger size K from
`RateFunctions.merger_size_distribution`, and then a uniform K-subset of
the current blocks by `Generator.choice`, so the external lengths come
from explicit partitions, not from the engine's singleton count or its
dY draw.  `two_sample_ks` compares the two simulators' samples.
"""

from dataclasses import dataclass

import numpy as np

from coalsim.sim import (DEFAULT_SEED, CoalescentPath, _make_rng,
                         as_rate_functions)

LABELED_MAX_N = 12


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
    if not 2 <= n <= LABELED_MAX_N:
        raise ValueError(f"labeled simulation supports 2 <= n <= {LABELED_MAX_N}")
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


def two_sample_ks(a, b) -> float:
    """sup |F_a - F_b| of the two samples' ECDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))
