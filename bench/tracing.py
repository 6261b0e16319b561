"""Per-layer tracing from outside the program.

`Tracer.install` wraps public callables of coalsim's modules: module
functions are replaced wherever their name is bound (so `from .x import f`
copies are caught), methods on their class.  Each wrapped call is a span.
A span's time is credited to its name only when no span of the same name
is open, and to every open ancestor, so self times follow by subtraction.
A callable that does not exist is recorded as absent and its metrics read
0; the run goes on.

Spans are aggregated as they close instead of being stored: a round makes
hundreds of thousands of `sample_step` and `observe` calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path)
TARGETS = {
    "sampler_build": ("coalsim.sim", "MergerSizeSampler.__init__"),
    "sample_step": ("coalsim.sim", "MergerSizeSampler.sample_step"),
    "simulate_path": ("coalsim.sim", "simulate_path"),
    "run_ensemble": ("coalsim.ensemble", "run_ensemble"),
    "observe.top_lengths": ("coalsim.ensemble", "TopLengthsTracker.observe"),
    "observe.threshold_counts": ("coalsim.ensemble",
                                 "ThresholdCountTracker.observe"),
    "observe.marked_leaf": ("coalsim.ensemble", "MarkedLeafTracker.observe"),
    "observe.block_count_at_times": ("coalsim.ensemble",
                                     "BlockCountAtTimesTracker.observe"),
    "merger_size_weights": ("coalsim.rates",
                            "RateFunctions.merger_size_weights"),
    "rate_of_decrease": ("coalsim.rates", "RateFunctions.rate_of_decrease"),
    "invert_mu": ("coalsim.rates", "RateFunctions.invert_mu"),
    "adaptive_integrate": ("coalsim.quadrature", "adaptive_integrate"),
    "finite_n_max_cdf": ("coalsim.experiments", "finite_n_max_cdf"),
    "run_experiment": ("coalsim.experiments", "run_experiment"),
}

OBSERVE = [name for name in TARGETS if name.startswith("observe.")]
# adaptive_integrate accepts a panel once the order-15 and order-31
# estimates agree, or once it holds this many panels.
PANEL_CAP = 4096

# per-layer metric -> unit; the order BENCHMARK.json lists them in
UNITS = {
    "sim.sampler_build_s": "s",
    "sim.sample_step_s": "s",
    "sim.sample_step_calls": "count",
    "sim.lanes_per_step": "lanes",
    "sim.simulate_path_s": "s",
    "ensemble.run_ensemble_s": "s",
    "ensemble.loop_self_s": "s",
    "ensemble.observe_s.top_lengths": "s",
    "ensemble.observe_s.threshold_counts": "s",
    "ensemble.observe_s.marked_leaf": "s",
    "ensemble.observe_s.block_count_at_times": "s",
    "ensemble.lane_jumps": "count",
    "ensemble.lane_jumps_per_s": "jumps/s",
    "rates.merger_size_weights_calls": "count",
    "rates.merger_size_weights_s": "s",
    "rates.rate_of_decrease_calls": "count",
    "rates.rate_of_decrease_s": "s",
    "rates.invert_mu_calls": "count",
    "quadrature.integrals": "count",
    "quadrature.panels": "count",
    "quadrature.s": "s",
    "quadrature.cap_hits": "count",
    "experiments.finite_n_max_cdf_s": "s",
    "experiments.scoring_s": "s",
    "trace.overhead_s": "s",
}


class _Span:
    __slots__ = ("name", "start", "below")

    def __init__(self, name: str):
        self.name = name
        self.start = time.perf_counter()
        self.below: dict[str, float] = defaultdict(float)


class Tracer:
    def __init__(self):
        self.open: list[_Span] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.lanes = 0
        self.ensemble_lanes = 0
        self.loop_self = 0.0
        self.scoring = 0.0
        self.panels = 0
        self.cap_hits = 0
        self.absent: list[str] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> _Span:
        span = _Span(name)
        self.open.append(span)
        self.depth[name] += 1
        self.calls[name] += 1
        return span

    def _exit(self, span: _Span) -> None:
        took = time.perf_counter() - span.start
        self.open.pop()
        self.depth[span.name] -= 1
        if self.depth[span.name]:
            return          # re-entered: the outer span counts this time
        self.seconds[span.name] += took
        for outer in self.open:
            outer.below[span.name] += took
        if span.name == "run_ensemble":
            self.loop_self += took - span.below["sample_step"] \
                - span.below["sampler_build"] \
                - sum(span.below[o] for o in OBSERVE)
        elif span.name == "run_experiment":
            self.scoring += took - span.below["run_ensemble"] \
                - span.below["simulate_path"]

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "sample_step":
            @functools.wraps(fn)
            def wrapper(sampler, rng, b, *args, **kwargs):
                tracer.lanes += len(b)
                if tracer.depth["run_ensemble"]:
                    tracer.ensemble_lanes += len(b)
                span = tracer._enter(name)
                try:
                    return fn(sampler, rng, b, *args, **kwargs)
                finally:
                    tracer._exit(span)
        elif name == "adaptive_integrate":
            @functools.wraps(fn)
            def wrapper(f, *args, **kwargs):
                evaluations = 0

                def counted(x):
                    nonlocal evaluations
                    evaluations += 1
                    return f(x)

                span = tracer._enter(name)
                try:
                    return fn(counted, *args, **kwargs)
                finally:
                    tracer._exit(span)
                    # a rough whole-interval estimate, then two rules per
                    # visited panel of a binary tree: 4 calls per leaf panel
                    leaves = evaluations // 4
                    tracer.panels += leaves
                    tracer.cap_hits += leaves >= PANEL_CAP
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit(span)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists in the already imported coalsim."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "coalsim" or key.startswith("coalsim.")]
        for name, (mod_name, path) in TARGETS.items():
            owner = sys.modules.get(mod_name)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner else None
            if original is None:
                self.absent.append(f"{mod_name}.{path}")
                continue
            wrapper = self._wrap(name, original)
            if cls_path:
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        s, c = self.seconds, self.calls
        ensemble_s = s["run_ensemble"]
        out = {
            "sim.sampler_build_s": s["sampler_build"],
            "sim.sample_step_s": s["sample_step"],
            "sim.sample_step_calls": c["sample_step"],
            "sim.lanes_per_step": self.lanes / max(c["sample_step"], 1),
            "sim.simulate_path_s": s["simulate_path"],
            "ensemble.run_ensemble_s": ensemble_s,
            "ensemble.loop_self_s": self.loop_self,
            "ensemble.lane_jumps": self.ensemble_lanes,
            "ensemble.lane_jumps_per_s":
                self.ensemble_lanes / ensemble_s if ensemble_s else 0.0,
            "rates.merger_size_weights_calls": c["merger_size_weights"],
            "rates.merger_size_weights_s": s["merger_size_weights"],
            "rates.rate_of_decrease_calls": c["rate_of_decrease"],
            "rates.rate_of_decrease_s": s["rate_of_decrease"],
            "rates.invert_mu_calls": c["invert_mu"],
            "quadrature.integrals": c["adaptive_integrate"],
            "quadrature.panels": self.panels,
            "quadrature.s": s["adaptive_integrate"],
            "quadrature.cap_hits": self.cap_hits,
            "experiments.finite_n_max_cdf_s": s["finite_n_max_cdf"],
            "experiments.scoring_s": self.scoring,
        }
        for name in OBSERVE:
            out["ensemble.observe_s." + name.split(".", 1)[1]] = s[name]
        return out
