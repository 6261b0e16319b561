"""One round of one workload, in a fresh process so every cache starts
cold, as it does for a `coalsim experiment` call.

    python3 bench/worker.py --workload NAME --seed N [--size full|smoke]
                            [--trace]

Prints one JSON object: wall_s, setup_s, peak_rss_mb, calib_s (the mean
time of the calibration loop, run once before and once after the cells),
the checks, and with --trace the per-layer numbers.  Exits 1 when coalsim
cannot be imported from the `src` directory next to the benchmark.
"""

import time

T0 = time.perf_counter()   # set-up time starts before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CAL_ROUNDS = 20


def import_coalsim():
    """The checkout's own coalsim, never an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import coalsim
    except ImportError as exc:
        sys.exit(f"cannot import coalsim from {SRC}: {exc}")
    if SRC not in Path(coalsim.__file__).resolve().parents:
        sys.exit(f"coalsim was imported from {coalsim.__file__}, "
                 f"not from {SRC}")
    return coalsim


def calibrate() -> float:
    """Seconds taken by a fixed loop of the engine's kinds of work (draws,
    hypergeometric, unique, searchsorted, masking on 1024 lanes), written
    with numpy alone so that no change to coalsim can move it."""
    import numpy as np
    rng = np.random.Generator(np.random.Philox(key=np.uint64(2026)))
    prefix = np.cumsum(1.0 / np.arange(2.0, 4098.0))
    t = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        b = np.full(1024, 4096, dtype=np.int64)
        y = b.copy()
        for _ in range(40):
            k = np.minimum(2 + np.searchsorted(
                prefix, rng.random(b.size) * prefix[b - 2]), b)
            rng.standard_exponential(b.size)
            y -= rng.hypergeometric(y, b - y, k)
            np.unique(b)
            b = np.where(b > 2, b - 1, b)
    return time.perf_counter() - t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "smoke"))
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    cs = import_coalsim()
    import_s = time.perf_counter() - T0
    from tracing import Tracer
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](args.size)
    calib_s = calibrate()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    t = time.perf_counter()
    for measure, n in workload.setup_pairs():
        cs.MergerSizeSampler(cs.rates_for(cs.parse_measure(measure)), n)
    setup_s = import_s + time.perf_counter() - t

    t = time.perf_counter()
    out = workload.cells(cs, args.seed)
    wall_s = time.perf_counter() - t

    calib_s = (calib_s + calibrate()) / 2.0
    checks = workload.checks(cs, out)
    failed = sum(isinstance(v, Exception) for v in out.values()) \
        + sum(not c.passed for c in checks)
    doc = {
        "wall_s": wall_s,
        "calib_s": calib_s,
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(out) + len(checks),
        "failed": failed,
        "cells": {k: repr(v) for k, v in out.items()
                  if isinstance(v, Exception)},
        "checks": [[c.name, c.passed, c.detail] for c in checks],
    }
    if tracer is not None:
        doc["layers"] = tracer.metrics()
        doc["absent"] = tracer.absent
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
