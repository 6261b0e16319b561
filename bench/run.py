"""coalsim benchmark: time to verdict of experiment cells, set-up, memory.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload, each in a fresh worker process (see
worker.py), until another round would overrun --seconds, and at least
MIN_ROUNDS of them.  Every round of a run uses the same cell seeds, so the
rounds repeat identical work and their median is steady.

--trace 0 reports the end-to-end metrics: medians over the rounds of
wall_s, setup_s and peak_rss_mb.  The two times are rescaled to a
reference machine speed: each round also times a fixed numpy loop before
and after its cells (worker.calibrate), and its times are multiplied by
CAL_REF_S over that loop's time.  The machine's speed drifts by tens of
per cent over minutes, which raw times carry from run to run; the loop
runs beside the cells and takes the drift out.  Raw times are printed and
kept in the round records.

--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics: medians over the traced rounds, and trace.overhead_s, the traced
minus the untraced median of the rescaled wall time.  Layer times are raw.

Every metric is printed by name with its unit; the last line of standard
output is one JSON object with correct, attempted, failed and metrics.
Round records go to bench/out/.  Exits 1, printing no result, when a round
cannot run, for example when the checkout holds no coalsim sources.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import UNITS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MIN_ROUNDS = 2
# The calibration loop's time at the reference speed: its median on a
# 2-vCPU Xeon VM, so that rescaled times read close to raw seconds there.
CAL_REF_S = 0.33
ROUND_TIMEOUT_S = 150
WORKLOADS = ("kingman-extremes", "beta-typical", "bs-extremes",
             "heavy-tail-extremes")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, size: str, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--size", size]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"round exceeded {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise RoundError(f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rounds(workload: str, seed: int, seconds: float, size: str,
               trace: bool) -> list[list[dict]]:
    """Whole rounds until the next would pass `seconds`; a traced round is
    an untraced worker followed by a traced one."""
    start = time.perf_counter()
    rounds = []
    while True:
        rounds.append([run_round(workload, seed, size, False)]
                      + ([run_round(workload, seed, size, True)]
                         if trace else []))
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS \
                and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def rescaled(records: list[dict], key: str) -> float:
    """Median over the rounds of a time at the reference speed."""
    return statistics.median(r[key] * CAL_REF_S / r["calib_s"]
                             for r in records)


def summarize(rounds: list[list[dict]], trace: bool) -> tuple[dict, list]:
    """(metrics, lines to print)."""
    plain = [r[0] for r in rounds]
    notes = [f"raw {k} median {median_of(plain, k):.6g} s"
             for k in ("wall_s", "setup_s", "calib_s")]
    if not trace:
        metrics = {"wall_s": rescaled(plain, "wall_s"),
                   "setup_s": rescaled(plain, "setup_s"),
                   "peak_rss_mb": median_of(plain, "peak_rss_mb")}
        return ({k: {"value": v, "unit": END_TO_END[k]}
                 for k, v in metrics.items()}, notes)
    traced = [r[1] for r in rounds]
    layers = {k: statistics.median(t["layers"].get(k, 0.0) for t in traced)
              for k in UNITS if k != "trace.overhead_s"}
    layers["trace.overhead_s"] = (rescaled(traced, "wall_s")
                                  - rescaled(plain, "wall_s"))
    metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in layers.items()}
    absent = sorted({a for t in traced for a in t["absent"]})
    return metrics, notes + [f"absent (reads 0): {a}" for a in absent]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=("full", "smoke"),
                    help="smoke: tiny cells for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    trace = bool(args.trace)

    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds,
                            args.size, trace)
    except RoundError as exc:
        print(f"benchmark round failed: {exc}", file=sys.stderr)
        return 1

    records = [rec for r in rounds for rec in r]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    metrics, notes = summarize(rounds, trace)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-{'trace' if trace else 'e2e'}"
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "size": args.size,
         "metrics": metrics, "notes": notes, "rounds": rounds}, indent=1))

    for name, check_ok, detail in records[0]["checks"]:
        print(f"check {'ok' if check_ok else 'FAIL'} {name}: {detail}")
    for cell, err in records[0]["cells"].items():
        print(f"cell FAIL {cell}: {err}")
    print(f"{len(rounds)} rounds, {attempted} operations, {failed} failed")
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
