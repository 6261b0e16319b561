"""The benchmark's own tests: every workload's cells and checks at smoke
size, the traced mode, the result line, and the refusal to run without
sources.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import coalsim  # noqa: E402
import workloads  # noqa: E402
from tracing import UNITS  # noqa: E402


def _bench(script, *args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / script), *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=170)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_checks_pass_at_smoke_size(name):
    wl = workloads.WORKLOADS[name]("smoke")
    out = wl.cells(coalsim, seed=20261017)
    assert not [v for v in out.values() if isinstance(v, Exception)]
    checks = wl.checks(coalsim, out)
    assert checks
    assert [c for c in checks if not c.passed] == []


def test_checks_fail_on_wrong_output():
    wl = workloads.WORKLOADS["heavy-tail-extremes"]("smoke")
    out = wl.cells(coalsim, seed=1)
    out["gap"] = list(reversed(out["gap"]))
    out["T1.5"] = RuntimeError("cell raised")
    failed = {c.name for c in wl.checks(coalsim, out) if not c.passed}
    assert failed == {"ks_max_vs_finite_n", "limit_gap_falls",
                      "limit_gap_reported"}


def test_references_at_small_n():
    a, b = 0.5, 1.5
    # from 2 blocks the length is Exp(lam(2)) = Exp(1)
    assert workloads.beta_tagged_moments(a, b, 2) == pytest.approx((1, 2))
    # lam(3) = (a + 3b)/(a + b); a 2-merger spares the tag with prob. 1/3
    assert workloads.beta_tagged_moments(a, b, 3)[0] == pytest.approx(
        (a + 2 * b) / (a + 3 * b))
    assert workloads.moehle_rising_moment(50, 0.0, 1) == pytest.approx(50)
    assert workloads.moehle_rising_moment(50, 0.0, 2) == pytest.approx(
        50 * 51)


def test_names_agree_with_benchmark_json():
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS)
    assert set(names) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END


def test_cell_seeds_are_hashed():
    one, two = workloads.cell_seeds(1, 8), workloads.cell_seeds(2, 8)
    assert one == workloads.cell_seeds(1, 8)
    assert len(set(one) | set(two)) == 16
    assert all(0 <= s < 2 ** 62 for s in one + two)


def test_traced_round_reports_every_layer():
    proc = _bench("worker.py", "--workload", "heavy-tail-extremes",
                  "--seed", "3", "--size", "smoke", "--trace")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc["layers"]) == set(UNITS) - {"trace.overhead_s"}
    assert doc["absent"] == []
    layers = doc["layers"]
    for key in ("sim.sample_step_calls", "ensemble.lane_jumps",
                "quadrature.integrals", "quadrature.panels",
                "rates.invert_mu_calls", "experiments.finite_n_max_cdf_s"):
        assert layers[key] > 0, key
    assert layers["ensemble.loop_self_s"] < layers["ensemble.run_ensemble_s"]
    assert layers["quadrature.panels"] >= layers["quadrature.integrals"]


def test_missing_callable_is_reported_absent():
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
            "import coalsim.sim\n"
            "del coalsim.sim.simulate_path\n"
            "from tracing import Tracer\n"
            "t = Tracer(); t.install()\n"
            "print(t.absent, t.metrics()['sim.simulate_path_s'])\n")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"),
                           str(BENCH)], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["['coalsim.sim.simulate_path']", "0.0"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line(trace):
    proc = _bench("run.py", "--workload", "bs-extremes", "--seed", "5",
                  "--seconds", "0", "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    per_round = 2 + 4            # cells and checks of bs-extremes
    rounds = 2 * (1 + int(trace))
    assert doc["attempted"] == per_round * rounds
    want = set(UNITS) if trace == "1" else {"wall_s", "setup_s",
                                            "peak_rss_mb"}
    assert set(doc["metrics"]) == want
    for m in doc["metrics"].values():
        assert set(m) == {"value", "unit"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "beta-typical",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
