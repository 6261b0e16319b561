"""Command-line surface: exit codes, output schemas, config-file merging,
and the byte-reproducibility contract, all exercised in process."""

import json
import warnings

import pytest

from coalsim.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit codes and usage

def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "rates", "--bogus")
    assert code == 2


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "subcommand" in out


def test_missing_required_flag(capsys):
    code, _, err = run_cli(capsys, "rates", "--x", "2")
    assert code == 2
    assert "--measure" in err


def test_bad_measure_text(capsys):
    code, _, err = run_cli(capsys, "rates", "--measure", "gamma:1",
                           "--x", "2")
    assert code == 2
    assert "bad measure" in err


@pytest.mark.parametrize("argv", [("rates", "--b", "2"),
                                  ("lengths", "--n", "10")])
def test_beta_term_with_an_overflowing_normalizer(capsys, argv):
    # 1/B(600, 600) overflows: once c = inf, blamed on --b or failing on
    # non-finite jump times
    code, out, err = run_cli(capsys, argv[0], "--measure", "beta:600,600",
                             *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad measure: beta term: 1/B(600.0, 600.0)")


_EXPERIMENT = ("experiment", "--measure", "kingman", "--theorem", "T1.1",
               "--n", "100", "--reps", "100")


@pytest.mark.parametrize("argv", [
    ("limits", "--sample-ell", "0"),
    ("limits", "--sample-ell", "2", "--reps", "0"),
    ("simulate", "--measure", "kingman", "--n", "1"),
    ("simulate", "--measure", "kingman", "--n", "5", "--seed", "-1"),
    _EXPERIMENT + ("--seed", "-5"),
    ("limits", "--family", "exact_bs_moment", "--n", "0", "--t", "1",
     "--r", "1"),
    ("limits", "--family", "exact_bs_moment", "--n", "5", "--t", "-1",
     "--r", "1"),
    ("rates", "--measure", "kingman", "--b", "1"),
    ("limits", "--family", "typical", "--alpha", "1.5", "--x", "-1"),
    ("limits", "--family", "frechet", "--alpha", "1.5", "--x", "0"),
    _EXPERIMENT + ("--tol", "ks=abc"),
    _EXPERIMENT + ("--tol", "ks=null"),
    _EXPERIMENT + ("--param", "t_grid=[0.5, NaN]"),
    ("experiment", "--measure", "kingman", "--theorem", "T1.5", "--n", "100",
     "--reps", "100", "--param", "x_grid=[]"),
    ("experiment", "--measure", "kingman", "--theorem", "C1.4", "--n", "100",
     "--reps", "100"),
    ("experiment", "--measure", "kingman", "--theorem", "L7.1", "--n", "50",
     "--reps", "100", "--param", "variance_paths=3", "--param", "r_rule=n"),
    ("experiment", "--measure", "bolthausen-sznitman", "--theorem", "L9.2",
     "--n", "1000", "--reps", "100", "--param", "c=Infinity",
     "--param", "t_grid=[]"),
    ("experiment", "--measure", "bolthausen-sznitman", "--theorem", "L9.2",
     "--n", "1000", "--reps", "100", "--tol", "moment_z=Infinity"),
    ("limits", "--family", "exact_bs_moment", "--n", "100", "--t", "nan",
     "--r", "2"),
    ("simulate", "--measure", "kingman", "--n", "5", "--reps", "0"),
    ("experiment", "--measure", "bolthausen-sznitman", "--theorem", "L9.2",
     "--n", "1000", "--reps", "100", "--param", "c=-1"),
])
def test_library_value_errors_are_usage_errors(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_experiment_at_the_top_seed(capsys):
    # L7.1 replayed on seed + 1, and the top seed exited 2
    code, out, _ = run_cli(capsys, "experiment", "--measure", "kingman",
                           "--theorem", "L7.1", "--n", "50", "--reps", "100",
                           "--seed", str(2 ** 64 - 1),
                           "--param", "variance_paths=3")
    assert code in (0, 3)
    assert json.loads(out)["seed"] == 2 ** 64 - 1


# ---------------------------------------------------------------------------
# rates

def test_rates_x_table(capsys):
    code, out, _ = run_cli(capsys, "rates", "--measure",
                           "bolthausen-sznitman", "--x", "2,4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,mu,mu_prime,mu_double_prime,kappa,H_inv_x,s_at_x"
    row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    assert row["x"] == 2.0
    assert row["mu"] == pytest.approx(1.0, rel=1e-12)
    assert row["kappa"] == pytest.approx(0.5, rel=1e-12)
    assert len(lines) == 3


def test_rates_x_at_one_and_below(capsys):
    # x = 1 is in the domain: mu(1) = 0, so kappa = 0 and s = 1
    code, out, _ = run_cli(capsys, "rates", "--measure", "kingman",
                           "--x", "1")
    assert code == 0
    lines = out.strip().split("\n")
    row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    assert (row["mu"], row["kappa"], row["s_at_x"]) == (0.0, 0.0, 1.0)
    for bad in ("0.5", "nan"):
        code, _, err = run_cli(capsys, "rates", "--measure", "kingman",
                               "--x", f"2,{bad}")
        assert code == 2
        assert "--x" in err


def test_rates_b_table(capsys):
    code, out, _ = run_cli(capsys, "rates", "--measure", "kingman",
                           "--b", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "b,total_rate,mean_decrement"
    b, rate, dec = lines[1].split(",")
    assert (b, float(rate), float(dec)) == ("5", 10.0, 1.0)


def test_rates_requires_exactly_one_grid(capsys):
    assert run_cli(capsys, "rates", "--measure", "kingman")[0] == 2
    assert run_cli(capsys, "rates", "--measure", "kingman",
                   "--x", "2", "--b", "3")[0] == 2
    assert run_cli(capsys, "rates", "--measure", "kingman",
                   "--b", "2.5")[0] == 2
    assert run_cli(capsys, "rates", "--measure", "kingman",
                   "--x", "2,oops")[0] == 2


def test_rates_out_file_matches_stdout(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "rates", "--measure", "kingman",
                           "--x", "3.5")
    assert code == 0
    target = tmp_path / "rates.csv"
    code2, _, _ = run_cli(capsys, "rates", "--measure", "kingman",
                          "--x", "3.5", "--out", str(target))
    assert code2 == 0
    assert target.read_text() == out


# ---------------------------------------------------------------------------
# simulate / lengths

def test_simulate_kingman_small(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--measure", "kingman",
                           "--n", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "j,X_before,K,dY,W,t_jump"
    assert len(lines) == 3            # n = 3 pair mergers: exactly 2 jumps
    assert lines[1].startswith("0,3,2,")
    assert lines[2].startswith("1,2,2,")


def test_simulate_rep_files(tmp_path, capsys):
    base = tmp_path / "path.csv"
    code, _, _ = run_cli(capsys, "simulate", "--measure",
                         "bolthausen-sznitman", "--n", "10", "--reps", "2",
                         "--out", str(base))
    assert code == 0
    rep0 = tmp_path / "path_rep0.csv"
    rep1 = tmp_path / "path_rep1.csv"
    assert rep0.exists() and rep1.exists() and not base.exists()
    assert rep0.read_text() != rep1.read_text()
    # replication 0 is the path under the seed itself, identical to a
    # single run
    single = tmp_path / "single.csv"
    run_cli(capsys, "simulate", "--measure", "bolthausen-sznitman",
            "--n", "10", "--out", str(single))
    assert single.read_text() == rep0.read_text()


@pytest.mark.parametrize("command", ["simulate", "lengths"])
def test_replications_are_keyed_by_seed_and_index(tmp_path, capsys, command):
    # replication i runs on the Philox key (seed, i), so --seed 0
    # replication 1 is not --seed 1 replication 0, as it was when
    # replication i ran under seed XOR i
    def reps(seed, count):
        base = tmp_path / f"{command}_{seed}_{count}.csv"
        code, _, _ = run_cli(capsys, command, "--measure", "kingman",
                             "--n", "10", "--reps", str(count),
                             "--seed", str(seed), "--out", str(base))
        assert code == 0
        if count == 1:
            return [base.read_text()]
        return [(tmp_path / f"{base.stem}_rep{i}.csv").read_text()
                for i in range(count)]

    seed0, seed1 = reps(0, 2), reps(1, 2)
    assert seed0[1] != seed1[0]
    assert seed0[0] == reps(0, 1)[0]
    assert seed1[0] == reps(1, 1)[0]


def test_lengths_schema(capsys):
    code, out, _ = run_cli(capsys, "lengths", "--measure",
                           "bolthausen-sznitman", "--n", "12", "--seed", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "length,multiplicity"
    mult = [int(line.split(",")[1]) for line in lines[1:]]
    values = [float(line.split(",")[0]) for line in lines[1:]]
    assert sum(mult) == 12
    assert values == sorted(values)


# ---------------------------------------------------------------------------
# experiment

def test_experiment_stdout_report(capsys):
    code, out, err = run_cli(
        capsys, "experiment", "--measure", "kingman:2", "--theorem", "T4.1",
        "--n", "400", "--reps", "1000", "--tol", "exceedance=0.1")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"config", "statistics", "verdict", "seed"}
    assert doc["verdict"] == "PASS"
    assert "[PASS] T4.1" in err


def test_experiment_out_files(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, printed, _ = run_cli(
        capsys, "experiment", "--measure", "kingman", "--theorem", "T1.1",
        "--n", "100", "--reps", "200",
        "--tol", "ks=1", "--tol", "envelope=1", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "PASS"
    meta = json.loads((tmp_path / "report.json.meta.json").read_text())
    assert set(meta) == {"runtime_ms", "sampler", "quadrature"}
    assert meta["sampler"] == "kingman"
    # T1.1 scores against closed forms: nothing integrates
    assert meta["quadrature"] == {"integrals": 0, "panels": 0, "cap_hits": 0}
    ecdf = (tmp_path / "report.scaled_length.csv").read_text().split("\n")
    assert ecdf[0] == "value,ecdf"
    assert float(ecdf[-2].split(",")[1]) == 1.0
    assert "[PASS] T1.1" in printed


def test_experiment_meta_counts_quadrature(tmp_path, capsys):
    # T1.5 builds the finite-n table of F_n: 255 integrals of 1/mu
    out = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "experiment", "--measure", "kingman", "--theorem", "T1.5",
        "--n", "200", "--reps", "100", "--tol", "ks=1",
        "--tol", "count_moments=50", "--out", str(out))
    assert code == 0
    meta = json.loads((tmp_path / "report.json.meta.json").read_text())
    quad = meta["quadrature"]
    assert set(quad) == {"integrals", "panels", "cap_hits"}
    assert quad["integrals"] == 255
    assert quad["panels"] >= quad["integrals"]
    assert quad["cap_hits"] == 0
    assert "quadrature" not in out.read_text()


@pytest.mark.parametrize("measure, strategy", [
    ("beta:0.5,1.5", "powerbeta"),
    ("kingman + beta:0.5,1.5", "kingman+powerbeta"),
    ("powerbeta:c=1,a=0.5,b=0.7", "powerbeta"),
])
def test_experiment_meta_names_sampler(tmp_path, capsys, measure, strategy):
    args = ["experiment", "--measure", measure, "--theorem", "T1.1",
            "--n", "60", "--reps", "100",
            "--tol", "ks=1", "--tol", "envelope=1"]
    code, stdout_report, _ = run_cli(capsys, *args)
    assert code == 0
    out = tmp_path / "report.json"
    assert run_cli(capsys, *args, "--out", str(out))[0] == 0
    meta = json.loads((tmp_path / "report.json.meta.json").read_text())
    assert meta["sampler"] == strategy
    # the strategy lives only in the side file
    assert out.read_text() == stdout_report
    assert "sampler" not in stdout_report


def test_experiment_unknown_param_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "experiment", "--measure", "kingman", "--theorem", "T1.1",
        "--n", "100", "--reps", "100", "--param", "scal=log_n")
    assert code == 2
    assert "scal" in err


@pytest.mark.parametrize("theorem, param", [
    ("T1.1", "scale=bogus"),
    ("T1.2", "k=9"),
    ("T4.1", "r_rule=n/half"),
])
def test_experiment_bad_param_value_is_usage_error(capsys, theorem, param):
    code, _, err = run_cli(
        capsys, "experiment", "--measure", "kingman", "--theorem", theorem,
        "--n", "100", "--reps", "100", "--param", param)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("measure, theorem, n, param", [
    ("kingman", "T1.2", 200, "k=2.5"),
    ("kingman", "T1.1", 100, "t_grid=[0.5,true]"),
    ("bolthausen-sznitman", "T1.6", 100, "trend_grid=[1000,100]"),
])
def test_experiment_bool_fraction_or_unordered_grid_is_usage_error(
        capsys, measure, theorem, n, param):
    code, _, err = run_cli(
        capsys, "experiment", "--measure", measure, "--theorem", theorem,
        "--n", str(n), "--reps", "100", "--param", param)
    assert code == 2
    assert err.startswith("error: ") and param.split("=")[0] in err
    assert "Traceback" not in err


def test_experiment_byte_reproducible(tmp_path, capsys):
    args = ["experiment", "--measure", "kingman", "--theorem", "T1.1",
            "--n", "100", "--reps", "1500",
            "--tol", "ks=1", "--tol", "envelope=1"]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.scaled_length.csv").read_bytes() == \
        (tmp_path / "b.scaled_length.csv").read_bytes()


def test_experiment_fail_exits_three(tmp_path, capsys):
    out = tmp_path / "fail.json"
    code, _, _ = run_cli(
        capsys, "experiment", "--measure", "kingman:2", "--theorem", "T4.1",
        "--n", "400", "--reps", "100", "--tol", "exceedance=0.000001",
        "--out", str(out))
    assert code == 3
    assert json.loads(out.read_text())["verdict"] == "FAIL"


def test_experiment_regime_error_exits_one(capsys):
    code, _, err = run_cli(
        capsys, "experiment", "--measure", "bolthausen-sznitman",
        "--theorem", "T1.5", "--n", "100", "--reps", "100")
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "RegimeError"


def test_experiment_param_shorthands(capsys):
    code, out, _ = run_cli(
        capsys, "experiment", "--measure", "kingman", "--theorem", "T1.5",
        "--n", "200", "--reps", "100",
        "--param", "x_grid=[1.0, 2]",
        "--tol", "ks=1", "--tol", "count_moments=50")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["params"]["x_grid"] == [1.0, 2]
    assert doc["config"]["resolved"]["x_grid"] == [1.0, 2.0]


@pytest.mark.parametrize("flag, value", [
    ("--ell", "2"), ("--k", "2"), ("--c", "2"), ("--r-rule", "n/2"),
])
def test_experiment_param_is_the_only_way_to_set_a_key(capsys, flag, value):
    # "--c" is not taken as an abbreviation of "--config" either
    code, _, err = run_cli(
        capsys, "experiment", "--measure", "kingman", "--theorem", "T1.5",
        "--n", "200", "--reps", "100", flag, value)
    assert code == 2
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("what", ["--param", "--tol"])
def test_experiment_key_given_twice_is_usage_error(capsys, what):
    code, _, err = run_cli(
        capsys, "experiment", "--measure", "kingman", "--theorem", "T1.5",
        "--n", "200", "--reps", "100", what, "ell=2", what, "ell=9")
    assert code == 2
    assert "'ell' twice" in err


@pytest.mark.parametrize("theorem, params, message", [
    ("T1.6", ["trend_grid=[100,1000]", "r=2"], "does not read params ['r']"),
    ("L9.2", ["trend_grid=[100,1000]"],
     "does not read params ['trend_grid']"),
    ("T1.6", [], "trend_grid"),
    ("T1.6", ["trend_grid=[1000]"], "trend_grid"),
    ("L9.2", ["t_grid=[]"], "t_grid"),
], ids=["T1.6-r", "L9.2-trend_grid", "T1.6-no-trend", "T1.6-one-size",
        "L9.2-empty-t_grid"])
def test_experiment_bs_key_it_does_not_score_is_usage_error(
        capsys, theorem, params, message):
    # a key of the other Bolthausen-Sznitman tag, or a grid that leaves
    # the report with nothing to gate
    args = [arg for param in params for arg in ("--param", param)]
    code, _, err = run_cli(
        capsys, "experiment", "--measure", "bolthausen-sznitman",
        "--theorem", theorem, "--n", "1000", "--reps", "200", *args)
    assert code == 2
    assert message in err


def test_experiment_bad_param_syntax(capsys):
    code, _, err = run_cli(
        capsys, "experiment", "--measure", "kingman", "--theorem", "T1.1",
        "--n", "100", "--reps", "100", "--param", "noequals")
    assert code == 2
    assert "KEY=VALUE" in err


def test_experiment_usage_error_from_config_validation(capsys):
    code, _, err = run_cli(
        capsys, "experiment", "--measure", "kingman", "--theorem", "T1.1",
        "--n", "100", "--reps", "50")
    assert code == 2
    assert "replications must be an integer in [100, inf)" in err


# ---------------------------------------------------------------------------
# config files

def test_config_file_fills_missing_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"measure": "kingman", "x": "2"}))
    code, out, _ = run_cli(capsys, "rates", "--config", str(cfg))
    assert code == 0
    assert out.startswith("x,mu")


def test_explicit_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"measure": "kingman", "b": "2"}))
    code, out, _ = run_cli(capsys, "rates", "--config", str(cfg),
                           "--b", "5")
    assert code == 0
    assert out.strip().split("\n")[1].startswith("5,")


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"measure": "kingman", "x": "2", "junk": 1}))
    code, _, err = run_cli(capsys, "rates", "--config", str(cfg))
    assert code == 2
    assert "junk" in err


def test_config_values_take_their_flag_type(tmp_path, capsys):
    # n = 100.5 from a file is refused as --n 100.5 is, not truncated
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"measure": "kingman", "theorem": "T1.1",
                               "n": 100.5, "reps": 150}))
    code, _, err = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: ") and "100.5" in err
    # a string "7" is read as --n 7 would be
    cfg.write_text(json.dumps({"measure": "kingman", "n": "7"}))
    code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
    assert code == 0
    assert out == run_cli(capsys, "simulate", "--measure", "kingman",
                          "--n", "7")[1]
    # flags without a type take the value's text
    cfg.write_text(json.dumps({"measure": "kingman", "x": 2}))
    code, out, _ = run_cli(capsys, "rates", "--config", str(cfg))
    assert code == 0
    assert out == run_cli(capsys, "rates", "--measure", "kingman",
                          "--x", "2")[1]
    cfg.write_text(json.dumps({"measure": 5, "x": "2"}))
    assert run_cli(capsys, "rates", "--config", str(cfg))[0] == 2


def test_config_list_values_are_repeated_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    base = {"measure": "kingman", "theorem": "T1.2", "n": 200, "reps": 100}
    cfg.write_text(json.dumps({**base, "param": ["k=3"],
                               "tol": ["corr=0.5"]}))
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg))
    assert code in (0, 3)
    doc = json.loads(out)
    assert doc["config"]["params"] == {"k": 3}
    assert doc["config"]["tolerances"] == {"corr": 0.5}
    # a flag given beside the file wins
    code, out, _ = run_cli(capsys, "experiment", "--config", str(cfg),
                           "--param", "k=2")
    assert code in (0, 3)
    assert json.loads(out)["config"]["params"] == {"k": 2}
    # a repeatable flag's key takes a list, not one text
    cfg.write_text(json.dumps({**base, "param": "k=3"}))
    assert run_cli(capsys, "experiment", "--config", str(cfg))[0] == 2


def test_config_file_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("[1, 2]")
    assert run_cli(capsys, "rates", "--config", str(cfg))[0] == 2
    cfg.write_text("{not json")
    assert run_cli(capsys, "rates", "--config", str(cfg))[0] == 2
    assert run_cli(capsys, "rates", "--config",
                   str(tmp_path / "missing.json"))[0] == 2


# ---------------------------------------------------------------------------
# limits

def test_limits_typical_table(capsys):
    code, out, _ = run_cli(capsys, "limits", "--family", "typical",
                           "--alpha", "1.5", "--x", "0.5,1.0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,cdf,density"
    x, cdf, dens = lines[1].split(",")
    assert float(cdf) == pytest.approx(0.488, rel=1e-12)
    assert float(dens) == pytest.approx(0.6144, rel=1e-12)


def test_limits_poisson_tail(capsys):
    code, out, _ = run_cli(capsys, "limits", "--family", "poisson_tail",
                           "--alpha", "1.5", "--x", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,intensity_tail"
    assert float(lines[1].split(",")[1]) == pytest.approx(8.0, rel=1e-12)


def test_limits_frechet_has_no_density_column(capsys):
    code, out, _ = run_cli(capsys, "limits", "--family", "frechet",
                           "--alpha", "2.0", "--x", "1")
    assert code == 0
    assert out.strip().split("\n")[1].endswith(",")


def test_limits_exact_moment(capsys):
    code, out, _ = run_cli(capsys, "limits", "--family", "exact_bs_moment",
                           "--n", "5", "--t", "0", "--r", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "moment"
    assert float(lines[1]) == pytest.approx(210.0, rel=1e-10)


def test_limits_sampler(capsys):
    code, out, _ = run_cli(capsys, "limits", "--sample-ell", "2",
                           "--reps", "3", "--seed", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "u1,u2"
    assert len(lines) == 4
    for line in lines[1:]:
        u1, u2 = map(float, line.split(","))
        assert u1 > u2
    code2, out2, _ = run_cli(capsys, "limits", "--sample-ell", "2",
                             "--reps", "3", "--seed", "7")
    assert out2 == out


def test_limits_usage_errors(capsys):
    assert run_cli(capsys, "limits", "--family", "typical")[0] == 2
    assert run_cli(capsys, "limits", "--family", "typical",
                   "--alpha", "3", "--x", "1")[0] == 2
    assert run_cli(capsys, "limits", "--family", "logistic",
                   "--alpha", "1.5", "--x", "1")[0] == 2
    assert run_cli(capsys, "limits", "--family", "exact_bs_moment",
                   "--n", "5")[0] == 2


@pytest.mark.parametrize("family", ["typical", "frechet", "poisson_tail"])
def test_limits_family_without_alpha_is_usage_error(capsys, family):
    code, out, err = run_cli(capsys, "limits", "--family", family, "--x", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "alpha" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("rates", "--measure", "kingman", "--b", "inf"),
    ("rates", "--measure", "kingman", "--b", "2,-inf"),
    ("rates", "--measure", "kingman", "--x", "2,inf"),
    ("limits", "--family", "frechet", "--alpha", "1.5", "--x", "nan"),
    ("limits", "--family", "typical", "--alpha", "1.5", "--x", "1,inf"),
    ("limits", "--family", "logistic", "--x", "0,-inf"),
])
def test_non_finite_list_entries_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {argv[-2]} expects a comma list of "
                          "finite numbers")


@pytest.mark.parametrize("flag, entries", [
    ("--b", "1e300"), ("--b", "2,1e300"), ("--x", "1e300"), ("--x", "2,1e300"),
])
def test_rates_overflow_is_usage_error(capsys, flag, entries):
    # kingman lambda(1e300) and mu(1e300) overflow to inf
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "rates", "--measure", "kingman",
                                 flag, entries)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {flag} entry ")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_rates_x_edge_rows(capsys):
    # s(1e150) = 1e75 lies beyond 2**200, where mu was once inverted
    code, out, _ = run_cli(capsys, "rates", "--measure", "kingman",
                           "--x", "1e150")
    assert code == 0
    lines = out.strip().split("\n")
    row = dict(zip(lines[0].split(","), map(float, lines[1].split(","))))
    assert row["s_at_x"] == pytest.approx(1e75, rel=1e-12)
    # the H transform of this density at 1/x takes (1/x)**-1.5
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "rates", "--measure",
                                 "powerbeta:c=1,a=0.5,b=1", "--x", "1e300")
    assert code == 2
    assert out == ""
    assert err.startswith("error: --x entry ")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("argv", [
    ("lengths", "--measure", "dirac:p=1,m=1", "--n", "10"),
    ("rates", "--measure", "kingman + dirac:p=1,m=1", "--x", "2"),
])
def test_atom_at_one_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad measure: dirac location must lie in "
                          "(0, 1)")
