"""Command-line surface: `coalsim <subcommand>`.

Subcommands
    rates       tabulate rate and scaling functions as CSV
    simulate    dump full jump-chain paths (j,X_before,K,dY,W,t_jump)
    lengths     dump external length multisets (length,multiplicity)
    experiment  run a seeded Monte Carlo check and emit a report JSON
    limits      evaluate closed-form limit laws on a grid

Conventions shared by all subcommands:
  * the default seed is the fixed constant 123456789, never OS entropy;
  * `--config FILE` loads flag values from a JSON object, explicit
    command-line flags override the file;
  * unknown flags, unknown config keys and values that a flag or the
    library rejects are usage errors (exit 2);
  * regime failures and numeric non-convergence exit 1 with an error
    JSON on stderr;
  * `experiment` exits 3 when the verdict is FAIL so CI can gate on it;
  * primary output files are byte-identical across reruns; wall-clock
    goes to a `.meta.json` side file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .ensemble import PathRecorder, _run_chunk
from .experiments import (CATALOG, ExperimentConfig, RegimeError,
                          run_experiment)
from .limits import FAMILIES, LimitLaw, moehle_factorial_moment, \
    poisson_intensity_tail, sample_cox_extremes
from .measure import MeasureParseError, parse_measure
from .rates import rates_for
from .sim import DEFAULT_SEED, MergerSizeSampler


class UsageError(ValueError):
    """Bad flags, bad config keys, or missing required values."""


_MEASURE_HELP = (
    'measure text: "kingman[:m]", "bolthausen-sznitman", '
    '"powerbeta:c=C,a=A,b=B", "beta:A,B", "dirac:p=P,m=M" (0 < P < 1), '
    'or sums joined with "+"'
)


# ---------------------------------------------------------------------------
# parser construction

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coalsim",
        description="Exact Lambda-coalescent rates, simulation, and "
                    "Monte Carlo limit-law checks.",
        epilog=f"Default seed: {DEFAULT_SEED} (fixed, documented; "
               "never OS entropy).")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, metavar="FILE",
                       help="JSON object supplying any flag of this "
                            "subcommand; explicit flags override it")
        p.add_argument("--seed", type=int, default=None,
                       help=f"base RNG seed (default {DEFAULT_SEED})")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="output file (default: stdout)")

    p = sub.add_parser(
        "rates", help="tabulate rate and scaling functions",
        description="Emit CSV tables of the deterministic rate functions "
                    "of a measure.")
    common(p)
    p.add_argument("--measure", default=None, help=_MEASURE_HELP)
    p.add_argument("--x", default=None, metavar="LIST",
                   help="comma list of continuous arguments x >= 1; "
                        "columns: mu(x), mu'(x), mu''(x), kappa=mu(x)/x, "
                        "H(1/x), and s solving mu(s)=mu(x)/x")
    p.add_argument("--b", default=None, metavar="LIST",
                   help="comma list of integer block counts b >= 2; "
                        "columns: total jump rate lambda(b) and mean "
                        "decrement mu(b)/lambda(b)")

    p = sub.add_parser(
        "simulate", help="dump jump-chain paths",
        description="Simulate full block-count paths; one CSV per "
                    "replication with columns j,X_before,K,dY,W,t_jump. "
                    "Replication i runs on the Philox key (seed, i).")
    common(p)
    p.add_argument("--measure", default=None, help=_MEASURE_HELP)
    p.add_argument("--n", type=int, default=None,
                   help="initial block count")
    p.add_argument("--reps", type=int, default=None,
                   help="number of independent paths (default 1)")

    p = sub.add_parser(
        "lengths", help="dump external length multisets",
        description="Simulate paths and emit the external length multiset "
                    "of each as CSV (length,multiplicity). Replication i "
                    "runs on the Philox key (seed, i).")
    common(p)
    p.add_argument("--measure", default=None, help=_MEASURE_HELP)
    p.add_argument("--n", type=int, default=None,
                   help="initial block count")
    p.add_argument("--reps", type=int, default=None,
                   help="number of independent paths (default 1)")

    p = sub.add_parser(
        "experiment", help="run a Monte Carlo check",
        description="Run one catalog experiment and write a report JSON "
                    "(schema: config, statistics[], verdict, seed). "
                    "Wall-clock goes to a .meta.json side file so the "
                    "primary bytes are reproducible; ECDF grids become "
                    ".csv companions.",
        epilog="tags: " + "; ".join(f"{tag}: {about}" for tag, (*_, about)
                                    in sorted(CATALOG.items())))
    common(p)
    p.add_argument("--measure", default=None, help=_MEASURE_HELP)
    p.add_argument("--theorem", default=None, metavar="TAG",
                   help="experiment tag, one of " + ", ".join(sorted(CATALOG)))
    p.add_argument("--n", type=int, default=None,
                   help="initial block count")
    p.add_argument("--reps", type=int, default=None,
                   help="Monte Carlo replications (>= 100)")
    p.add_argument("--param", action="append", default=None,
                   metavar="KEY=VALUE",
                   help="experiment parameter, repeatable, the only way to "
                        "set one; VALUE parsed as JSON when possible "
                        "(examples: k=2, c=2, r_rule=\"n/2\", "
                        "t_grid=[0.25,0.5,1])")
    p.add_argument("--tol", action="append", default=None,
                   metavar="NAME=VALUE",
                   help="tolerance override, repeatable (example: ks=0.05)")

    p = sub.add_parser(
        "limits", help="evaluate closed-form limit laws",
        description="Tabulate a limit family on a grid, or evaluate the "
                    "exact Bolthausen-Sznitman factorial moment.")
    common(p)
    p.add_argument("--family", default=None,
                   help="one of " + ", ".join(FAMILIES))
    p.add_argument("--alpha", type=float, default=None,
                   help="exponent in [1,2] for typical, (1,2] for "
                        "frechet/poisson_tail")
    p.add_argument("--x", default=None, metavar="LIST",
                   help="comma list of evaluation points")
    p.add_argument("--n", type=int, default=None,
                   help="block count for exact_bs_moment")
    p.add_argument("--t", type=float, default=None,
                   help="time for exact_bs_moment")
    p.add_argument("--r", type=int, default=None,
                   help="moment order r for exact_bs_moment "
                        "(E[N(N+1)...(N+r-1)])")
    p.add_argument("--sample-ell", type=int, default=None, metavar="ELL",
                   help="draw the first ELL points of the Cox extremal "
                        "process instead of tabulating (uses --reps, --seed)")
    p.add_argument("--reps", type=int, default=None,
                   help="replications for --sample-ell (default 1)")

    # a flag is taken only by its full name: "--c" is not "--config"
    for p in sub.choices.values():
        p.allow_abbrev = False
    return parser


# ---------------------------------------------------------------------------
# config file merge

def _apply_config(parser: argparse.ArgumentParser,
                  args: argparse.Namespace) -> argparse.Namespace:
    """Fill the flags left unset from the --config file.  A value is read
    as the flag's own text would be, through the flag's `type`: a file
    cannot give what the command line refuses (n = 100.5), and "7" is 7."""
    if not args.config:
        return args
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices[args.command]._actions}
    ns = vars(args)
    for key, value in data.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config") or dest not in ns:
            raise UsageError(f"unknown config key {key!r} for "
                             f"subcommand {args.command!r}")
        if ns[dest] is None and value is not None:
            ns[dest] = _config_value(actions[dest], key, value)
    return args


def _config_value(action: argparse.Action, key: str, value):
    convert = action.type or str
    try:
        if isinstance(action, argparse._AppendAction):
            if not isinstance(value, list):
                raise ValueError
            return [convert(str(v)) for v in value]
        return convert(str(value))
    except ValueError:
        raise UsageError(f"config key {key!r} cannot take {value!r}") from None


def _require(args: argparse.Namespace, *names: str) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name.replace('_', '-')} is required "
                             "(flag or config file)")


def _parse_kv_list(entries, what: str) -> dict:
    out = {}
    for entry in entries or ():
        key, sep, raw = entry.partition("=")
        if not sep or not key:
            raise UsageError(f"{what} must look like KEY=VALUE, got {entry!r}")
        if key in out:
            raise UsageError(f"{what} sets {key!r} twice")
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _float_list(text: str, flag: str):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise UsageError(f"{flag} expects a comma list of finite numbers, "
                     f"got {text!r}")


def _open_out(args: argparse.Namespace):
    if args.out is None:
        return sys.stdout, False
    return open(args.out, "w", encoding="utf-8"), True


def _write_text(path_or_stdout, text: str) -> None:
    stream, close = path_or_stdout
    try:
        stream.write(text)
    finally:
        if close:
            stream.close()


# ---------------------------------------------------------------------------
# subcommand handlers

def _finite_row(flag: str, value, cells) -> str:
    """The CSV row of one --x or --b entry; a usage error when a cell is
    not a finite float, which an entry too large for double precision
    gives (kingman lambda(1e300) overflows to inf)."""
    cells = [float(v) for v in cells]
    if not all(map(math.isfinite, cells)):
        raise UsageError(f"{flag} entry {value!r} gives a non-finite "
                         "value; it is beyond double precision")
    return ",".join(map(repr, cells))


def _cmd_rates(args: argparse.Namespace) -> int:
    _require(args, "measure")
    if (args.x is None) == (args.b is None):
        raise UsageError("give exactly one of --x or --b")
    rates = rates_for(parse_measure(args.measure))
    lines = []
    # an overflow is reported as a usage error by _finite_row, not warned
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if args.x is not None:
            lines.append("x,mu,mu_prime,mu_double_prime,kappa,H_inv_x,s_at_x")
            for x in _float_list(args.x, "--x"):
                if not x >= 1.0:
                    raise UsageError(f"--x entries must be >= 1, got {x!r}")
                mu, d1, d2 = rates.mu_derivatives(x)
                try:
                    cells = [x, mu, d1, d2, rates.kappa(x),
                             rates.H_function(1.0 / x)]
                except OverflowError:
                    # a power of 1/x in the H transform
                    raise UsageError(f"--x entry {x!r} overflows; it is "
                                     "beyond double precision") from None
                try:
                    cells.append(rates.s_at(x))
                except ValueError as exc:
                    # mu(x)/x is inf, or mu overflows before reaching it
                    raise UsageError(f"--x entry {x!r} has no scale s(x): "
                                     f"{exc}") from None
                lines.append(_finite_row("--x", x, cells))
        else:
            lines.append("b,total_rate,mean_decrement")
            for entry in _float_list(args.b, "--b"):
                b = int(entry)
                if b != entry:
                    raise UsageError(
                        f"--b entries must be integers, got {entry!r}")
                row = _finite_row("--b", entry, (rates.total_jump_rate(b),
                                                  rates.mean_decrement(b)))
                lines.append(f"{b},{row}")
    _write_text(_open_out(args), "\n".join(lines) + "\n")
    return 0


def _rep_path(out: str, index: int, reps: int) -> Path:
    base = Path(out)
    if reps == 1:
        return base
    suffix = base.suffix or ".csv"
    return base.with_name(f"{base.stem}_rep{index}{suffix}")


def _cmd_paths(args: argparse.Namespace, want_lengths: bool) -> int:
    _require(args, "measure", "n")
    reps = 1 if args.reps is None else int(args.reps)
    if reps < 1:
        raise UsageError("--reps must be >= 1")
    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    seed = DEFAULT_SEED if args.seed is None else args.seed
    sampler = MergerSizeSampler(rates_for(parse_measure(args.measure)),
                                args.n)
    for i in range(reps):
        # replication i is the one-path chunk on the Philox key (seed, i),
        # chunk i of sub-run 0 in run_ensemble; replication 0 is simulate_path
        path = _run_chunk(sampler, args.n, 1, seed, i,
                          [PathRecorder])["paths"][0]
        if args.out is None:
            stream, close = sys.stdout, False
        else:
            stream = open(_rep_path(args.out, i, reps), "w", encoding="utf-8")
            close = True
        try:
            if want_lengths:
                path.external_lengths().dump_csv(stream)
            else:
                path.dump_csv(stream)
        finally:
            if close:
                stream.close()
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    _require(args, "measure", "theorem", "n", "reps")
    report = run_experiment(ExperimentConfig(
        measure=args.measure,
        theorem=args.theorem,
        n=args.n,
        replications=args.reps,
        seed=DEFAULT_SEED if args.seed is None else args.seed,
        params=_parse_kv_list(args.param, "--param"),
        tolerances=_parse_kv_list(args.tol, "--tol")))

    primary = report.to_json() + "\n"
    if args.out is None:
        sys.stdout.write(primary)
        print(report, file=sys.stderr)
    else:
        out = Path(args.out)
        out.write_text(primary, encoding="utf-8")
        meta = {"runtime_ms": report.runtime_ms, "sampler": report.sampler,
                "quadrature": report.quadrature}
        out.with_suffix(out.suffix + ".meta.json").write_text(
            json.dumps(meta, sort_keys=True, indent=2) + "\n",
            encoding="utf-8")
        for name, grid in sorted(report.ecdf_grids.items()):
            rows = ["value,ecdf"]
            rows += [f"{float(v)!r},{float(e)!r}" for v, e in grid]
            out.with_name(f"{out.stem}.{name}.csv").write_text(
                "\n".join(rows) + "\n", encoding="utf-8")
        print(report)
    return 3 if report.verdict == "FAIL" else 0


def _cmd_limits(args: argparse.Namespace) -> int:
    if args.sample_ell is not None:
        reps = 1 if args.reps is None else int(args.reps)
        seed = DEFAULT_SEED if args.seed is None else args.seed
        draws = sample_cox_extremes(args.sample_ell, seed=seed, reps=reps)
        draws = draws.reshape(reps, args.sample_ell)
        header = ",".join(f"u{j + 1}" for j in range(args.sample_ell))
        lines = [header]
        lines += [",".join(repr(float(v)) for v in row) for row in draws]
        _write_text(_open_out(args), "\n".join(lines) + "\n")
        return 0

    _require(args, "family")
    if args.family == "exact_bs_moment":
        _require(args, "n", "t", "r")
        value = float(moehle_factorial_moment(args.n, args.t, args.r))
        _write_text(_open_out(args), f"moment\n{value!r}\n")
        return 0

    _require(args, "x")
    xs = _float_list(args.x, "--x")
    law = LimitLaw(args.family, args.alpha)
    if args.family == "poisson_tail":
        lines = ["x,intensity_tail"]
        lines += [f"{x!r},{float(poisson_intensity_tail(law.alpha, x))!r}"
                  for x in xs]
    else:
        lines = ["x,cdf,density"]
        for x in xs:
            cdf = float(law.cdf(x))
            try:
                dens = repr(float(law.density(x)))
            except ValueError:
                dens = ""
            lines.append(f"{x!r},{cdf!r},{dens}")
    _write_text(_open_out(args), "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# entry point

_DISPATCH = {
    "rates": _cmd_rates,
    "simulate": lambda a: _cmd_paths(a, want_lengths=False),
    "lengths": lambda a: _cmd_paths(a, want_lengths=True),
    "experiment": _cmd_experiment,
    "limits": _cmd_limits,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = _apply_config(parser, args)
        return _DISPATCH[args.command](args)
    except MeasureParseError as exc:
        print(f"error: bad measure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # usage errors and every value the library rejects
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RegimeError, ArithmeticError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
