"""Tour of the rate layer: jump rates, the rate of decrease mu, and the
diagnostics that decide which asymptotic regime a measure lives in.

Runs in a couple of seconds, output is a set of small tables.
"""

import numpy as np

from coalsim.measure import bolthausen_sznitman, kingman, power_beta
from coalsim.rates import rates_for

MEASURES = (
    ("kingman", kingman()),
    ("uniform (BS)", bolthausen_sznitman()),
    ("powerbeta a=0.5", power_beta(1.0, 0.5)),
    ("powerbeta a=1.5", power_beta(1.0, 1.5)),
)


def jump_rate_table() -> None:
    print("total jump rate and mean merger decrement")
    print(f"{'measure':>16} | " + " | ".join(f"b={b:<14d}" for b in (2, 10, 100)))
    for name, m in MEASURES:
        r = rates_for(m)
        cells = [f"{r.total_jump_rate(b):9.1f} {r.mean_decrement(b):5.2f}"
                 for b in (2, 10, 100)]
        print(f"{name:>16} | " + " | ".join(cells))
    print("(kingman only ever merges pairs, so its decrement is exactly 1;")
    print(" the heavy measures take larger bites as b grows)\n")


def merger_size_profile(b: int = 20) -> None:
    print(f"merger size distribution at b = {b}: P(K = k) for small k")
    ks = np.arange(2, 8)
    for name, m in MEASURES:
        dist = rates_for(m).merger_size_distribution(b)[: ks.size]
        print(f"{name:>16} | " + " ".join(f"{p:6.3f}" for p in dist))
    print()


def growth_and_regime() -> None:
    print("growth of mu and the regime diagnostics")
    print(f"{'measure':>16} | {'mu(1e4)':>10} | {'s(1e4)':>8} | "
          f"{'alpha-hat':>9} | dust verdict")
    for name, m in MEASURES:
        r = rates_for(m)
        diag = r.dust_diagnostic()
        s_n = r.s_at(1e4) if diag == "dustless" else float("nan")
        print(f"{name:>16} | {r.rate_of_decrease(1e4):10.3g} | {s_n:8.3g} | "
              f"{r.rv_exponent_estimate():9.3f} | {diag}")
    print("(alpha-hat is the log-log slope of mu on [1e3, 1e6]; s(n) solves")
    print(" mu(s) = mu(n)/n and separates typical from maximal lengths;")
    print(" dusty measures keep a positive fraction of singletons forever")
    print(" and fall outside the external-length limit theorems)\n")


def small_rate_checks() -> None:
    print("spot checks against hand values")
    r = rates_for(bolthausen_sznitman())
    print(f"  uniform measure: lambda(5)   = {r.total_jump_rate(5):.12f}"
          "  (expected 4)")
    print(f"  uniform measure: mu(2)       = {r.rate_of_decrease(2):.12f}"
          "  (expected 1)")
    k = rates_for(kingman())
    print(f"  kingman: pair rate at b = 7  = {k.merger_rate(7, 2):.12f}"
          "  (expected 1)")
    print(f"  kingman: lambda(7) = C(7,2)  = {k.total_jump_rate(7):.12f}")


def main() -> None:
    jump_rate_table()
    merger_size_profile()
    growth_and_regime()
    small_rate_checks()


if __name__ == "__main__":
    main()
