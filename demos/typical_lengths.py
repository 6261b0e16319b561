"""One coalescent path under the microscope, then the distributional
check that a uniformly chosen external branch length, properly scaled,
matches its limit law.

Runs in a few seconds.
"""

from coalsim.experiments import ExperimentConfig, run_experiment
from coalsim.measure import bolthausen_sznitman
from coalsim.rates import rates_for
from coalsim.sim import simulate_path


def path_anatomy() -> None:
    rates = rates_for(bolthausen_sznitman())
    path = simulate_path(rates, n=12, seed=20)
    print("one uniform-measure path from 12 blocks (seed 20)")
    print("  j  X_before  K  absorbed  wait      t_jump")
    for j in range(path.num_jumps):
        print(f"  {j}  {path.block_count_before[j]:8d}  "
              f"{path.merger_size[j]}  {path.absorbed_singletons[j]:8d}  "
              f"{path.waiting_time[j]:.4f}    {path.jump_time[j]:.4f}")
    ext = path.external_lengths()
    print(f"external branch lengths: {ext.total} leaves in "
          f"{ext.values.size} distinct values")
    print(f"  longest {ext.values.max():.4f}, "
          f"shortest {ext.values.min():.4f}\n")


def scaled_length_reports() -> None:
    print("scaled typical length vs the limit law (KS distance)")
    print("pair-merger case, n = 2000, scale mu(n)/n:")
    report = run_experiment(ExperimentConfig(
        measure="kingman", theorem="T1.1", n=2000, replications=2000))
    print(report)
    print()
    print("uniform measure, n = 5000, scale log n (unit-exponential limit):")
    report = run_experiment(ExperimentConfig(
        measure="bolthausen-sznitman", theorem="T1.1", n=5000,
        replications=2000, params={"scale": "log_n"}))
    print(report)


def main() -> None:
    path_anatomy()
    scaled_length_reports()


if __name__ == "__main__":
    main()
