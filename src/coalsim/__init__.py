"""Numerically exact Lambda-coalescent rates, simulation, and limit-law checks.

Layers, lowest first:

  quadrature   adaptive Gauss-Legendre with endpoint-singularity substitutions
  measure      finite measures on [0,1]: atoms, densities, a small text grammar
  rates        merger rates, total jump rate, mu and friends, scaling sequences
  sim          merger-size sampler, dY draw, path records
  ensemble     the lockstep jump loop with pluggable statistics trackers
  limits       closed-form limit laws (typical, Frechet, Poisson, logistic)
  experiments  seeded Monte Carlo verdicts against those laws
  cli          command-line entry point (`coalsim`)

Everything downstream of `measure` is deterministic given (config, seed).
"""

from .quadrature import adaptive_integrate, integrate_tail
from .measure import (
    LambdaMeasure,
    MeasureParseError,
    PowerBetaDensity,
    bolthausen_sznitman,
    kingman,
    parse_measure,
    power_beta,
)
from .rates import (
    RateFunctions,
    rates_for,
    t_c_sequence,
    t_sequence,
)
from .sim import (
    DEFAULT_SEED,
    CoalescentPath,
    ExternalLengths,
    MergerSizeSampler,
    as_rate_functions,
    simulate_path,
)
from .ensemble import (
    BlockCountAtTimesTracker,
    ChunkTracker,
    LevelCrossingTracker,
    MarkedLeafTracker,
    PathRecorder,
    ThresholdCountTracker,
    TopLengthsTracker,
    run_ensemble,
)
from .limits import (
    LimitLaw,
    frechet_cdf,
    logistic_cdf,
    moehle_factorial_moment,
    poisson_intensity_tail,
    sample_cox_extremes,
    typical_cdf,
    typical_density,
)
from .experiments import (
    CATALOG,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    RegimeError,
    Statistic,
    ks_statistic,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "adaptive_integrate", "integrate_tail",
    "LambdaMeasure", "MeasureParseError", "PowerBetaDensity",
    "bolthausen_sznitman", "kingman", "parse_measure", "power_beta",
    "RateFunctions", "rates_for", "t_c_sequence", "t_sequence",
    "DEFAULT_SEED", "CoalescentPath", "ExternalLengths",
    "MergerSizeSampler", "as_rate_functions", "simulate_path",
    "BlockCountAtTimesTracker", "ChunkTracker", "LevelCrossingTracker",
    "MarkedLeafTracker", "PathRecorder", "ThresholdCountTracker",
    "TopLengthsTracker", "run_ensemble",
    "LimitLaw", "frechet_cdf", "logistic_cdf",
    "moehle_factorial_moment", "poisson_intensity_tail",
    "sample_cox_extremes", "typical_cdf", "typical_density",
    "CATALOG", "ConfigError", "ExperimentConfig", "ExperimentReport",
    "RegimeError", "Statistic", "ks_statistic", "run_experiment",
    "__version__",
]
