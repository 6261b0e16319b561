"""Quadrature oracle for `coalsim.limits.logistic_cdf`.

The centered maximum of the Bolthausen-Sznitman external lengths has a
Cox limit: a Gumbel law whose intensity level is a unit exponential.
Averaging the Gumbel void probability over that level by adaptive
Gauss-Legendre gives the logistic CDF along a path independent of its
closed form.
"""

import math

import numpy as np

from coalsim.quadrature import adaptive_integrate


def cox_max_cdf(x) -> float:
    """CDF of the centered maximum as the Cox mixture: the Gumbel void
    probability e^(-y e^-x) averaged over the unit-exponential intensity
    level y, by quadrature.  The mixture is the logistic law, so this is
    an independent check of `logistic_cdf`."""
    x = float(x)
    rate = 1.0 + math.exp(-x)
    upper = 60.0 / rate

    def integrand(y):
        return np.exp(-y * rate)

    return adaptive_integrate(integrand, 0.0, upper)
