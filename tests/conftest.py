"""Shared fixtures."""

import pytest

from coalsim.measure import CustomDensity, LambdaMeasure, PowerBetaDensity


def _twin(measure: LambdaMeasure) -> LambdaMeasure:
    def custom(dens):
        if not isinstance(dens, PowerBetaDensity):
            return dens
        c, a, b = dens.c, dens.a, dens.b
        return CustomDensity(
            lambda p: c * p ** (a - 1.0) * (1.0 - p) ** (b - 1.0), a, b)

    return LambdaMeasure(measure.atom_at_zero, measure.atoms,
                         tuple(map(custom, measure.densities)))


@pytest.fixture
def quadrature_twin():
    """The measure with each power-beta density c p**(a-1) (1-p)**(b-1)
    replaced by a CustomDensity of the same formula and exponents (a, b):
    the rate layer then evaluates it by quadrature, which gives the closed
    forms an independent reference."""
    return _twin
