"""Measure layer: component validation, masses, and the text grammar."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from coalsim.measure import (LambdaMeasure, MeasureParseError,
                             PowerBetaDensity, bolthausen_sznitman, kingman,
                             parse_measure, power_beta)


# ---------------------------------------------------------------------------
# components

def test_power_beta_moment_closed_form():
    dens = PowerBetaDensity(c=2.5, a=0.7, b=1.3)
    assert dens.mass() == pytest.approx(2.5 * special.beta(0.7, 1.3), rel=1e-14)


def test_power_beta_rejects_nonpositive_params():
    # and non-finite ones: c = inf was once accepted
    for bad in [dict(c=0.0, a=1.0, b=1.0), dict(c=1.0, a=-0.5, b=1.0),
                dict(c=1.0, a=1.0, b=0.0), dict(c=math.inf, a=1.0, b=1.0),
                dict(c=1.0, a=math.inf, b=1.0), dict(c=1.0, a=1.0, b=math.inf),
                dict(c=math.nan, a=1.0, b=1.0)]:
        with pytest.raises(ValueError):
            PowerBetaDensity(**bad)


# ---------------------------------------------------------------------------
# LambdaMeasure

def test_measure_validation():
    with pytest.raises(ValueError):
        LambdaMeasure(atom_at_zero=-1.0)
    with pytest.raises(ValueError):
        LambdaMeasure(atoms=((0.0, 1.0),))
    with pytest.raises(ValueError):
        LambdaMeasure(atoms=((1.5, 1.0),))
    with pytest.raises(ValueError):
        LambdaMeasure(atoms=((0.5, 0.0),))
    with pytest.raises(ValueError):
        LambdaMeasure(densities=("not a density",))
    with pytest.raises(ValueError):      # a density is power-beta
        LambdaMeasure(densities=(np.ones_like,))


@pytest.mark.parametrize("bad", [
    dict(atom_at_zero=math.nan), dict(atom_at_zero=math.inf),
    dict(atoms=((0.5, math.nan),)), dict(atoms=((0.5, math.inf),)),
    dict(atoms=((math.nan, 1.0),))])
def test_measure_refuses_non_finite_masses(bad):
    # a NaN mass at 0 was once accepted: it is truthy, yet no rate table
    # row was made for it, and the sampler raised StopIteration
    with pytest.raises(ValueError, match="finite|live in"):
        LambdaMeasure(**bad)


def test_addition_concatenates():
    m = kingman(2.0) + bolthausen_sznitman() + LambdaMeasure(
        atoms=((0.3, 0.5),))
    assert m.atom_at_zero == 2.0
    assert m.atoms == ((0.3, 0.5),)
    assert len(m.densities) == 1
    assert not m.is_trivial
    assert LambdaMeasure().is_trivial


# ---------------------------------------------------------------------------
# grammar

def test_parse_kingman_variants():
    assert parse_measure("kingman").atom_at_zero == 1.0
    assert parse_measure("KINGMAN:2.5").atom_at_zero == 2.5
    with pytest.raises(MeasureParseError):
        parse_measure("kingman:0")
    with pytest.raises(MeasureParseError):
        parse_measure("kingman:")


def test_parse_bolthausen_sznitman():
    m = parse_measure("bolthausen-sznitman")
    assert m.densities == (PowerBetaDensity(1.0, 1.0, 1.0),)
    with pytest.raises(MeasureParseError):
        parse_measure("bolthausen-sznitman:1")


def test_parse_beta_normalizes():
    m = parse_measure("beta:0.5,1.5")
    (dens,) = m.densities
    assert dens.a == 0.5 and dens.b == 1.5
    assert dens.c == pytest.approx(1.0 / special.beta(0.5, 1.5), rel=1e-14)
    assert dens.mass() == pytest.approx(1.0, rel=1e-14)


@pytest.mark.parametrize("text", ["beta:600,600", "beta:1e-320,1"])
def test_parse_beta_rejects_a_normalizer_out_of_range(text):
    # B(600, 600) underflows to 0 and B(1e-320, 1) overflows: 1/B once
    # became c = inf, or c = 0 reported as a nonpositive parameter
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MeasureParseError, match="1/B"):
            parse_measure(text)


@pytest.mark.parametrize("text", ["beta:1", "beta:-1,1",
                                  "powerbeta:c=-1,a=1,b=1"])
def test_parse_rejects_missing_or_nonpositive_parameters(text):
    with pytest.raises(MeasureParseError):
        parse_measure(text)


def test_parse_powerbeta_key_order_free():
    a = parse_measure("powerbeta:c=2,a=0.5,b=1")
    b = parse_measure("powerbeta:b=1,c=2,a=0.5")
    assert a == b
    assert a.densities[0].c == 2.0


def test_parse_powerbeta_key_errors():
    with pytest.raises(MeasureParseError):
        parse_measure("powerbeta:c=1,a=1")          # missing b
    with pytest.raises(MeasureParseError):
        parse_measure("powerbeta:c=1,a=1,b=1,c=2")  # duplicate
    with pytest.raises(MeasureParseError):
        parse_measure("powerbeta:c=1,a=1,q=1")      # unknown key
    with pytest.raises(MeasureParseError):
        parse_measure("powerbeta:1,2,3")            # positional


def test_parse_dirac():
    m = parse_measure("dirac:p=0.25,m=3")
    assert m.atoms == ((0.25, 3.0),)
    with pytest.raises(MeasureParseError):
        parse_measure("dirac:p=0,m=1")
    with pytest.raises(MeasureParseError):
        parse_measure("dirac:p=0.5,m=-1")


def test_parse_sum_with_whitespace():
    m = parse_measure(" kingman:1 +  beta:0.5,1 + dirac:p=0.75,m=0.5 ")
    assert m.atom_at_zero == 1.0
    assert len(m.densities) == 1
    assert m.atoms == ((0.75, 0.5),)


def test_atom_at_one_is_rejected():
    # every block merging at once: no rate, draw or kernel handles p = 1
    with pytest.raises(ValueError, match="p = 1"):
        LambdaMeasure(atoms=((1.0, 1.0),))
    with pytest.raises(MeasureParseError, match="p = 1"):
        parse_measure("dirac:p=1,m=1")
    m = parse_measure("dirac:p=0.999,m=1")
    assert m.atoms == ((0.999, 1.0),)


def test_parse_error_position_points_into_text():
    text = "kingman + powerbeta:c=1,a=oops,b=1"
    with pytest.raises(MeasureParseError) as exc:
        parse_measure(text)
    assert text[exc.value.position:].startswith("oops")


def test_parse_rejects_junk():
    for bad in ["", "   ", "kingman + ", "nonsense", "gamma:1,2"]:
        with pytest.raises(MeasureParseError):
            parse_measure(bad)


# ---------------------------------------------------------------------------
# factories

def test_factories_match_grammar():
    assert kingman(3.0) == parse_measure("kingman:3")
    assert power_beta(2.0, 0.5) == parse_measure("powerbeta:c=2,a=0.5,b=1")
