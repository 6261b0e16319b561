"""Finite measures on [0, 1] driving coalescent merger rates.

A measure is stored in three parts that later integrate differently against
the ``1/p**2`` kernels: a point mass at 0, point masses in (0, 1), and
absolutely continuous components.  Density components are power-beta,
``c * p**(a-1) * (1-p)**(b-1)``, whose moments against ``p**j (1-p)**k``
have the closed form ``c * B(a+j, b+k)``, so every rate has a closed form.

Text form (case-insensitive, terms joined by "+")::

    kingman[:mass]                unit (or given) mass at 0
    bolthausen-sznitman           uniform density on (0, 1)
    beta:x,y                      normalized Beta(x, y) probability density
    powerbeta:c=C,a=A,b=B         unnormalized power-beta density
    dirac:p=P,m=M                 mass M at P in (0, 1)

Instances are immutable; ``+`` concatenates components without merging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special


class MeasureParseError(ValueError):
    """Raised on malformed measure text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class PowerBetaDensity:
    """Density c * p**(a-1) * (1-p)**(b-1) on (0, 1).

    ``a`` is the left endpoint exponent (behaviour p**(a-1) at 0), ``b`` the
    right one.  ``c`` is an arbitrary positive coefficient, so the component
    is in general not a probability density.
    """

    c: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if not all(0 < v < math.inf for v in (self.c, self.a, self.b)):
            raise ValueError("power-beta parameters must be positive and "
                             "finite")

    def mass(self) -> float:
        return self.c * special.beta(self.a, self.b)


@dataclass(frozen=True)
class LambdaMeasure:
    """Immutable finite measure on [0, 1].

    Attributes
    ----------
    atom_at_zero : float
        Mass at p = 0 (the Kingman component).
    atoms : tuple of (p, mass)
        Point masses at locations in (0, 1).
    densities : tuple
        PowerBetaDensity components, summed.
    """

    atom_at_zero: float = 0.0
    atoms: tuple = ()
    densities: tuple = ()

    def __post_init__(self) -> None:
        if not 0 <= self.atom_at_zero < math.inf:     # also rejects NaN
            raise ValueError("atom at zero must be finite and nonnegative")
        object.__setattr__(self, "atoms", tuple(
            (float(p), float(m)) for p, m in self.atoms))
        object.__setattr__(self, "densities", tuple(self.densities))
        for p, m in self.atoms:
            if not 0.0 < p < 1.0:
                raise ValueError(
                    "interior atoms live in (0, 1): use atom_at_zero for "
                    "p = 0; an atom at p = 1 is not supported")
            if not 0 < m < math.inf:
                raise ValueError("atom masses must be finite and positive")
        for dens in self.densities:
            if not isinstance(dens, PowerBetaDensity):
                raise ValueError(f"unsupported density component: {dens!r}")

    def __add__(self, other: "LambdaMeasure") -> "LambdaMeasure":
        if not isinstance(other, LambdaMeasure):
            return NotImplemented
        return LambdaMeasure(self.atom_at_zero + other.atom_at_zero,
                             self.atoms + other.atoms,
                             self.densities + other.densities)

    @property
    def is_trivial(self) -> bool:
        return (self.atom_at_zero == 0 and not self.atoms
                and not self.densities)


# ---------------------------------------------------------------------------
# parsing

def _parse_number(text: str, position: int, what: str) -> float:
    token = text.strip()
    if not token:
        raise MeasureParseError(f"missing {what}", position)
    try:
        value = float(token)
    except ValueError:
        raise MeasureParseError(f"bad {what} {token!r}", position) from None
    if not math.isfinite(value):
        raise MeasureParseError(f"{what} must be finite", position)
    return value


def _parse_keyvals(body: str, offset: int, keys: tuple[str, ...],
                   what: str) -> dict[str, float]:
    out: dict[str, float] = {}
    pos = offset
    for part in body.split(","):
        if "=" not in part:
            raise MeasureParseError(
                f"{what} takes key=value pairs {keys}", pos)
        key, _, val = part.partition("=")
        key = key.strip()
        if key not in keys:
            raise MeasureParseError(f"unknown {what} key {key!r}", pos)
        if key in out:
            raise MeasureParseError(f"duplicate {what} key {key!r}", pos)
        out[key] = _parse_number(val, pos + part.index("=") + 1, f"{what} {key}")
        pos += len(part) + 1
    missing = [k for k in keys if k not in out]
    if missing:
        raise MeasureParseError(f"{what} missing {missing}", offset)
    return out


def _parse_term(term: str, offset: int) -> LambdaMeasure:
    stripped = term.strip()
    pos = offset + (len(term) - len(term.lstrip()))
    if not stripped:
        raise MeasureParseError("empty term", pos)
    head, colon, body = stripped.partition(":")
    name = head.strip().lower()
    body_pos = pos + len(head) + 1

    if name == "kingman":
        mass = _parse_number(body, body_pos, "kingman mass") if colon else 1.0
        if mass <= 0:
            raise MeasureParseError("kingman mass must be positive", body_pos)
        return LambdaMeasure(atom_at_zero=mass)

    if name == "bolthausen-sznitman":
        if colon:
            raise MeasureParseError("bolthausen-sznitman takes no parameters",
                                    body_pos)
        return LambdaMeasure(densities=(PowerBetaDensity(1.0, 1.0, 1.0),))

    if not colon:
        raise MeasureParseError(f"unknown measure term {name!r}", pos)

    if name == "beta":
        parts = body.split(",")
        if len(parts) != 2:
            raise MeasureParseError("beta takes two parameters x,y", body_pos)
        x = _parse_number(parts[0], body_pos, "beta parameter")
        y = _parse_number(parts[1], body_pos + len(parts[0]) + 1,
                          "beta parameter")
        if x <= 0 or y <= 0:
            raise MeasureParseError("beta parameters must be positive",
                                    body_pos)
        mass = float(special.beta(x, y))
        norm = 1.0 / mass if mass > 0 else math.inf
        if not 0 < norm < math.inf:
            raise MeasureParseError(
                f"beta term: 1/B({x!r}, {y!r}) = {norm!r} is not a finite "
                "positive float", body_pos)
        return LambdaMeasure(densities=(PowerBetaDensity(norm, x, y),))

    if name == "powerbeta":
        kv = _parse_keyvals(body, body_pos, ("c", "a", "b"), "powerbeta")
        if min(kv.values()) <= 0:
            raise MeasureParseError("powerbeta parameters must be positive",
                                    body_pos)
        return LambdaMeasure(densities=(
            PowerBetaDensity(kv["c"], kv["a"], kv["b"]),))

    if name == "dirac":
        kv = _parse_keyvals(body, body_pos, ("p", "m"), "dirac")
        if not 0.0 < kv["p"] < 1.0:
            raise MeasureParseError(
                "dirac location must lie in (0, 1): use kingman for mass "
                "at 0; an atom at p = 1 is not supported", body_pos)
        if kv["m"] <= 0:
            raise MeasureParseError("dirac mass must be positive", body_pos)
        return LambdaMeasure(atoms=((kv["p"], kv["m"]),))

    raise MeasureParseError(f"unknown measure term {name!r}", pos)


def parse_measure(text: str) -> LambdaMeasure:
    """Parse the textual measure grammar; see the module docstring."""
    if not text or not text.strip():
        raise MeasureParseError("empty measure", 0)
    result = LambdaMeasure()
    offset = 0
    for term in text.split("+"):
        result = result + _parse_term(term, offset)
        offset += len(term) + 1
    return result


# Ready-made building blocks used throughout the tests and demos.
def kingman(mass: float = 1.0) -> LambdaMeasure:
    return LambdaMeasure(atom_at_zero=mass)


def bolthausen_sznitman() -> LambdaMeasure:
    return LambdaMeasure(densities=(PowerBetaDensity(1.0, 1.0, 1.0),))


def power_beta(c: float, a: float, b: float = 1.0) -> LambdaMeasure:
    return LambdaMeasure(densities=(PowerBetaDensity(c, a, b),))
