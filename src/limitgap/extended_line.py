"""The homeomorphism h: R-bar -> [0, 1], its inverse, and the arctangent metric.

h is evaluated through the identity arccot(x) = pi/2 - arctan(x), so
h(x) = 1/2 + arctan(x)/pi.  Double precision carries 53 significant bits.
The endpoints are pinned exactly: h(-inf) = 0 and h(+inf) = 1 involve no
rounding at all.

Image points remember where they came from: a UnitReal carries its float
coordinate plus the originating R-bar point, and compares as the pair
(float, preimage), so the preimage decides whenever two floats collide.
Since h is strictly increasing, distinct preimages are genuinely distinct
points of [0, 1] even when double precision cannot separate them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

from .errors import DomainError
from .measure_core import NEG_INF, POS_INF, DiscreteMeasure, ExtReal, _Record, _ordered_by, finite


_set = object.__setattr__  # one global lookup per field: h builds a UnitReal per atom


class UnitReal(_Record):
    """A point of [0, 1] in the image of h, tagged with its preimage."""

    __slots__ = ("value", "exact", "preimage")

    def __init__(self, value: float, exact: bool, preimage: ExtReal) -> None:
        _set(self, "value", value)
        _set(self, "exact", exact)
        _set(self, "preimage", preimage)

    # As a dataclass with order=True whose `exact` has compare=False.
    __eq__, __hash__, __lt__, __le__, __gt__, __ge__ = _ordered_by("value", "preimage")

    def __str__(self) -> str:
        return f"{self.value:.17g}"

    def json_value(self) -> dict[str, Any]:
        return {"value": f"{self.value:.17g}", "exact": self.exact}


def saturating_float(x: ExtReal) -> float:
    """float(x), sending magnitudes beyond the double range to +-inf."""
    if not x.is_finite:
        return x.tag * math.inf
    try:
        return float(x.value)
    except OverflowError:
        return math.inf if x.value > 0 else -math.inf


def h(x: ExtReal) -> UnitReal:
    """Strictly increasing map of R-bar onto [0, 1]; endpoints are exact."""
    if not x.is_finite:  # tag -1 or 1: h(-inf) = 0.0 and h(+inf) = 1.0
        return UnitReal((x.tag + 1) / 2, True, x)
    value = 0.5 + math.atan(saturating_float(x)) / math.pi
    value = min(max(value, 0.0), 1.0)
    return UnitReal(value, x.value == 0, x)


def h_inv(y: UnitReal | float) -> ExtReal:
    """Inverse of h.  Exact at the endpoints, tangent formula in between.

    A UnitReal argument is resolved through its stored preimage, which makes
    the round trip h_inv(h(x)) = x exact.  A bare float in [0, 1] goes
    through x = tan(pi*(y - 1/2)).
    """
    if isinstance(y, UnitReal):
        return y.preimage
    if not 0.0 <= y <= 1.0:
        raise DomainError(f"h_inv argument {y!r} outside [0, 1]")
    if y == 0.0:
        return NEG_INF
    if y == 1.0:
        return POS_INF
    return finite(Fraction(math.tan(math.pi * (y - 0.5))))


def metric_d(x: ExtReal, y: ExtReal) -> float:
    """The arctangent metric d(x, y) = |arctan x - arctan y| on R-bar."""
    return abs(math.atan(saturating_float(x)) - math.atan(saturating_float(y)))


def compactify_measure(m: DiscreteMeasure) -> DiscreteMeasure:
    """Push a measure on R-bar forward through h onto [0, 1].

    Masses stay exact rationals; only the support coordinates change.  The
    preimage-based identity of UnitReal keeps distinct atoms distinct even
    when their float images round to the same double.
    """
    return m.pushforward(h)
