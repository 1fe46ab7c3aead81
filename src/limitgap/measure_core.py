"""Exact discrete (sub)probability measures on the extended real line.

Points live on R-bar = R with two added endpoints -inf and +inf.  All masses
and finite coordinates are `fractions.Fraction`; nothing in this module ever
touches a float, so every comparison and sum is bit-exact.

Sets are finite unions of intervals (each endpoint open or closed) plus a
finite point set, kept in a normal form where structural equality coincides
with set equality.
"""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction
from typing import Any, Callable, Iterable

from .errors import BadRationalError, DomainError, NegativeMassError, TotalExceedsOneError

_NEG, _FIN, _POS = -1, 0, 1
_EXPONENT = re.compile(r"E([-+]?\d+(?:_\d+)*)\Z", re.IGNORECASE)


def rat_str(q: Fraction) -> str:
    """Canonical "num/den" rendering, denominator always present."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        limit = sys.get_int_max_str_digits()
        raise DomainError(f"a rational past the {limit}-digit limit cannot be printed") from None


def _value_json(value: Any) -> Any:
    """A report field as JSON: a rational as rat_str, a float to 17 digits, a report as its dict."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    return value.to_dict() if hasattr(value, "to_dict") else value


def _fields_json(record: _Record) -> dict[str, Any]:
    """A report's dict: each field in `__slots__` order, through _value_json."""
    return {key: _value_json(value) for key, value in zip(record.__slots__, record._values())}


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" (or a plain integer string) into an exact rational.

    An exponent whose power of ten would pass sys.get_int_max_str_digits() is
    refused before that power is built.
    """
    stripped = text.strip()
    exponent, limit = _EXPONENT.search(stripped), sys.get_int_max_str_digits()
    try:
        if exponent and 0 < limit <= abs(int(exponent[1])):
            raise DomainError(f"the exponent of {text!r} passes the {limit}-digit limit")
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError):
        raise BadRationalError(f"not an exact rational: {text!r}") from None


class _Record:
    """An immutable slotted record, read field by field in `__slots__` order.

    The constructor, equality (within one class), hash, repr and pickling
    match a frozen dataclass's; any assignment or deletion raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        """Take each field once, by position or keyword, in `__slots__` order."""
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__qualname__}() takes the fields "
                            f"{', '.join(names)} once each, got {len(args)} by position "
                            f"and {', '.join(kwargs) or 'none'} by keyword")
        for name in names:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple | dict[str, Any]) -> None:
        if isinstance(state, dict):  # pickled when the type was a dataclass: its __dict__
            state = [state[name] for name in self.__slots__]
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)


def _ordered_by(*fields: str) -> tuple[Callable[..., Any], ...]:
    """`__eq__`, `__hash__`, `__lt__`, `__le__`, `__gt__` and `__ge__` on the tuple of `fields`,
    as a dataclass with order=True makes them: a compare with another class is NotImplemented."""
    key = operator.attrgetter(*fields)

    def compare(op: Callable[[tuple, tuple], bool]) -> Callable[[Any, object], Any]:
        def method(self: Any, other: object) -> Any:
            if other.__class__ is self.__class__:
                return op(key(self), key(other))
            return NotImplemented
        return method

    def hash_(self: Any) -> int:
        return hash(key(self))

    return (compare(operator.eq), hash_, compare(operator.lt), compare(operator.le),
            compare(operator.gt), compare(operator.ge))


class ExtReal(_Record):
    """A point of R-bar: -inf, a finite rational, or +inf.

    The total order puts -inf below every finite rational and +inf above;
    finite points compare as rationals, so they can serve as measure support
    points.  Instances are immutable and hashable, so they can be dict keys.
    """

    __slots__ = ("tag", "value")  # tag _NEG < _FIN < _POS, compared before value

    def __init__(self, tag: int, value: Fraction | int | str | None = None) -> None:
        if tag == _FIN:
            if value is None:
                raise ValueError("a finite point carries a value")
            if not isinstance(value, Fraction):
                value = Fraction(value)
        elif tag != _NEG and tag != _POS:
            raise ValueError(f"a point's tag is -1, 0 or 1, got {tag!r}")
        elif value is not None:
            raise ValueError("infinite points carry no value")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "value", value)

    __eq__, __hash__, __lt__, __le__, __gt__, __ge__ = _ordered_by("tag", "value")

    @property
    def is_finite(self) -> bool:
        return self.tag == _FIN

    def __str__(self) -> str:
        if self.tag == _NEG:
            return "-inf"
        if self.tag == _POS:
            return "+inf"
        return rat_str(self.value)


NEG_INF = ExtReal(_NEG)
POS_INF = ExtReal(_POS)


def finite(value: Fraction | int | str) -> ExtReal:
    """Wrap a rational as a finite point of R-bar."""
    return ExtReal(_FIN, Fraction(value))


def parse_ext_real(text: str) -> ExtReal:
    """Parse "-inf" | "num/den" | "+inf"."""
    stripped = text.strip()
    if stripped == "-inf":
        return NEG_INF
    if stripped == "+inf":
        return POS_INF
    return finite(parse_rational(stripped))


class Interval(_Record):
    """An interval of R-bar with independently open/closed endpoints."""

    __slots__ = ("lo", "lo_closed", "hi", "hi_closed")

    def __init__(self, lo: ExtReal, lo_closed: bool, hi: ExtReal, hi_closed: bool) -> None:
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "lo_closed", lo_closed)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "hi_closed", hi_closed)

    # Each end as a (point, side) key, where side True sorts just after the
    # point: an open lower end starts after lo, a closed upper end ends after hi.
    @property
    def _lower(self) -> tuple[ExtReal, bool]:
        return self.lo, not self.lo_closed

    @property
    def _upper(self) -> tuple[ExtReal, bool]:
        return self.hi, self.hi_closed

    @classmethod
    def _between(cls, lower: tuple[ExtReal, bool], upper: tuple[ExtReal, bool]) -> Interval:
        """The interval from a lower key to an upper key: the inverse of the two above."""
        return cls(lower[0], not lower[1], *upper)

    @property
    def is_empty(self) -> bool:
        return self._lower >= self._upper

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi and self.lo_closed and self.hi_closed

    def contains(self, x: ExtReal) -> bool:
        return self._lower <= (x, False) < self._upper

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


def _merged(intervals: Iterable[Interval], points: Iterable[ExtReal]) -> list[Interval]:
    """The non-empty pieces, points as closed intervals, sorted and merged."""
    pieces = [iv for iv in intervals if not iv.is_empty]
    pieces.extend(Interval(p, True, p, True) for p in points)
    pieces.sort(key=lambda iv: iv._lower)
    merged: list[Interval] = []
    for piece in pieces:
        if merged and piece._lower <= merged[-1]._upper:  # overlapping or touching
            last = merged[-1]
            merged[-1] = Interval._between(last._lower, max(last._upper, piece._upper))
        else:
            merged.append(piece)
    return merged


class MeasurableSet(_Record):
    """A finite union of intervals plus a finite point set, in normal form.

    Normal form: intervals are non-degenerate, sorted, and pairwise disjoint
    with no mergeable gaps; isolated points are sorted and lie strictly
    outside every interval.  The constructor puts any pieces in that form,
    so structural equality means set equality.
    """

    __slots__ = ("intervals", "points")

    def __init__(self, intervals: Iterable[Interval] = (), points: Iterable[ExtReal] = ()) -> None:
        merged = _merged(intervals, points)
        object.__setattr__(self, "intervals", tuple(iv for iv in merged if not iv.is_point))
        object.__setattr__(self, "points", tuple(iv.lo for iv in merged if iv.is_point))

    @classmethod
    def from_pieces(
        cls,
        intervals: Iterable[Interval] = (),
        points: Iterable[ExtReal] = (),
    ) -> MeasurableSet:
        return cls(tuple(intervals), tuple(points))

    @classmethod
    def empty(cls) -> MeasurableSet:
        return cls()

    @classmethod
    def reals(cls) -> MeasurableSet:
        """All finite points: the open interval (-inf, +inf)."""
        return cls((Interval(NEG_INF, False, POS_INF, False),))

    @classmethod
    def extended_reals(cls) -> MeasurableSet:
        """The whole space R-bar = [-inf, +inf]."""
        return cls((Interval(NEG_INF, True, POS_INF, True),))

    @classmethod
    def from_points(cls, points: Iterable[ExtReal]) -> MeasurableSet:
        return cls.from_pieces((), points)

    @classmethod
    def singleton(cls, point: ExtReal) -> MeasurableSet:
        return cls.from_points((point,))

    @classmethod
    def interval(
        cls,
        lo: ExtReal,
        hi: ExtReal,
        lo_closed: bool = True,
        hi_closed: bool = True,
    ) -> MeasurableSet:
        return cls.from_pieces((Interval(lo, lo_closed, hi, hi_closed),))

    @classmethod
    def lower_ray(cls, x: ExtReal) -> MeasurableSet:
        """The set (-inf, x] of finite points at most x."""
        return cls.from_pieces((Interval(NEG_INF, False, x, True),))

    @property
    def is_empty(self) -> bool:
        return not self.intervals and not self.points

    def contains(self, x: ExtReal) -> bool:
        if x in self.points:
            return True
        return any(iv.contains(x) for iv in self.intervals)

    def union(self, other: MeasurableSet) -> MeasurableSet:
        return MeasurableSet.from_pieces(
            self.intervals + other.intervals, self.points + other.points
        )

    def complement(self, ambient: str) -> MeasurableSet:
        """Complement within "R" (finite points) or "Rbar" (all of R-bar).

        The ambient must be named explicitly: R \\ (-inf, x] and
        R-bar \\ (-inf, x] differ exactly at the two infinities, so the R
        complement is the R-bar complement of the set with both added.
        """
        if ambient == "R":
            infinities: tuple[ExtReal, ...] = (NEG_INF, POS_INF)
        elif ambient == "Rbar":
            infinities = ()
        else:
            raise ValueError(f"unknown ambient {ambient!r} (use 'R' or 'Rbar')")
        # Each gap runs from one piece's upper key to the next piece's lower key.
        pieces = _merged(self.intervals, self.points + infinities)
        uppers = [(NEG_INF, False)] + [piece._upper for piece in pieces]
        lowers = [piece._lower for piece in pieces] + [(POS_INF, True)]
        return MeasurableSet.from_pieces(map(Interval._between, uppers, lowers))

    def intersection(self, other: MeasurableSet) -> MeasurableSet:
        inside_out = self.complement("Rbar").union(other.complement("Rbar"))
        return inside_out.complement("Rbar")

    def __str__(self) -> str:
        parts = [str(iv) for iv in self.intervals]
        if self.points:
            parts.append("{" + ", ".join(str(p) for p in self.points) + "}")
        return " U ".join(parts) if parts else "(empty)"


_POINT = operator.itemgetter(0)


class DiscreteMeasure(_Record):
    """A finite atom map with exact rational masses and total at most 1.

    Construction normalizes in one sorted pass: each mass is converted and
    checked in input order, atoms are stably sorted by point, equal points
    are summed onto the first point given, and zero-mass atoms dropped.
    `total` is computed, never supplied.  Support points are ExtReal
    throughout this module; any totally ordered point type works, hashable
    or not (the compactification maps supports into [0, 1] unit-interval
    points).
    """

    __slots__ = ("atoms", "total")

    def __init__(self, atoms: Iterable[tuple[Any, Fraction | int | str]]) -> None:
        object.__setattr__(self, "atoms", atoms)
        self.__post_init__()  # looked up on the class, where a tracer may wrap it

    def __post_init__(self) -> None:
        checked = []
        for point, mass in self.atoms:
            mass = Fraction(mass)
            if mass < 0:
                raise NegativeMassError(f"negative mass {rat_str(mass)} at {point}")
            checked.append((point, mass))
        # Stable, so equal points keep their input order.  Atoms that arrive in
        # order (builtin and table members, pushforwards through the
        # compactification) cost n - 1 compares.
        checked.sort(key=_POINT)
        merged: list[tuple[Any, Fraction]] = []
        for point, mass in checked:
            if merged and point == merged[-1][0]:
                merged[-1] = (merged[-1][0], merged[-1][1] + mass)
            else:
                merged.append((point, mass))
        cleaned = tuple(atom for atom in merged if atom[1])
        total = sum((mass for _, mass in cleaned), Fraction(0))
        if total > 1:
            raise TotalExceedsOneError(rat_str(total))
        object.__setattr__(self, "atoms", cleaned)
        object.__setattr__(self, "total", total)

    @property
    def support(self) -> tuple[Any, ...]:
        return tuple(point for point, _ in self.atoms)

    @property
    def is_probability(self) -> bool:
        return self.total == 1

    @property
    def is_subprobability(self) -> bool:
        return self.total < 1

    def mass_at(self, point: Any) -> Fraction:
        for p, mass in self.atoms:
            if p == point:
                return mass
        return Fraction(0)

    def mass_of_set(self, s: MeasurableSet) -> Fraction:
        """Exact mass of a set: the sum over atoms it contains."""
        return sum(
            (mass for point, mass in self.atoms if s.contains(point)), Fraction(0)
        )

    def cdf(self, x: ExtReal) -> Fraction:
        """Mass of [-inf, x]; non-decreasing in x, cdf(+inf) = total."""
        return sum((mass for point, mass in self.atoms if point <= x), Fraction(0))

    def restrict_to_reals(self) -> DiscreteMeasure:
        """Drop any atoms at the two infinities; the total shrinks by their mass."""
        kept = tuple(
            (point, mass)
            for point, mass in self.atoms
            if not (isinstance(point, ExtReal) and not point.is_finite)
        )
        return DiscreteMeasure(kept)

    def pushforward(self, f: Callable[[Any], Any]) -> DiscreteMeasure:
        """Transport atom masses through a point map; colliding images sum."""
        return DiscreteMeasure(tuple((f(point), mass) for point, mass in self.atoms))

    def __str__(self) -> str:
        body = ", ".join(f"{point}: {rat_str(mass)}" for point, mass in self.atoms)
        return "{" + body + "}"


def dirac(point: Any) -> DiscreteMeasure:
    """The probability measure with a single atom of mass 1 at `point`."""
    return DiscreteMeasure(((point, Fraction(1)),))


def from_mass_pairs(
    pairs: Iterable[tuple[Any, Fraction | int | str]],
) -> DiscreteMeasure:
    """Build a measure from (point, mass) pairs.

    Points given as plain ints, Fractions, or strings are wrapped as finite
    ExtReal coordinates; a bool or float point is refused with DomainError.
    Raises NegativeMassError for any mass < 0 and TotalExceedsOneError (with
    the exact sum) when masses add to more than 1.
    """
    atoms = []
    for point, mass in pairs:
        if isinstance(point, (bool, float)):
            raise DomainError(f"a point cannot be the {type(point).__name__} {point!r}")
        if isinstance(point, (int, Fraction, str)):
            point = finite(point)
        atoms.append((point, mass))  # the constructor converts each mass
    return DiscreteMeasure(tuple(atoms))


class AdditivityReport(_Record):
    """Whether mass(A) + mass(B) is itself the mass of an event.

    `disjoint` is set-theoretic disjointness of A and B; `eligible` says the
    sum equals mass(A u B), i.e. no atom of the measure sits in the overlap.
    A sum over overlapping events is a well-defined number but not the
    measure of any set.
    """

    __slots__ = ("mass_a", "mass_b", "mass_union", "mass_sum", "disjoint", "eligible")

    to_dict = _fields_json


def check_additivity(
    m: DiscreteMeasure, a: MeasurableSet, b: MeasurableSet
) -> AdditivityReport:
    mass_a = m.mass_of_set(a)
    mass_b = m.mass_of_set(b)
    mass_union = m.mass_of_set(a.union(b))
    return AdditivityReport(
        mass_a=mass_a,
        mass_b=mass_b,
        mass_union=mass_union,
        mass_sum=mass_a + mass_b,
        disjoint=a.intersection(b).is_empty,
        eligible=mass_a + mass_b == mass_union,
    )


def _point_json(point: Any) -> Any:
    return point.json_value() if hasattr(point, "json_value") else str(point)


def measure_to_dict(m: DiscreteMeasure) -> dict[str, Any]:
    """The shared JSON shape: sorted {point, mass} records plus the total."""
    return {
        "atoms": [
            {"point": _point_json(point), "mass": rat_str(mass)}
            for point, mass in m.atoms
        ],
        "total": rat_str(m.total),
    }


def _check_keys(record: dict[str, Any], what: str, types: dict[str, type]) -> None:
    """Refuse a key of `record` not in `types`, or a value not of its type."""
    for key, value in record.items():
        if key not in types or not isinstance(value, types[key]):
            expected = ", ".join(f"{k} ({t.__name__})" for k, t in types.items())
            raise ValueError(f"{what} takes only {expected}, got {key!r}")


def measure_from_dict(data: dict[str, Any]) -> DiscreteMeasure:
    """Read measure_to_dict's shape; a `total`, when given, must be the atoms' sum."""
    _check_keys(data, "a measure", {"atoms": list, "total": str})
    pairs = []
    for rec in data["atoms"]:
        _check_keys(rec, "an atom", {"point": str, "mass": str})
        pairs.append((parse_ext_real(rec["point"]), parse_rational(rec["mass"])))
    m = from_mass_pairs(pairs)
    if "total" in data and parse_rational(data["total"]) != m.total:
        raise ValueError(f"'total' is {data['total']}, but the atoms sum to {rat_str(m.total)}")
    return m


def interval_to_dict(iv: Interval) -> dict[str, Any]:
    return {
        "lo": str(iv.lo),
        "lo_closed": iv.lo_closed,
        "hi": str(iv.hi),
        "hi_closed": iv.hi_closed,
    }


def set_to_dict(s: MeasurableSet) -> dict[str, Any]:
    return {
        "intervals": [interval_to_dict(iv) for iv in s.intervals],
        "points": [str(p) for p in s.points],
    }


def _interval_from_dict(rec: dict[str, Any]) -> Interval:
    _check_keys(rec, "an interval", {"lo": str, "lo_closed": bool, "hi": str, "hi_closed": bool})
    return Interval(
        parse_ext_real(rec["lo"]), rec["lo_closed"], parse_ext_real(rec["hi"]), rec["hi_closed"]
    )


def set_from_dict(data: dict[str, Any]) -> MeasurableSet:
    _check_keys(data, "a set", {"intervals": list, "points": list})
    intervals = [_interval_from_dict(rec) for rec in data.get("intervals", ())]
    points = [parse_ext_real(p) for p in data.get("points", ())]
    return MeasurableSet.from_pieces(intervals, points)
