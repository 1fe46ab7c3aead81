"""Weak limits, tightness, and the two rival evaluation orders.

A limiting probability can be formed two ways: apply the limiting measure to
the limiting set (order a), or take the numeric limit of the per-n masses
(order b).  For tight families the two agree; for families whose mass escapes
to infinity they need not, and the reports here keep the two results —
a mass of a measure versus a bare number-limit — strictly apart.

All sequence limits are detected, never assumed: a trailing window of exact
rational equality, an exactly geometric tail, or an even/odd pair of
stabilized subsequences; anything else is inconclusive.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from importlib import import_module
from typing import Any, Callable, NamedTuple, Sequence

from .errors import (
    BadEpsilonError,
    BadSequenceSpecError,
    DomainError,
    EvaluationError,
    InconclusiveError,
    NoSetLimitError,
    NoWeakLimitError,
)
from .measure_core import (
    NEG_INF,
    POS_INF,
    DiscreteMeasure,
    ExtReal,
    Interval,
    MeasurableSet,
    _Record,
    _fields_json,
    _value_json,
    finite,
    parse_rational,
    rat_str,
)
from .families import (  # tests and perfbench's tracer read the family names from here
    _BUILTINS,
    MeasureFamily,
    _check_index,
    builtin_family,
    table_family,
)

_WINDOW = 8
_TAIL = _WINDOW + 1  # the most trailing terms analyze_rational_sequence reads

_set = object.__setattr__  # one global lookup per field: every query builds a report


# ---------------------------------------------------------------------------
# records that answer as dataclasses


class _Fields:
    """A record class's `__dataclass_fields__`, built on first read and kept on the class.

    The fields are those `dataclasses.make_dataclass` gives for `__slots__`,
    with `__init__`'s annotations and defaults, so `dataclasses.fields`,
    `replace` and `asdict` work as they did on the frozen dataclasses these
    types were; a caller that never asks does not import `dataclasses`.
    """

    def __get__(self, instance: object, cls: type) -> dict[str, Any]:
        dataclasses = import_module("dataclasses")  # here, so no module loads it when imported
        init = cls.__init__
        defaults = dict(zip(reversed(cls.__slots__), reversed(init.__defaults__ or ())))
        spec = [(name, init.__annotations__[name],
                 dataclasses.field(default=defaults.get(name, dataclasses.MISSING)))
                for name in cls.__slots__]
        made = dataclasses.make_dataclass(cls.__name__, spec).__dataclass_fields__
        cls.__dataclass_fields__ = made  # in place of this descriptor
        return made


class _LimitRecord(_Record):
    """A record that answers as a frozen dataclass: `dataclasses.is_dataclass`,
    `fields`, `replace` and `asdict` work on it, and it matches by position.

    Each subclass gives an `__init__` taking `__slots__` in order, with the
    annotations and defaults of the dataclass field it stands for.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls.__dataclass_fields__ = _Fields()
        cls.__match_args__ = cls.__slots__
        # A dataclass's signature ends "-> None"; postponed annotations make it "-> 'None'".
        cls.__init__.__annotations__["return"] = None


# ---------------------------------------------------------------------------
# exact limit detection for rational sequences


class SequenceAnalysis(_LimitRecord):
    """How a finite rational sequence settles, if it does.

    kind is "constant" (trailing window equal), "geometric" (trailing diffs
    form an exact geometric tail with |ratio| < 1; value extrapolates it),
    "divergent" (even and odd subsequences stabilize at different values),
    or "inconclusive".
    """

    __slots__ = ("kind", "value", "witness", "pair")

    def __init__(self, kind: str, value: Fraction | None, witness: str,
                 pair: tuple[Fraction, Fraction] | None = None) -> None:
        _set(self, "kind", kind)
        _set(self, "value", value)
        _set(self, "witness", witness)
        _set(self, "pair", pair)


def analyze_rational_sequence(
    values: Sequence[Fraction], count: int | None = None
) -> SequenceAnalysis:
    """Detect the limit of a sequence of count terms from its trailing terms.

    values holds the last terms of the sequence; without count it is the
    whole sequence.  Only the last _TAIL terms are read, so a caller may pass
    just those with count set; fewer than min(count, _TAIL) values, or more
    than count, raises ValueError.  Witnesses index the terms 1..count.
    """
    if count is None:
        count = len(values)
    elif not min(count, _TAIL) <= len(values) <= count:
        raise ValueError(
            f"need the last {min(count, _TAIL)} of {count} terms, got {len(values)}"
        )
    if count >= 2:
        window = min(_WINDOW, count)
        tail = values[-window:]
        if all(v == tail[0] for v in tail):
            return SequenceAnalysis(
                "constant",
                tail[0],
                f"last {window} terms (n={count - window + 1}..{count}) all equal "
                f"{rat_str(tail[0])}",
            )
    if count >= 4:
        tail = values[-min(_TAIL, count):]
        diffs = [b - a for a, b in zip(tail, tail[1:])]
        if all(d != 0 for d in diffs):
            ratios = {b / a for a, b in zip(diffs, diffs[1:])}
            if len(ratios) == 1:
                ratio = ratios.pop()
                if abs(ratio) < 1:
                    value = values[-1] + diffs[-1] * ratio / (1 - ratio)
                    return SequenceAnalysis(
                        "geometric",
                        value,
                        f"trailing differences form an exact geometric tail with "
                        f"ratio {rat_str(ratio)}; summing it gives {rat_str(value)}",
                    )
    if count >= 6:
        window = min(_WINDOW, count if count % 2 == 0 else count - 1)
        tail = values[-window:]
        evens, odds = tail[0::2], tail[1::2]
        if (
            all(v == evens[0] for v in evens)
            and all(v == odds[0] for v in odds)
            and evens[0] != odds[0]
        ):
            gap = abs(evens[0] - odds[0])
            return SequenceAnalysis(
                "divergent",
                None,
                f"two subsequences stabilize at {rat_str(evens[0])} and "
                f"{rat_str(odds[0])}, a gap of {rat_str(gap)}",
                pair=(evens[0], odds[0]),
            )
    return SequenceAnalysis(
        "inconclusive",
        None,
        f"no trailing-window constancy, exact geometric tail, or stabilized "
        f"subsequence pair over {count} terms",
    )


# ---------------------------------------------------------------------------
# builtin member masses


def _member_mass(fam: MeasureFamily, n: int, s: MeasurableSet) -> Fraction:
    """Member n's mass of the set s; a builtin builds no member.

    A builtin reads its cdf at the ends of each interval of s, and of each
    isolated point as [p, p]: the last integer the piece holds, less the last
    one below it.  The infinities carry no mass.
    """
    if fam.table is not None:
        return fam.member(n).mass_of_set(s)
    cdf = _BUILTINS[fam.kind].cdf

    def through(x: ExtReal, closed: bool) -> Fraction:  # the mass of (-inf, x] or (-inf, x)
        if not x.is_finite:
            return Fraction(x == POS_INF)
        return cdf(n, math.floor(x.value) if closed else math.ceil(x.value) - 1)

    pieces = (*s.intervals, *(Interval(p, True, p, True) for p in s.points))
    return sum(
        (through(*iv._upper) - through(*iv._lower) for iv in pieces),
        Fraction(0),
    )


class _SequenceKind(NamedTuple):
    value: Callable[[int, Fraction], Fraction]  # x_n from n and q
    limit: Callable[[Fraction], ExtReal]  # lim x_n from q
    direction: str
    before: str  # spec text before q, which then carries its sign and is left out when 0
    after: str  # spec text after q


# One row per RealSequence kind, in the order specs are tried: "const" matches any.
_SEQUENCE_KINDS = {
    "affine": _SequenceKind(lambda n, q: n + q, lambda q: POS_INF, "increasing", "n", ""),
    "approach_above": _SequenceKind(
        lambda n, q: q + Fraction(1, n), finite, "decreasing", "", "+1/n"),
    "approach_below": _SequenceKind(
        lambda n, q: q - Fraction(1, n), finite, "increasing", "", "-1/n"),
    "const": _SequenceKind(lambda n, q: q, finite, "constant", "", ""),
}


class RealSequence(_LimitRecord):
    """A monotone rational sequence x_n in one of four closed forms.

    kind "affine": x_n = n + q (increasing to +inf); "approach_above":
    x_n = q + 1/n (decreasing to q); "approach_below": x_n = q - 1/n
    (increasing to q); "const": x_n = q.
    """

    __slots__ = ("kind", "q")

    def __init__(self, kind: str, q: Fraction) -> None:
        if kind not in _SEQUENCE_KINDS:
            raise DomainError(f"unknown sequence kind {kind!r}; use {', '.join(_SEQUENCE_KINDS)}")
        _set(self, "kind", kind)
        _set(self, "q", q)

    def value(self, n: int) -> Fraction:
        return _SEQUENCE_KINDS[self.kind].value(n, self.q)

    @property
    def limit(self) -> ExtReal:
        return _SEQUENCE_KINDS[self.kind].limit(self.q)

    @property
    def direction(self) -> str:
        return _SEQUENCE_KINDS[self.kind].direction

    def describe(self) -> str:
        row, q = _SEQUENCE_KINDS[self.kind], self.q
        if not row.before:
            return rat_str(q) + row.after
        return row.before if q == 0 else f"{row.before}{'+' if q > 0 else ''}{rat_str(q)}"


def parse_sequence_spec(text: str) -> RealSequence:
    """Parse "n", "n+c", "n-c", "q+1/n", "q-1/n", or a constant "q"."""
    spec = text.replace(" ", "")
    if not spec:
        raise BadSequenceSpecError("empty sequence spec")
    try:
        for kind, row in _SEQUENCE_KINDS.items():
            signed = spec.removeprefix(row.before)
            if row.before and signed != spec and signed[:1] in ("", "+", "-"):
                return RealSequence(kind, parse_rational(signed or "0"))
            if not row.before and spec.endswith(row.after):
                return RealSequence(kind, parse_rational(spec[:len(spec) - len(row.after)]))
    except ValueError:  # BadRationalError is a ValueError
        raise BadSequenceSpecError(
            f"unsupported sequence spec {text!r}; use n, n+c, n-c, q+1/n, q-1/n, or q"
        ) from None


class SetFamily(_LimitRecord):
    """An indexed sequence n -> measurable set with a declared limit notion.

    Limits exist only for constant, monotone-increasing (limit = union), and
    monotone-decreasing (limit = intersection) families; explicit lists must
    be eventually constant.
    """

    __slots__ = ("kind", "seq", "point", "table")  # kind: "ray_seq", "singleton", or "table"

    def __init__(self, kind: str, seq: RealSequence | None = None, point: ExtReal | None = None,
                 table: tuple[MeasurableSet, ...] | None = None) -> None:
        _set(self, "kind", kind)
        _set(self, "seq", seq)
        _set(self, "point", point)
        _set(self, "table", table)
        source = {"ray_seq": "seq", "singleton": "point", "table": "table"}
        if self.kind not in source:
            raise DomainError(f"unknown set family kind {self.kind!r}; use {', '.join(source)}")
        if self.kind == "table" and not self.table:
            raise DomainError("explicit set list needs at least one set")
        if self.kind != "table" and self.table is not None:
            raise DomainError(f"a {self.kind} set family takes no table")
        if getattr(self, source[self.kind]) is None:
            raise DomainError(f"a {self.kind} set family needs its {source[self.kind]}")

    def member(self, n: int) -> MeasurableSet:
        _check_index(n, self.table, "set", "explicit set list")
        if self.kind == "ray_seq":
            return MeasurableSet.lower_ray(finite(self.seq.value(n)))
        if self.kind == "singleton":
            return MeasurableSet.singleton(self.point)
        return self.table[n - 1]

    def limit(self) -> tuple[MeasurableSet, str]:
        """The limiting set and the monotonicity notion that produced it."""
        if self.kind == "singleton":
            return self.member(1), "constant"
        if self.kind == "ray_seq":
            # The ray up to lim x_n, open there when x_n increases to it
            # without reaching it (the union), closed otherwise.
            direction = self.seq.direction
            increasing = direction == "increasing"
            ray = Interval(NEG_INF, False, self.seq.limit, not increasing)
            notion = {
                "increasing": "increasing (union)",
                "decreasing": "decreasing (intersection)",
            }.get(direction, direction)
            return MeasurableSet.from_pieces((ray,)), notion
        last = self.table[-1]
        settle = min(3, len(self.table))
        if any(s != last for s in self.table[-settle:]):
            raise NoSetLimitError(
                "explicit set list is neither constant nor settled over its "
                "last members; only constant and monotone families have limits"
            )
        return last, "eventually constant"

    def describe(self) -> str:
        if self.kind == "ray_seq":
            return f"I({self.seq.describe()})"
        if self.kind == "singleton":
            return "{" + str(self.point) + "}"
        return f"explicit list of {len(self.table)} sets"


def lower_ray_family(seq: RealSequence) -> SetFamily:
    return SetFamily("ray_seq", seq=seq)


def singleton_family(point: ExtReal) -> SetFamily:
    return SetFamily("singleton", point=point)


def set_table_family(sets: Sequence[MeasurableSet]) -> SetFamily:
    return SetFamily("table", table=tuple(sets))


# ---------------------------------------------------------------------------
# reports


class LimitReport(_LimitRecord):
    """Result of one limit evaluation.

    value is an exact rational for the order evaluators, a float for test
    functions, or the status string "divergent"/"inconclusive".  measure_tag
    and set_tag name the limiting measure and set the value is a mass of —
    they are attached by construction for order-(a) results only, because an
    order-(b) number is not the mass of anything.  eligible says whether an
    order-(b) number equals the order-(a) value for the same inputs.
    """

    __slots__ = ("order", "value", "horizon_used", "witness", "measure_tag", "set_tag",
                 "eligible", "witness_pair")

    def __init__(self, order: str, value: Fraction | float | str, horizon_used: int, witness: str,
                 measure_tag: str | None = None, set_tag: str | None = None,
                 eligible: bool | None = None, witness_pair: tuple[Any, Any] | None = None) -> None:
        _set(self, "order", order)
        _set(self, "value", value)
        _set(self, "horizon_used", horizon_used)
        _set(self, "witness", witness)
        _set(self, "measure_tag", measure_tag)
        _set(self, "set_tag", set_tag)
        _set(self, "eligible", eligible)
        _set(self, "witness_pair", witness_pair)

    # Keys by hand: REPORT_DIGESTS pins an order unlike the fields', which the constructor fixes.
    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"order": self.order}
        if isinstance(self.value, str):
            data["status"] = self.value
        else:
            data["value"] = _value_json(self.value)
        data["measure_tag"] = self.measure_tag
        data["set_tag"] = self.set_tag
        data["witness"] = self.witness
        data["horizon_used"] = self.horizon_used
        data["eligible"] = self.eligible
        if self.witness_pair is not None:
            data["witness_pair"] = [_value_json(v) for v in self.witness_pair]
        return data


class TightnessVerdict(_LimitRecord):
    """Whether one interval can hold all but epsilon of every member's mass."""

    __slots__ = ("tight", "epsilon", "witness", "interval")  # tight: True, False, or "inconclusive"

    def __init__(self, tight: bool | str, epsilon: Fraction, witness: str,
                 interval: MeasurableSet | None = None) -> None:
        _set(self, "tight", tight)
        _set(self, "epsilon", epsilon)
        _set(self, "witness", witness)
        _set(self, "interval", interval)

    def to_dict(self) -> dict[str, Any]:
        return {
            "tight": self.tight,
            "epsilon": _value_json(self.epsilon),
            "interval": str(self.interval) if self.interval is not None else None,
            "witness": self.witness,
        }


def _scan(horizon: int, fam: MeasureFamily, sets: SetFamily | None = None) -> int:
    """The number of members a scan reads: horizon, clipped to any table."""
    if horizon < 2:
        raise DomainError(f"horizon must be at least 2, got {horizon}")
    for table in (fam.table, sets and sets.table):
        if table is not None:
            horizon = min(horizon, len(table))
    return horizon


def _limit_scan(horizon: int, fam: MeasureFamily) -> int:
    """_scan for a limit read off the members, which needs two of them to compare."""
    scan = _scan(horizon, fam)
    if scan < 2:
        raise InconclusiveError("explicit family is too short to scan")
    return scan


# ---------------------------------------------------------------------------
# tightness


def tightness_probe(
    fam: MeasureFamily, epsilon: Fraction, horizon: int
) -> TightnessVerdict:
    """Decide sup_n rho_n(I^c) < epsilon for some bounded interval I.

    Builtins get exact closed-form verdicts.  An explicit table is scanned:
    the convex hull of all finite atoms either retains 1 - epsilon of every
    member's mass (tight) or the verdict is inconclusive — a finite list can
    never exhibit the unbounded atom family a non-tight verdict requires.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < 1:
        raise BadEpsilonError(f"epsilon must lie strictly in (0, 1), got {epsilon}")
    scan = _scan(horizon, fam)
    verdict = partial(TightnessVerdict, epsilon=epsilon)
    if fam.table is None:
        tight, witness, interval = _BUILTINS[fam.kind].tightness(epsilon)
        return verdict(tight=tight, witness=witness, interval=interval)
    members = [fam.member(n) for n in range(1, scan + 1)]
    finite_points = [
        p for m in members for p in m.support if isinstance(p, ExtReal) and p.is_finite
    ]
    if finite_points:
        hull = MeasurableSet.interval(min(finite_points), max(finite_points))
        worst_n, worst_outside = 1, Fraction(0)
        for n, m in enumerate(members, 1):
            outside = m.total - m.mass_of_set(hull)
            if outside > worst_outside:
                worst_n, worst_outside = n, outside
        if worst_outside < epsilon:
            return verdict(
                tight=True,
                witness=f"all {scan} members keep at least "
                f"{rat_str(1 - worst_outside)} of their mass inside {hull} "
                f"(worst member n={worst_n})",
                interval=hull,
            )
        detail = (
            f"member n={worst_n} parks mass {rat_str(worst_outside)} at the "
            f"infinities, outside every bounded interval"
        )
    else:
        detail = "no member has any finite atom"
    return verdict(
        tight="inconclusive",
        witness=f"{detail}; a finite table cannot exhibit the unbounded atom "
        "family a non-tight verdict requires",
    )


# ---------------------------------------------------------------------------
# weak limits


def weak_limit_identify(fam: MeasureFamily, horizon: int) -> DiscreteMeasure:
    """Identify the weak limit as a measure on R-bar.

    A builtin's limit is one object, built at import.  For an explicit table
    the mass at every support point must settle (exact trailing window or exact
    geometric tail); mass not claimed by any finite point goes to +inf.
    """
    scan = _limit_scan(horizon, fam)
    if fam.table is None:
        return _BUILTINS[fam.kind].limit
    members = [fam.member(n) for n in range(1, scan + 1)]
    points = sorted({p for m in members for p in m.support})
    limit_pairs: list[tuple[ExtReal, Fraction]] = []
    claimed = Fraction(0)
    for point in points:
        analysis = analyze_rational_sequence([m.mass_at(point) for m in members])
        if analysis.kind not in ("constant", "geometric"):
            raise InconclusiveError(
                f"mass at {point} does not settle within horizon {scan}: "
                f"{analysis.witness}"
            )
        if analysis.value < 0:
            raise InconclusiveError(
                f"mass at {point} extrapolates to the negative value "
                f"{rat_str(analysis.value)}; the tail is not trustworthy"
            )
        if analysis.value:
            limit_pairs.append((point, analysis.value))
            claimed += analysis.value
    if claimed > 1:
        raise InconclusiveError(
            f"identified atom masses sum to {rat_str(claimed)} > 1"
        )
    # Unclaimed mass escapes to +inf; the constructor merges and sorts.
    limit_pairs.append((POS_INF, 1 - claimed))
    return DiscreteMeasure(tuple(limit_pairs))


# ---------------------------------------------------------------------------
# test-function integrals


def integral_limit(
    fam: MeasureFamily,
    f: Callable[[ExtReal], float],
    horizon: int,
) -> LimitReport:
    """The integral sequence s_n = sum of mass * f(point) over member n.

    Verdicts: "converged" when a trailing window is flat to 1e-9, or when the
    family has an identified weak limit, f is evaluable on its support, and
    the empirical error |s_n - integral over the limit| shrinks along the
    scan; "divergent" when the trailing half spreads by 0.1 or more (two
    subsequence witnesses included); otherwise inconclusive.
    """
    scan = _limit_scan(horizon, fam)
    report = partial(LimitReport, order="testfn", horizon_used=scan)

    def integral(m: DiscreteMeasure) -> float:
        acc = 0.0
        for point, mass in m.atoms:
            try:
                acc += float(mass) * f(point)
            except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
                raise EvaluationError(
                    f"test function failed at {point}: {exc}"
                ) from exc
        return acc

    series = [integral(fam.member(n)) for n in range(1, scan + 1)]
    window = series[-min(_WINDOW, scan):]
    spread = max(window) - min(window)
    if spread <= 1e-9:
        return report(
            value=series[-1],
            witness=f"trailing window of {len(window)} integrals is flat "
            f"(spread {spread:.3g})",
        )
    try:
        limit_measure = weak_limit_identify(fam, horizon)
        candidate = integral(limit_measure)
    except (InconclusiveError, EvaluationError):
        candidate = None
    if candidate is not None:
        errors = [abs(s - candidate) for s in series]
        half_err, last_err = errors[scan // 2], errors[-1]
        if last_err <= 0.75 * half_err and last_err < 0.1:
            return report(
                value=candidate,
                witness=f"integral over the identified weak limit is "
                f"{candidate:.17g}; the empirical error fell from "
                f"{half_err:.3g} at n={scan // 2 + 1} to {last_err:.3g} at n={scan}",
            )
    half = series[scan // 2 :]
    spread_half = max(half) - min(half)
    if spread_half >= 0.1:
        hi_idx = max(range(len(half)), key=lambda i: half[i])
        lo_idx = min(range(len(half)), key=lambda i: half[i])
        hi_n, lo_n = scan // 2 + 1 + hi_idx, scan // 2 + 1 + lo_idx
        return report(
            value="divergent",
            witness=f"s_{hi_n} = {half[hi_idx]:.6g} and s_{lo_n} = "
            f"{half[lo_idx]:.6g} stay {spread_half:.6g} apart over the "
            f"trailing half of the scan",
            witness_pair=(half[hi_idx], half[lo_idx]),
        )
    return report(
        value="inconclusive",
        witness=f"trailing spread {spread:.3g} is neither flat (<= 1e-9) nor "
        f"divergent (>= 0.1) and no weak-limit route applies",
    )


# ---------------------------------------------------------------------------
# the two evaluation orders


def _limit_measure(fam: MeasureFamily, horizon: int) -> DiscreteMeasure:
    """The weak limit order (a) applies; failing to identify it is NoWeakLimitError."""
    try:
        return weak_limit_identify(fam, horizon)
    except InconclusiveError as exc:
        raise NoWeakLimitError(str(exc)) from exc


def _order_a(rho: DiscreteMeasure, sets: SetFamily, scan: int) -> LimitReport:
    """The order-(a) report for rho, a weak limit already identified."""
    alpha, notion = sets.limit()
    return LimitReport(
        order="a",
        value=rho.mass_of_set(alpha),
        horizon_used=scan,
        measure_tag=(rho_text := str(rho)),
        set_tag=(alpha_text := str(alpha)),
        witness=f"limit measure {rho_text} applied to limit set {alpha_text} "
        f"({notion} limit of {sets.describe()})",
    )


def _order_b(
    fam: MeasureFamily, sets: SetFamily, horizon: int, order_a: Callable[[], LimitReport]
) -> LimitReport:
    """The order-(b) report, graded against order_a(), called once a limit is found."""
    scan = _scan(horizon, fam, sets)
    values = [
        _member_mass(fam, n, sets.member(n)) for n in range(max(1, scan - _WINDOW), scan + 1)
    ]
    analysis = analyze_rational_sequence(values, count=scan)
    if analysis.kind == "inconclusive":
        raise InconclusiveError(
            f"mass sequence has no detectable limit within horizon {scan}: "
            f"{analysis.witness}"
        )
    try:
        eligible = analysis.value == order_a().value
    except (NoWeakLimitError, NoSetLimitError):
        eligible = None
    return LimitReport(
        order="b",
        value="divergent" if analysis.kind == "divergent" else analysis.value,
        horizon_used=scan,
        witness=analysis.witness,
        eligible=eligible,
        witness_pair=analysis.pair,
    )


def order_a_limit(
    fam: MeasureFamily, sets: SetFamily, horizon: int = 32
) -> LimitReport:
    """Order (a): the limiting measure applied to the limiting set.

    The result is always a mass — measure_tag and set_tag name which measure
    and which set produced it.
    """
    return _order_a(_limit_measure(fam, horizon), sets, _scan(horizon, fam))


def order_b_limit(
    fam: MeasureFamily, sets: SetFamily, horizon: int
) -> LimitReport:
    """Order (b): the numeric limit of the per-n masses rho_n(alpha_n).

    The result is a bare number, never tagged with a measure or a set.  It
    is probability-eligible exactly when it equals order_a_limit's value for
    the same inputs, which is sought only once a limit is detected; the flag
    is omitted when order (a) is unavailable.  Only the last _TAIL masses up
    to the scan horizon are computed, since they are all the detector reads.
    """
    return _order_b(fam, sets, horizon, lambda: order_a_limit(fam, sets, horizon))


# ---------------------------------------------------------------------------
# the Lemma-style three-way check


class BranchReport(_LimitRecord):
    """Both evaluation orders on rho_n(I(x_n)), against the tightness verdict.

    branch "a" covers x_n -> x finite (equality of the orders is predicted
    at continuity points, where the limit measure puts no mass at x);
    branch "b" covers x_n increasing to +inf, where the prediction splits on
    tightness: equal orders for tight families, and for non-tight ones an
    order-(a) value of 1 - rho({+inf}) with the order-(b) number ineligible.
    """

    __slots__ = ("branch", "xs", "order_a", "order_b", "tightness", "predicted", "holds",
                 "continuity_mass", "infinity_mass")

    def __init__(self, branch: str, xs: str, order_a: LimitReport, order_b: LimitReport,
                 tightness: TightnessVerdict, predicted: str, holds: bool | None,
                 continuity_mass: Fraction | None = None,
                 infinity_mass: Fraction | None = None) -> None:
        _set(self, "branch", branch)
        _set(self, "xs", xs)
        _set(self, "order_a", order_a)
        _set(self, "order_b", order_b)
        _set(self, "tightness", tightness)
        _set(self, "predicted", predicted)
        _set(self, "holds", holds)
        _set(self, "continuity_mass", continuity_mass)
        _set(self, "infinity_mass", infinity_mass)

    to_dict = _fields_json


def branch_check(
    fam: MeasureFamily, xs: RealSequence | str, horizon: int
) -> BranchReport:
    """Run both evaluation orders on rho_n((-inf, x_n]) and grade the outcome.

    The threshold sequence x_n (given as a spec string or a RealSequence)
    either settles at a finite x — where agreement of the orders is predicted
    at continuity points — or climbs to +inf, where the prediction splits on
    the tightness verdict.  The report carries both orders, the verdict, the
    prediction, and whether it held.  The weak limit is identified once, or
    NoWeakLimitError raised, and serves order (a), the eligibility of order
    (b), and the continuity and infinity masses.
    """
    if isinstance(xs, str):
        xs = parse_sequence_spec(xs)
    sets = lower_ray_family(xs)
    rho = _limit_measure(fam, horizon)
    order_a = _order_a(rho, sets, _scan(horizon, fam))
    order_b = _order_b(fam, sets, horizon, lambda: order_a)
    tightness = tightness_probe(fam, Fraction(1, 2), horizon)
    continuity_mass = infinity_mass = None
    if xs.limit.is_finite:
        branch = "a"
        continuity_mass = rho.mass_at(xs.limit)
        if continuity_mass == 0:
            predicted = (
                "x_n has a finite limit x and the limit measure puts no mass "
                "at x, so the two orders agree"
            )
            holds = order_a.value == order_b.value
        else:
            predicted = (
                f"x_n has a finite limit x but the limit measure puts mass "
                f"{rat_str(continuity_mass)} at x; no agreement is predicted"
            )
            holds = None
    else:
        branch = "b"
        infinity_mass = rho.mass_at(POS_INF)
        if tightness.tight is True:
            predicted = "x_n increases to +inf and the family is tight, so the two orders agree"
            holds = order_a.value == order_b.value
        elif tightness.tight is False:
            predicted = (
                "x_n increases to +inf and the family is not tight: the order-(a) "
                "mass is 1 - rho({+inf}) and the order-(b) number is not "
                "probability-eligible"
            )
            holds = order_a.value == 1 - infinity_mass and order_b.eligible is False
        else:
            predicted = "tightness is inconclusive, so no relation is predicted"
            holds = None
    return BranchReport(
        branch=branch,
        xs=xs.describe(),
        order_a=order_a,
        order_b=order_b,
        tightness=tightness,
        predicted=predicted,
        holds=holds,
        continuity_mass=continuity_mass,
        infinity_mass=infinity_mass,
    )
