"""Exactness, normal forms, and additivity of the measure layer."""

import copy
import functools
import itertools
import math
import operator
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitgap.errors import (
    DomainError,
    LimitGapError,
    NegativeMassError,
    TotalExceedsOneError,
)
from limitgap.families import MeasureFamily
from limitgap.measure_core import (
    NEG_INF,
    POS_INF,
    AdditivityReport,
    DiscreteMeasure,
    ExtReal,
    Interval,
    MeasurableSet,
    check_additivity,
    dirac,
    finite,
    from_mass_pairs,
    measure_from_dict,
    measure_to_dict,
    parse_ext_real,
    parse_rational,
    rat_str,
    set_from_dict,
    set_to_dict,
)


def test_order_puts_infinities_around_every_finite():
    points = [POS_INF, finite(-1000000), finite("1/3"), NEG_INF, finite(0)]
    assert sorted(points) == [
        NEG_INF,
        finite(-1000000),
        finite(0),
        finite("1/3"),
        POS_INF,
    ]
    assert NEG_INF < finite(-(10**50)) and finite(10**50) < POS_INF
    with pytest.raises(TypeError):
        finite(1) < 1


def test_ext_real_coerces_a_finite_value_and_refuses_an_infinite_one():
    x = ExtReal(finite(0).tag, 3)
    assert type(x.value) is F and x == finite(3)
    for infinity in (NEG_INF, POS_INF):
        with pytest.raises(ValueError, match="infinite points carry no value"):
            ExtReal(infinity.tag, F(1))


@pytest.mark.parametrize("args, message", [
    ((2,), "a point's tag is -1, 0 or 1, got 2"),
    ((-2, None), "a point's tag is -1, 0 or 1, got -2"),
    ((0,), "a finite point carries a value"),
    ((0, None), "a finite point carries a value"),
])
def test_ext_real_refuses_an_unknown_tag_and_a_finite_point_without_a_value(args, message):
    with pytest.raises(ValueError, match=message):
        ExtReal(*args)


# Each record type, the arguments of one instance, its first field and its
# repr as recorded when these types were frozen dataclasses.
_RECORDS = {
    "ExtReal": (ExtReal, (0, 3), "tag", "ExtReal(tag=0, value=Fraction(3, 1))"),
    "Interval": (
        Interval, (NEG_INF, False, finite(F(1, 2)), True), "lo",
        "Interval(lo=ExtReal(tag=-1, value=None), lo_closed=False, "
        "hi=ExtReal(tag=0, value=Fraction(1, 2)), hi_closed=True)",
    ),
    "MeasurableSet": (
        MeasurableSet, ((Interval(finite(0), True, finite(1), False),), (POS_INF,)), "intervals",
        "MeasurableSet(intervals=(Interval(lo=ExtReal(tag=0, value=Fraction(0, 1)), "
        "lo_closed=True, hi=ExtReal(tag=0, value=Fraction(1, 1)), hi_closed=False),), "
        "points=(ExtReal(tag=1, value=None),))",
    ),
    "DiscreteMeasure": (
        DiscreteMeasure, (((POS_INF, F(1)),),), "atoms",
        "DiscreteMeasure(atoms=((ExtReal(tag=1, value=None), Fraction(1, 1)),), "
        "total=Fraction(1, 1))",
    ),
    "AdditivityReport": (
        AdditivityReport, (F(1), F(1), F(1), F(2), False, False), "mass_a",
        "AdditivityReport(mass_a=Fraction(1, 1), mass_b=Fraction(1, 1), "
        "mass_union=Fraction(1, 1), mass_sum=Fraction(2, 1), disjoint=False, eligible=False)",
    ),
    "MeasureFamily": (MeasureFamily, ("mu",), "kind", "MeasureFamily(kind='mu', table=None)"),
}


@pytest.mark.parametrize("cls, args, first, text", _RECORDS.values(), ids=list(_RECORDS))
def test_each_record_keeps_its_dataclass_behaviour(cls, args, first, text):
    a, b = cls(*args), cls(*args)
    assert repr(a) == text
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    twin = type("Twin", (cls,), {})(*args)  # equal fields, another class
    assert a != twin and twin != a
    with pytest.raises(AttributeError):
        setattr(a, first, getattr(b, first))
    with pytest.raises(AttributeError):
        delattr(a, first)
    assert repr(a) == text
    copies = [pickle.loads(pickle.dumps(a, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in (*copies, copy.copy(a), copy.deepcopy(a)):
        assert type(c) is cls and c == a and hash(c) == hash(a) and repr(c) == text


_REPORT_FIELDS = (F(1), F(2), F(3), F(3), True, False)


def test_the_record_constructor_takes_fields_by_position_or_keyword():
    by_name = dict(zip(AdditivityReport.__slots__, _REPORT_FIELDS))
    report = AdditivityReport(*_REPORT_FIELDS)
    assert report == AdditivityReport(**by_name) == AdditivityReport(F(1), F(2), **{
        name: by_name[name] for name in AdditivityReport.__slots__[2:]})
    assert report._values() == _REPORT_FIELDS


@pytest.mark.parametrize("args, kwargs", [
    (_REPORT_FIELDS[:5], {}),
    ((*_REPORT_FIELDS, True), {}),
    (_REPORT_FIELDS, {"mass_a": F(1)}),
    (_REPORT_FIELDS[:5], {"mass_c": F(1)}),
], ids=["missing", "one-too-many", "twice", "unknown"])
def test_the_record_constructor_takes_each_field_once(args, kwargs):
    with pytest.raises(TypeError, match=r"AdditivityReport\(\) takes the fields mass_a, "):
        AdditivityReport(*args, **kwargs)


def test_a_point_equals_and_orders_only_points():
    assert finite(1) != (0, 1) and (0, F(1)) != finite(1)
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(finite(1), 2)


def test_equality_is_exact_rational_equality():
    assert finite(F(2, 4)) == finite("1/2")
    assert finite(1) != finite("1000000000000000001/1000000000000000000")
    assert POS_INF == POS_INF and POS_INF != NEG_INF
    assert len({finite("1/2"), finite("2/4")}) == 1


COMPARES = (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge)


def spellings():
    """Texts of points of R-bar: the infinities, and rationals written unreduced, some
    small enough that equal values come up spelled apart, some past the double range."""
    numerators = st.integers(-3, 3) | st.sampled_from([10**400, 10**400 + 1, -(10**400)])
    return st.sampled_from(["-inf", "+inf"]) | st.builds(
        lambda n, d, k: f"{n * k}/{d * k}", numerators, st.integers(1, 4), st.integers(1, 3))


def r_bar(text):
    """A text's point as a Python number, whose order is R-bar's: -inf and inf
    compare with every Fraction, however large, as the ends of the line."""
    return {"-inf": -math.inf, "+inf": math.inf}.get(text) or F(text)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(texts=st.tuples(spellings(), spellings()))
def test_point_operators_and_hash_follow_the_order_of_r_bar(texts):
    (x, y), (a, b) = map(parse_ext_real, texts), map(r_bar, texts)
    for compare in COMPARES:
        assert compare(x, y) is compare(a, b), (compare, texts)
    if a == b:
        assert hash(x) == hash(y) and len({x, y}) == 1


@pytest.mark.parametrize("text", ["-inf", "+inf", "0/1", "-7/3", "22/7"])
def test_ext_real_serialization_round_trips(text):
    assert str(parse_ext_real(text)) == text


@pytest.mark.parametrize("text", ["abc", "1/0", "", "x/2"])
def test_malformed_rationals_are_domain_and_value_errors(text):
    with pytest.raises(LimitGapError, match="not an exact rational") as exc_info:
        parse_rational(text)
    assert isinstance(exc_info.value, ValueError)
    with pytest.raises(LimitGapError):
        parse_ext_real(text)


def test_rat_str_always_carries_denominator():
    assert rat_str(F(0)) == "0/1"
    assert rat_str(F(3)) == "3/1"
    assert rat_str(F(-1, 2)) == "-1/2"


def test_coin_marginal_from_pairs():
    lam = from_mass_pairs([(0, "1/2"), (1, "1/2")])
    assert lam.mass_at(finite(0)) == F(1, 2)
    assert lam.is_probability and not lam.is_subprobability


def test_empty_pairs_give_zero_measure():
    zero = from_mass_pairs([])
    assert zero.total == 0 and zero.atoms == ()


def test_three_flip_argmax_masses():
    # Frozen from listing all 8 three-flip outcomes by hand: the last index
    # of the maximum is 1 only for 100, 2 for 010/110, and 3 otherwise.
    m = from_mass_pairs([(1, "1/8"), (2, "1/4"), (3, "5/8")])
    assert m.total == 1
    assert m.mass_at(finite(2)) == F(1, 4)


def test_duplicates_merge_and_zero_mass_drops():
    m = from_mass_pairs([(0, "1/4"), (0, "1/4"), (1, 0)])
    assert m.atoms == ((finite(0), F(1, 2)),)


def test_negative_mass_rejected():
    with pytest.raises(NegativeMassError, match="negative mass -1/4"):
        from_mass_pairs([(0, "-1/4")])


def test_total_above_one_reports_exact_sum():
    with pytest.raises(TotalExceedsOneError, match="9/8"):
        from_mass_pairs([(0, "1/2"), (1, "5/8")])


def _dict_normalised(atoms):
    """The normaliser DiscreteMeasure had before its one sorted pass: merge in a
    dict keyed by point, then sort.  Gives (atoms, total, text) or raises as it did."""
    merged = {}
    for point, mass in atoms:
        mass = F(mass)
        if mass < 0:
            raise NegativeMassError(f"negative mass {rat_str(mass)} at {point}")
        merged[point] = merged.get(point, F(0)) + mass
    cleaned = tuple((point, mass) for point, mass in sorted(merged.items()) if mass != 0)
    total = sum((mass for _, mass in cleaned), F(0))
    if total > 1:
        raise TotalExceedsOneError(rat_str(total))
    return cleaned, total, "{" + ", ".join(f"{p}: {rat_str(m)}" for p, m in cleaned) + "}"


def _normalised(atoms):
    m = DiscreteMeasure(tuple(atoms))
    return m.atoms, m.total, str(m)


def _outcome(normalise, atoms):
    """The (atoms, total, text) `normalise` gives, or the type and text of what it raises."""
    try:
        return normalise(atoms)
    except (LimitGapError, ValueError) as exc:
        return type(exc), str(exc)


# Each draw is a fresh object, so equal points (1/2 beside 2/4, a new -inf
# beside NEG_INF) come up as distinct objects and the first one given shows.
_POINTS = (st.builds(parse_ext_real, st.sampled_from(["0", "1/2", "2/4", "-1/3", "-2/6", "3"]))
           | st.sampled_from([NEG_INF, POS_INF])
           | st.builds(ExtReal, st.sampled_from([NEG_INF.tag, POS_INF.tag])))
_MASSES = st.just(0) | st.integers(0, 5).flatmap(
    lambda k: st.sampled_from([F(k, 64), f"{k}/64", f"{2 * k}/128"]))
_FAULTS = ("-1/64", "1/x", "65/64")  # a negative mass, a mass that is no rational, a total past 1


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(atoms=st.lists(st.tuples(_POINTS, _MASSES), max_size=12),
       fault=st.sampled_from([None, *_FAULTS]), at=st.integers(0, 12))
def test_the_sorted_pass_normalises_as_the_dict_did(atoms, fault, at):
    if fault is not None:
        at %= len(atoms) + 1
        atoms = [*atoms[:at], (finite(at), fault), *atoms[at:]]
    want = _outcome(_dict_normalised, atoms)
    got = _outcome(_normalised, atoms)
    assert got == want
    if fault is None:
        assert all(p is q for (p, _), (q, _) in zip(got[0], want[0], strict=True))


def test_the_first_negative_mass_given_is_the_one_reported():
    with pytest.raises(NegativeMassError, match=r"^negative mass -1/4 at 2/1$"):
        DiscreteMeasure(((finite(2), "-1/4"), (finite(1), "-1/2")))


@functools.total_ordering
class _Key:
    """A totally ordered point with no hash."""

    __hash__ = None

    def __init__(self, key):
        self.key = key

    def __eq__(self, other):
        return self.key == other.key

    def __lt__(self, other):
        return self.key < other.key

    def __str__(self):
        return f"k{self.key}"


def test_points_need_an_order_not_a_hash():
    first, again, other = _Key(1), _Key(1), _Key(0)
    atoms = ((first, "1/4"), (other, "1/8"), (again, "1/2"))
    m = DiscreteMeasure(atoms)
    assert m.atoms == ((other, F(1, 8)), (first, F(3, 4))) and m.atoms[1][0] is first
    assert str(m) == "{k0: 1/8, k1: 3/4}" and m.total == F(7, 8)
    with pytest.raises(TypeError, match="unhashable"):
        _dict_normalised(atoms)


@pytest.mark.parametrize("pairs", [
    [(True, 1)], [(True, "1/2"), (0, "1/2")], [(0, "1/2"), (False, 0)],
    [(0.5, "1/2")], [(0, "1/4"), (0.5, "1/2")], [(float("nan"), "1/2")],
])
def test_from_mass_pairs_refuses_a_bool_point(pairs):
    # A float is no exact point either: 0.5 would not round-trip through JSON.
    raw = next(point for point, _ in pairs if isinstance(point, (bool, float)))
    with pytest.raises(DomainError) as exc_info:
        from_mass_pairs(pairs)
    assert str(exc_info.value) == f"a point cannot be the {type(raw).__name__} {raw!r}"


def test_dirac_is_a_unit_atom():
    d = dirac(POS_INF)
    assert d.total == 1 and d.mass_at(POS_INF) == 1
    assert d.restrict_to_reals().total == 0


def test_dirac_cdf_steps_at_the_atom():
    d = dirac(finite(5))
    assert d.cdf(finite(4)) == 0
    assert d.cdf(finite(5)) == 1 and d.cdf(POS_INF) == 1


def test_lower_ray_mass():
    m = from_mass_pairs([(1, "1/8"), (2, "1/4"), (3, "5/8")])
    assert m.mass_of_set(MeasurableSet.lower_ray(finite(2))) == F(3, 8)


def test_empty_set_has_zero_mass():
    m = from_mass_pairs([(0, "1/2"), (1, "1/2")])
    assert m.mass_of_set(MeasurableSet.empty()) == 0


def test_lower_ray_excludes_minus_infinity():
    m = from_mass_pairs([(NEG_INF, "1/3"), (0, "2/3")])
    assert m.mass_of_set(MeasurableSet.lower_ray(finite(0))) == F(2, 3)
    assert m.cdf(finite(0)) == 1  # the cdf, by contrast, starts at -inf


def test_cdf_known_values():
    lam = from_mass_pairs([(0, "1/2"), (1, "1/2")])
    assert lam.cdf(finite(0)) == F(1, 2)
    assert lam.cdf(finite(1)) == 1
    assert from_mass_pairs([]).cdf(finite(100)) == 0


def test_four_flip_cdf_at_three():
    m = from_mass_pairs([(1, "1/16"), (2, "1/8"), (3, "1/4"), (4, "9/16")])
    assert m.cdf(finite(3)) == F(7, 16)


def _random_measure(rng: random.Random) -> DiscreteMeasure:
    count = rng.randint(1, 5)
    points = rng.sample(range(-8, 9), count)
    pairs = [(finite(p), F(rng.randint(0, 6), 32)) for p in points]
    if rng.random() < 0.3:
        pairs.append((POS_INF, F(rng.randint(0, 4), 32)))
    if rng.random() < 0.2:
        pairs.append((NEG_INF, F(rng.randint(0, 4), 32)))
    total = sum(m for _, m in pairs)
    while total > 1:
        pairs = [(p, m / 2) for p, m in pairs]
        total /= 2
    return DiscreteMeasure(tuple(pairs))


def test_cdf_is_monotone_and_tops_out_at_total():
    rng = random.Random(1702)
    for _ in range(60):
        m = _random_measure(rng)
        grid = sorted(F(rng.randint(-40, 40), rng.randint(1, 4)) for _ in range(8))
        probes = [NEG_INF] + [finite(q) for q in grid] + [POS_INF]
        values = [m.cdf(x) for x in probes]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == m.total


def test_restriction_conserves_mass_exactly():
    rng = random.Random(88)
    for _ in range(60):
        m = _random_measure(rng)
        restricted = m.restrict_to_reals()
        assert restricted.total + m.mass_at(POS_INF) + m.mass_at(NEG_INF) == m.total
        assert restricted.mass_at(POS_INF) == 0


def test_restriction_drops_only_the_infinite_atoms():
    m = from_mass_pairs([(POS_INF, "1/3"), (0, "2/3")])
    r = m.restrict_to_reals()
    assert r.atoms == ((finite(0), F(2, 3)),)
    assert r.total == F(2, 3) and r.is_subprobability


def test_pushforward_identity_and_collisions():
    m = from_mass_pairs([(1, "1/4"), (2, "3/4")])
    assert m.pushforward(lambda x: x) == m
    squashed = m.pushforward(lambda x: finite(0))
    assert squashed.atoms == ((finite(0), F(1)),)


def test_pushforward_preserves_total_for_random_maps():
    rng = random.Random(404)
    for _ in range(40):
        m = _random_measure(rng)
        shift = rng.randint(-3, 3)

        def f(x):
            return finite(x.value + shift) if x.is_finite else x

        assert m.pushforward(f).total == m.total


# --- sets and normal form ---


def test_adjacent_pieces_merge_through_a_point():
    s = MeasurableSet.from_pieces(
        [Interval(finite(0), True, finite(1), False),
         Interval(finite(1), False, finite(2), True)],
        [finite(1)],
    )
    assert s == MeasurableSet.interval(finite(0), finite(2))
    assert len(s.intervals) == 1 and s.points == ()


def test_open_gap_stays_split():
    s = MeasurableSet.from_pieces(
        [Interval(finite(0), True, finite(1), False),
         Interval(finite(1), False, finite(2), True)]
    )
    assert len(s.intervals) == 2 and not s.contains(finite(1))


def test_degenerate_interval_becomes_a_point():
    s = MeasurableSet.from_pieces([Interval(finite(3), True, finite(3), True)])
    assert s.intervals == () and s.points == (finite(3),)


def test_points_inside_intervals_are_absorbed():
    s = MeasurableSet.from_pieces(
        [Interval(finite(0), True, finite(2), True)], [finite(1), finite(3)]
    )
    assert s.points == (finite(3),)


def test_point_extends_an_open_endpoint():
    s = MeasurableSet.from_pieces(
        [Interval(finite(0), False, finite(1), False)], [finite(0)]
    )
    assert s.intervals == (Interval(finite(0), True, finite(1), False),)


_RAY_TO_3 = Interval(NEG_INF, False, finite(3), True)


def test_the_constructor_puts_any_pieces_in_normal_form():
    assert MeasurableSet((_RAY_TO_3, _RAY_TO_3)) == MeasurableSet.from_pieces((_RAY_TO_3,))
    assert MeasurableSet((), (finite(2), finite(1), finite(2))).points == (finite(1), finite(2))
    assert MeasurableSet((_RAY_TO_3,), (finite(1),)).points == ()


def test_the_constructor_drops_an_empty_interval():
    s = MeasurableSet((Interval(finite(1), True, finite(0), True),))
    assert s.is_empty and s == MeasurableSet.empty() and str(s) == "(empty)"


def test_complement_ambient_matters_at_infinity():
    ray = MeasurableSet.lower_ray(finite(0))
    in_reals = ray.complement("R")
    in_extended = ray.complement("Rbar")
    escape = dirac(POS_INF)
    assert escape.mass_of_set(in_reals) == 0
    assert escape.mass_of_set(in_extended) == 1


def test_complement_names_its_ambient():
    with pytest.raises(ValueError, match="unknown ambient 'Q'"):
        MeasurableSet.reals().complement("Q")


def test_extended_reals_hold_both_infinities():
    whole = MeasurableSet.extended_reals()
    assert whole.contains(NEG_INF) and whole.contains(POS_INF)
    assert not MeasurableSet.reals().contains(NEG_INF)
    assert whole.complement("Rbar").is_empty


def test_complement_digs_out_isolated_points():
    two_rays = MeasurableSet.from_pieces(
        [Interval(NEG_INF, False, finite(0), False),
         Interval(finite(0), False, POS_INF, False)]
    )
    assert two_rays.complement("R") == MeasurableSet.singleton(finite(0))


def test_complement_round_trip():
    s = MeasurableSet.from_pieces(
        [Interval(finite(-2), True, finite(1), False)], [finite(5)]
    )
    assert s.complement("Rbar").complement("Rbar") == s


def test_intersection_of_overlapping_intervals():
    a = MeasurableSet.interval(finite(0), finite(2))
    b = MeasurableSet.interval(finite(1), finite(3))
    assert a.intersection(b) == MeasurableSet.interval(finite(1), finite(2))
    assert a.union(b) == MeasurableSet.interval(finite(0), finite(3))


_GRID = [NEG_INF, *(finite(F(k, 2)) for k in range(-4, 5)), POS_INF]
# Every grid point, every midpoint between neighbours and one point past each
# finite end: sets whose endpoints lie on the grid are equal exactly when
# they agree on these probes.
_PROBES = sorted({
    *_GRID,
    *(finite((a.value + b.value) / 2) for a, b in zip(_GRID[1:-2], _GRID[2:-1])),
    finite(-3), finite(3),
})


def _in_pieces(intervals, points, x):
    """Pointwise membership in a union of intervals and points, from the definitions."""
    return x in points or any(
        (iv.lo <= x if iv.lo_closed else iv.lo < x)
        and (x <= iv.hi if iv.hi_closed else x < iv.hi)
        for iv in intervals
    )


@pytest.mark.parametrize(("lo_closed", "hi_closed"), itertools.product([True, False], repeat=2))
def test_a_raw_interval_contains_the_points_its_definition_holds(lo_closed, hi_closed):
    # Every ordered, degenerate and reversed pair of grid ends: pieces that no
    # normal-form set holds, so set membership alone never checks them.
    for lo, hi in itertools.product(_GRID, repeat=2):
        iv = Interval(lo, lo_closed, hi, hi_closed)
        assert [iv.contains(x) for x in _PROBES] == [_in_pieces([iv], (), x) for x in _PROBES], iv


def _random_pieces(rng):
    intervals = []
    for _ in range(rng.randint(0, 3)):
        lo, hi = sorted(rng.sample(_GRID, 2)) if rng.random() < 0.8 else rng.sample(_GRID, 2)
        intervals.append(Interval(lo, rng.random() < 0.5, hi, rng.random() < 0.5))
    return intervals, rng.sample(_GRID, rng.randint(0, 3))


def test_set_algebra_follows_pointwise_membership():
    rng = random.Random(2014)
    by_membership = {}
    for _ in range(600):
        raw_a, raw_b = _random_pieces(rng), _random_pieces(rng)
        a, b = MeasurableSet.from_pieces(*raw_a), MeasurableSet.from_pieces(*raw_b)
        results = {
            "R": a.complement("R"),
            "Rbar": a.complement("Rbar"),
            "union": a.union(b),
            "intersection": a.intersection(b),
        }
        for x in _PROBES:
            in_a, in_b = _in_pieces(*raw_a, x), _in_pieces(*raw_b, x)
            expected = {
                "R": x.is_finite and not in_a,  # R holds neither infinity
                "Rbar": not in_a,
                "union": in_a or in_b,
                "intersection": in_a and in_b,
            }
            for op, r in results.items():
                assert _in_pieces(r.intervals, r.points, x) == expected[op], (op, a, b, x)
        for r in (a, b, *results.values()):
            assert MeasurableSet.from_pieces(r.intervals, r.points) == r
            signature = tuple(_in_pieces(r.intervals, r.points, x) for x in _PROBES)
            assert tuple(r.contains(x) for x in _PROBES) == signature, r
            assert by_membership.setdefault(signature, r) == r  # one set, one normal form
        for iv in raw_a[0] + raw_b[0]:  # a piece on the grid is empty iff it holds no probe
            assert iv.is_empty == (not any(_in_pieces([iv], (), x) for x in _PROBES)), iv


def test_mass_is_finitely_additive_over_disjoint_sets():
    rng = random.Random(7)
    for _ in range(60):
        m = _random_measure(rng)
        a0, a1, b0, b1 = sorted(rng.sample(range(-12, 13), 4))
        a = MeasurableSet.interval(finite(a0), finite(a1), hi_closed=False)
        b = MeasurableSet.interval(finite(b0), finite(b1))
        assert a.intersection(b).is_empty
        assert m.mass_of_set(a.union(b)) == m.mass_of_set(a) + m.mass_of_set(b)


# --- additivity reports ---


def _four_point_space() -> DiscreteMeasure:
    return from_mass_pairs([(1, "1/8"), (2, "1/8"), (3, "1/8"), (4, "5/8")])


def test_overlapping_events_sum_is_not_a_probability():
    m = _four_point_space()
    a = MeasurableSet.from_points([finite(1), finite(2)])
    b = MeasurableSet.from_points([finite(2), finite(3)])
    report = check_additivity(m, a, b)
    assert report.mass_sum == F(1, 2)
    assert report.mass_union == F(3, 8)
    assert not report.disjoint and not report.eligible


def test_disjoint_events_sum_is_the_union_mass():
    m = _four_point_space()
    a = MeasurableSet.from_points([finite(1)])
    b = MeasurableSet.from_points([finite(3), finite(4)])
    report = check_additivity(m, a, b)
    assert report.disjoint and report.eligible
    assert report.mass_sum == report.mass_union == F(7, 8)


def test_two_singletons_cover_the_coin_marginal():
    lam = from_mass_pairs([(0, "1/2"), (1, "1/2")])
    report = check_additivity(
        lam, MeasurableSet.singleton(finite(0)), MeasurableSet.singleton(finite(1))
    )
    assert report.mass_sum == 1 == report.mass_union


def test_atomless_overlap_is_eligible_but_not_disjoint():
    m = from_mass_pairs([(0, "1/2"), (3, "1/2")])
    a = MeasurableSet.interval(finite(0), finite(2))
    b = MeasurableSet.interval(finite(1), finite(3))
    report = check_additivity(m, a, b)
    assert not report.disjoint
    assert report.eligible  # the overlap (1, 2) carries no atoms


# --- serialization ---


def test_measure_json_round_trip():
    m = from_mass_pairs([(NEG_INF, "1/8"), ("-3/2", "1/4"), (POS_INF, "1/2")])
    data = measure_to_dict(m)
    assert data["total"] == "7/8"
    assert [a["point"] for a in data["atoms"]] == ["-inf", "-3/2", "+inf"]
    assert measure_from_dict(data) == m


def test_set_json_round_trip():
    s = MeasurableSet.from_pieces(
        [Interval(NEG_INF, False, finite("1/2"), True)], [finite(4)]
    )
    assert set_from_dict(set_to_dict(s)) == s
