"""Limit detection, tightness, weak limits, and the two evaluation orders."""

import copy
import dataclasses
import inspect
import math
import pickle
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitgap import convergence_lab, families, theorem
from limitgap.convergence_lab import (
    _TAIL,
    _WINDOW,
    _member_mass,
    _scan,
    BranchReport,
    LimitReport,
    MeasureFamily,
    RealSequence,
    SequenceAnalysis,
    SetFamily,
    TightnessVerdict,
    analyze_rational_sequence,
    branch_check,
    builtin_family,
    lower_ray_family,
    order_a_limit,
    order_b_limit,
    parse_sequence_spec,
    set_table_family,
    singleton_family,
    table_family,
    integral_limit,
    tightness_probe,
    weak_limit_identify,
)
from limitgap.errors import (
    BadEpsilonError,
    BadSequenceSpecError,
    DomainError,
    EvaluationError,
    InconclusiveError,
    LimitGapError,
    NoSetLimitError,
    NoWeakLimitError,
)
from limitgap.measure_core import (
    NEG_INF,
    POS_INF,
    DiscreteMeasure,
    Interval,
    MeasurableSet,
    dirac,
    finite,
    from_mass_pairs,
)
from limitgap.process_lab import lambda_measure, mu_closed_form
from limitgap.theorem import verify_theorem

HALF = F(1, 2)


# --- the exact sequence analyzer ---


def test_constant_trailing_window_is_detected():
    analysis = analyze_rational_sequence([F(1), F(2)] + [F(3)] * 8)
    assert analysis.kind == "constant" and analysis.value == 3


def test_geometric_tail_extrapolates_exactly():
    values = [HALF - F(1, 2**n) for n in range(1, 17)]
    analysis = analyze_rational_sequence(values)
    assert analysis.kind == "geometric"
    assert analysis.value == HALF  # exact, despite never reaching it


def test_geometric_tail_with_other_ratio():
    values = [F(1) - F(1, 3**n) for n in range(1, 12)]
    analysis = analyze_rational_sequence(values)
    assert analysis.kind == "geometric" and analysis.value == 1


def test_alternating_values_are_divergent_with_a_witness_pair():
    analysis = analyze_rational_sequence([F(0), F(1)] * 5)
    assert analysis.kind == "divergent"
    assert analysis.value is None
    assert analysis.pair in ((F(0), F(1)), (F(1), F(0)))


def test_harmonic_decay_is_inconclusive():
    values = [F(1, n) for n in range(1, 21)]
    assert analyze_rational_sequence(values).kind == "inconclusive"


def test_short_sequences_are_inconclusive():
    assert analyze_rational_sequence([]).kind == "inconclusive"
    assert analyze_rational_sequence([F(1)]).kind == "inconclusive"


def test_growing_differences_are_not_a_geometric_tail():
    values = [F(2**n) for n in range(1, 10)]  # ratio 2 >= 1
    assert analyze_rational_sequence(values).kind == "inconclusive"


# --- the tail-and-count form ---


def _seeded_sequences(rng):
    """Noise, then a constant, geometric, alternating or noise run to the end."""
    for length in range(25):
        for shape in ("constant", "geometric", "alternating", "noise"):
            start = rng.randint(0, length)
            a = F(rng.randint(-5, 5), rng.randint(1, 4))
            b = a + rng.choice([-1, 1]) * F(1, rng.randint(1, 3))
            r = F(rng.choice([-1, 1]), rng.randint(2, 5))
            run = {
                "constant": lambda k: a,
                "geometric": lambda k: a + r**k,
                "alternating": lambda k: (a, b)[k % 2],
                "noise": lambda k: F(rng.randint(-9, 9), rng.randint(1, 9)),
            }[shape]
            prefix = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(start)]
            yield prefix + [run(k) for k in range(length - start)]


def test_trailing_values_with_a_count_give_the_full_analysis():
    kinds = set()
    for values in _seeded_sequences(random.Random(5)):
        full = analyze_rational_sequence(values)
        kinds.add(full.kind)
        for k in range(_TAIL, max(_TAIL, len(values)) + 1):
            assert analyze_rational_sequence(values[-k:], count=len(values)) == full
    assert kinds == {"constant", "geometric", "divergent", "inconclusive"}


def test_too_few_or_too_many_trailing_values_raise():
    for values in _seeded_sequences(random.Random(6)):
        count = len(values)
        for k in range(min(count, _TAIL)):
            with pytest.raises(ValueError, match=f"of {count} terms"):
                analyze_rational_sequence(values[count - k:], count=count)
        if count:
            with pytest.raises(ValueError):
                analyze_rational_sequence(values, count=count - 1)


# --- measure families ---


def test_builtin_members():
    assert builtin_family("mu").member(5) == mu_closed_form(5)
    assert builtin_family("lambda").member(9) == lambda_measure()
    assert builtin_family("dirac_n").member(3) == dirac(finite(3))


def test_unknown_builtin_is_rejected():
    with pytest.raises(DomainError, match="unknown builtin"):
        builtin_family("nu")


@pytest.mark.parametrize("build, message", [
    (lambda: MeasureFamily("nu"), "unknown builtin family 'nu'; use mu, lambda, dirac_n, "
     "or a table of measures (@file.json)"),
    (lambda: MeasureFamily("table"), "unknown builtin family 'table'"),
    (lambda: MeasureFamily("table", ()), "explicit family needs at least one measure"),
    (lambda: SetFamily("table"), "explicit set list needs at least one set"),
    (lambda: SetFamily("ray_seq"), "a ray_seq set family needs its seq"),
    (lambda: SetFamily("singleton"), "a singleton set family needs its point"),
    (lambda: SetFamily("ray"), "unknown set family kind 'ray'; use ray_seq, singleton, table"),
    (lambda: MeasureFamily("mu", (lambda_measure(),)), "a mu family takes no table"),
    (lambda: MeasureFamily("nu", (lambda_measure(),)), "a nu family takes no table"),
    (lambda: SetFamily("ray_seq", seq=RealSequence("affine", F(-1)),
                       table=(MeasurableSet.lower_ray(finite(0)),)),
     "a ray_seq set family takes no table"),
    (lambda: SetFamily("singleton", point=POS_INF, table=(MeasurableSet.singleton(POS_INF),)),
     "a singleton set family takes no table"),
], ids=["unknown-builtin", "table-without-one", "empty-table", "set-table-without-one",
        "ray-without-seq", "singleton-without-point", "unknown-set-kind", "builtin-with-table",
        "unknown-with-table", "ray-with-table", "singleton-with-table"])
def test_a_family_refuses_a_bad_kind_when_it_is_built(build, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        build()


def test_family_indices_start_at_one():
    with pytest.raises(DomainError, match="at least 1"):
        builtin_family("mu").member(0)


def test_table_members_must_be_probabilities():
    sub = from_mass_pairs([(0, "1/2")])
    with pytest.raises(DomainError, match="not a probability"):
        table_family([lambda_measure(), sub])


def test_table_index_past_the_end():
    fam = table_family([lambda_measure()])
    with pytest.raises(DomainError, match="1 members"):
        fam.member(2)
    sets = set_table_family([MeasurableSet.empty()] * 2)
    with pytest.raises(DomainError, match="set list has 2 members, index 3 requested"):
        sets.member(3)


_RAY_TO_3 = Interval(NEG_INF, False, finite(3), True)


def test_a_raw_set_with_overlapping_pieces_has_its_member_mass():
    s = MeasurableSet((_RAY_TO_3, _RAY_TO_3))
    assert _member_mass(builtin_family("mu"), 5, s) == mu_closed_form(5).mass_of_set(s) == F(7, 32)


def test_a_table_of_equal_raw_sets_settles_on_that_set():
    ray = MeasurableSet.from_pieces((_RAY_TO_3,))
    sets = set_table_family([MeasurableSet((_RAY_TO_3, _RAY_TO_3)), ray] * 2)
    assert sets.limit() == (ray, "eventually constant")


# --- threshold sequences ---


@pytest.mark.parametrize(
    "text,kind,q",
    [
        ("n", "affine", F(0)),
        ("n-1", "affine", F(-1)),
        ("n+3/2", "affine", F(3, 2)),
        ("1/2+1/n", "approach_above", F(1, 2)),
        ("2-1/n", "approach_below", F(2)),
        ("7/3", "const", F(7, 3)),
    ],
)
def test_sequence_spec_forms(text, kind, q):
    seq = parse_sequence_spec(text)
    assert (seq.kind, seq.q) == (kind, q)


_rng = random.Random(41)
SEEDED_QS = [F(0), F(-1), F(3, 2)] + [
    F(_rng.randint(-60, 60), _rng.randint(1, 12)) for _ in range(30)
]
# Each kind written out by hand: a spec for q, x_n, lim x_n and the direction.
SEQUENCE_CLOSED_FORMS = {
    "affine": (lambda q: f"n+{q}" if q >= 0 else f"n{q}", lambda n, q: n + q,
               lambda q: POS_INF, "increasing"),
    "approach_above": (lambda q: f"{q}+1/n", lambda n, q: q + F(1, n), finite, "decreasing"),
    "approach_below": (lambda q: f"{q}-1/n", lambda n, q: q - F(1, n), finite, "increasing"),
    "const": (str, lambda n, q: q, finite, "constant"),
}


def test_sequence_spec_describe_round_trips():
    for text in ("n", "n-1", "n+3/2", "1/2+1/n", "2-1/n", "7/3"):
        seq = parse_sequence_spec(text)
        assert parse_sequence_spec(seq.describe()) == seq
    for kind in SEQUENCE_CLOSED_FORMS:
        for q in SEEDED_QS:
            seq = RealSequence(kind, q)
            assert parse_sequence_spec(seq.describe()) == seq


@pytest.mark.parametrize("kind", list(SEQUENCE_CLOSED_FORMS))
def test_each_sequence_kind_follows_its_closed_form(kind):
    spec, value, limit, direction = SEQUENCE_CLOSED_FORMS[kind]
    for q in SEEDED_QS:
        seq = parse_sequence_spec(spec(q))
        assert (seq.kind, seq.q) == (kind, q)
        assert [seq.value(n) for n in range(1, 20)] == [value(n, q) for n in range(1, 20)]
        assert seq.limit == limit(q)
        assert seq.direction == direction


def test_an_unknown_sequence_kind_fails_at_construction():
    with pytest.raises(DomainError, match="unknown sequence kind 'bogus'"):
        RealSequence("bogus", F(1))


@pytest.mark.parametrize("bad", ["", "n^2", "q+1/n", "2n", "1/n+2"])
def test_unsupported_sequence_specs(bad):
    with pytest.raises(BadSequenceSpecError):
        parse_sequence_spec(bad)


def test_sequence_values_and_limits():
    seq = parse_sequence_spec("1/2+1/n")
    assert seq.value(4) == F(3, 4)
    assert seq.limit == finite(F(1, 2))
    assert seq.direction == "decreasing"
    assert parse_sequence_spec("n-1").limit == POS_INF


# --- set families ---


def test_ray_family_members_are_lower_rays():
    fam = lower_ray_family(parse_sequence_spec("n-1"))
    assert fam.member(1) == MeasurableSet.lower_ray(finite(0))
    assert fam.member(4) == MeasurableSet.lower_ray(finite(3))


def test_increasing_rays_exhaust_the_finite_reals():
    limit, notion = lower_ray_family(parse_sequence_spec("n")).limit()
    assert limit == MeasurableSet.reals()
    assert not limit.contains(POS_INF)
    assert notion == "increasing (union)"


def test_decreasing_rays_intersect_to_the_closed_ray():
    limit, notion = lower_ray_family(parse_sequence_spec("1/2+1/n")).limit()
    assert limit == MeasurableSet.lower_ray(finite(F(1, 2)))
    assert notion == "decreasing (intersection)"


def test_rays_rising_from_below_union_to_the_open_ray():
    limit, _ = lower_ray_family(parse_sequence_spec("1-1/n")).limit()
    assert limit.contains(finite(F(99, 100)))
    assert not limit.contains(finite(1))


@pytest.mark.parametrize(
    "seq",
    [parse_sequence_spec("3"), RealSequence("const", F(3))],
    ids=["I(3)", "I=3"],
)
def test_constant_rays_are_their_own_limit(seq):
    assert lower_ray_family(seq).limit() == (
        MeasurableSet.lower_ray(finite(3)),
        "constant",
    )


def test_singleton_family_is_constant():
    fam = singleton_family(finite(0))
    assert fam.member(7) == MeasurableSet.singleton(finite(0))
    assert fam.limit() == (MeasurableSet.singleton(finite(0)), "constant")


def test_settled_set_lists_have_limits():
    ray = MeasurableSet.lower_ray(finite(1))
    fam = set_table_family([MeasurableSet.empty(), ray, ray, ray])
    limit, notion = fam.limit()
    assert limit == ray and notion == "eventually constant"


def test_flapping_set_lists_have_no_limit():
    a, b = MeasurableSet.singleton(finite(0)), MeasurableSet.singleton(finite(1))
    with pytest.raises(NoSetLimitError, match="neither constant nor settled"):
        set_table_family([a, b, a, b]).limit()


# --- tightness ---


def test_single_flip_family_is_tight():
    verdict = tightness_probe(builtin_family("lambda"), F(1, 4), 32)
    assert verdict.tight is True
    assert verdict.interval == MeasurableSet.interval(finite(0), finite(1))


def test_argmax_family_is_not_tight_at_any_epsilon():
    for eps in (F(1, 2), F(3, 4), F(99, 100)):
        verdict = tightness_probe(builtin_family("mu"), eps, 32)
        assert verdict.tight is False
        assert "bounded interval" in verdict.witness


def test_moving_point_mass_family_is_not_tight():
    verdict = tightness_probe(builtin_family("dirac_n"), F(1, 2), 32)
    assert verdict.tight is False


@pytest.mark.parametrize("eps", [F(0), F(1), F(-1, 2), F(5, 4)])
def test_epsilon_must_be_strictly_between_zero_and_one(eps):
    with pytest.raises(BadEpsilonError):
        tightness_probe(builtin_family("mu"), eps, 32)


def test_finite_table_with_bounded_support_is_tight():
    fam = table_family(
        [from_mass_pairs([(0, "1/2"), (5, "1/2")]), from_mass_pairs([(2, 1)])]
    )
    verdict = tightness_probe(fam, F(1, 8), 32)
    assert verdict.tight is True
    assert verdict.interval == MeasurableSet.interval(finite(0), finite(5))


def test_table_with_escaping_mass_is_inconclusive_not_refuted():
    fam = table_family(
        [from_mass_pairs([(0, "1/2"), (POS_INF, "1/2")])] * 3
    )
    verdict = tightness_probe(fam, F(1, 4), 32)
    assert verdict.tight == "inconclusive"
    assert "cannot exhibit" in verdict.witness


def test_tightness_on_a_table_requests_each_member_once(monkeypatch):
    requests = []
    member = MeasureFamily.member
    monkeypatch.setattr(
        MeasureFamily, "member", lambda self, n: requests.append(n) or member(self, n)
    )
    fam = table_family([from_mass_pairs([(k, 1)]) for k in range(6)])
    verdict = tightness_probe(fam, F(1, 8), 64)
    assert verdict.tight is True and "worst member n=1" in verdict.witness
    assert requests == [1, 2, 3, 4, 5, 6]


# --- weak limits ---


def test_builtin_weak_limits():
    assert weak_limit_identify(builtin_family("mu"), 32) == dirac(POS_INF)
    assert weak_limit_identify(builtin_family("dirac_n"), 32) == dirac(POS_INF)
    assert weak_limit_identify(builtin_family("lambda"), 32) == lambda_measure()


def test_constant_table_identifies_itself():
    fam = table_family([lambda_measure()] * 8)
    assert weak_limit_identify(fam, 32) == lambda_measure()


def test_geometric_mass_drift_is_extrapolated_exactly():
    members = [
        from_mass_pairs([(0, HALF + F(1, 2 ** (n + 1))), (1, HALF - F(1, 2 ** (n + 1)))])
        for n in range(1, 13)
    ]
    assert weak_limit_identify(table_family(members), 32) == lambda_measure()


def test_mass_parked_at_infinity_is_identified():
    members = [
        from_mass_pairs([(0, F(1, 2**n)), (POS_INF, 1 - F(1, 2**n))])
        for n in range(1, 13)
    ]
    assert weak_limit_identify(table_family(members), 32) == dirac(POS_INF)


def test_alternating_table_has_no_weak_limit():
    fam = table_family([dirac(finite(0)), dirac(finite(1))] * 6)
    with pytest.raises(InconclusiveError, match="does not settle"):
        weak_limit_identify(fam, 32)


def test_moving_atom_table_is_honestly_inconclusive():
    # A finite scan cannot tell "the atom escapes" from "it comes back":
    # the builtin dirac_n knows its closed form, a bare table does not.
    fam = table_family([dirac(finite(n)) for n in range(1, 13)])
    with pytest.raises(InconclusiveError):
        weak_limit_identify(fam, 32)


def test_a_mass_extrapolated_below_zero_is_refused():
    members = [
        from_mass_pairs([(0, F(1, 2**n) - F(1, 64)), (1, 1 - F(1, 2**n) + F(1, 64))])
        for n in range(1, 7)
    ]
    with pytest.raises(InconclusiveError, match="extrapolates to the negative value -1/64"):
        weak_limit_identify(table_family(members), 32)


def test_builtin_weak_limits_conserve_mass():
    # A family that converges weakly on R-bar is tight on R exactly when its
    # limit leaves no mass at the infinities.
    for name, row in families._BUILTINS.items():
        limit = weak_limit_identify(builtin_family(name), 32)
        assert limit is row.limit and limit.total == 1
        escaped = limit.mass_at(NEG_INF) + limit.mass_at(POS_INF)
        for eps in (F(1, 100), HALF, F(99, 100)):
            assert tightness_probe(builtin_family(name), eps, 32).tight is (escaped == 0), name


# --- test-function integrals ---


def test_constant_family_integral_is_flat():
    report = integral_limit(
        builtin_family("lambda"), lambda x: math.sin(float(x.value)), 64
    )
    assert report.value == pytest.approx((math.sin(0) + math.sin(1)) / 2)
    assert "flat" in report.witness


def test_oscillating_integrals_are_divergent_with_witnesses():
    report = integral_limit(
        builtin_family("dirac_n"), lambda x: math.sin(float(x.value)), 100
    )
    assert report.value == "divergent"
    hi, lo = report.witness_pair
    assert hi - lo >= F(1, 2)


def test_weak_limit_route_rescues_slow_convergence():
    from limitgap.extended_line import h, saturating_float

    report = integral_limit(
        builtin_family("mu"), lambda x: h(x).value, 32
    )
    assert report.value == pytest.approx(1.0)
    assert "weak limit" in report.witness


@pytest.mark.parametrize("horizon", [32, 33, 64])
def test_weak_limit_witness_names_the_index_of_each_error(horizon):
    from limitgap.extended_line import h

    report = integral_limit(builtin_family("mu"), lambda x: h(x).value, horizon)
    found = re.search(r"fell from (\S+) at n=(\d+) to (\S+) at n=(\d+)$", report.witness)
    assert found, report.witness
    for error, n in ((found[1], int(found[2])), (found[3], int(found[4]))):
        # s_n by hand: h integrated over mu_n atom by atom
        s_n = sum(float(mass) * h(point).value for point, mass in mu_closed_form(n).atoms)
        assert f"{abs(s_n - report.value):.3g}" == error, (n, report.witness)


def test_unevaluable_points_raise_evaluation_errors():
    with pytest.raises(EvaluationError, match="failed at 0/1"):
        integral_limit(
            builtin_family("lambda"), lambda x: 1 / float(x.value), 16
        )


# --- the two evaluation orders ---


def test_escaping_family_splits_the_orders():
    fam = builtin_family("mu")
    sets = lower_ray_family(parse_sequence_spec("n-1"))
    a = order_a_limit(fam, sets, 32)
    b = order_b_limit(fam, sets, 64)
    assert a.value == 0
    assert b.value == HALF
    assert b.value - a.value == HALF
    assert a.measure_tag == "{+inf: 1/1}" and a.set_tag is not None
    assert b.measure_tag is None and b.set_tag is None
    assert b.eligible is False


def test_tight_family_keeps_the_orders_equal():
    fam = builtin_family("lambda")
    sets = singleton_family(finite(0))
    a = order_a_limit(fam, sets, 32)
    b = order_b_limit(fam, sets, 32)
    assert a.value == b.value == HALF
    assert b.eligible is True


def test_tight_family_on_growing_rays_reaches_one():
    fam = builtin_family("lambda")
    sets = lower_ray_family(parse_sequence_spec("n-1"))
    assert order_a_limit(fam, sets, 32).value == 1
    b = order_b_limit(fam, sets, 32)
    assert b.value == 1 and b.eligible is True


def test_decreasing_thresholds_at_a_continuity_point():
    fam = builtin_family("lambda")
    sets = lower_ray_family(parse_sequence_spec("1/2+1/n"))
    assert order_a_limit(fam, sets, 32).value == HALF
    assert order_b_limit(fam, sets, 32).value == HALF


def test_flapping_sets_deny_order_a():
    a, b = MeasurableSet.singleton(finite(0)), MeasurableSet.singleton(finite(1))
    sets = set_table_family([a, b] * 4)
    with pytest.raises(NoSetLimitError):
        order_a_limit(builtin_family("lambda"), sets, 32)


def test_alternating_masses_report_divergence():
    fam = table_family([dirac(finite(0)), dirac(finite(1))] * 6)
    sets = singleton_family(finite(0))
    report = order_b_limit(fam, sets, 64)
    assert report.value == "divergent"
    assert report.witness_pair in ((F(0), F(1)), (F(1), F(0)))
    assert report.eligible is None  # order (a) is unavailable here
    assert report.horizon_used == 12


def test_undetectable_mass_decay_is_inconclusive():
    members = [
        from_mass_pairs([(0, F(1, n + 1)), (1, 1 - F(1, n + 1))])
        for n in range(1, 15)
    ]
    fam = table_family(members)
    with pytest.raises(InconclusiveError, match="no detectable limit"):
        order_b_limit(fam, singleton_family(finite(0)), 64)


def test_missing_weak_limit_is_reported_as_such():
    fam = table_family([dirac(finite(0)), dirac(finite(1))] * 6)
    with pytest.raises(NoWeakLimitError):
        order_a_limit(fam, singleton_family(finite(0)), 32)


def test_order_b_scan_is_clipped_to_the_table():
    fam = table_family([lambda_measure()] * 6)
    for order in (order_a_limit, order_b_limit):
        report = order(fam, singleton_family(finite(0)), 64)
        assert report.horizon_used == 6 and report.value == HALF


# --- the horizon rule: at least 2, clipped to a table ---


def _atan(x):
    return math.atan(float(x.value))


SCANS = {
    "tightness_probe": lambda fam, horizon: tightness_probe(fam, HALF, horizon),
    "weak_limit_identify": weak_limit_identify,
    "integral_limit": lambda fam, horizon: integral_limit(fam, _atan, horizon),
    "order_a_limit": lambda fam, horizon: order_a_limit(
        fam, singleton_family(finite(0)), horizon),
    "order_b_limit": lambda fam, horizon: order_b_limit(
        fam, singleton_family(finite(0)), horizon),
}
HORIZON_FAMILIES = {
    "mu": builtin_family("mu"),
    "table": table_family([dirac(finite(k)) for k in range(3)]),
}


@pytest.mark.parametrize("horizon", [1, 0, -5])
@pytest.mark.parametrize("family", sorted(HORIZON_FAMILIES))
@pytest.mark.parametrize("scan", sorted(SCANS))
def test_a_horizon_below_two_is_a_domain_error(scan, family, horizon):
    with pytest.raises(DomainError) as exc_info:
        SCANS[scan](HORIZON_FAMILIES[family], horizon)
    assert type(exc_info.value) is DomainError
    assert str(exc_info.value) == f"horizon must be at least 2, got {horizon}"


@pytest.mark.parametrize("family", sorted(HORIZON_FAMILIES))
def test_a_bad_epsilon_is_reported_before_a_bad_horizon(family):
    with pytest.raises(BadEpsilonError):
        tightness_probe(HORIZON_FAMILIES[family], F(0), 1)


@pytest.mark.parametrize("scan", ["weak_limit_identify", "integral_limit"])
def test_a_table_clips_the_scan_to_its_members(monkeypatch, scan):
    requested = []
    member = MeasureFamily.member
    monkeypatch.setattr(
        MeasureFamily, "member", lambda self, n: requested.append(n) or member(self, n))
    SCANS[scan](table_family([lambda_measure()] * 6), 64)
    assert sorted(set(requested)) == [1, 2, 3, 4, 5, 6]


def test_a_one_member_table_is_too_short_for_a_limit_but_not_for_tightness():
    fam = table_family([lambda_measure()])
    for scan in ("weak_limit_identify", "integral_limit"):
        with pytest.raises(InconclusiveError, match="^explicit family is too short to scan$"):
            SCANS[scan](fam, 64)
    assert tightness_probe(fam, HALF, 64).tight is True


# --- order (b) against a brute-force oracle ---


def _order_b_or_error(fam, sets, horizon):
    try:
        return order_b_limit(fam, sets, horizon).to_dict()
    except InconclusiveError as exc:
        return str(exc)


def _order_b_oracle(fam, sets, horizon):
    """Order (b) by brute force: every mass 1..scan, analysed as one full list."""
    scan = _scan(horizon, fam, sets)
    masses = [fam.member(n).mass_of_set(sets.member(n)) for n in range(1, scan + 1)]
    analysis = analyze_rational_sequence(masses)
    if analysis.kind == "inconclusive":
        return (
            f"mass sequence has no detectable limit within horizon {scan}: "
            f"{analysis.witness}"
        )
    try:
        eligible = analysis.value == order_a_limit(fam, sets, horizon).value
    except (NoWeakLimitError, NoSetLimitError):
        eligible = None
    return LimitReport(
        order="b",
        value="divergent" if analysis.kind == "divergent" else analysis.value,
        horizon_used=scan,
        witness=analysis.witness,
        eligible=eligible,
        witness_pair=analysis.pair,
    ).to_dict()


_ORACLE_SETS = {
    "I(n-1)": lower_ray_family(parse_sequence_spec("n-1")),
    "I(n+2)": lower_ray_family(parse_sequence_spec("n+2")),
    "I(1/2+1/n)": lower_ray_family(parse_sequence_spec("1/2+1/n")),
    "I(3-1/n)": lower_ray_family(parse_sequence_spec("3-1/n")),
    "I=1/2": lower_ray_family(RealSequence("const", HALF)),
    "point=+inf": singleton_family(POS_INF),
}


@pytest.mark.parametrize("set_spec", sorted(_ORACLE_SETS))
@pytest.mark.parametrize("family", ["mu", "dirac_n", "lambda"])
def test_order_b_matches_the_brute_force_oracle_on_builtins(family, set_spec):
    fam, sets = builtin_family(family), _ORACLE_SETS[set_spec]
    for horizon in range(2, 41):
        expected = _order_b_oracle(fam, sets, horizon)
        assert _order_b_or_error(fam, sets, horizon) == expected, horizon


_ORACLE_TABLES = {
    "alternating": (
        table_family([dirac(finite(0)), dirac(finite(1))] * 6),
        singleton_family(finite(0)),
    ),
    "undetectable-decay": (
        table_family(
            [from_mass_pairs([(0, F(1, n + 1)), (1, 1 - F(1, n + 1))]) for n in range(1, 15)]
        ),
        singleton_family(finite(0)),
    ),
    "clipped-to-the-table": (
        table_family([lambda_measure()] * 6),
        singleton_family(finite(0)),
    ),
    "clipped-to-the-set-list": (
        builtin_family("mu"),
        set_table_family([MeasurableSet.lower_ray(finite(k)) for k in range(11)]),
    ),
    "flapping-set-list": (  # order (b) is 1/2, and the sets have no limit
        builtin_family("lambda"),
        set_table_family(
            [MeasurableSet.singleton(finite(0)), MeasurableSet.singleton(finite(1))] * 4
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(_ORACLE_TABLES))
def test_order_b_matches_the_brute_force_oracle_on_tables(case):
    fam, sets = _ORACLE_TABLES[case]
    for horizon in (*range(2, 41), 64):
        expected = _order_b_oracle(fam, sets, horizon)
        got = _order_b_or_error(fam, sets, horizon)
        assert got == expected, horizon
        try:
            order_a_limit(fam, sets, horizon)
        except (NoWeakLimitError, NoSetLimitError):
            assert isinstance(got, str) or got["eligible"] is None, horizon


def test_order_b_requests_only_the_members_it_reads(monkeypatch):
    requests = []
    member = MeasureFamily.member
    monkeypatch.setattr(
        MeasureFamily, "member", lambda self, n: requests.append(n) or member(self, n)
    )
    mu = builtin_family("mu")
    report = order_b_limit(mu, lower_ray_family(parse_sequence_spec("n-1")), 1024)
    assert report.value == HALF and report.horizon_used == 1024
    assert requests == []  # a builtin's masses come from its cdf
    branch_check(mu, "n-1", 1024)  # orders a and b, tightness, weak limit
    assert requests == []
    table = table_family([lambda_measure()] * 12)
    report = order_b_limit(table, lower_ray_family(parse_sequence_spec("n-1")), 1024)
    assert report.value == 1 and report.horizon_used == 12
    # its masses read the last _TAIL members; the weak limit for eligibility all 12
    assert requests[:_TAIL] == list(range(12 - _WINDOW, 13))
    assert requests[_TAIL:] == list(range(1, 13))
    requests.clear()
    branch_check(table, "n-1", 1024)  # the weak limit and tightness read all 12
    assert len(requests) == 2 * 12 + _TAIL


def _count_measures_built(monkeypatch) -> list:
    built = []
    post_init = DiscreteMeasure.__post_init__
    monkeypatch.setattr(
        DiscreteMeasure, "__post_init__", lambda self: built.append(self) or post_init(self)
    )
    return built


@pytest.mark.parametrize("horizon", [2, 64, 1024])
@pytest.mark.parametrize("kind", ["mu", "lambda", "dirac_n"])
def test_a_builtin_weak_limit_is_one_object_that_no_query_rebuilds(monkeypatch, kind, horizon):
    oracle = from_mass_pairs([(0, HALF), (1, HALF)]) if kind == "lambda" else dirac(POS_INF)
    built = _count_measures_built(monkeypatch)
    fam = builtin_family(kind)
    limit = weak_limit_identify(fam, horizon)
    assert limit == oracle and weak_limit_identify(fam, horizon) is limit
    for xs in ("n", "0"):
        sets = lower_ray_family(parse_sequence_spec(xs))
        order_a = order_a_limit(fam, sets, horizon)
        assert order_a.measure_tag == str(oracle) and order_a.value == oracle.mass_of_set(
            sets.limit()[0])
        assert order_a_limit(fam, sets, horizon) == order_a
        assert order_b_limit(fam, sets, horizon).order == "b"
        assert branch_check(fam, xs, horizon).order_a == order_a
    assert built == []


def test_every_lambda_member_is_its_shared_weak_limit(monkeypatch):
    oracle = from_mass_pairs([(0, HALF), (1, HALF)])
    built = _count_measures_built(monkeypatch)
    lam = builtin_family("lambda")
    limit = weak_limit_identify(lam, 64)
    for n in range(1, 6):
        assert lam.member(n) == oracle and lam.member(n) is limit
    assert built == []


# --- closed-form builtin masses against the members ---


@st.composite
def _builtin_member_and_set(draw):
    """A builtin, an index n, and a set whose ends sit near 0 and n, built from
    pieces or by the raw constructor from unsorted, overlapping ones."""
    kind = draw(st.sampled_from(list(families._BUILTINS)))
    n = draw(st.integers(1, 40) | st.sampled_from([257, 1024]))
    near = st.integers(-3, 43) | st.integers(n - 3, n + 3)
    point = st.one_of(
        st.sampled_from([NEG_INF, POS_INF]),
        near.map(finite),
        st.builds(lambda k, frac: finite(k + frac), near, st.sampled_from([HALF, F(1, 3)])),
    )
    ends = st.tuples(point, point).map(sorted)
    interval = st.builds(
        lambda lo_hi, lo_closed, hi_closed: Interval(lo_hi[0], lo_closed, lo_hi[1], hi_closed),
        ends, st.booleans(), st.booleans())
    intervals = draw(st.lists(interval, max_size=3))
    points = draw(st.lists(point, max_size=3))
    build = draw(st.sampled_from([MeasurableSet, MeasurableSet.from_pieces]))
    return builtin_family(kind), n, build(tuple(intervals), tuple(points))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(case=_builtin_member_and_set())
def test_builtin_closed_form_masses_match_the_members(case):
    fam, n, s = case
    mass = _member_mass(fam, n, s)
    assert type(mass) is F
    assert mass == fam.member(n).mass_of_set(s)


BUILTIN_RAY_SPECS = ["n", "n-1", "n-3", "n+2", "1/2+1/n", "-1/2+1/n", "3-1/n", "-3-1/n",
                     "2+1/n", "0", "1", "1/2", "-1"]


@pytest.mark.parametrize("family", ["mu", "dirac_n", "lambda"])
def test_orders_and_branches_match_the_member_route(monkeypatch, family):
    fam = builtin_family(family)

    def reports():
        for spec in BUILTIN_RAY_SPECS:
            sets = lower_ray_family(parse_sequence_spec(spec))
            for horizon in (2, 3, 9, 32, 64):
                yield (_order_b_or_error(fam, sets, horizon),
                       _report_or_error(branch_check, fam, spec, horizon))

    fast = list(reports())
    monkeypatch.setattr(
        convergence_lab, "_member_mass", lambda fam, n, s: fam.member(n).mass_of_set(s))
    assert fast == list(reports())


def test_branch_check_and_the_theorem_identify_the_weak_limit_once(monkeypatch):
    identified, requests = [], []
    identify, member = convergence_lab.weak_limit_identify, MeasureFamily.member
    monkeypatch.setattr(
        convergence_lab,
        "weak_limit_identify",
        lambda fam, horizon: identified.append(fam.kind) or identify(fam, horizon),
    )
    monkeypatch.setattr(
        MeasureFamily, "member", lambda self, n: requests.append(n) or member(self, n)
    )
    branch_check(table_family([lambda_measure()] * 6), "n+2", 64)
    # one weak limit, order (b), tightness: six members each
    assert identified == ["table"] and len(requests) == 18
    identified.clear()
    verify_theorem(12)
    assert identified == ["mu"]


def test_the_theorem_refuses_an_enumeration_that_disagrees_at_one_n(monkeypatch):
    probability = theorem.event_probability
    monkeypatch.setattr(
        theorem,
        "event_probability",
        lambda n, p, e: probability(n, p, e) + (n == 5),
    )
    verify_theorem(4)
    with pytest.raises(RuntimeError, match="at n=5 for X\\[N\\]==0:"):
        verify_theorem(6)


# --- branch checks ---


_BRANCH_FAMILIES = {
    "mu": builtin_family("mu"),
    "lambda": builtin_family("lambda"),
    "dirac_n": builtin_family("dirac_n"),
    "settling-table": table_family(
        [from_mass_pairs([(0, F(1, 2**n)), (1, 1 - F(1, 2**n))]) for n in range(1, 13)]
    ),
    "alternating-table": table_family([dirac(finite(0)), dirac(finite(1))] * 6),
}


def _report_or_error(order, *args):
    try:
        return order(*args)
    except LimitGapError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("spec", ["n-1", "n+2", "1/2+1/n", "3-1/n", "0", "1"])
@pytest.mark.parametrize("family", sorted(_BRANCH_FAMILIES))
def test_branch_check_reports_what_the_standalone_orders_report(family, spec):
    fam, sets = _BRANCH_FAMILIES[family], lower_ray_family(parse_sequence_spec(spec))
    for horizon in (2, 9, 33):
        orders = [_report_or_error(order, fam, sets, horizon)
                  for order in (order_a_limit, order_b_limit)]
        errors = [order for order in orders if isinstance(order, tuple)]
        try:
            report = branch_check(fam, spec, horizon)
        except LimitGapError as exc:  # the first order to fail names the error
            assert errors and (type(exc), str(exc)) == errors[0], horizon
        else:
            assert [report.order_a, report.order_b] == orders, horizon


def test_branch_for_thresholds_settling_at_a_continuity_point():
    report = branch_check(builtin_family("lambda"), "1/2+1/n", 64)
    assert report.branch == "a"
    assert report.holds is True
    assert report.continuity_mass == 0
    assert report.order_a.value == report.order_b.value == HALF


def test_branch_for_thresholds_settling_on_an_atom():
    report = branch_check(builtin_family("lambda"), "0", 64)
    assert report.branch == "a"
    assert report.continuity_mass == HALF  # x = 0 carries mass: no prediction
    assert report.holds is None


def test_branch_for_tight_families_with_growing_thresholds():
    report = branch_check(builtin_family("lambda"), "n-1", 64)
    assert report.branch == "b"
    assert report.tightness.tight is True
    assert report.order_a.value == report.order_b.value == 1
    assert report.holds is True


def test_branch_for_escaping_families_with_growing_thresholds():
    report = branch_check(builtin_family("mu"), "n-1", 64)
    assert report.branch == "b"
    assert report.tightness.tight is False
    assert report.order_a.value == 0
    assert report.order_b.value == HALF
    assert report.order_b.eligible is False
    assert report.infinity_mass == 1
    assert report.holds is True
    assert report.xs == "n-1/1"


def test_branch_rejects_malformed_threshold_specs():
    with pytest.raises(BadSequenceSpecError):
        branch_check(builtin_family("mu"), "n^2", 64)


def test_branch_report_serializes_cleanly():
    data = branch_check(builtin_family("mu"), "n-1", 64).to_dict()
    assert data["order_a"]["value"] == "0/1"
    assert data["order_b"]["value"] == "1/2"
    assert data["order_b"]["eligible"] is False
    assert data["infinity_mass"] == "1/1"
    assert data["branch"] == "b" and data["continuity_mass"] is None
    data = branch_check(builtin_family("lambda"), "0", 64).to_dict()
    assert data["branch"] == "a" and data["xs"] == "0/1"
    assert data["order_a"]["value"] == data["order_b"]["value"] == "1/2"
    assert data["holds"] is None
    assert data["continuity_mass"] == "1/2" and data["infinity_mass"] is None


def test_random_ray_specs_never_split_orders_for_the_tight_family():
    rng = random.Random(4242)
    fam = builtin_family("lambda")
    for _ in range(25):
        q = F(rng.randint(-3, 3), rng.choice([1, 2, 4]))
        kind = rng.choice(["affine", "above", "below"])
        if kind == "affine":
            spec = f"n+{q}" if q >= 0 else f"n-{abs(q)}"
        elif kind == "above":
            spec = f"{q}+1/n"
        else:
            spec = f"{q}-1/n"
        report = branch_check(fam, spec, 64)
        if report.holds is not None:
            assert report.holds is True


# --- the theorem walk ---


def test_theorem_checks_the_ray_mass_past_the_enumeration_rows(monkeypatch):
    # a law that is wrong only at n = 15, past the n <= 12 enumeration check
    monkeypatch.setattr(
        theorem,
        "mu_closed_form",
        lambda n: dirac(finite(n)) if n == 15 else mu_closed_form(n),
    )
    with pytest.raises(RuntimeError, match="n=15"):
        verify_theorem(20)
    assert len(verify_theorem(14)["rows"]) == 13


# --- the six limit types keep the shape they had as frozen dataclasses ---

_UNIT = MeasurableSet.interval(finite(0), finite(1))
_RAYS = RealSequence("affine", F(-1))
_ORDER_A = LimitReport("a", F(0), 32, "wa", measure_tag="{+inf: 1/1}", set_tag="(-inf, +inf)")
_ORDER_B = LimitReport("b", HALF, 32, "wb", eligible=False, witness_pair=(F(1), F(0)))
_VERDICT = TightnessVerdict(True, HALF, "wt", interval=_UNIT)
_ORDER_A_DICT = {"order": "a", "value": F(0), "horizon_used": 32, "witness": "wa",
                 "measure_tag": "{+inf: 1/1}", "set_tag": "(-inf, +inf)", "eligible": None,
                 "witness_pair": None}
_ORDER_B_DICT = {"order": "b", "value": HALF, "horizon_used": 32, "witness": "wb",
                 "measure_tag": None, "set_tag": None, "eligible": False,
                 "witness_pair": (F(1), F(0))}
_VERDICT_DICT = {"tight": True, "epsilon": HALF, "witness": "wt", "interval": _UNIT}
_UNIT_REPR = ("MeasurableSet(intervals=(Interval(lo=ExtReal(tag=0, value=Fraction(0, 1)), "
              "lo_closed=True, hi=ExtReal(tag=0, value=Fraction(1, 1)), hi_closed=True),), "
              "points=())")
_ORDER_A_REPR = ("LimitReport(order='a', value=Fraction(0, 1), horizon_used=32, witness='wa', "
                 "measure_tag='{+inf: 1/1}', set_tag='(-inf, +inf)', eligible=None, "
                 "witness_pair=None)")
_ORDER_B_REPR = ("LimitReport(order='b', value=Fraction(1, 2), horizon_used=32, witness='wb', "
                 "measure_tag=None, set_tag=None, eligible=False, "
                 "witness_pair=(Fraction(1, 1), Fraction(0, 1)))")
_VERDICT_REPR = (f"TightnessVerdict(tight=True, epsilon=Fraction(1, 2), witness='wt', "
                 f"interval={_UNIT_REPR})")

# Per type: one instance, its signature, repr and dataclasses.asdict, and one
# field change for dataclasses.replace, as recorded when these were dataclasses.
_SHAPES = {
    "SequenceAnalysis": (
        SequenceAnalysis("divergent", None, "ws", pair=(HALF, F(0))),
        "(kind: 'str', value: 'Fraction | None', witness: 'str', "
        "pair: 'tuple[Fraction, Fraction] | None' = None) -> None",
        "SequenceAnalysis(kind='divergent', value=None, witness='ws', "
        "pair=(Fraction(1, 2), Fraction(0, 1)))",
        {"kind": "divergent", "value": None, "witness": "ws", "pair": (HALF, F(0))},
        {"pair": None},
    ),
    "RealSequence": (
        _RAYS,
        "(kind: 'str', q: 'Fraction') -> None",
        "RealSequence(kind='affine', q=Fraction(-1, 1))",
        {"kind": "affine", "q": F(-1)},
        {"kind": "const"},
    ),
    "SetFamily": (
        SetFamily("ray_seq", seq=_RAYS),
        "(kind: 'str', seq: 'RealSequence | None' = None, point: 'ExtReal | None' = None, "
        "table: 'tuple[MeasurableSet, ...] | None' = None) -> None",
        "SetFamily(kind='ray_seq', seq=RealSequence(kind='affine', q=Fraction(-1, 1)), "
        "point=None, table=None)",
        {"kind": "ray_seq", "seq": {"kind": "affine", "q": F(-1)}, "point": None, "table": None},
        {"kind": "singleton", "seq": None, "point": POS_INF},
    ),
    "LimitReport": (
        _ORDER_A,
        "(order: 'str', value: 'Fraction | float | str', horizon_used: 'int', witness: 'str', "
        "measure_tag: 'str | None' = None, set_tag: 'str | None' = None, "
        "eligible: 'bool | None' = None, witness_pair: 'tuple[Any, Any] | None' = None) -> None",
        _ORDER_A_REPR,
        _ORDER_A_DICT,
        {"value": HALF},
    ),
    "TightnessVerdict": (
        _VERDICT,
        "(tight: 'bool | str', epsilon: 'Fraction', witness: 'str', "
        "interval: 'MeasurableSet | None' = None) -> None",
        _VERDICT_REPR,
        _VERDICT_DICT,
        {"tight": "inconclusive", "interval": None},
    ),
    "BranchReport": (
        BranchReport("b", "n-1", _ORDER_A, _ORDER_B, _VERDICT, "p", False, infinity_mass=F(1)),
        "(branch: 'str', xs: 'str', order_a: 'LimitReport', order_b: 'LimitReport', "
        "tightness: 'TightnessVerdict', predicted: 'str', holds: 'bool | None', "
        "continuity_mass: 'Fraction | None' = None, "
        "infinity_mass: 'Fraction | None' = None) -> None",
        f"BranchReport(branch='b', xs='n-1', order_a={_ORDER_A_REPR}, order_b={_ORDER_B_REPR}, "
        f"tightness={_VERDICT_REPR}, predicted='p', holds=False, continuity_mass=None, "
        f"infinity_mass=Fraction(1, 1))",
        {"branch": "b", "xs": "n-1", "order_a": _ORDER_A_DICT, "order_b": _ORDER_B_DICT,
         "tightness": _VERDICT_DICT, "predicted": "p", "holds": False,
         "continuity_mass": None, "infinity_mass": F(1)},
        {"holds": None, "infinity_mass": None},
    ),
}


@pytest.mark.parametrize("value, signature, text, as_dict, change", _SHAPES.values(),
                         ids=list(_SHAPES))
def test_each_limit_type_keeps_its_frozen_dataclass_shape(value, signature, text, as_dict,
                                                          change):
    cls = type(value)
    assert str(inspect.signature(cls)) == signature
    params = inspect.signature(cls).parameters.values()
    assert [(f.name, f.default, f.type) for f in dataclasses.fields(cls)] == [
        (p.name, dataclasses.MISSING if p.default is p.empty else p.default, p.annotation)
        for p in params]
    assert dataclasses.is_dataclass(cls) and dataclasses.is_dataclass(value)
    assert cls.__match_args__ == tuple(p.name for p in params)
    assert repr(value) == text
    names = cls.__match_args__
    twin = cls(**{name: getattr(value, name) for name in names})
    assert twin is not value and twin == value and not twin != value
    assert hash(twin) == hash(value) == hash(tuple(getattr(value, name) for name in names))
    assert value != cls(**{**{name: getattr(value, name) for name in names}, **change})
    with pytest.raises(AttributeError, match=f"cannot assign to field '{names[0]}'"):
        setattr(value, names[0], getattr(value, names[0]))
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in (*copies, copy.copy(value), copy.deepcopy(value), dataclasses.replace(value)):
        assert type(c) is cls and c == value and hash(c) == hash(value) and repr(c) == text
    changed = dataclasses.replace(value, **change)
    assert {name: getattr(changed, name) for name in names} == {
        **{name: getattr(value, name) for name in names}, **change}
    assert dataclasses.asdict(value) == as_dict


# A SequenceAnalysis("divergent", None, "w", pair=(1/2, 0)) as pickled when it
# was a frozen dataclass, whose state was its __dict__: protocols 0 and 4.
_DATACLASS_PICKLES = [
    b"ccopy_reg\n_reconstructor\np0\n(climitgap.convergence_lab\nSequenceAnalysis\np1\n"
    b"c__builtin__\nobject\np2\nNtp3\nRp4\n(dp5\nVkind\np6\nVdivergent\np7\nsVvalue\np8\n"
    b"NsVwitness\np9\nVw\np10\nsVpair\np11\n(cfractions\nFraction\np12\n(I1\nI2\ntp13\n"
    b"Rp14\ng12\n(I0\nI1\ntp15\nRp16\ntp17\nsb.",
    b"\x80\x04\x95\x97\x00\x00\x00\x00\x00\x00\x00\x8c\x18limitgap.convergence_lab\x94"
    b"\x8c\x10SequenceAnalysis\x94\x93\x94)\x81\x94}\x94(\x8c\x04kind\x94\x8c\tdivergent"
    b"\x94\x8c\x05value\x94N\x8c\x07witness\x94\x8c\x01w\x94\x8c\x04pair\x94\x8c\tfractions"
    b"\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x02\x86\x94R\x94h\rK\x00K\x01\x86\x94R\x94"
    b"\x86\x94ub.",
]


@pytest.mark.parametrize("data", _DATACLASS_PICKLES, ids=["protocol-0", "protocol-4"])
def test_a_limit_type_pickled_as_a_dataclass_loads_with_its_fields(data):
    assert pickle.loads(data) == SequenceAnalysis("divergent", None, "w", pair=(HALF, F(0)))


@pytest.mark.parametrize("build, message", [
    (lambda: RealSequence("bogus", F(1)),
     "unknown sequence kind 'bogus'; use affine, approach_above, approach_below, const"),
    (lambda: SetFamily("bogus"), "unknown set family kind 'bogus'; use ray_seq, singleton, table"),
    (lambda: SetFamily("table", table=()), "explicit set list needs at least one set"),
    (lambda: SetFamily("table"), "explicit set list needs at least one set"),
    (lambda: SetFamily("singleton", point=POS_INF, table=(_UNIT,)),
     "a singleton set family takes no table"),
    (lambda: SetFamily("ray_seq"), "a ray_seq set family needs its seq"),
    (lambda: SetFamily("singleton"), "a singleton set family needs its point"),
    (lambda: dataclasses.replace(_RAYS, kind="bogus"),
     "unknown sequence kind 'bogus'; use affine, approach_above, approach_below, const"),
], ids=["sequence-kind", "set-kind", "empty-table", "no-table", "table-on-singleton", "no-seq",
        "no-point", "replace"])
def test_the_sequence_and_set_family_refuse_a_bad_shape_with_its_text(build, message):
    with pytest.raises(DomainError) as caught:
        build()
    assert str(caught.value) == message
