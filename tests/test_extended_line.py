"""The order embedding of R-bar into [0, 1] and its metric."""

import copy
import math
import pickle
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitgap.errors import DomainError
from limitgap.extended_line import (
    UnitReal,
    compactify_measure,
    h,
    h_inv,
    metric_d,
    saturating_float,
)
from limitgap.measure_core import NEG_INF, POS_INF, dirac, finite, from_mass_pairs, parse_ext_real
from test_measure_core import COMPARES, r_bar, spellings


def test_endpoints_map_exactly():
    assert h(NEG_INF) == UnitReal(0.0, True, NEG_INF)
    assert h(POS_INF) == UnitReal(1.0, True, POS_INF)
    assert h(NEG_INF).exact and h(POS_INF).exact


def test_zero_maps_to_the_exact_midpoint():
    y = h(finite(0))
    assert y.value == 0.5 and y.exact


def test_interior_images_are_flagged_inexact():
    assert not h(finite(1)).exact
    assert h(finite(1)).value == pytest.approx(0.75, abs=1e-15)


def test_h_is_strictly_increasing_even_past_float_range():
    grid = [
        NEG_INF,
        finite(-(10**400)),
        finite(-(10**30)),
        finite(-100),
        finite(F(-1, 3)),
        finite(0),
        finite(F(1, 2)),
        finite(2),
        finite(10**30),
        finite(10**400),
        finite(2 * 10**400),
        POS_INF,
    ]
    images = [h(x) for x in grid]
    for left, right in zip(images, images[1:]):
        assert left < right  # the preimage breaks float ties


def test_saturating_float_handles_huge_rationals():
    assert saturating_float(finite(10**400)) == math.inf
    assert saturating_float(finite(-(10**400))) == -math.inf
    assert saturating_float(finite(F(1, 3))) == pytest.approx(1 / 3)
    assert saturating_float(NEG_INF) == -math.inf
    assert saturating_float(POS_INF) == math.inf


def test_images_of_finite_points_stay_strictly_inside():
    for q in (-(10**6), -1, 0, 1, 10**6):
        y = h(finite(q))
        assert 0.0 < y.value < 1.0 or not y.exact


def test_h_inv_returns_the_stored_preimage_exactly():
    x = finite(F(22, 7))
    assert h_inv(h(x)) == x


def test_h_inv_endpoint_floats_are_exact():
    assert h_inv(0.0) == NEG_INF
    assert h_inv(1.0) == POS_INF


def test_h_inv_midpoint_is_near_zero():
    x = h_inv(0.5)
    assert x.is_finite
    assert abs(float(x.value)) < 1e-12


def test_round_trip_through_the_float_image():
    for q in (-100, -1, 0, 1, 100):
        x = finite(q)
        back = h_inv(h(x).value)
        assert metric_d(back, x) < 1e-9


@pytest.mark.parametrize("bad", [-0.25, 1.0000001, 2.0, math.nan])
def test_h_inv_rejects_values_outside_the_unit_interval(bad):
    with pytest.raises(DomainError, match="outside"):
        h_inv(bad)


def test_metric_spans_pi_end_to_end():
    assert metric_d(NEG_INF, POS_INF) == pytest.approx(math.pi, abs=1e-12)
    assert metric_d(NEG_INF, finite(0)) == pytest.approx(math.pi / 2, abs=1e-12)


def test_metric_is_symmetric_with_zero_diagonal():
    rng = random.Random(31)
    points = [NEG_INF, POS_INF] + [
        finite(F(rng.randint(-50, 50), rng.randint(1, 9))) for _ in range(20)
    ]
    for x in points:
        assert metric_d(x, x) == 0.0
    for _ in range(50):
        x, y = rng.choice(points), rng.choice(points)
        assert metric_d(x, y) == metric_d(y, x)


def test_metric_triangle_inequality():
    rng = random.Random(92)
    points = [NEG_INF, POS_INF] + [
        finite(F(rng.randint(-50, 50), rng.randint(1, 9))) for _ in range(20)
    ]
    for _ in range(100):
        x, y, z = (rng.choice(points) for _ in range(3))
        assert metric_d(x, z) <= metric_d(x, y) + metric_d(y, z) + 1e-12


def test_large_points_converge_to_plus_infinity_in_the_metric():
    gaps = [metric_d(finite(2**k), POS_INF) for k in (4, 16, 60)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-12


def test_unit_real_identity_is_the_preimage():
    a = h(finite(10**400))
    b = h(finite(2 * 10**400))
    assert a.value == b.value == 1.0  # both saturate in float
    assert a != b and hash(a) != hash(h(POS_INF))
    assert a < b < h(POS_INF)


def test_unit_real_equality_order_and_hash_follow_the_preimage():
    rng = random.Random(53)
    points = [NEG_INF, POS_INF, finite(10**20), finite(10**20 + 1), finite(-(10**20)),
              finite(-(10**20) - 1), finite(0)] + [
        finite(F(rng.randint(-10**6, 10**6), rng.randint(1, 9))) for _ in range(30)
    ]
    assert h(finite(10**20)).value == h(finite(10**20 + 1)).value == 1.0
    for x in points:
        for y in points:
            assert (h(x) == h(y)) == (x == y)
            assert (h(x) < h(y)) == (x < y)
            assert (h(x) <= h(y)) == (x <= y)
        assert hash(h(x)) == hash(h(finite(x.value) if x.is_finite else x))
    assert len({h(x) for x in points}) == len(set(points))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(texts=st.tuples(spellings(), spellings()))
def test_unit_real_operators_and_hash_follow_the_value_then_the_preimage(texts):
    u, v = (h(parse_ext_real(text)) for text in texts)
    a, b = map(r_bar, texts)
    for compare in COMPARES:
        assert compare(u, v) is compare((u.value, a), (v.value, b)) is compare(a, b), texts
    if a == b:
        assert hash(u) == hash(v) and len({u, v}) == 1
    for twin in (pickle.loads(pickle.dumps(u)), copy.copy(u), copy.deepcopy(u)):
        assert twin == u and hash(twin) == hash(u) and twin.exact == u.exact


@pytest.mark.parametrize("other", [finite(1), 0.5])
def test_unit_reals_compare_only_with_unit_reals(other):
    with pytest.raises(TypeError):
        h(finite(1)) < other


def test_compactified_escape_limit_is_a_unit_atom_at_one():
    mapped = compactify_measure(dirac(POS_INF))
    ((point, mass),) = mapped.atoms
    assert point.value == 1.0 and point.exact
    assert mass == 1


def test_compactify_keeps_masses_and_total():
    lam = from_mass_pairs([(0, "1/2"), (1, "1/2")])
    mapped = compactify_measure(lam)
    assert mapped.total == 1
    values = [point.value for point, _ in mapped.atoms]
    assert values[0] == 0.5 and values[1] == pytest.approx(0.75)
    assert [m for _, m in mapped.atoms] == [F(1, 2), F(1, 2)]


def test_compactify_never_collides_distinct_atoms():
    m = from_mass_pairs([(10**400, "1/2"), (2 * 10**400, "1/2")])
    mapped = compactify_measure(m)
    assert len(mapped.atoms) == 2  # identical float images stay separate atoms
    assert mapped.total == 1


def test_compactify_zero_measure():
    assert compactify_measure(from_mass_pairs([])).atoms == ()


def test_argmax_family_piles_up_below_one():
    from limitgap.process_lab import mu_closed_form

    tops = []
    for n in (4, 16, 64):
        mapped = compactify_measure(mu_closed_form(n))
        point, mass = mapped.atoms[-1]
        assert mass == F(1, 2) + F(1, 2**n)
        tops.append(point.value)
    assert tops[0] < tops[1] < tops[2] < 1.0


def test_json_value_uses_seventeen_significant_digits():
    data = h(finite(4)).json_value()
    assert data == {"value": "0.92202086962263075", "exact": False}
    assert h(POS_INF).json_value() == {"value": "1", "exact": True}
