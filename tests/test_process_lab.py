"""Exhaustive coin-flip enumeration against an independent brute-force oracle."""

import itertools
import random
from collections import Counter
from fractions import Fraction as F

import pytest

import event_oracle
from limitgap import process_lab
from limitgap.errors import DomainError, KRangeError, NTooLargeError
from limitgap.event_dsl import parse_event, print_event
from limitgap.identities import verify_process_identities
from limitgap.measure_core import finite, from_mass_pairs
from limitgap.process_lab import (
    enumerate_outcomes,
    escaped_mass_profile,
    event_probability,
    iter_outcomes,
    lambda_measure,
    mu_closed_form,
    z_distribution,
)


def _oracle_stats(bits: tuple[int, ...]) -> tuple[int, int]:
    """(running max, last index attaining it), computed the naive way."""
    y = max(bits)
    z = max(i + 1 for i, b in enumerate(bits) if b == y)
    return y, z


def _oracle_rows(n: int, p: F) -> dict[tuple[int, ...], tuple[int, int, F]]:
    rows = {}
    for bits in itertools.product((0, 1), repeat=n):
        prob = F(1)
        for b in bits:
            prob *= p if b else 1 - p
        y, z = _oracle_stats(bits)
        rows[bits] = (y, z, prob)
    return rows


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("p", [F(1, 2), F(1, 3)])
def test_enumeration_matches_the_oracle(n, p):
    oracle = _oracle_rows(n, p)
    rows = enumerate_outcomes(n, p)
    assert len(rows) == 2**n == len(oracle)
    for row in rows:
        assert oracle[row.outcome.bits] == (row.y, row.z, row.outcome.prob)


@pytest.mark.parametrize("n", range(1, 13))
def test_stream_matches_the_oracle_row_by_row(n):
    for p in (F(1, 2), F(1, 3), F(5, 7)):
        oracle = _oracle_rows(n, p)
        rows = list(iter_outcomes(n, p))
        assert len(rows) == len(oracle) == 2**n
        for v, row in enumerate(rows):
            # row v carries the bits of v, lowest bit first
            assert row.outcome.bits == tuple((v >> i) & 1 for i in range(n))
            assert row.outcome.p == p
            assert oracle[row.outcome.bits] == (row.y, row.z, row.outcome.prob)


@pytest.mark.parametrize(
    "args, error", [((0,), DomainError), ((25,), NTooLargeError), ((3, 1), DomainError)])
def test_stream_checks_its_arguments_at_the_call(args, error):
    with pytest.raises(error):
        iter_outcomes(*args)  # no next(): the generator is never started


def test_single_flip_rows_are_explicit():
    rows = enumerate_outcomes(1)
    assert [(r.outcome.bits, r.y, r.z) for r in rows] == [((0,), 0, 1), ((1,), 1, 1)]
    assert all(r.outcome.prob == F(1, 2) for r in rows)


def test_bit_order_is_flip_order():
    rows = enumerate_outcomes(3)
    # integer encoding: row index v has bit i-1 equal to the i-th flip
    assert rows[1].outcome.bits == (1, 0, 0)
    assert rows[4].outcome.bits == (0, 0, 1)


def test_probabilities_sum_to_one_for_a_biased_coin():
    rows = enumerate_outcomes(9, F(1, 3))
    assert sum(r.outcome.prob for r in rows) == 1


def test_argmax_never_decreases_when_a_flip_is_appended():
    rng = random.Random(12)
    for _ in range(200):
        bits = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 10)))
        y1, z1 = _oracle_stats(bits)
        y2, z2 = _oracle_stats(bits + (rng.randint(0, 1),))
        assert y2 >= y1 and z2 >= z1


def test_two_flip_argmax_masses_frozen():
    # By hand: 00 -> z=2, 10 -> z=1, 01 -> z=2, 11 -> z=2.
    assert z_distribution(2) == from_mass_pairs([(1, "1/4"), (2, "3/4")])


def test_closed_form_matches_enumeration_up_to_ten():
    for n in range(1, 11):
        law = Counter()
        for row in enumerate_outcomes(n):
            law[row.z] += row.outcome.prob
        assert mu_closed_form(n) == from_mass_pairs(law.items())


@pytest.mark.parametrize("n", range(1, 15))
def test_z_law_matches_a_brute_force_tally(n):
    # outcomes per (Z_n, number of ones), counted over itertools.product
    tally = Counter(
        (_oracle_stats(bits)[1], sum(bits))
        for bits in itertools.product((0, 1), repeat=n)
    )
    for p in (F(1, 2), F(1, 3), F(5, 7), F(1, 10), F(9, 10)):
        law = Counter()
        for (z, ones), count in tally.items():
            law[z] += count * p**ones * (1 - p) ** (n - ones)
        assert z_distribution(n, p) == from_mass_pairs(law.items()), (n, p)


def test_z_law_needs_no_enumeration_cap():
    p = F(1, 3)
    law = z_distribution(60, p)
    assert law.total == 1
    assert law.mass_at(finite(60)) == p + (1 - p) ** 60
    with pytest.raises(DomainError):
        z_distribution(0, p)
    with pytest.raises(DomainError, match=r"strictly in \(0, 1\)"):
        z_distribution(60, F(1))


def test_closed_form_small_cases():
    assert mu_closed_form(1) == from_mass_pairs([(1, 1)])
    assert mu_closed_form(3) == from_mass_pairs(
        [(1, "1/8"), (2, "1/4"), (3, "5/8")]
    )


def test_closed_form_is_a_probability_for_large_horizons():
    for n in (20, 40, 200):
        m = mu_closed_form(n)
        assert m.total == 1
        assert m.mass_at(finite(n)) == F(1, 2) + F(1, 2**n)


def test_coin_marginal_is_a_fair_two_point_law():
    lam = lambda_measure()
    assert lam.mass_at(finite(0)) == lam.mass_at(finite(1)) == F(1, 2)


@pytest.mark.parametrize(
    "call",
    [
        iter_outcomes,
        z_distribution,
        verify_process_identities,
        lambda n, p: event_probability(n, p, "Y==1"),
        lambda n, p: escaped_mass_profile(n, 5),
    ],
    ids=["iter_outcomes", "z_distribution", "identities", "event_probability", "escape"],
)
def test_every_entry_checks_the_horizon_before_anything_else(call):
    with pytest.raises(DomainError, match=r"^horizon must be at least 1, got 0$"):
        call(0, F(2))  # the bias, and the escape's k_max, are out of range too


def test_horizon_and_bias_validation():
    with pytest.raises(NTooLargeError, match="24"):
        enumerate_outcomes(25)
    with pytest.raises(DomainError):
        enumerate_outcomes(0)
    with pytest.raises(DomainError, match=r"strictly in \(0, 1\)"):
        enumerate_outcomes(3, F(1))


@pytest.mark.parametrize("n", [21, 24])
def test_the_list_api_stops_at_twenty_before_building_a_row(monkeypatch, n):
    def no_rows(*args):
        raise AssertionError("a row was built")
        yield

    monkeypatch.setattr(process_lab, "_rows", no_rows)
    with pytest.raises(NTooLargeError, match="iter_outcomes"):
        enumerate_outcomes(n)
    iter_outcomes(n)  # the stream, event_probability and the identities keep 24


@pytest.mark.parametrize(
    "call",
    [iter_outcomes, verify_process_identities, lambda n: event_probability(n, F(1, 2), "Y==1")],
)
def test_the_scans_keep_the_enumeration_cap_of_twenty_four(call):
    with pytest.raises(NTooLargeError, match="enumeration cap 24"):
        call(25)


def test_event_probability_known_values():
    assert event_probability(5, F(1, 2), "X[N]==0") == F(1, 2)
    assert event_probability(4, F(1, 2), "Z<=N") == 1
    assert event_probability(6, F(1, 2), "X[N]==0 && Z==N") == F(1, 64)


def test_event_probability_accepts_parsed_predicates():
    e = parse_event("Y==0")
    assert event_probability(7, F(1, 2), e) == F(1, 128)


def _random_event_text(rng: random.Random) -> str:
    terms = ["X[1]", "X[2]", "X[N]", "Y", "Z", "N", "0", "1", "2"]
    ops = ["==", "!=", "<", "<=", ">", ">="]

    def comparison() -> str:
        return f"{rng.choice(terms)}{rng.choice(ops)}{rng.choice(terms)}"

    clauses = [comparison() for _ in range(rng.randint(1, 3))]
    glued = clauses[0]
    for clause in clauses[1:]:
        glue = rng.choice([" && ", " || "])
        clause = f"!({clause})" if rng.random() < 0.3 else clause
        glued = f"{glued}{glue}{clause}"
    return glued


def test_event_probability_matches_row_filtering():
    rng = random.Random(7321)
    n, p = 6, F(2, 5)
    rows = enumerate_outcomes(n, p)
    for _ in range(30):
        e = parse_event(_random_event_text(rng))
        direct = sum(
            (r.outcome.prob for r in rows if event_oracle.eval_event(e, r)), F(0)
        )
        assert event_probability(n, p, e) == direct


def test_event_and_its_negation_partition_the_space():
    rng = random.Random(808)
    for _ in range(20):
        text = print_event(parse_event(_random_event_text(rng)))
        total = event_probability(5, F(1, 2), text) + event_probability(
            5, F(1, 2), f"!({text})"
        )
        assert total == 1


def test_event_index_outside_horizon_is_rejected():
    from limitgap.errors import IndexOutOfRangeError

    with pytest.raises(IndexOutOfRangeError):
        event_probability(6, F(1, 2), "X[7]==1")


def test_last_flip_zero_splits_by_whether_the_max_came_earlier():
    for n in range(2, 11):
        below = event_probability(n, F(1, 2), "X[N]==0 && Z<N")
        at = event_probability(n, F(1, 2), "X[N]==0 && Z==N")
        assert below == F(1, 2) - F(1, 2**n)
        assert at == F(1, 2**n)
        assert below + at == F(1, 2)


def test_identity_report_holds_on_small_horizons():
    for n in (1, 2, 3, 6):
        report = verify_process_identities(n)
        assert report.all_hold
        assert report.rows_checked == 2**n
        assert report.violations == ()


def test_identity_report_equates_the_two_event_routes():
    report = verify_process_identities(10)
    assert report.p_last_zero_and_z_below == report.p_z_below == F(1, 2) - F(1, 1024)


@pytest.mark.parametrize("p", [F(1, 3), F(5, 7)])
def test_identity_report_matches_the_z_law_on_a_biased_coin(p):
    # Off p = 1/2 the probability of k ones differs from that of n - k, so a
    # tally kept under the wrong popcount class shows.
    for n in range(1, 11):
        report = verify_process_identities(n, p)
        expected = 1 - p - (1 - p) ** n  # P(Z_n < n) from the closed form
        assert report.p_last_zero_and_z_below == report.p_z_below == expected
        assert report.p_z_below == event_probability(n, p, "Z<N")


def test_escape_profile_frozen_values():
    profile = dict(escaped_mass_profile(10, 2))
    assert profile == {0: F(513, 1024), 1: F(1, 4), 2: F(1, 8)}


def test_escape_profile_tail_is_geometric():
    profile = dict(escaped_mass_profile(12, 11))
    for k in range(1, 12):
        assert profile[k] == F(1, 2 ** (k + 1))


def test_escape_offset_must_stay_inside_the_horizon():
    with pytest.raises(KRangeError):
        escaped_mass_profile(10, 10)
    with pytest.raises(KRangeError):
        escaped_mass_profile(10, -1)
