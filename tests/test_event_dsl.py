"""Parsing, printing, and evaluation of event expressions."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import limitgap
from limitgap.errors import EventParseError, IndexOutOfRangeError
from limitgap.event_dsl import (
    And,
    Cmp,
    Coord,
    Lit,
    Not,
    Or,
    Var,
    compile_event,
    eval_event,
    parse_event,
    print_event,
)
from limitgap.process_lab import enumerate_outcomes


def test_parses_conjunction_of_comparisons():
    e = parse_event("X[N]==0 && Z<N")
    assert e.root == And(
        Cmp("==", Coord(None), Lit(0)), Cmp("<", Var("Z"), Var("N"))
    )


def test_parses_a_single_comparison():
    assert parse_event("Y==1").root == Cmp("==", Var("Y"), Lit(1))


def test_and_binds_tighter_than_or():
    e = parse_event("Y==0 || Y==1 && Z==2")
    assert isinstance(e.root, Or)
    assert isinstance(e.root.rhs, And)


def test_not_applies_to_the_next_comparison_only():
    e = parse_event("!Z==N && Y==1")
    assert isinstance(e.root, And)
    assert e.root.lhs == Not(Cmp("==", Var("Z"), Var("N")))


def test_parentheses_override_precedence():
    e = parse_event("(Y==0 || Y==1) && Z==2")
    assert isinstance(e.root, And)
    assert isinstance(e.root.lhs, Or)


def test_numeric_literal_may_sit_on_either_side():
    assert parse_event("0==X[1]").root == Cmp("==", Lit(0), Coord(1))


def test_whitespace_and_newlines_are_insignificant():
    assert parse_event("Y == 0 &&\n\tZ <= N") == parse_event("Y==0&&Z<=N")


def test_max_coord_index_ignores_the_symbolic_index():
    assert parse_event("X[3]==1 || X[N]==0").max_coord_index() == 3
    assert parse_event("Y==0").max_coord_index() == 0


@pytest.mark.parametrize(
    "src",
    [
        "X[N]==0",
        "X[2]==1 || !(Z==N)",
        "Y==0 && Z<N && X[1]!=X[2]",
        "(Y==0 || Z>=2) && !(X[N]==1 || Z==1)",
        "!(!(Y==1))",
    ],
)
def test_print_parse_round_trip(src):
    e = parse_event(src)
    assert parse_event(print_event(e)) == e


def test_printer_produces_the_canonical_spelling():
    assert print_event(parse_event("Y == 0 &&\n Z <= N")) == "Y==0 && Z<=N"
    assert print_event(parse_event("! Z == N")) == "!(Z==N)"


def test_printer_parenthesizes_or_under_and():
    e = parse_event("(Y==0 || Y==1) && Z==2")
    assert print_event(e) == "(Y==0 || Y==1) && Z==2"


def _random_term(rng: random.Random):
    roll = rng.randrange(5)
    if roll == 0:
        return Lit(rng.randint(0, 3))
    if roll == 1:
        return Var(rng.choice("YZN"))
    if roll == 2:
        return Coord(None)
    if roll == 3:
        return Coord(rng.randint(1, 4))
    return Lit(rng.randint(0, 1))


def _random_node(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.4:
        op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
        return Cmp(op, _random_term(rng), _random_term(rng))
    roll = rng.randrange(3)
    if roll == 0:
        return Not(_random_node(rng, depth - 1))
    if roll == 1:
        return And(_random_node(rng, depth - 1), _random_node(rng, depth - 1))
    return Or(_random_node(rng, depth - 1), _random_node(rng, depth - 1))


def test_round_trip_holds_for_random_trees():
    rng = random.Random(2024)
    for _ in range(150):
        from limitgap.event_dsl import EventPredicate

        e = EventPredicate(_random_node(rng, 4))
        assert parse_event(print_event(e)) == e


def test_evaluation_on_hand_checked_rows():
    rows = {row.outcome.bits: row for row in enumerate_outcomes(3)}
    certain_z = parse_event("X[N]==0 && Z==N")
    assert eval_event(certain_z, rows[(0, 0, 0)])  # all-zero run: z = n by fiat
    assert not eval_event(certain_z, rows[(1, 0, 0)])
    assert eval_event(parse_event("X[2]==1"), rows[(0, 1, 0)])


def test_z_is_always_within_the_horizon():
    bound = parse_event("Z>=1 && Z<=N")
    assert all(eval_event(bound, row) for row in enumerate_outcomes(4))


def test_symbolic_index_tracks_the_horizon():
    last_flip = parse_event("X[N]==1")
    for n in (1, 2, 5):
        for row in enumerate_outcomes(n):
            assert eval_event(last_flip, row) == (row.outcome.bits[-1] == 1)


def test_de_morgan_on_random_predicates():
    from limitgap.event_dsl import EventPredicate

    rng = random.Random(555)
    rows = enumerate_outcomes(4)
    for _ in range(60):
        a = _random_node(rng, 2)
        b = _random_node(rng, 2)
        negated_and = EventPredicate(Not(And(a, b)))
        or_of_negs = EventPredicate(Or(Not(a), Not(b)))
        for row in rows:
            assert eval_event(negated_and, row) == eval_event(or_of_negs, row)


def test_compiled_closure_agrees_with_the_interpreter():
    from limitgap.event_dsl import EventPredicate

    rng = random.Random(99)
    n = 5
    rows = enumerate_outcomes(n)
    for _ in range(40):
        e = EventPredicate(_random_node(rng, 3))
        fn = compile_event(e, n)
        for v, row in enumerate(rows):
            assert fn(v, row.y, row.z) == eval_event(e, row)


def test_index_beyond_horizon_raises_on_eval_and_compile():
    e = parse_event("X[7]==1")
    row = enumerate_outcomes(6)[0]
    with pytest.raises(IndexOutOfRangeError, match="horizon is 6"):
        eval_event(e, row)
    with pytest.raises(IndexOutOfRangeError, match="horizon is 6"):
        compile_event(e, 6)


# --- parse errors ---


def test_empty_source_is_an_error():
    with pytest.raises(EventParseError, match="empty"):
        parse_event("   ")


def test_zero_coordinate_index_is_rejected():
    with pytest.raises(EventParseError, match="at least 1") as exc_info:
        parse_event("X[0]==1")
    err = exc_info.value
    assert (err.line, err.col) == (1, 3)
    assert "N" in err.expected


def test_only_literal_or_symbolic_indices_are_allowed():
    with pytest.raises(EventParseError, match="coordinate index"):
        parse_event("X[Z]==1")


def test_lowercase_names_are_rejected():
    with pytest.raises(EventParseError, match="unexpected character 'x'"):
        parse_event("x<1")


def test_single_ampersand_is_diagnosed():
    with pytest.raises(EventParseError, match="lone") as exc_info:
        parse_event("Y==0 & Z==1")
    assert exc_info.value.expected == ("&&",)
    assert exc_info.value.col == 6


def test_single_equals_is_diagnosed():
    with pytest.raises(EventParseError, match="lone '='"):
        parse_event("Y = 0")


def test_term_without_comparison_is_an_error():
    with pytest.raises(EventParseError, match="comparison operator"):
        parse_event("Y")


def test_unbalanced_parenthesis():
    with pytest.raises(EventParseError, match="expected '\\)'"):
        parse_event("(Y==0")


def test_trailing_input_is_reported():
    with pytest.raises(EventParseError, match="trailing") as exc_info:
        parse_event("Y==0 Z==1")
    assert exc_info.value.col == 6


def test_error_position_spans_lines():
    with pytest.raises(EventParseError) as exc_info:
        parse_event("Y==0 &&\n  Z @")
    assert exc_info.value.line == 2
    assert exc_info.value.col == 5


def test_error_message_carries_the_position():
    with pytest.raises(EventParseError, match=r"line 1, column 3"):
        parse_event("Y<")


_REIMPORT = """
import gc, importlib, sys, weakref
def old_refs():
    pkg = importlib.import_module("limitgap")
    return [weakref.ref(pkg.event_dsl.Lit), weakref.ref(pkg.errors.DomainError)]
refs = old_refs()
for name in [m for m in sys.modules if m == "limitgap" or m.startswith("limitgap.")]:
    del sys.modules[name]
importlib.import_module("limitgap")
gc.collect()
print([ref() is None for ref in refs])
"""


def test_a_reimported_package_frees_its_old_classes():
    # typing caches every Union[...] it builds, so a Union alias of these classes
    # would keep each old generation of the package alive.
    src = str(Path(limitgap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", _REIMPORT], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[True, True]"
