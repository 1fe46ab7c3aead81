"""Parsing, printing, and evaluation of event expressions."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import event_oracle
import limitgap
from limitgap.errors import EventParseError, IndexOutOfRangeError
from limitgap.event_dsl import (
    MAX_TOKENS,
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
from limitgap.process_lab import enumerate_outcomes, event_probability


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


@pytest.mark.parametrize("thing", [None, "Y==0", Lit(1)])
def test_printer_refuses_what_is_not_a_node(thing):
    with pytest.raises(TypeError, match="not an event node"):
        print_event(thing)


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
            for evaluate in (event_oracle.eval_event, eval_event):
                assert evaluate(negated_and, row) == evaluate(or_of_negs, row)


def test_compiled_closure_agrees_with_the_interpreter():
    from limitgap.event_dsl import EventPredicate

    rng = random.Random(99)
    n = 5
    rows = enumerate_outcomes(n)
    for _ in range(40):
        e = EventPredicate(_random_node(rng, 3))
        fn = compile_event(e, n)
        for v, row in enumerate(rows):
            assert fn(v, row.y, row.z) == eval_event(e, row) == event_oracle.eval_event(e, row)


def test_index_beyond_horizon_raises_on_eval_and_compile():
    e = parse_event("X[7]==1")
    row = enumerate_outcomes(6)[0]
    with pytest.raises(IndexOutOfRangeError, match="horizon is 6"):
        eval_event(e, row)
    with pytest.raises(IndexOutOfRangeError, match="horizon is 6"):
        compile_event(e, 6)
    # the oracle short-circuits past X[1] == 0; eval_event compiles, so it raises on every row
    e = parse_event("X[1]==0 || X[7]==1")
    answered = []
    for row in enumerate_outcomes(6):
        with pytest.raises(IndexOutOfRangeError, match="horizon is 6"):
            eval_event(e, row)
        try:
            answered.append(event_oracle.eval_event(e, row))
        except IndexOutOfRangeError:
            assert row.outcome.bits[0] == 1
    assert answered == [True] * 32


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


_START = ("!", "(", "integer", "X", "Y", "Z", "N")


@pytest.mark.parametrize(
    "src, message, line, col, expected",
    [
        ("Y==0 & Z==1", "lone '&' at line 1, column 6", 1, 6, ("&&",)),
        ("Y==0 | Z==1", "lone '|' at line 1, column 6", 1, 6, ("||",)),
        ("Y = 0", "lone '=' at line 1, column 3", 1, 3, ("==",)),
        ("&", "lone '&' at line 1, column 1", 1, 1, ("&&",)),
        ("x<1", "unexpected character 'x' at line 1, column 1", 1, 1, _START),
        ("Y==é", "unexpected character 'é' at line 1, column 4", 1, 4, _START),
        ("Y==\f1", "unexpected character '\\x0c' at line 1, column 4", 1, 4, _START),
        ("Y==\xa01", "unexpected character '\\xa0' at line 1, column 4", 1, 4, _START),
        ("Y==1 &&\n  Z & 1", "lone '&' at line 2, column 5", 2, 5, ("&&",)),
        ("Y==1 ||\n\t|", "lone '|' at line 2, column 2", 2, 2, ("||",)),
        ("Y==1\n=", "lone '=' at line 2, column 1", 2, 1, ("==",)),
        ("Y==1 &&\n  Z @", "unexpected character '@' at line 2, column 5", 2, 5, _START),
        ("Y==1\r\né", "unexpected character 'é' at line 2, column 1", 2, 1, _START),
        ("Y<", "expected a term, found 'end of input' at line 1, column 3", 1, 3, _START[2:]),
        ("Y==0 &&\n  ", "expected a term, found 'end of input' at line 2, column 3", 2, 3,
         _START[2:]),
        ("X[", "expected a coordinate index, found 'end of input' at line 1, column 3", 1, 3,
         ("positive integer", "N")),
        ("Y==1 &&\n\tX[1", "expected ']', found '' at line 2, column 5", 2, 5, ("]",)),
        ("   \n  ", "empty event expression at line 1, column 1", 1, 1, _START),
    ],
)
def test_lexer_errors_and_the_end_of_input_keep_their_positions(src, message, line, col, expected):
    with pytest.raises(EventParseError) as exc_info:
        parse_event(src)
    err = exc_info.value
    assert (str(err), err.line, err.col, err.expected) == (message, line, col, expected)


@pytest.mark.parametrize("src, col", [("X[²]==1", 3), ("Y==¹", 4), ("Y==1 && Z<N²", 12)])
def test_digits_that_are_not_decimal_are_unexpected_characters(src, col):
    with pytest.raises(EventParseError, match="unexpected character") as exc_info:
        parse_event(src)
    assert (exc_info.value.line, exc_info.value.col) == (1, col)


def test_any_decimal_digit_reads_as_its_value():
    assert parse_event("X[٣]==١").root == Cmp("==", Coord(3), Lit(1))


@pytest.mark.parametrize("prefix, line, col", [("Y<", 1, 3), ("Y==1 &&\n X[", 2, 4)])
def test_an_integer_too_long_for_int_is_a_parse_error_at_the_literal(prefix, line, col):
    digits = sys.get_int_max_str_digits()
    src = prefix + "9" * (digits + 1) + ("]==1" if prefix.endswith("[") else "")
    with pytest.raises(EventParseError, match=f"{digits + 1} digits is too long") as exc_info:
        parse_event(src)
    assert (exc_info.value.line, exc_info.value.col) == (line, col)
    e = parse_event(prefix + "9" * digits + ("]==1" if prefix.endswith("[") else ""))
    assert parse_event(print_event(e)) == e


# The longest events the cap admits, one per way of nesting.
_AT_THE_CAP = {
    "parentheses": "(" * 126 + "Y==1" + ")" * 126,
    "bare-nots": "!" * 84 + "Y==1",
    "parenthesised-nots": "!(" * 84 + "Y==1" + ")" * 84,
    "and-chain": " && ".join(["Y==1"] * 64),
    "or-chain": " || ".join(["Y==1"] * 64),
}


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


@pytest.mark.parametrize("src", list(_AT_THE_CAP.values()), ids=list(_AT_THE_CAP))
def test_an_event_at_the_cap_runs_in_half_the_free_stack(src):
    depth, limit = _stack_depth(), sys.getrecursionlimit()
    sys.setrecursionlimit(depth + (limit - depth) // 2)
    try:
        e = parse_event(src)
        assert parse_event(print_event(e)) == e
        assert e.max_coord_index() == 0
        assert event_probability(2, Fraction(1, 2), e) in (Fraction(1, 4), Fraction(3, 4))
        row = enumerate_outcomes(2)[1]
        assert eval_event(e, row) == event_oracle.eval_event(e, row) in (False, True)
    finally:
        sys.setrecursionlimit(limit)


@pytest.mark.parametrize(
    "src, col",
    [
        ("(" * 127 + "Y==1" + ")" * 127, 258),
        ("!" * 85 + "Y==1", 87),
        ("!(" * 85 + "Y==1" + ")" * 85, 258),
        (" && ".join(["Y==1"] * 65), 513),
        ("Y==1 && " * 3000 + "Y==1", 513),
    ],
    ids=["parentheses", "bare-nots", "parenthesised-nots", "and-chain", "long-chain"],
)
def test_an_event_past_the_cap_is_refused_at_its_first_token_too_many(src, col):
    with pytest.raises(EventParseError, match=f"over {MAX_TOKENS} tokens") as exc_info:
        parse_event(src)
    assert (exc_info.value.line, exc_info.value.col) == (1, col)


_TERMS = ["X[1]", "X[N]", "X[٣]", "Y", "Z", "N", "0", "1", "007"]
_SPACE = st.sampled_from(["", " ", "\n", "\t", "\r\n"])
_COMPARISON = st.builds(
    "{}{}{}{}{}".format, st.sampled_from(_TERMS), _SPACE,
    st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), _SPACE, st.sampled_from(_TERMS))
_WELL_FORMED = st.recursive(
    _COMPARISON,
    lambda inner: st.one_of(
        st.builds("!{}{}".format, _SPACE, inner),
        st.builds("({}{})".format, inner, _SPACE),
        st.builds("{} {} {}".format, inner, st.sampled_from(["&&", "||"]), inner),
    ),
    max_leaves=40,
)
_EVENT_TEXT = st.one_of(
    st.text(st.sampled_from(list("XYZN0123456789=!<>&|()[] \t\r\n\f\v\xa0é٣²")), max_size=40),
    _WELL_FORMED,
    _WELL_FORMED.flatmap(lambda s: st.integers(0, len(s)).map(lambda i: s[:i] + s[i + 1:])),
    st.builds("{}{}".format, st.sampled_from(["Y==", "X[", "Y==1 && Z<"]),
              st.sampled_from([4300, 4301, 5000]).map(lambda k: "9" * k)),
    st.integers(0, 400).map(lambda k: "(" * k + "Y==1" + ")" * k),
    st.integers(0, 300).map(lambda k: "!" * k + "Y==1"),
    st.integers(0, 300).map(lambda k: "!(" * k + "Y==1" + ")" * k),
    st.integers(1, 3000).map(lambda k: " && ".join(["Y==1"] * k)),
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(src=_EVENT_TEXT)
def test_any_text_parses_to_an_event_that_prints_back_or_fails_to_parse(src):
    try:
        e = parse_event(src)
    except EventParseError:
        return
    assert parse_event(print_event(e)) == e


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
