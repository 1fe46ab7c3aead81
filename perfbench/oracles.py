"""Oracles that decide whether an answer is right, independent of limitgap.

None of these call the library function whose answer they judge:

- events: brute-force `itertools.product` enumeration with the benchmark's
  own evaluator for n <= 14, and the conditioning-on-Z formula above that;
- Z laws: P(Z=j) = p*q^(n-j) for j < n and P(Z=n) = p + q^n;
- built-in families: closed forms of mu_n, dirac_n and lambda;
- cli: sha256 digests of stdout recorded at the seed commit (golden.json).

Each checker returns None for a right answer and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import product
from pathlib import Path


BRUTE_FORCE_MAX_N = 14
INF = math.inf

# ---------------------------------------------------------------------------
# events


def _term_src(term, n: int, one_based: bool) -> str:
    name = type(term).__name__
    if name == "Lit":
        return str(term.value)
    if name == "Var":
        return {"Y": "y", "Z": "z", "N": str(n)}[term.name]
    index = n if term.index is None else term.index
    return f"b[{index if one_based else index - 1}]"


def _node_src(node, n: int, one_based: bool) -> str:
    name = type(node).__name__
    if name == "Cmp":
        return f"({_term_src(node.lhs, n, one_based)} {node.op} {_term_src(node.rhs, n, one_based)})"
    if name == "Not":
        return f"(not {_node_src(node.operand, n, one_based)})"
    joiner = " and " if name == "And" else " or "
    return "(" + _node_src(node.lhs, n, one_based) + joiner + _node_src(node.rhs, n, one_based) + ")"


def _evaluator(ast, n: int, one_based: bool):
    return eval("lambda b, y, z: " + _node_src(ast, n, one_based), {})


def _coords(node, n: int) -> set[int]:
    name = type(node).__name__
    if name == "Cmp":
        return {(n if t.index is None else t.index)
                for t in (node.lhs, node.rhs) if type(t).__name__ == "Coord"}
    if name == "Not":
        return _coords(node.operand, n)
    return _coords(node.lhs, n) | _coords(node.rhs, n)


def brute_force_probability(n: int, p: Fraction, ast) -> Fraction:
    """Sum the probabilities of the outcomes in the event, one by one."""
    holds = _evaluator(ast, n, one_based=False)
    hits = [0] * (n + 1)  # outcomes in the event, by number of ones
    for bits in product((0, 1), repeat=n):
        y = max(bits)
        if holds(bits, y, n - bits[::-1].index(y)):
            hits[sum(bits)] += 1
    q = 1 - p
    return sum((count * p**k * q ** (n - k) for k, count in enumerate(hits)), Fraction(0))


def conditioned_probability(n: int, p: Fraction, ast) -> Fraction:
    """P(E) by conditioning on Z, in O(n * 2^r) for r named coordinates.

    Given Z = z >= 1, X_z = 1, later flips are 0 and earlier flips the event
    does not name sum out.  The all-zeros outcome has Z = n and Y = 0.
    """
    holds = _evaluator(ast, n, one_based=True)
    coords = sorted(_coords(ast, n))
    q = 1 - p
    total = q**n if holds({i: 0 for i in coords}, 0, n) else Fraction(0)
    for z in range(1, n + 1):
        free = [i for i in coords if i < z]
        for assignment in product((0, 1), repeat=len(free)):
            bits = {i: int(i == z) for i in coords}
            bits.update(zip(free, assignment))
            if holds(bits, 1, z):
                k = sum(assignment)
                total += p * q ** (n - z) * p**k * q ** (len(free) - k)
    return total


def event_probability(n: int, p: Fraction, ast) -> Fraction:
    if n <= BRUTE_FORCE_MAX_N:
        return brute_force_probability(n, p, ast)
    return conditioned_probability(n, p, ast)


def z_law(n: int, p: Fraction) -> list[tuple[Fraction, Fraction]]:
    q = 1 - p
    return [(Fraction(j), p * q ** (n - j)) for j in range(1, n)] + [(Fraction(n), p + q**n)]


def point_value(x):
    """An ExtReal (or a UnitReal's preimage) as a Fraction or +-inf."""
    if x.is_finite:
        return x.value
    return INF if x.tag > 0 else -INF


def atoms_of(measure) -> list[tuple[object, Fraction]]:
    return [(point_value(x), m) for x, m in measure.atoms]


def scan_expected(query: tuple):
    if query[0] == "event":
        _, n, p, _, ast = query
        return event_probability(n, p, ast)
    _, n, p = query
    return z_law(n, p)


def check_scan(query: tuple, answer, expected) -> str | None:
    if query[0] == "event":
        if answer != expected:
            return f"P({query[3]}) at n={query[1]}, p={query[2]}: got {answer}, expected {expected}"
        return None
    if atoms_of(answer) != expected:
        return f"z_distribution({query[1]}, {query[2]}) has the wrong atoms"
    return None


# ---------------------------------------------------------------------------
# built-in families


def weak_limit(family: str) -> list[tuple[object, Fraction]]:
    if family == "lambda":
        return [(Fraction(0), Fraction(1, 2)), (Fraction(1), Fraction(1, 2))]
    return [(INF, Fraction(1))]


def _lambda_below(x, closed: bool) -> Fraction:
    """lambda((-inf, x]) or lambda((-inf, x)) for the atoms 1/2 at 0 and 1."""
    return sum((Fraction(1, 2) for atom in (0, 1) if atom < x or (closed and atom == x)),
               Fraction(0))


def order_a_value(family: str, kind: str, q) -> Fraction:
    """Mass of the limiting set under the weak limit."""
    if family != "lambda":
        return Fraction(1) if kind == "point" else Fraction(0)
    if kind == "point":
        return Fraction(0)
    if kind == "affine":
        return Fraction(1)
    return _lambda_below(q, closed=kind != "below")


def order_b_value(family: str, kind: str, q) -> Fraction:
    """Limit of the per-n masses rho_n(alpha_n), from the closed forms.

    mu_n((-inf, n-k]) = 2^-k - 2^-n, so I(n+c) gives 2^c for c < 0 and 1
    otherwise; every bounded set loses all of mu_n's and dirac_n's mass.
    lambda_n is constant, so its numbers settle at the order-(a) masses.
    """
    if family == "lambda":
        return order_a_value(family, kind, q)
    if kind == "affine":
        if q >= 0:
            return Fraction(1)
        return Fraction(1, 2 ** int(-q)) if family == "mu" else Fraction(0)
    return Fraction(0)


# Test functions by their mathematical definition, for the oracle side.
ORACLE_F = {
    "atan": math.atan,
    "h": lambda x: 1.0 if x == INF else 0.5 + math.atan(x) / math.pi,
}


def check_builtin(query: tuple, answer) -> str | None:
    function, family, horizon, arg = query
    if function in ("order_a", "order_b"):
        kind, q = arg
        a = order_a_value(family, kind, q)
        expected = a if function == "order_a" else order_b_value(family, kind, q)
        if answer.value != expected or answer.horizon_used != horizon:
            return f"{function} {family} {arg} H={horizon}: got {answer.value}"
        if function == "order_b" and answer.eligible != (expected == a):
            return f"order_b {family} {arg}: eligible={answer.eligible}"
        return None
    if function == "branch":
        kind, q = arg
        a, b = order_a_value(family, kind, q), order_b_value(family, kind, q)
        tight = family == "lambda"
        if kind == "affine":
            holds = (a == b) if tight else (a == 0 and a != b)
            branch = "b"
        else:
            branch = "a"
            at_x = sum((m for x, m in weak_limit(family) if x == q), Fraction(0))
            holds = (a == b) if at_x == 0 else None
        got = (answer.branch, answer.order_a.value, answer.order_b.value,
               answer.tightness.tight, answer.holds)
        if got != (branch, a, b, tight, holds):
            return f"branch_check {family} {arg}: got {got}"
        return None
    if function == "tightness":
        tight = family == "lambda"
        if answer.tight is not tight or answer.epsilon != arg:
            return f"tightness {family} eps={arg}: got {answer.tight}"
        if tight and [(point_value(iv.lo), point_value(iv.hi)) for iv in answer.interval.intervals] != [(0, 1)]:
            return f"tightness {family}: interval {answer.interval}"
        return None
    if function == "weak":
        if atoms_of(answer) != weak_limit(family):
            return f"weak limit of {family}: got {answer}"
        return None
    f = ORACLE_F[arg]
    if family == "lambda":
        expected = 0.5 * f(0) + 0.5 * f(1)
    else:
        expected = f(INF)
    if not isinstance(answer.value, float) or abs(answer.value - expected) > 1e-12:
        return f"integral_limit {family} {arg} H={horizon}: got {answer.value}"
    return None


# ---------------------------------------------------------------------------
# cli


GOLDEN_PATH = Path(__file__).with_name("golden.json")


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


def argv_key(argv: tuple[str, ...]) -> str:
    return " ".join(argv)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_cli(argv: tuple[str, ...], result: tuple[int, str], golden: dict) -> str | None:
    code, got = result
    want = golden.get(argv_key(argv))
    if want is None:
        return f"no golden digest for {argv_key(argv)!r}"
    if code != 0 or got != want:
        return f"{argv_key(argv)!r}: exit {code}, stdout digest {got[:12]} != {want[:12]}"
    return None
