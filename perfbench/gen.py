"""Seeded input generators for the benchmark workloads.

Every generator takes a `random.Random` built from a string key (see `rng`),
so the same seed gives byte-identical inputs on every machine.  A workload is
a sequence of rounds; each round has a cost mix that does not depend on the
seed (the seed picks events, sets, parameters and the order inside a round),
so runs with different seeds measure the same amount of work.

Generators return plain data: tuples, Fractions and strings.  Library
objects are built from that data outside the timed region, except that event
text is parsed by every `scan` query and `cli` children parse their argv.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

P_VALUES = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(5, 7))
SCAN_NS = tuple(range(8, 19))
SCAN_Z_NS = (17, 18)
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")

BUILTIN_FAMILIES = ("mu", "dirac_n", "lambda")
BUILTIN_FUNCTIONS = ("order_a", "order_b", "branch", "tightness", "weak", "integral")
BUILTIN_HORIZONS = (32, 64, 128, 256)
# Answered in closed form for built-in families, so their cost does not grow
# with the horizon.  Asking each twice per horizon makes them two thirds of
# the mix: the median then falls among the order (a) queries on mu and
# dirac_n, which cost the same, instead of on the steep O(H) part.
CLOSED_FORM_FUNCTIONS = ("order_a", "tightness", "weak")
# (kind, parameter): I(n+c), I(q+1/n), I(q-1/n), I=q, point=+inf.
BUILTIN_SETS = (
    ("affine", Fraction(-1)),
    ("affine", Fraction(2)),
    ("affine", Fraction(-3)),
    ("above", Fraction(1, 2)),
    ("below", Fraction(3)),
    ("const", Fraction(1, 2)),
    ("point", None),
)
TEST_FUNCTIONS = ("atan", "h")
EPSILONS = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))

CLI_BRANCH_COUNTS = {"mu": 2, "dirac_n": 3, "lambda": 3}
CLI_TABLE_VARIANTS = 4
CLI_TABLE_MEMBERS = 8
# Atoms per member: core atoms, a settling pair and one at +inf.
CLI_TABLE_ATOMS = 12


def rng(*key: object) -> random.Random:
    """A generator seeded by a string key; str seeds hash the same everywhere."""
    return random.Random(":".join(str(k) for k in key))


def rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def seq_text(kind: str, q: Fraction) -> str:
    """A BUILTIN_SETS ray as the sequence spec inside I(...): n-1, 1/2+1/n, 1/2."""
    if kind == "affine":
        return f"n{'+' if q >= 0 else '-'}{abs(q.numerator)}"
    if kind == "above":
        return f"{rat(q)}+1/n"
    if kind == "below":
        return f"{rat(q)}-1/n"
    return rat(q)


# ---------------------------------------------------------------------------
# scan: random events over the full grammar


def random_event(r: random.Random, n: int):
    """A random event AST (limitgap.event_dsl nodes) of nesting depth <= 3."""
    from limitgap import event_dsl as ed

    def coord():
        return ed.Coord(None) if r.random() < 0.25 else ed.Coord(r.randint(1, n))

    def comparison():
        kind = r.choice(("X", "X", "Y", "Z", "Z", "N"))
        op = r.choice(CMP_OPS)
        if kind == "X":
            lhs = coord()
            rhs = r.choice((ed.Lit(0), ed.Lit(1), coord(), ed.Var("Y")))
        elif kind == "Y":
            lhs, rhs = ed.Var("Y"), ed.Lit(r.randint(0, 1))
        elif kind == "Z":
            lhs = ed.Var("Z")
            rhs = ed.Var("N") if r.random() < 0.3 else ed.Lit(r.randint(1, n))
        else:
            lhs = ed.Var("N")
            rhs = ed.Var("Z") if r.random() < 0.5 else ed.Lit(r.randint(n - 2, n + 2))
        if r.random() < 0.3:
            lhs, rhs = rhs, lhs
        return ed.Cmp(op, lhs, rhs)

    def join(lhs, rhs):
        return (ed.And if r.random() < 0.5 else ed.Or)(lhs, rhs)

    def pair():
        node = join(comparison(), comparison())
        return ed.Not(node) if r.random() < 0.3 else node

    # Always four comparisons under three levels of operators: events of one
    # size cost about the same to scan, which keeps runs of different seeds
    # comparable, while operators, terms and negations still vary.
    return join(pair(), pair())


def scan_round(seed: int, index: int) -> list[tuple]:
    """One event query per n in 8..18 plus z_distribution at n = 17 and 18.

    Both z queries cost more than the event at n = 14, so that event is the
    seventh of the round's thirteen queries in cost order, and the median
    falls in the middle of its class rather than on an edge between two.
    """
    from limitgap import event_dsl as ed

    r = rng(seed, "scan", index)
    queries: list[tuple] = []
    for n in SCAN_NS:
        ast = random_event(r, n)
        queries.append(("event", n, r.choice(P_VALUES), ed.print_event(ast), ast))
    for n in SCAN_Z_NS:
        queries.append(("z", n, r.choice(P_VALUES)))
    r.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# builtin-limits: every (family, function) at every horizon once per round


def balanced_picks(seed: int, key: str, choices: tuple, index: int, count: int) -> list:
    """`count` picks for round `index`, walking a seeded order of `choices`.

    Pick j of round i is choice (i + j) mod len(choices) of that order, so
    over the rounds of a run every choice is picked about equally often, and
    at every position, whatever the seed.  Drawn independently, the share of
    a dearer choice, and with it the median of a class, would move with the
    seed.
    """
    order = list(choices)
    rng(seed, key).shuffle(order)
    return [order[(index + j) % len(order)] for j in range(count)]


def builtin_round(seed: int, index: int) -> list[tuple]:
    """120 queries: each family with each function at every horizon.

    `integral_limit` runs with both test functions, whose costs differ by
    about a tenth.  Sets and epsilons are balanced picks; the seed picks
    their order and the order of the round.
    """
    r = rng(seed, "builtin", index)
    choices = {
        "order_a": BUILTIN_SETS,
        "order_b": BUILTIN_SETS,
        "branch": tuple(s for s in BUILTIN_SETS if s[0] != "point"),
        "tightness": EPSILONS,
        "weak": (None,),
    }
    queries = []
    for family in BUILTIN_FAMILIES:
        for function in BUILTIN_FUNCTIONS:
            repeats = 2 if function in CLOSED_FORM_FUNCTIONS else 1
            horizons = BUILTIN_HORIZONS * repeats
            if function == "integral":
                queries += [(function, family, h, fn) for h in horizons for fn in TEST_FUNCTIONS]
                continue
            picks = balanced_picks(seed, f"builtin:{family}:{function}", choices[function],
                                   index, len(horizons))
            queries += [(function, family, h, arg) for h, arg in zip(horizons, picks)]
    r.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# explicit tables with known limits, for the cli workload's @table.json


def cli_table(variant: int) -> dict:
    """A small family behind `@table.json`; it depends only on the variant.

    Its limit, tightness and order values are known exactly: member n has
    CLI_TABLE_ATOMS - 3 fixed core atoms, a settling pair
    u: a + c*r^n and v: c - c*r^n (an exactly geometric tail in n) and a
    constant atom w at +inf.  The masses sum to 1 for every n.
    """
    r = rng("cli-table", variant)
    points: set[Fraction] = set()
    while len(points) < CLI_TABLE_ATOMS - 1:
        points.add(Fraction(r.randint(-400, 400), r.choice((1, 2, 3, 4, 5, 8))))
    ordered = sorted(points)
    r.shuffle(ordered)
    u, v, core = ordered[0], ordered[1], sorted(ordered[2:])
    w = r.choice((Fraction(1, 16), Fraction(1, 8), Fraction(3, 16)))
    a = r.choice((Fraction(0), Fraction(1, 16), Fraction(1, 8)))
    c = Fraction(1, 8)
    ratio = r.choice((Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)))
    weights = [r.randint(1, 9) for _ in core]
    core_total = 1 - w - a - c
    core_masses = [core_total * wt / sum(weights) for wt in weights]
    return {
        "members": CLI_TABLE_MEMBERS,
        "core": list(zip(core, core_masses)),
        "u": u, "v": v, "a": a, "c": c, "w": w, "ratio": ratio,
    }


def table_member(t: dict, n: int) -> list[tuple[Fraction | str, Fraction]]:
    """The atoms of member n (1-based) as (point, mass); +inf is the string."""
    decay = t["c"] * t["ratio"] ** n
    return t["core"] + [(t["u"], t["a"] + decay), (t["v"], t["c"] - decay), ("+inf", t["w"])]


def table_json(t: dict) -> str:
    """The family as `--family @file.json` reads it."""
    def point(x):
        return x if isinstance(x, str) else rat(x)

    measures = []
    for n in range(1, t["members"] + 1):
        atoms = [{"point": point(x), "mass": rat(m)} for x, m in table_member(t, n)]
        measures.append({"atoms": atoms, "total": "1/1"})
    return json.dumps({"measures": measures})


# ---------------------------------------------------------------------------
# cli: a fixed mix of subcommands, each drawn from a finite golden domain


def cli_table_path(variant: int) -> str:
    return f".bench_work/cli-table-{variant}.json"


def cli_domain() -> list[tuple[str, ...]]:
    """Every argv the cli workload can issue; golden.json has one digest each."""
    domain = [
        ("theorem", "verify", "--n-max", "20"),
        ("theorem", "verify", "--n-max", "20", "--format", "json"),
        ("process", "enumerate", "--n", "18", "--format", "csv"),
        ("plotdata", "--n-max", "120", "--format", "csv"),
    ]
    for k in (1, 2, 3):
        for horizon in (256, 320, 384, 448, 512):
            domain.append(("converge", "limit", "--family", "mu", "--sets", f"I(n-{k})",
                           "--order", "a", "--horizon", str(horizon)))
        domain.append(("converge", "limit", "--family", "mu", "--sets", f"I(n-{k})",
                       "--order", "b", "--horizon", "256"))
    for family in BUILTIN_FAMILIES:
        for xs in ("n-1", "n+2", "1/2+1/n", "3-1/n"):
            domain.append(("converge", "branches", "--family", family, "--xs", xs))
    for p in ("1/2", "1/3", "2/5"):
        domain.append(("process", "identities", "--n", "16", "--p", p))
    for variant in range(CLI_TABLE_VARIANTS):
        for n in range(1, CLI_TABLE_MEMBERS + 1):
            for cmd in (("measure", "show"), ("compactify",)):
                domain.append(cmd + ("--family", "@" + cli_table_path(variant), "--n", str(n)))
    return domain


def cli_round(seed: int, index: int) -> list[tuple[str, ...]]:
    """32 commands: 25 start-up-bound ones and seven heavier ones.

    `converge branches` on mu costs about a third more than on the other
    families, so each family gets a fixed share of it.  In cost order the
    round is 23 light commands, two on mu and `theorem verify`, three
    `plotdata`, then `process identities`, order (b) and `process
    enumerate`: the median falls among the light commands and the p85 tail
    inside the `plotdata` class, neither on an edge between two classes.
    `plotdata` is asked three times so that its class time is a median of
    enough calls.
    """
    r = rng(seed, "cli", index)
    domain = cli_domain()

    def pick(*prefix: str) -> tuple[str, ...]:
        return r.choice([argv for argv in domain if argv[: len(prefix)] == prefix])

    order_a = [a for a in domain if a[:2] == ("converge", "limit") and a[7] == "a"]
    order_b = [a for a in domain if a[:2] == ("converge", "limit") and a[7] == "b"]
    queries = [r.choice(domain[:2]), domain[2], domain[3], domain[3], domain[3],
               r.choice(order_b), pick("process", "identities")]
    queries += [r.choice(order_a) for _ in range(3)]
    queries += [pick("measure", "show") for _ in range(7)]
    queries += [pick("compactify") for _ in range(7)]
    for family, count in CLI_BRANCH_COUNTS.items():
        queries += [pick("converge", "branches", "--family", family) for _ in range(count)]
    r.shuffle(queries)
    return queries
