"""The package's public names: the list is fixed, and each name resolves.

Three types also keep their field names, and every frozen type refuses a
write with AttributeError.  The family model, the limit machinery, the
extended line, the event language and the identity oracle are loaded on first
use, and no command loads `dataclasses`: importing the package loads three
modules and binds their names, a command leaves unloaded each module it does
not run, and a package generation left behind by a re-import still
answers as a fresh one does.
"""

import importlib
import inspect
import json
import os
import pickle
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import pytest

import limitgap
from limitgap.measure_core import _Record

SRC = str(Path(limitgap.__file__).resolve().parents[1])

PUBLIC_NAMES = [
    "AdditivityReport", "BadEpsilonError", "BadRationalError", "BadSequenceSpecError",
    "BranchReport", "DiscreteMeasure", "DomainError", "EvaluationError", "EventParseError",
    "EventPredicate", "ExtReal", "FAIR", "IdentityReport", "InconclusiveError",
    "IndexOutOfRangeError", "Interval", "KRangeError", "LimitGapError", "LimitReport",
    "MeasurableSet", "MeasureFamily", "NEG_INF", "NRangeError", "NTooLargeError",
    "NegativeMassError", "NoSetLimitError", "NoWeakLimitError", "Outcome", "POS_INF",
    "ProcessRow", "RealSequence", "SequenceAnalysis", "SetFamily", "TightnessVerdict",
    "TotalExceedsOneError", "UnitReal", "analyze_rational_sequence", "branch_check",
    "builtin_family", "check_additivity", "compactify_measure", "dirac", "enumerate_outcomes",
    "escaped_mass_profile", "eval_event", "event_probability", "finite", "from_mass_pairs",
    "h", "h_inv", "integral_limit", "iter_outcomes", "lambda_measure", "lower_ray_family",
    "measure_from_dict", "measure_to_dict", "metric_d", "mu_closed_form", "order_a_limit",
    "order_b_limit", "parse_event", "parse_ext_real", "parse_rational", "parse_sequence_spec",
    "print_event", "rat_str", "set_from_dict", "set_table_family", "set_to_dict",
    "singleton_family", "table_family", "tightness_probe", "verify_process_identities",
    "weak_limit_identify", "z_distribution",
]


def test_all_lists_exactly_the_public_names():
    assert len(PUBLIC_NAMES) == 75
    assert sorted(limitgap.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in limitgap.__all__:
        assert getattr(limitgap, name) is not None, name


def test_the_event_language_resolves_from_the_package_root():
    assert limitgap.event_dsl is importlib.import_module("limitgap.event_dsl")
    for name in ("EventPredicate", "eval_event", "parse_event", "print_event"):
        assert getattr(limitgap, name) is getattr(limitgap.event_dsl, name), name


def test_a_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from limitgap import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_dir_lists_every_public_name():
    assert set(limitgap.__all__) <= set(dir(limitgap))


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'limitgap' has no attribute 'no_such_name'"):
        limitgap.no_such_name


def test_sequence_unit_real_and_identity_report_keep_their_fields():
    # All three are records; RealSequence still answers dataclasses.fields.
    names = {limitgap.RealSequence: [f.name for f in fields(limitgap.RealSequence)],
             **{cls: list(cls.__slots__) for cls in (limitgap.UnitReal, limitgap.IdentityReport)}}
    assert names == {
        limitgap.RealSequence: ["kind", "q"],
        limitgap.UnitReal: ["value", "exact", "preimage"],
        limitgap.IdentityReport: [
            "n", "rows_checked", "z_in_range", "argmax_attains_max", "set_identity",
            "all_hold", "violations", "p_last_zero_and_z_below", "p_z_below",
        ],
    }
    # all_hold is derived, so the constructor takes the other eight fields
    taken = list(inspect.signature(limitgap.IdentityReport).parameters)
    assert taken == [name for name in names[limitgap.IdentityReport] if name != "all_hold"]


def _frozen_instances() -> dict[str, object]:
    """One instance of each public frozen type, and of each node of a parsed event."""
    lg = limitgap
    mu = lg.builtin_family("mu")
    rays = lg.lower_ray_family(lg.parse_sequence_spec("n-1"))
    made = {
        "ExtReal": lg.finite(3),
        "Interval": lg.set_from_dict({"intervals": [{"lo": "0", "lo_closed": True, "hi": "1",
                                                     "hi_closed": False}]}).intervals[0],
        "MeasurableSet": lg.set_from_dict({"points": ["+inf"]}),
        "DiscreteMeasure": lg.lambda_measure(),
        "AdditivityReport": lg.check_additivity(
            lg.lambda_measure(), lg.set_from_dict({"points": ["0"]}),
            lg.set_from_dict({"points": ["1"]})),
        "MeasureFamily": mu,
        "SequenceAnalysis": lg.analyze_rational_sequence([Fraction(1, 2)] * 10),
        "RealSequence": lg.parse_sequence_spec("n-1"),
        "SetFamily": rays,
        "LimitReport": lg.order_b_limit(mu, rays, 32),
        "TightnessVerdict": lg.tightness_probe(mu, Fraction(1, 4), 32),
        "BranchReport": lg.branch_check(mu, "n-1", 32),
        "UnitReal": lg.h(lg.finite(1)),
        "IdentityReport": lg.verify_process_identities(3),
    }
    nodes = [lg.parse_event("!(X[N]==0) && Z<N || Y==1")]
    while nodes:
        node = nodes.pop()
        made.setdefault(type(node).__name__, node)
        nodes.extend(child for name in node.__slots__
                     if isinstance(child := getattr(node, name), _Record))
    return made


_FROZEN = _frozen_instances()


def test_a_parsed_event_reaches_every_node_type():
    assert {"EventPredicate", "Cmp", "Not", "And", "Or", "Lit", "Var", "Coord"} <= set(_FROZEN)


@pytest.mark.parametrize("value", _FROZEN.values(), ids=list(_FROZEN))
def test_every_frozen_type_refuses_a_write_with_attribute_error(value):
    first = value.__slots__[0]
    kept = getattr(value, first)
    with pytest.raises(AttributeError):
        setattr(value, first, kept)
    with pytest.raises(AttributeError):
        setattr(value, "not_a_field", 1)
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert getattr(value, first) is kept and not hasattr(value, "not_a_field")
    assert pickle.loads(pickle.dumps(value)) == value


_IMPORT_PROBE = f"""
import json, sys
import limitgap
loaded = sorted(m for m in sys.modules if m.startswith("limitgap."))
held = [name for name in {PUBLIC_NAMES!r} if any(name in vars(sys.modules[m]) for m in loaded)]
print(json.dumps([loaded, held, [name for name in {PUBLIC_NAMES!r} if name in vars(limitgap)]]))
"""


def test_importing_the_package_loads_three_modules_and_binds_their_public_names():
    loaded, held, bound = json.loads(_python("-c", _IMPORT_PROBE))
    assert loaded == ["limitgap.errors", "limitgap.measure_core", "limitgap.process_lab"]
    assert bound == held and len(held) == 44


# Modules that `import limitgap.cli` leaves unloaded, for a command to load if it runs them.
# No command loads dataclasses, or the inspect it imports: every value type is a record.
_DEFERRED = ("limitgap.convergence_lab", "limitgap.extended_line", "limitgap.event_dsl",
             "limitgap.theorem", "limitgap.cli_streams", "limitgap.identities", "csv",
             "dataclasses", "inspect")

_PROBE = f"""
import contextlib, io, sys
from limitgap.cli import main
code = 0
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
print(code, *[name for name in {_DEFERRED!r} if name in sys.modules])
"""


def _python(*args: str) -> str:
    done = subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("argv, loads", [
    ([], []),
    (["converge", "limit", "--family", "mu", "--sets", "I(n-1)", "--order", "a"],
     ["limitgap.convergence_lab"]),
    (["converge", "branches", "--family", "mu", "--xs", "n-1"], ["limitgap.convergence_lab"]),
    (["converge", "tightness", "--family", "mu", "--epsilon", "1/4"],
     ["limitgap.convergence_lab"]),
    (["converge", "weaklimit", "--family", "mu"], ["limitgap.convergence_lab"]),
    (["converge", "testfn", "--family", "lambda", "--fn", "sin", "--horizon", "16"],
     ["limitgap.convergence_lab", "limitgap.extended_line"]),
    (["theorem", "verify", "--n-max", "4"],
     ["limitgap.convergence_lab", "limitgap.event_dsl", "limitgap.theorem"]),
    (["measure", "show", "--family", "@{table}"], []),
    (["measure", "show", "--family", "mu", "--n", "3", "--format", "csv"], ["csv"]),
    (["compactify", "--family", "@{table}"], ["limitgap.extended_line"]),
    (["process", "prob", "--n", "4", "--event", "X[N]==0 && Z<N"], ["limitgap.event_dsl"]),
    (["process", "identities", "--n", "4"], ["limitgap.identities"]),
    (["process", "enumerate", "--n", "3"], ["limitgap.cli_streams"]),
    (["plotdata", "--n-max", "3"], ["limitgap.cli_streams"]),
], ids=["import-only", "converge-limit", "converge-branches", "converge-tightness",
        "converge-weaklimit", "converge-testfn", "theorem-verify", "measure-show-table",
        "measure-show-csv", "compactify-table", "process-prob", "process-identities",
        "process-enumerate", "plotdata"])
def test_only_a_command_that_reads_an_event_loads_the_event_language(tmp_path, argv, loads):
    """Nor does any command load another module of _DEFERRED that it does not run."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"measures": [{"atoms": [{"point": "0", "mass": "1"}]}]}))
    argv = [arg.format(table=table) for arg in argv]
    assert _python("-c", _PROBE, *argv).split() == ["0", *loads]


_FAMILY_PROBE = """
import sys
import limitgap
watched = ("limitgap.families", "limitgap.convergence_lab", "dataclasses", "inspect")
before = [name for name in watched if name in sys.modules]
{use}
print(*before, "|", *[name for name in watched if name in sys.modules])
"""


@pytest.mark.parametrize("use", [
    'assert limitgap.builtin_family("mu").member(2) == limitgap.mu_closed_form(2)',
    'limitgap.table_family([limitgap.dirac(limitgap.finite(0))])',
    'assert limitgap.MeasureFamily.__name__ == "MeasureFamily"',
], ids=["builtin_family", "table_family", "MeasureFamily"])
def test_the_family_names_load_the_family_model_alone(use):
    assert _python("-c", _FAMILY_PROBE.format(use=use)).split() == ["|", "limitgap.families"]


_REIMPORT = """
import importlib, json, math, sys

EVENT = "X[N]==0 && Z<N"

def purge():
    for name in [m for m in sys.modules if m == "limitgap" or m.startswith("limitgap.")]:
        del sys.modules[name]

def parse_error(lg):
    try:
        lg.event_probability(4, lg.FAIR, "X[[")
    except lg.EventParseError as exc:
        return str(exc)

def answers(lg, event):
    refused = parse_error(lg)
    mu = lg.builtin_family("mu")
    sets = lg.lower_ray_family(lg.parse_sequence_spec("n-1"))
    atan = lambda x: math.atan(lg.extended_line.saturating_float(x))
    return [
        refused,
        lg.order_a_limit(mu, lg.singleton_family(lg.POS_INF), 32).to_dict(),
        lg.measure_to_dict(lg.compactify_measure(mu.member(3))),
        lg.order_a_limit(mu, sets, 32).to_dict(),
        lg.order_b_limit(mu, sets, 32).to_dict(),
        lg.measure_to_dict(lg.weak_limit_identify(mu, 32)),
        lg.integral_limit(mu, atan, 16).to_dict(),
        lg.rat_str(lg.event_probability(6, lg.FAIR, event)),
    ]

first = importlib.import_module("limitgap")
event = first.parse_event(EVENT) if sys.argv[1] == "parsed" else EVENT
for _ in range(2):
    purge()
    importlib.import_module("limitgap")
print(json.dumps(answers(first, event)))
purge()
print(json.dumps(answers(importlib.import_module("limitgap"), EVENT)))
"""


@pytest.mark.parametrize("event", ["text", "parsed"])
def test_a_generation_left_behind_by_re_imports_answers_as_a_fresh_one(event):
    # A re-import (as the benchmark's set-up timing does) leaves callers holding
    # the first package.  An event it parsed before must still compile there,
    # and a module it loads later must use its classes: mixed with the newest
    # generation's, the atom at +inf would not be found and order (a) would be 0.
    first, fresh = _python("-c", _REIMPORT, event).splitlines()
    assert json.loads(first) == json.loads(fresh)
    refused, at_infinity, *_, probability = json.loads(fresh)
    assert refused.endswith("at line 1, column 3") and at_infinity["value"] == "1/1"
    assert probability == "31/64"
