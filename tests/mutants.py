"""Mutation checks: each hand-made fault in src/ must make its named tests fail.

Run from anywhere, with the test dependencies installed:

    python3 tests/mutants.py [NAME ...]

A mutant is one (old, new) text replacement in one file of the limitgap
package, plus the pytest ids that must catch it.  For each mutant the runner
copies src/, tests/, pyproject.toml and README.md (whose examples a test
runs) into a fresh temporary directory, applies the replacement there and
runs the named tests; the copied pyproject's `pythonpath = ["src", "tests"]`
puts the mutated package ahead of any installed one.
Before any mutant, the named tests must pass on an unmutated copy.  Each
mutant is reported as killed (its tests fail), survived (they pass), stale
(its old text is not in the file exactly once) or error (pytest could not
run them).  The exit status is 0 only when every mutant is killed.  The
working tree is never written.

The tier-1 suite does not collect this module: each mutant costs one pytest
start-up plus its tests, and those below take 1-2 min on a 2-core host.
`tests/test_mutants.py` (collected) checks only that each mutant's old text
is still in its file once and that its named tests are still defined.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/limitgap/
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


CLI = "tests/test_cli.py::"
CONVERGENCE = "tests/test_convergence_lab.py::"
EVENT = "tests/test_event_dsl.py::"
MEASURE = "tests/test_measure_core.py::"
PROCESS = "tests/test_process_lab.py::"

MUTANTS = (
    Mutant("json row separator dropped", "cli_streams.py",
           """seps = (",\\n    {" + opens[0],""",
           """seps = ("\\n    {" + opens[0],""",
           (CLI + "test_enumerate_matches_the_generic_renderer[3-1/2-json]",)),
    Mutant("json key indentation off by one", "cli_streams.py",
           'opens = [f"\\n      {json.dumps(name)}: {quote}"',
           'opens = [f"\\n       {json.dumps(name)}: {quote}"',
           (CLI + "test_enumerate_matches_the_generic_renderer[3-1/2-json]",)),
    Mutant("json quotes every column", "cli_streams.py",
           """quotes = ['"' if text else "" for _, _, text in columns]""",
           """quotes = ['"' for _, _, text in columns]""",
           (CLI + "test_plotdata_prints_what_the_members_print[7-json]",)),
    Mutant("table column width one short of its header", "cli_streams.py",
           "max(len(name), widest)",
           "max(len(name) - 1, widest)",
           (CLI + "test_enumerate_matches_the_generic_renderer[1-1/2-table]",)),
    Mutant("Y of the all-zeros row is 1", "cli_streams.py",
           "lines(0, 0, n, slice(1))",
           "lines(0, 1, n, slice(1))",
           (CLI + "test_enumerate_matches_the_generic_renderer[4-1/3-csv]",)),
    Mutant("order (a) reports the requested horizon", "convergence_lab.py",
           "return _order_a(_limit_measure(fam, horizon), sets, _scan(horizon, fam))",
           "return _order_a(_limit_measure(fam, horizon), sets, horizon)",
           (CONVERGENCE + "test_order_b_scan_is_clipped_to_the_table",)),
    Mutant("branch_check grades order (b) against the wrong report", "convergence_lab.py",
           "_order_b(fam, sets, horizon, lambda: order_a)",
           "_order_b(fam, sets, horizon, lambda: _order_a(_BUILTINS['mu'].limit, sets, horizon))",
           (CONVERGENCE + "test_branch_check_reports_what_the_standalone_orders_report[lambda-n-1]",)),
    Mutant("csv itemgetter reversed", "cli.py",
           "map(operator.itemgetter(*header), rows)",
           "map(operator.itemgetter(*reversed(header)), rows)",
           (CLI + "test_csv_matches_a_dictwriter_rendering[measure show --family mu --n 7]",)),
    Mutant("plotdata shared-mass slice shifted by one", "cli_streams.py",
           "(*shared_ends[n_max - n:], top_ends[n - 1])",
           "(*shared_ends[n_max - n + 1:], top_ends[n - 1])",
           (CLI + "test_plotdata_prints_what_the_members_print[7-csv]",)),
    Mutant("plotdata takes every top atom from member n_max", "cli_streams.py",
           "rat_str(1 - below) for below in",
           "rat_str(1 - sum(masses)) for below in",
           (CLI + "test_plotdata_prints_what_the_members_print[7-csv]",)),
    Mutant("a broken pipe raises", "cli.py",
           "except BrokenPipeError:",
           "except ZeroDivisionError:",
           (CLI + "test_a_reader_that_stops_early_ends_the_command_quietly[plotdata --n-max 200]",)),
    Mutant("order (b) without count=scan", "convergence_lab.py",
           "analyze_rational_sequence(values, count=scan)",
           "analyze_rational_sequence(values)",
           (CONVERGENCE + "test_order_b_matches_the_brute_force_oracle_on_builtins[mu-I(n+2)]",)),
    Mutant("_TAIL = _WINDOW", "convergence_lab.py",
           "_TAIL = _WINDOW + 1",
           "_TAIL = _WINDOW",
           (CONVERGENCE + "test_order_b_requests_only_the_members_it_reads",)),
    Mutant("Z law denominator d**k", "process_lab.py",
           "Fraction(a * b**k, d ** (k + 1))",
           "Fraction(a * b**k, d ** k)",
           (PROCESS + "test_z_law_matches_a_brute_force_tally[5]",)),
    Mutant("Z law top atom q**n", "process_lab.py",
           "pairs.append((n, p + Fraction(b**n, d**n)))",
           "pairs.append((n, Fraction(b**n, d**n)))",
           (PROCESS + "test_z_law_matches_a_brute_force_tally[5]",)),
    Mutant("Z law with a and b swapped", "process_lab.py",
           "Fraction(a * b**k, d ** (k + 1))",
           "Fraction(b * a**k, d ** (k + 1))",
           (PROCESS + "test_z_law_matches_a_brute_force_tally[5]",)),
    Mutant("Z law pairs in descending j below n", "process_lab.py",
           "for k in range(n - 1, 0, -1)]",
           "for k in range(1, n)]",
           (CLI + "test_plotdata_prints_what_the_members_print[7-csv]",)),
    Mutant("bare ! counts one token", "event_dsl.py",
           'size += 3 if tokens and tokens[-1].kind == "!" and text != "(" else 1',
           "size += 1",
           ("tests/test_event_dsl.py::"
            "test_an_event_past_the_cap_is_refused_at_its_first_token_too_many[bare-nots]",)),
    Mutant("Z read as Y", "event_dsl.py",
           "return lambda v, y, z: z",
           "return lambda v, y, z: y",
           (EVENT + "test_compiled_closure_agrees_with_the_interpreter",)),
    Mutant("&& compiled as ||", "event_dsl.py",
           "return lambda v, y, z: lhs(v, y, z) and rhs(v, y, z)",
           "return lambda v, y, z: lhs(v, y, z) or rhs(v, y, z)",
           (EVENT + "test_compiled_closure_agrees_with_the_interpreter",)),
    Mutant("right side of an equally loose operator left bare", "event_dsl.py",
           "if _LOOSENESS[type(node.rhs)] >= looseness:",
           "if _LOOSENESS[type(node.rhs)] > looseness:",
           (EVENT + "test_round_trip_holds_for_random_trees",)),
    Mutant("eval_event reads the bits reversed", "event_dsl.py",
           "v = sum(bit << i for i, bit in enumerate(bits))",
           "v = sum(bit << i for i, bit in enumerate(reversed(bits)))",
           (EVENT + "test_compiled_closure_agrees_with_the_interpreter",)),
    Mutant("table clip returns the horizon unclipped", "convergence_lab.py",
           "horizon = min(horizon, len(table))",
           "horizon = horizon",
           (CONVERGENCE + "test_order_b_scan_is_clipped_to_the_table",)),
    Mutant("report keys in reversed field order", "measure_core.py",
           "for key, value in zip(record.__slots__, record._values())}",
           "for key, value in reversed([*zip(record.__slots__, record._values())])}",
           (CLI + "test_reports_print_the_pinned_bytes"
                  "[converge branches --family mu --xs n-1-json]",)),
    Mutant("measure file total not checked", "measure_core.py",
           """if "total" in data and parse_rational(data["total"]) != m.total:""",
           "if False:",
           (CLI + "test_bad_json_input_exits_with_one_error_line[total-not-the-sum]",)),
    Mutant('complement("R") acts as "Rbar"', "measure_core.py",
           "infinities: tuple[ExtReal, ...] = (NEG_INF, POS_INF)",
           "infinities: tuple[ExtReal, ...] = ()",
           ("tests/test_measure_core.py::test_complement_ambient_matters_at_infinity",)),
    Mutant("is_empty reads the lower side unflipped", "measure_core.py",
           "return self._lower >= self._upper",
           "return (self.lo, self.lo_closed) >= self._upper",
           (MEASURE + "test_set_algebra_follows_pointwise_membership",)),
    Mutant("sets skip their normal form", "measure_core.py",
           "merged = _merged(intervals, points)",
           "merged = [*intervals, *(Interval(p, True, p, True) for p in points)]",
           (MEASURE + "test_the_constructor_puts_any_pieces_in_normal_form",
            MEASURE + "test_the_constructor_drops_an_empty_interval",
            CONVERGENCE + "test_a_raw_set_with_overlapping_pieces_has_its_member_mass",
            CONVERGENCE + "test_a_table_of_equal_raw_sets_settles_on_that_set")),
    Mutant("the record base's __eq__ accepts another class", "measure_core.py",
           """if other.__class__ is self.__class__:
            return self._values() == other._values()""",
           """if isinstance(other, _Record):
            return self._values() == other._values()""",
           (MEASURE + "test_each_record_keeps_its_dataclass_behaviour[Interval]",)),
    Mutant("a point's __le__ is strict", "measure_core.py",
           "compare(operator.le)",
           "compare(operator.lt)",
           (MEASURE + "test_set_algebra_follows_pointwise_membership",)),
    Mutant("a point's __ge__ is built from gt", "measure_core.py",
           "compare(operator.gt), compare(operator.ge))",
           "compare(operator.gt), compare(operator.gt))",
           (MEASURE + "test_point_operators_and_hash_follow_the_order_of_r_bar",)),
    Mutant("touching open ends merge", "measure_core.py",
           "if merged and piece._lower <= merged[-1]._upper:",
           "if merged and piece.lo <= merged[-1].hi:",
           (MEASURE + "test_set_algebra_follows_pointwise_membership",)),
    Mutant("a merge keeps the first upper end", "measure_core.py",
           "_between(last._lower, max(last._upper, piece._upper))",
           "_between(last._lower, last._upper)",
           (MEASURE + "test_set_algebra_follows_pointwise_membership",)),
    Mutant("an open lower key read as closed", "measure_core.py",
           "return self.lo, not self.lo_closed",
           "return self.lo, False",
           (MEASURE + "test_a_raw_interval_contains_the_points_its_definition_holds"
                      "[False-True]",)),
    Mutant("the first complement gap opening after -inf", "measure_core.py",
           "uppers = [(NEG_INF, False)]",
           "uppers = [(NEG_INF, True)]",
           (MEASURE + "test_set_algebra_follows_pointwise_membership",)),
    Mutant("a float point accepted", "measure_core.py",
           "if isinstance(point, (bool, float)):",
           "if isinstance(point, bool):",
           (MEASURE + "test_from_mass_pairs_refuses_a_bool_point[pairs3]",)),
    Mutant("+1/n and -1/n suffixes swapped", "convergence_lab.py",
           """finite, "decreasing", "", "+1/n"),
    "approach_below": _SequenceKind(
        lambda n, q: q - Fraction(1, n), finite, "increasing", "", "-1/n"),""",
           """finite, "decreasing", "", "-1/n"),
    "approach_below": _SequenceKind(
        lambda n, q: q - Fraction(1, n), finite, "increasing", "", "+1/n"),""",
           (CONVERGENCE + "test_each_sequence_kind_follows_its_closed_form[approach_above]",)),
    Mutant("approach_below read as decreasing", "convergence_lab.py",
           'finite, "increasing", "", "-1/n")',
           'finite, "decreasing", "", "-1/n")',
           (CONVERGENCE + "test_each_sequence_kind_follows_its_closed_form[approach_below]",)),
    Mutant("UnitReal compares its exact flag", "extended_line.py",
           '_ordered_by("value", "preimage")',
           '_ordered_by("value", "exact", "preimage")',
           ("tests/test_extended_line.py::"
            "test_unit_real_equality_order_and_hash_follow_the_preimage",)),
    Mutant("theorem enumerates only n <= 4", "theorem.py",
           "if n <= 12:",
           "if n <= 4:",
           (CONVERGENCE + "test_the_theorem_refuses_an_enumeration_that_disagrees_at_one_n",)),
    Mutant("mu's cdf without the -1", "families.py",
           "else Fraction(2**j - 1, 2**n)",
           "else Fraction(2**j, 2**n)",
           (CONVERGENCE + "test_builtin_closed_form_masses_match_the_members",)),
    Mutant("an open integer end keeps its atom", "convergence_lab.py",
           "math.floor(x.value) if closed else math.ceil(x.value) - 1",
           "math.floor(x.value)",
           (CONVERGENCE + "test_builtin_closed_form_masses_match_the_members",)),
    Mutant("_member_mass reads the upper key as open", "convergence_lab.py",
           "through(*iv._upper)",
           "through(iv.hi, False)",
           (CONVERGENCE + "test_builtin_closed_form_masses_match_the_members",)),
    Mutant("integral_limit skips the two-member rule", "convergence_lab.py",
           'scan = _limit_scan(horizon, fam)\n    report = partial(LimitReport, order="testfn"',
           'scan = _scan(horizon, fam)\n    report = partial(LimitReport, order="testfn"',
           (CONVERGENCE + "test_a_one_member_table_is_too_short_for_a_limit_but_not_for_tightness",
            CLI + "test_bad_json_input_exits_with_one_error_line"
                  "[testfn-family-too-short-to-scan]")),
    Mutant("dirac_n's cdf steps one past n", "families.py",
           "Fraction(j >= n)",
           "Fraction(j > n)",
           (CONVERGENCE + "test_builtin_closed_form_masses_match_the_members",)),
    Mutant("lambda's weak limit is the point mass at 0", "families.py",
           "limit=lambda_measure(),",
           "limit=dirac(finite(0)),",
           (CONVERGENCE + "test_a_builtin_weak_limit_is_one_object_that_no_query_rebuilds"
                          "[lambda-64]",)),
    Mutant("every builtin's member read from the mu row", "families.py",
           "_BUILTINS[self.kind].member(n)",
           "_BUILTINS['mu'].member(n)",
           (CONVERGENCE + "test_builtin_members",)),
    Mutant("every builtin's tightness read from the lambda row", "convergence_lab.py",
           "_BUILTINS[fam.kind].tightness(epsilon)",
           "_BUILTINS['lambda'].tightness(epsilon)",
           (CONVERGENCE + "test_moving_point_mass_family_is_not_tight",)),
    Mutant("identities take the first index attaining the max", "identities.py",
           "z = n - bits[::-1].index(y)",
           "z = bits.index(y) + 1",
           (PROCESS + "test_identity_report_holds_on_small_horizons",)),
    Mutant("a re-imported package loads its modules from the newest", "__init__.py",
           "replaced = sys.modules.get(__name__) is not _PACKAGE",
           "replaced = False",
           ("tests/test_public_api.py::"
            "test_a_generation_left_behind_by_re_imports_answers_as_a_fresh_one[text]",)),
    Mutant("RealSequence takes writes again", "convergence_lab.py",
           "class RealSequence(_LimitRecord):",
           "class RealSequence(_LimitRecord):\n"
           "    __setattr__, __delattr__ = object.__setattr__, object.__delattr__",
           ("tests/test_public_api.py::"
            "test_every_frozen_type_refuses_a_write_with_attribute_error[RealSequence]",)),
    Mutant("LimitReport's eligible defaults to False", "convergence_lab.py",
           "eligible: bool | None = None,",
           "eligible: bool | None = False,",
           (CLI + "test_reports_print_the_pinned_bytes"
                  "[converge testfn --family lambda --fn sin --horizon 16-json]",)),
    Mutant("the on-demand fields list the slots reversed", "convergence_lab.py",
           "for name in cls.__slots__]",
           "for name in reversed(cls.__slots__)]",
           (CONVERGENCE + "test_each_limit_type_keeps_its_frozen_dataclass_shape[LimitReport]",)),
    Mutant("builtin_family loads the limit machinery", "__init__.py",
           "    _load(module)\n    return globals()[name]",
           '    if module == "families":\n        _load("convergence_lab")\n'
           "    _load(module)\n    return globals()[name]",
           ("tests/test_public_api.py::"
            "test_the_family_names_load_the_family_model_alone[builtin_family]",)),
    Mutant("the name table drops a public name", "__init__.py",
           '"families": ("MeasureFamily", "builtin_family", "table_family"),',
           '"families": ("MeasureFamily", "builtin_family"),',
           ("tests/test_public_api.py::test_all_lists_exactly_the_public_names",)),
    Mutant("process_lab loads on first use", "__init__.py",
           '_EAGER = ("errors", "measure_core", "process_lab")',
           '_EAGER = ("errors", "measure_core")',
           ("tests/test_public_api.py::"
            "test_importing_the_package_loads_three_modules_and_binds_their_public_names",)),
    Mutant("_value_json renders a rational with str", "measure_core.py",
           "        return rat_str(value)\n    if isinstance(value, float):",
           "        return str(value)\n    if isinstance(value, float):",
           (CLI + "test_reports_print_the_pinned_bytes[measure additivity --family "
                  "@{dir}/settling.json --n 3 --set-a @{dir}/half_open.json --set-b I=1/2-json]",)),
    Mutant("options go to every leaf but the one argv names", "cli.py",
           "if named is None or named is words:",
           "if named is None or named is not words:",
           (CLI + "test_parser_help_and_usage_errors_are_pinned[measure show]",)),
    Mutant("an argv that names no leaf gives no leaf its options", "cli.py",
           "if named is None or named is words:",
           "if argv is None or named is words:",
           (CLI + "test_a_parser_built_for_its_argv_acts_as_the_full_parser[measure show]",)),
    Mutant("every group takes the measure group's help", "cli.py",
           "help=_GROUPS[group]",
           'help=_GROUPS["measure"]',
           (CLI + "test_parser_help_and_usage_errors_are_pinned[limitgap]",)),
    Mutant("_emit writes only the first chunk", "cli.py",
           "chunks = output(fmt)",
           "chunks = [next(iter(output(fmt)))]",
           (CLI + "test_plotdata_prints_what_the_members_print[7-csv]",)),
    Mutant("a record reads a dataclass pickle's dict as its field values", "measure_core.py",
           "if isinstance(state, dict):",
           "if False:",
           (CONVERGENCE + "test_a_limit_type_pickled_as_a_dataclass_loads_with_its_fields"
                          "[protocol-4]",)),
    Mutant("the generic record constructor fills fields in reverse", "measure_core.py",
           "values = dict(zip(names, args), **kwargs)",
           "values = dict(zip(names[::-1], args), **kwargs)",
           (EVENT + "test_round_trip_holds_for_random_trees",
            CLI + "test_reports_print_the_pinned_bytes[process identities --n 6 --p 1/3-json]")),
    Mutant("equal neighbours merge only when they are one object", "measure_core.py",
           "if merged and point == merged[-1][0]:",
           "if merged and point is merged[-1][0]:",
           (MEASURE + "test_the_sorted_pass_normalises_as_the_dict_did",
            MEASURE + "test_duplicates_merge_and_zero_mass_drops")),
    Mutant("negative masses checked after the sort", "measure_core.py",
           """            if mass < 0:
                raise NegativeMassError(f"negative mass {rat_str(mass)} at {point}")
            checked.append((point, mass))""",
           """            checked.append((point, mass))
        for point, mass in sorted(checked, key=_POINT):
            if mass < 0:
                raise NegativeMassError(f"negative mass {rat_str(mass)} at {point}")""",
           (MEASURE + "test_the_first_negative_mass_given_is_the_one_reported",)),
    Mutant("zero masses dropped before the merge", "measure_core.py",
           "            checked.append((point, mass))",
           "            if mass:\n                checked.append((point, mass))",
           (MEASURE + "test_the_sorted_pass_normalises_as_the_dict_did",)),
    Mutant("atoms sorted by point, then mass", "measure_core.py",
           "checked.sort(key=_POINT)",
           "checked.sort()",
           (MEASURE + "test_the_sorted_pass_normalises_as_the_dict_did",)),
    Mutant("_checked ignores the cap", "process_lab.py",
           "if cap is not None and n > cap:",
           "if False:",
           (PROCESS + "test_the_scans_keep_the_enumeration_cap_of_twenty_four[iter_outcomes]",)),
)


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _pytest(root: Path, tests: tuple[str, ...]) -> int:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def run_mutant(mutant: Mutant) -> str:
    """killed, survived, stale or error: the fate of one mutant in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="limitgap-mutant-") as tmp:
        root = Path(tmp)
        _copy_tree(root)
        target = root / "src" / "limitgap" / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code = _pytest(root, mutant.tests)
    return {0: "survived", 1: "killed"}.get(code, "error")


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    mutants = [m for m in MUTANTS if not names or m.name in names]
    tests = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="limitgap-mutant-") as tmp:
        _copy_tree(Path(tmp))
        if _pytest(Path(tmp), tests) != 0:
            print("the named tests do not pass on an unmutated copy", file=sys.stderr)
            return 1
    fates = []
    for mutant in mutants:
        fate = run_mutant(mutant)
        fates.append(fate)
        print(f"{fate:8}  {mutant.name}", flush=True)
    print(f"{fates.count('killed')} of {len(mutants)} killed")
    return 0 if all(fate == "killed" for fate in fates) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
