"""Batch command-line surface: deterministic, exact-rational reports.

Every subcommand prints `table` (human), `json`, or `csv` output built from
the same data, with atoms sorted and rationals rendered canonically as
"num/den", so identical invocations are byte-identical.  Exit codes: 0 on
success, 1 on a domain error, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import operator
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple, Sequence

from .errors import LimitGapError, NRangeError
from .measure_core import (
    DiscreteMeasure,
    MeasurableSet,
    _check_keys,
    check_additivity,
    measure_from_dict,
    measure_to_dict,
    parse_ext_real,
    parse_rational,
    rat_str,
    set_from_dict,
)
from .process_lab import (
    FAIR,
    _event_dsl,
    escaped_mass_profile,
    event_probability,
    iter_outcomes,
)

if TYPE_CHECKING:
    from .convergence_lab import SetFamily
    from .families import MeasureFamily

# The limit machinery, the family model, the extended line, the event language,
# the identity oracle and csv are imported by the handlers that use them, so a
# command loads only what it runs.
# Each test function takes the extended line module, then a point.
_TEST_FUNCTIONS: dict[str, Callable] = {
    "sin": lambda line, x: math.sin(line.saturating_float(x)),
    "atan": lambda line, x: math.atan(line.saturating_float(x)),
    "h": lambda line, x: line.h(x).value,
}


# ---------------------------------------------------------------------------
# argument parsing helpers


def _load_json(path: str, build: Callable[[Any], Any]) -> Any:
    """`build` applied to the JSON in `path`; any failure is a domain error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise LimitGapError(f"cannot read {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # bad JSON or bytes, or too deep
        raise LimitGapError(f"{path} is not valid JSON: {exc}") from None
    try:
        return build(data)
    except KeyError as exc:
        raise LimitGapError(f"{path}: missing key {exc}") from None
    except (AttributeError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise LimitGapError(f"{path}: malformed entry: {exc}") from None


def _records(data: Any, key: str) -> Any:
    """The records of a payload given as {key: [...]}, [...] or one record."""
    if isinstance(data, dict) and key in data:
        _check_keys(data, f"a {key!r} wrapper", {key: list})
        data = data[key]
    return [data] if isinstance(data, dict) else data


def _family_arg(spec: str) -> MeasureFamily:
    from .families import builtin_family, table_family
    if spec.startswith("@"):
        return _load_json(spec[1:], lambda data: table_family(
            [measure_from_dict(d) for d in _records(data, "measures")]))
    return builtin_family(spec)


_RAY_SEQ = re.compile(r"^I\((.+)\)$")


def _set_family_arg(spec: str) -> SetFamily:
    from .convergence_lab import (
        RealSequence, lower_ray_family, parse_sequence_spec, set_table_family, singleton_family)
    match = _RAY_SEQ.match(spec)
    if match:
        return lower_ray_family(parse_sequence_spec(match.group(1)))
    if spec.startswith("I="):
        return lower_ray_family(RealSequence("const", parse_rational(spec[2:])))
    if spec.startswith("point="):
        return singleton_family(parse_ext_real(spec[6:]))
    if spec.startswith("@"):
        return _load_json(spec[1:], lambda data: set_table_family(
            [set_from_dict(d) for d in _records(data, "sets")]))
    raise LimitGapError(
        f"unknown set family {spec!r}; use I(<seq>), I=<x>, point=<c>, or @file.json"
    )


def _single_set_arg(spec: str) -> MeasurableSet:
    if spec.startswith(("I=", "point=")):
        return _set_family_arg(spec).member(1)
    if spec.startswith("@"):
        return _load_json(spec[1:], set_from_dict)
    raise LimitGapError(
        f"unknown set {spec!r}; use I=<x>, point=<c>, or @file.json"
    )


# ---------------------------------------------------------------------------
# output plumbing


class _Output(NamedTuple):
    data: dict[str, Any]  # json payload
    rows: list[dict[str, Any]] | None = None  # table/csv rows, if tabular
    head: str = ""  # table-only line before the rows or key/value lines
    tail: str = ""  # table-only lines after them

    def __call__(self, fmt: str) -> tuple[str]:
        """The whole text as `fmt`, in one chunk."""
        if fmt == "table":
            body = _rows_table(self.rows) if self.rows is not None else "\n".join(
                f"{r['key']}: {r['value']}" for r in _key_value_rows(self.data))
            return ("\n".join(part for part in (self.head, body, self.tail) if part) + "\n",)
        buf = io.StringIO()
        if fmt == "json":  # json.dumps would join a list of every chunk
            buf.writelines(json.JSONEncoder(indent=2).iterencode(self.data))
            buf.write("\n")
        else:
            import csv
            rows = self.rows if self.rows is not None else _key_value_rows(self.data)
            header = list(rows[0])  # two or more columns, so itemgetter gives a tuple
            writer = csv.writer(buf)
            writer.writerow(header)
            writer.writerows(map(operator.itemgetter(*header), rows))
        return (buf.getvalue(),)


# What every handler returns: its text in the format asked for, chunk by chunk.
_Text = Callable[[str], Iterable[str]]


def _key_value_rows(data: dict[str, Any]) -> list[dict[str, Any]]:
    return [
        {"key": k, "value": json.dumps(v) if isinstance(v, (dict, list, tuple)) else v}
        for k, v in data.items()
    ]


def _rows_table(rows: Sequence[dict[str, Any]]) -> str:
    headers = list(rows[0])
    widths = {
        h: max(len(h), *(len(str(r[h])) for r in rows)) for h in headers
    }
    out = ["  ".join(h.ljust(widths[h]) for h in headers)]
    for row in rows:
        out.append("  ".join(str(row[h]).ljust(widths[h]) for h in headers))
    return "\n".join(out)


def _measure_output(m: DiscreteMeasure) -> _Output:
    data = measure_to_dict(m)
    rows = [
        {"point": json.dumps(a["point"]) if isinstance(a["point"], dict) else a["point"],
         "mass": a["mass"]}
        for a in data["atoms"]
    ]
    return _Output(data, rows, tail=f"total: {data['total']}")


def _emit(output: _Text, fmt: str, out_path: str | None) -> None:
    """Write the chunks of `output(fmt)` to the `--out` file, or to stdout without one."""
    chunks = output(fmt)
    if not out_path:
        for chunk in chunks:
            sys.stdout.write(chunk)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except OSError as exc:
        raise LimitGapError(f"cannot write {out_path}: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# subcommand handlers, each declared by the `_leaf` above it


def _opt(*flags: str, **kwargs: Any) -> tuple[tuple[str, ...], dict[str, Any]]:
    return flags, kwargs


_OUTPUT = (_opt("--format", choices=("table", "json", "csv"), default="table"),
           _opt("--out", metavar="PATH"))
_FAMILY = _opt("--family", required=True)
_HORIZON = _opt("--horizon", type=int, default=64)
_P = _opt("--p", type=parse_rational, default=FAIR)
_N = _opt("--n", type=int, required=True)
_MEMBER_N = _opt("--n", type=int, default=1)

_GROUPS = {
    "measure": "discrete measures and additivity",
    "process": "the coin-flip argmax process",
    "converge": "weak limits and evaluation orders",
    "theorem": "the end-to-end two-route pipeline",
}


# Every subcommand as (its words, help, handler, options), in the order the help lists them.
_LEAVES: list[tuple[list[str], str, Callable[[argparse.Namespace], _Text], tuple]] = []


def _leaf(path: str, help: str, *options: tuple) -> Callable:
    """Make the decorated handler subcommand `path`, taking `options`, --format and --out."""
    def declare(handler: Callable[[argparse.Namespace], _Text]) -> Callable:
        _LEAVES.append((path.split(), help, handler, (*options, *_OUTPUT)))
        return handler
    return declare


# A member's rationals carry O(n) digits, and CPython refuses to print an int
# of more than 4,300 digits (2**14285 is the first power of two past it).
# Printing mu at n = 10,000 takes up to 4.6 s and 223 MB (the padded table is
# 60 MB); at 14,284 it takes up to 11.5 s and 430 MB.
MEMBER_MAX_N = 10_000


def _check_member_n(n: int) -> None:
    """Reject an n past MEMBER_MAX_N before any member is built."""
    if n > MEMBER_MAX_N:
        raise NRangeError(f"n must be at most {MEMBER_MAX_N}, got {n}")


def _member_arg(args: argparse.Namespace) -> DiscreteMeasure:
    """Member --n of --family, with n checked before a family file is read."""
    _check_member_n(args.n)
    return _family_arg(args.family).member(args.n)


@_leaf("measure show", "print one family member", _FAMILY, _MEMBER_N)
def _cmd_measure_show(args: argparse.Namespace) -> _Output:
    return _measure_output(_member_arg(args))


@_leaf("measure additivity", "is mass(A) + mass(B) the mass of an event?", _FAMILY, _MEMBER_N,
       _opt("--set-a", required=True), _opt("--set-b", required=True))
def _cmd_measure_additivity(args: argparse.Namespace) -> _Output:
    m = _member_arg(args)
    report = check_additivity(m, _single_set_arg(args.set_a), _single_set_arg(args.set_b))
    return _Output(report.to_dict())


# Every format streams the 2**n rows a block at a time, so n is bounded by
# the output's size: json, the largest, is 27.0 MB at n = 18 and doubles
# with each n.
ENUM_MAX_N = 18


@_leaf("process enumerate", "all 2^n outcome rows", _N, _P)
def _cmd_process_enumerate(args: argparse.Namespace) -> _Text:
    if args.n > ENUM_MAX_N:
        raise NRangeError(f"n must be at most {ENUM_MAX_N}, got {args.n}")
    iter_outcomes(args.n, args.p)  # checks n >= 1 and p
    from .cli_streams import enumerate_blocks
    return functools.partial(enumerate_blocks, args.n, args.p)


@_leaf("process prob", "exact probability of an event", _N, _P, _opt("--event", required=True))
def _cmd_process_prob(args: argparse.Namespace) -> _Output:
    events = _event_dsl()
    event = events.parse_event(args.event)
    value = event_probability(args.n, args.p, event)
    data = {
        "event": events.print_event(event),
        "n": args.n,
        "p": rat_str(args.p),
        "value": rat_str(value),
    }
    return _Output(data, head=rat_str(value))


@_leaf("process identities", "verify the defining identities on every outcome", _N, _P)
def _cmd_process_identities(args: argparse.Namespace) -> _Output:
    from .identities import verify_process_identities
    return _Output(verify_process_identities(args.n, args.p).to_dict())


@_leaf("process escape", "masses at n-k: the atoms marching off to +inf",
       _N, _opt("--k-max", type=int))
def _cmd_process_escape(args: argparse.Namespace) -> _Output:
    _check_member_n(args.n)
    k_max = args.k_max if args.k_max is not None else args.n - 1
    profile = escaped_mass_profile(args.n, k_max)
    records = [
        {"k": k, "point": str(args.n - k), "mass": rat_str(mass)}
        for k, mass in profile
    ]
    total = sum((mass for _, mass in profile), Fraction(0))
    data = {
        "n": args.n,
        "profile": records,
        "partial_sum": rat_str(total),
    }
    return _Output(data, records, tail=f"partial_sum: {rat_str(total)}")


@_leaf("converge tightness", "uniform mass-bound probe",
       _FAMILY, _opt("--epsilon", type=parse_rational, required=True), _HORIZON)
def _cmd_converge_tightness(args: argparse.Namespace) -> _Output:
    from .convergence_lab import tightness_probe
    verdict = tightness_probe(_family_arg(args.family), args.epsilon, args.horizon)
    return _Output(verdict.to_dict())


@_leaf("converge limit", "limiting probability under order (a) or (b)",
       _FAMILY, _opt("--sets", required=True),
       _opt("--order", choices=("a", "b"), required=True), _HORIZON)
def _cmd_converge_limit(args: argparse.Namespace) -> _Output:
    from .convergence_lab import order_a_limit, order_b_limit
    fam = _family_arg(args.family)
    sets = _set_family_arg(args.sets)
    if args.order == "a":
        report = order_a_limit(fam, sets, args.horizon)
    else:
        report = order_b_limit(fam, sets, args.horizon)
    data = report.to_dict()
    return _Output(data, head=str(data.get("value", data.get("status"))))


@_leaf("converge weaklimit", "identify the weak limit", _FAMILY, _HORIZON)
def _cmd_converge_weaklimit(args: argparse.Namespace) -> _Output:
    from .convergence_lab import weak_limit_identify
    limit = weak_limit_identify(_family_arg(args.family), args.horizon)
    return _measure_output(limit)


@_leaf("converge testfn", "integrals of a test function along the family",
       _FAMILY, _opt("--fn", choices=sorted(_TEST_FUNCTIONS), required=True), _HORIZON)
def _cmd_converge_testfn(args: argparse.Namespace) -> _Output:
    from . import extended_line
    from .convergence_lab import integral_limit
    f = functools.partial(_TEST_FUNCTIONS[args.fn], extended_line)
    report = integral_limit(_family_arg(args.family), f, args.horizon)
    return _Output({"fn": args.fn, **report.to_dict()})


@_leaf("converge branches", "both orders on rho_n((-inf, x_n]) against the tightness verdict",
       _FAMILY, _opt("--xs", required=True), _HORIZON)
def _cmd_converge_branches(args: argparse.Namespace) -> _Output:
    from .convergence_lab import branch_check
    report = branch_check(_family_arg(args.family), args.xs, args.horizon)
    return _Output(report.to_dict())


@_leaf("compactify", "push a family member onto [0, 1] through h", _FAMILY, _MEMBER_N)
def _cmd_compactify(args: argparse.Namespace) -> _Output:
    from .extended_line import compactify_measure
    return _measure_output(compactify_measure(_member_arg(args)))


@_leaf("theorem verify", "per-n decomposition table plus both limit orders",
       _opt("--n-max", type=int, default=12))
def _cmd_theorem_verify(args: argparse.Namespace) -> _Output:
    from .theorem import verify_theorem
    data = verify_theorem(args.n_max)
    tail = (
        f"order (a): {data['order_a'].get('value')}"
        f"\norder (b): {data['order_b'].get('value')}"
        f"\n{data['divergence_step']}"
    )
    return _Output(data, data["rows"], tail=tail)


# plotdata prints n(n+1)/2 rows whose masses carry O(n) digits, so its output
# grows as n_max**3: n_max = 500 prints 8.1 MB of csv, 14.9 MB of json and
# 39.6 MB of padded table.  Written a member at a time, that takes 0.08-0.11 s
# and 18 MB, piped, on one core of a 2-core x86-64 host (CPython 3.11).
PLOT_MAX_N = 500


@_leaf("plotdata", "segment heights of the argmax law for plotting",
       _opt("--n-max", type=int, default=3))
def _cmd_plotdata(args: argparse.Namespace) -> _Text:
    if not 1 <= args.n_max <= PLOT_MAX_N:
        raise NRangeError(f"n_max must lie in [1, {PLOT_MAX_N}], got {args.n_max}")
    from .cli_streams import plot_blocks
    return functools.partial(plot_blocks, args.n_max)


# ---------------------------------------------------------------------------
# parser assembly


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The parser of every declared subcommand.

    Given the argv it is to parse, only the subcommand that argv's leading
    words name gets its options, which cost a few hundred microseconds per
    subcommand; if they name none, as in `measure --bogus show`, every
    subcommand gets them.  Either way argparse reaches the same subcommand
    and prints the same help, usage and errors.
    """
    parser = argparse.ArgumentParser(
        prog="limitgap",
        description="Exact workbench for limits of event probabilities: "
        "measures on the extended real line, the coin-flip argmax process, "
        "and the two rival evaluation orders for limiting probabilities.",
    )
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    named = next((words for words, *_ in _LEAVES
                  if argv is not None and list(argv[:len(words)]) == words), None)
    for words, help, handler, options in _LEAVES:
        group = " ".join(words[:-1])
        if group not in groups:  # a group's subparsers come at its first leaf
            sub = groups[""].add_parser(group, help=_GROUPS[group])
            groups[group] = sub.add_subparsers(dest="subcommand", required=True)
        sub = groups[group].add_parser(words[-1], help=help)
        sub.set_defaults(handler=handler)
        if named is None or named is words:
            for flags, kwargs in options:
                sub.add_argument(*flags, **kwargs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads "--p -1/2" as two options, so each long option is joined to a
    # following value that starts "-<digit>" or "-."; not --help, which takes none,
    # nor its prefixes, "--" among them
    for i in range(len(argv) - 1, 0, -1):
        flag = argv[i - 1]
        if (flag.startswith("--") and "=" not in flag and not "--help".startswith(flag)
                and re.match(r"-[\d.]", argv[i])):
            argv[i - 1:i + 1] = [f"{flag}={argv[i]}"]
    try:  # parse_rational refuses a huge exponent as a domain error, not a usage error
        args = build_parser(argv).parse_args(argv)
        _emit(args.handler(args), args.format, args.out)
    except LimitGapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader took what it wanted and closed stdout, as `head` does
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
