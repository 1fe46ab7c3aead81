"""limitgap: exact arithmetic for limits of event probabilities.

A workbench for discrete (sub)probability measures on the extended real
line, the coin-flip last-argmax process, and the two rival evaluation orders
for a limiting probability — the limiting measure applied to the limiting
set versus the limit of the per-n masses.  For tight families the orders
agree; the built-in argmax family drives them exactly 1/2 apart.

One table, `_NAMES`, lists each module and the public names it brings;
`__all__` is read from it.  The package loads `errors`, `measure_core` and
`process_lab` when it is imported, through the same `_load` as the rest.
The family model (`families`), the limit machinery
(`convergence_lab`), the extended line (`extended_line`), the event language
(`event_dsl`) and the identity oracle (`identities`) load on first use of one
of their names, so a command that never reaches them does not pay to compile
and run them.  Every value type is a plain slotted record on `measure_core`'s
one record base, so no command loads `dataclasses` (or the `inspect` it
imports).  The limit machinery's six types still answer `dataclasses.fields`,
`replace` and `asdict`, building their fields on the first such call.
`process_lab` stays eager, because a tracer wraps only the modules loaded
before it starts.

A program that purges `limitgap` from `sys.modules` and imports it again
holds two package generations.  A module that the older one loads later is
imported among that generation's own modules, so its classes and errors are
the ones its other names use.
"""

import importlib
import sys
from types import ModuleType

__version__ = "0.1.0"

# Each module, and the public names it brings.
_NAMES = {
    "errors": (
        "BadEpsilonError", "BadRationalError", "BadSequenceSpecError", "DomainError",
        "EvaluationError", "EventParseError", "InconclusiveError", "IndexOutOfRangeError",
        "KRangeError", "LimitGapError", "NRangeError", "NTooLargeError", "NegativeMassError",
        "NoSetLimitError", "NoWeakLimitError", "TotalExceedsOneError",
    ),
    "measure_core": (
        "NEG_INF", "POS_INF", "AdditivityReport", "DiscreteMeasure", "ExtReal", "Interval",
        "MeasurableSet", "check_additivity", "dirac", "finite", "from_mass_pairs",
        "measure_from_dict", "measure_to_dict", "parse_ext_real", "parse_rational", "rat_str",
        "set_from_dict", "set_to_dict",
    ),
    "process_lab": (
        "FAIR", "Outcome", "ProcessRow", "enumerate_outcomes", "escaped_mass_profile",
        "event_probability", "iter_outcomes", "lambda_measure", "mu_closed_form",
        "z_distribution",
    ),
    "convergence_lab": (
        "BranchReport", "LimitReport", "RealSequence", "SequenceAnalysis", "SetFamily",
        "TightnessVerdict", "analyze_rational_sequence", "branch_check", "integral_limit",
        "lower_ray_family", "order_a_limit", "order_b_limit", "parse_sequence_spec",
        "set_table_family", "singleton_family", "tightness_probe", "weak_limit_identify",
    ),
    "families": ("MeasureFamily", "builtin_family", "table_family"),
    "event_dsl": ("EventPredicate", "eval_event", "parse_event", "print_event"),
    "extended_line": ("UnitReal", "compactify_measure", "h", "h_inv", "metric_d"),
    "identities": ("IdentityReport", "verify_process_identities"),
}
_EAGER = ("errors", "measure_core", "process_lab")  # the others load on first use
_HOME = {name: module for module, names in _NAMES.items() for name in names}
__all__ = sorted(_HOME)
_PACKAGE = sys.modules[__name__]  # this generation


def __getattr__(name: str) -> object:
    # Called only for a name the package does not hold yet.
    module = name if name in _NAMES else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(module)
    return globals()[name]


def _take_entries() -> dict[str, ModuleType]:
    """Remove and return every limitgap entry of sys.modules."""
    names = [m for m in sys.modules if m == __name__ or m.startswith(f"{__name__}.")]
    return {m: sys.modules.pop(m) for m in names}


def _load(module: str) -> None:
    """Import a submodule into this generation and bind it and its public names here.

    Once a re-import has replaced this package in sys.modules, the import
    runs with this generation's modules put back there, so the new module
    imports its neighbours from this generation; the others return after.
    """
    replaced = sys.modules.get(__name__) is not _PACKAGE
    if replaced:
        others = _take_entries()
        # this generation: _PACKAGE and the submodules bound here
        sys.modules.update({m.__name__: m for m in globals().values()
                            if isinstance(m, ModuleType) and m.__name__.startswith(__name__)})
    try:
        loaded = importlib.import_module(f"{__name__}.{module}")
    finally:
        if replaced:
            _take_entries()
            sys.modules.update(others)
    globals().update({module: loaded, **{name: getattr(loaded, name) for name in _NAMES[module]}})


def __dir__() -> list[str]:
    return sorted({*globals(), *_NAMES, *__all__})


for _module in _EAGER:
    _load(_module)
del _module
