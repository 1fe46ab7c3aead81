"""limitgap: exact arithmetic for limits of event probabilities.

A workbench for discrete (sub)probability measures on the extended real
line, the coin-flip last-argmax process, and the two rival evaluation orders
for a limiting probability — the limiting measure applied to the limiting
set versus the limit of the per-n masses.  For tight families the orders
agree; the built-in argmax family drives them exactly 1/2 apart.

The event language (`limitgap.event_dsl` and the four names it exports here)
is loaded on first use, so a command that reads no event does not pay for
importing it.  Every other module is imported with the package.
"""

import importlib

from .errors import (
    BadEpsilonError,
    BadRationalError,
    BadSequenceSpecError,
    DomainError,
    EvaluationError,
    EventParseError,
    InconclusiveError,
    IndexOutOfRangeError,
    KRangeError,
    LimitGapError,
    NegativeMassError,
    NoSetLimitError,
    NoWeakLimitError,
    NRangeError,
    NTooLargeError,
    TotalExceedsOneError,
)
from .measure_core import (
    NEG_INF,
    POS_INF,
    AdditivityReport,
    DiscreteMeasure,
    ExtReal,
    Interval,
    MeasurableSet,
    check_additivity,
    dirac,
    finite,
    from_mass_pairs,
    measure_from_dict,
    measure_to_dict,
    parse_ext_real,
    parse_rational,
    rat_str,
    set_from_dict,
    set_to_dict,
)
from .extended_line import UnitReal, compactify_measure, h, h_inv, metric_d
from .process_lab import (
    FAIR,
    IdentityReport,
    Outcome,
    ProcessRow,
    enumerate_outcomes,
    escaped_mass_profile,
    event_probability,
    iter_outcomes,
    lambda_measure,
    mu_closed_form,
    verify_process_identities,
    z_distribution,
)
from .convergence_lab import (
    BranchReport,
    LimitReport,
    MeasureFamily,
    RealSequence,
    SequenceAnalysis,
    SetFamily,
    TightnessVerdict,
    analyze_rational_sequence,
    branch_check,
    builtin_family,
    integral_limit,
    lower_ray_family,
    order_a_limit,
    order_b_limit,
    parse_sequence_spec,
    set_table_family,
    singleton_family,
    table_family,
    tightness_probe,
    weak_limit_identify,
)

__version__ = "0.1.0"

_EVENT_NAMES = ("EventPredicate", "eval_event", "parse_event", "print_event")


def __getattr__(name: str) -> object:
    # Called only for a name the package does not hold.  `from . import
    # event_dsl` here would ask this function for the module again.
    if name == "event_dsl" or name in _EVENT_NAMES:
        module = importlib.import_module(f"{__name__}.event_dsl")
        return module if name == "event_dsl" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

__all__ = [
    "AdditivityReport",
    "BadEpsilonError",
    "BadRationalError",
    "BadSequenceSpecError",
    "BranchReport",
    "DiscreteMeasure",
    "DomainError",
    "EvaluationError",
    "EventParseError",
    "EventPredicate",
    "ExtReal",
    "FAIR",
    "IdentityReport",
    "InconclusiveError",
    "IndexOutOfRangeError",
    "Interval",
    "KRangeError",
    "LimitGapError",
    "LimitReport",
    "MeasurableSet",
    "MeasureFamily",
    "NEG_INF",
    "NRangeError",
    "NTooLargeError",
    "NegativeMassError",
    "NoSetLimitError",
    "NoWeakLimitError",
    "Outcome",
    "POS_INF",
    "ProcessRow",
    "RealSequence",
    "SequenceAnalysis",
    "SetFamily",
    "TightnessVerdict",
    "TotalExceedsOneError",
    "UnitReal",
    "analyze_rational_sequence",
    "branch_check",
    "builtin_family",
    "check_additivity",
    "compactify_measure",
    "dirac",
    "enumerate_outcomes",
    "escaped_mass_profile",
    "eval_event",
    "event_probability",
    "finite",
    "from_mass_pairs",
    "h",
    "h_inv",
    "integral_limit",
    "iter_outcomes",
    "lambda_measure",
    "lower_ray_family",
    "measure_from_dict",
    "measure_to_dict",
    "metric_d",
    "mu_closed_form",
    "order_a_limit",
    "order_b_limit",
    "parse_event",
    "parse_ext_real",
    "parse_rational",
    "parse_sequence_spec",
    "print_event",
    "rat_str",
    "set_from_dict",
    "set_table_family",
    "set_to_dict",
    "singleton_family",
    "table_family",
    "tightness_probe",
    "verify_process_identities",
    "weak_limit_identify",
    "z_distribution",
]
