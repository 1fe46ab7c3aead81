"""The package's public names: the list is fixed, and each name resolves.

Three types also keep their field names.
"""

from dataclasses import fields

import limitgap

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


def test_sequence_unit_real_and_identity_report_keep_their_fields():
    names = {cls: [f.name for f in fields(cls)]
             for cls in (limitgap.RealSequence, limitgap.UnitReal, limitgap.IdentityReport)}
    assert names == {
        limitgap.RealSequence: ["kind", "q"],
        limitgap.UnitReal: ["value", "exact", "preimage"],
        limitgap.IdentityReport: [
            "n", "rows_checked", "z_in_range", "argmax_attains_max", "set_identity",
            "all_hold", "violations", "p_last_zero_and_z_below", "p_z_below",
        ],
    }
    # all_hold is derived, so the constructor takes the other eight fields
    assert [f.name for f in fields(limitgap.IdentityReport) if not f.init] == ["all_hold"]
