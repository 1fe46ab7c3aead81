"""The ten acceptance checks, one test per criterion.

Each check prints a single "PASS criterion k" line on success (visible under
pytest -s).  The module also runs standalone:

    python3 -m tests.test_acceptance

which prints one PASS/FAIL line per criterion and exits nonzero on failure.
"""

import math
import time
from collections import Counter
from fractions import Fraction as F

from limitgap.convergence_lab import (
    branch_check,
    builtin_family,
    integral_limit,
    lower_ray_family,
    order_a_limit,
    order_b_limit,
    parse_sequence_spec,
    tightness_probe,
    weak_limit_identify,
)
from limitgap.extended_line import compactify_measure, h
from limitgap.measure_core import NEG_INF, POS_INF, MeasurableSet, finite, from_mass_pairs
from limitgap.process_lab import (
    enumerate_outcomes,
    escaped_mass_profile,
    event_probability,
    mu_closed_form,
)

HALF = F(1, 2)


def _ray_family():
    return lower_ray_family(parse_sequence_spec("n-1"))


def test_criterion_01_closed_form_equals_enumeration():
    for n in range(1, 13):
        law = Counter()
        for row in enumerate_outcomes(n):
            law[row.z] += row.outcome.prob
        assert mu_closed_form(n) == from_mass_pairs(law.items()), f"mismatch at n={n}"
    print("PASS criterion 1: closed form matches exhaustive enumeration, n=1..12")


def test_criterion_02_event_decomposition_of_one_half():
    for n in range(1, 21):
        below = event_probability(n, HALF, "X[N]==0 && Z<N")
        at = event_probability(n, HALF, "X[N]==0 && Z==N")
        assert below == HALF - F(1, 2**n), f"Z<N summand wrong at n={n}"
        assert at == F(1, 2**n), f"Z==N summand wrong at n={n}"
        assert below + at == HALF == event_probability(n, HALF, "X[N]==0")
    print(
        "PASS criterion 2: P(X_n=0) = 1/2 = (1/2 - 2^-n) + 2^-n as exact "
        "event probabilities, n=1..20"
    )


def test_criterion_03_ray_masses_and_their_numeric_limit():
    for n in range(1, 21):
        ray = MeasurableSet.lower_ray(finite(n - 1))
        assert mu_closed_form(n).mass_of_set(ray) == HALF - F(1, 2**n)
    report = order_b_limit(builtin_family("mu"), _ray_family(), 64)
    assert report.value == HALF
    print(
        "PASS criterion 3: mu_n((-inf, n-1]) = 1/2 - 2^-n for n=1..20 and "
        "order (b) reports exactly 1/2"
    )


def test_criterion_04_the_two_orders_split_by_one_half():
    fam = builtin_family("mu")
    a = order_a_limit(fam, _ray_family(), 64)
    b = order_b_limit(fam, _ray_family(), 64)
    assert a.value == 0
    assert b.value == HALF
    assert b.value - a.value == HALF
    assert b.eligible is False
    print(
        "PASS criterion 4: order (a) = 0, order (b) = 1/2, gap exactly 1/2, "
        "order (b) flagged not probability-eligible"
    )


def test_criterion_05_tightness_verdicts():
    lam = tightness_probe(builtin_family("lambda"), F(1, 4), 64)
    assert lam.tight is True
    assert lam.interval == MeasurableSet.interval(finite(0), finite(1))
    mu = tightness_probe(builtin_family("mu"), HALF, 64)
    assert mu.tight is False
    for n in range(1, 65):
        assert mu_closed_form(n).mass_at(finite(n)) > HALF
    print(
        "PASS criterion 5: lambda tight with [0, 1]; mu not tight at "
        "epsilon = 1/2 with mu_n({n}) > 1/2 for all n <= 64"
    )


def test_criterion_06_escape_profile_and_partial_sums():
    for n in range(2, 21):
        profile = dict(escaped_mass_profile(n, n - 1))
        for k in range(1, n):
            assert profile[k] == F(1, 2 ** (k + 1)), f"wrong mass at n={n}, k={k}"
    partial = sum(
        (mass for _, mass in escaped_mass_profile(21, 19)), F(0)
    )
    assert abs(1 - partial) <= F(1, 2**20)
    print(
        "PASS criterion 6: mu_n({n-k}) = 2^-(k+1) for 1 <= k < n <= 20; "
        "partial sum at n=21 within 2^-20 of 1"
    )


def test_criterion_07_branch_suite():
    settling = branch_check(builtin_family("lambda"), "1/2+1/n", 64)
    assert settling.order_a.value == settling.order_b.value == HALF
    tight_escape = branch_check(builtin_family("lambda"), "n-1", 64)
    assert tight_escape.order_a.value == tight_escape.order_b.value == 1
    loose_escape = branch_check(builtin_family("mu"), "n-1", 64)
    assert loose_escape.infinity_mass == 1
    assert loose_escape.order_a.value == 1 - loose_escape.infinity_mass == 0
    assert loose_escape.order_b.eligible is False
    print(
        "PASS criterion 7: branch (a) orders agree at 1/2; tight branch (b) "
        "orders agree at 1; non-tight branch (b) gives order (a) = "
        "1 - rho({+inf}) = 0"
    )


def test_criterion_08_oscillating_integrals_diverge():
    report = integral_limit(
        builtin_family("dirac_n"), lambda x: math.sin(float(x.value)), 100
    )
    assert report.value == "divergent"
    hi, lo = report.witness_pair
    assert hi - lo >= 0.5 - 1e-9
    print(
        "PASS criterion 8: sine integrals along dirac_n diverge with "
        f"subsequence witnesses {hi:.6f} and {lo:.6f}"
    )


def test_criterion_09_compactification():
    assert h(POS_INF).value == 1.0 and h(POS_INF).exact
    assert h(NEG_INF).value == 0.0 and h(NEG_INF).exact
    assert abs(h(finite(0)).value - 0.5) <= 1e-12
    limit = weak_limit_identify(builtin_family("mu"), 64)
    mapped = compactify_measure(limit)
    ((point, mass),) = mapped.atoms
    assert point.value == 1.0 and point.exact and mass == 1
    print(
        "PASS criterion 9: h pins the endpoints exactly, h(0) = 0.5 within "
        "1e-12, and the compactified weak limit is the unit atom at 1"
    )


def test_criterion_10_enumeration_speed_and_determinism():
    start = time.perf_counter()
    baseline = enumerate_outcomes(20, HALF)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"enumeration took {elapsed:.2f}s"
    assert enumerate_outcomes(20, HALF) == baseline
    print(
        f"PASS criterion 10: 2^20 outcomes enumerated in {elapsed:.2f}s with "
        "output identical on a repeat run"
    )


def _run_standalone() -> int:
    criteria = sorted(
        (name, fn)
        for name, fn in globals().items()
        if name.startswith("test_criterion_") and callable(fn)
    )
    failures = 0
    for name, fn in criteria:
        number = int(name.split("_")[2])
        try:
            fn()
        except Exception as exc:
            failures += 1
            detail = str(exc) or type(exc).__name__
            print(f"FAIL criterion {number}: {detail}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(_run_standalone())
