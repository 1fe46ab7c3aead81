"""The end-to-end walkthrough of the 1/2 = 0 gap, for `theorem verify`.

P(X_n=0) = P(X_n=0, Z<n) + P(X_n=0, Z=n) holds exactly at every n, and the
first term is the ray mass mu_n((-inf, n-1]).  The walk checks each row,
then takes the limit under both evaluation orders, which part at 1/2 and 0.
Only `theorem verify` imports this module, so no other command compiles it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any

from .convergence_lab import branch_check
from .errors import NRangeError
from .families import builtin_family
from .measure_core import MeasurableSet, finite, rat_str
from .process_lab import FAIR, _event_dsl, event_probability, mu_closed_form


def verify_theorem(n_max: int) -> dict[str, Any]:
    """Walk the decomposition P(X_n=0) = P(X_n=0, Z<n) + P(X_n=0, Z=n) to
    its limit under both evaluation orders.

    Every row's ray mass mu_n((-inf, n-1]) is checked against the split
    probability, and rows for n up to 12 are also cross-checked against
    exhaustive enumeration; a mismatch would mean the closed forms and the
    oracle disagree, which is a broken build, not a domain error.  Both
    orders come from branch_check(mu, "n-1", 32).  Returns the `theorem
    verify` payload: rows rendered by rat_str, the two order reports, and
    the divergence_step where the routes part.
    """
    if not 2 <= n_max <= 20:
        raise NRangeError(f"n_max must lie in [2, 20], got {n_max}")
    events = _event_dsl()
    ev_below = events.parse_event("X[N]==0 && Z<N")
    ev_at = events.parse_event("X[N]==0 && Z==N")
    ev_zero = events.parse_event("X[N]==0")
    rows = []
    for n in range(2, n_max + 1):
        last_zero = Fraction(1, 2)
        split_below = Fraction(1, 2) - Fraction(1, 2**n)
        split_at = Fraction(1, 2**n)
        ray_mass = mu_closed_form(n).mass_of_set(
            MeasurableSet.lower_ray(finite(n - 1))
        )
        if n <= 12:
            checks = (
                (ev_zero, last_zero),
                (ev_below, split_below),
                (ev_at, split_at),
            )
            for event, expected in checks:
                got = event_probability(n, FAIR, event)
                if got != expected:
                    raise RuntimeError(
                        f"enumeration disagrees with closed form at n={n} for "
                        f"{events.print_event(event)}: {rat_str(got)} != {rat_str(expected)}"
                    )
        if ray_mass != split_below:
            raise RuntimeError(
                f"ray mass {rat_str(ray_mass)} != split probability "
                f"{rat_str(split_below)} at n={n}"
            )
        rows.append({"n": n, "p_last_zero": rat_str(last_zero),
                     "p_last_zero_and_z_below": rat_str(split_below),
                     "p_last_zero_and_z_at": rat_str(split_at),
                     "ray_mass": rat_str(ray_mass)})
    report = branch_check(builtin_family("mu"), "n-1", 32)
    return {
        "rows": rows,
        "order_a": report.order_a.to_dict(),
        "order_b": report.order_b.to_dict(),
        "divergence_step": (
            "the per-n identities are exact; the routes part at the final "
            "substitution, where the limit of the numbers mu_n((-inf, n-1]) "
            f"(order b, {rat_str(report.order_b.value)}) is replaced by the mass "
            f"of the limiting set under the limiting measure (order a, "
            f"{rat_str(report.order_a.value)})"
        ),
    }
