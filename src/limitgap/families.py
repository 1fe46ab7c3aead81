"""The family model: indexed sequences n -> probability measure.

A family is one of the builtins (mu, the coin-flip argmax laws; lambda, the
fair coin on {0, 1}; dirac_n, the unit mass at n) or a table of measures.
A builtin is one row of `_BUILTINS`: member n, its cdf, the weak limit (built
once here) and the tightness verdict.  `measure show` and `compactify` read a
member and nothing else, so this module is kept apart from the limit
machinery of `convergence_lab`, which imports it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .measure_core import POS_INF, DiscreteMeasure, MeasurableSet, _Record, dirac, finite, rat_str
from .process_lab import FAIR, lambda_measure, mu_closed_form


def _check_index(n: int, table: tuple | None, noun: str, table_noun: str) -> None:
    """Refuse a 1-based index below 1, or past the end of a table."""
    if n < 1:
        raise DomainError(f"{noun} index must be at least 1, got {n}")
    if table is not None and n > len(table):
        raise DomainError(f"{table_noun} has {len(table)} members, index {n} requested")


class _Builtin(_Record):
    """A builtin: n -> member n, its cdf (n, j) -> the mass of (-inf, j] on the
    integers, the weak limit, and epsilon -> (tight, witness, interval)."""

    __slots__ = ("member", "cdf", "limit", "tightness")


def _mu_tightness(epsilon: Fraction) -> tuple[bool, str, None]:
    k = 0
    while Fraction(1, 2 ** (k + 1)) > 1 - epsilon:
        k += 1
    if k == 0:
        return False, ("for every n, mu_n({n}) = 1/2 + 2^-n > 1/2 >= epsilon, and the atom at n "
                       "eventually leaves any bounded interval"), None
    return False, (f"for every n, the top {k + 1} atoms carry mu_n({{n-{k}..n}}) = 1 - 2^-{k + 1} "
                   "+ 2^-n >= epsilon, and they eventually leave any bounded interval"), None


_BUILTINS = {
    "mu": _Builtin(
        member=lambda n: mu_closed_form(n),  # looked up per call, as a tracer's wrapper needs
        cdf=lambda n, j: Fraction(0) if j < 1 else Fraction(1) if j >= n else Fraction(2**j - 1, 2**n),
        limit=dirac(POS_INF),  # the atom at n carries mass 1/2 + 2^-n off to +inf
        tightness=_mu_tightness,
    ),
    "lambda": _Builtin(
        member=lambda n: _BUILTINS["lambda"].limit,  # every member is its weak limit
        cdf=lambda n, j: Fraction(0) if j < 0 else FAIR if j == 0 else Fraction(1),
        limit=lambda_measure(),
        tightness=lambda epsilon: (True, "every member is supported on {0, 1}, so each keeps "
                                   "all of its mass inside [0, 1] and sup_n lambda_n(complement) "
                                   "= 0 < epsilon", MeasurableSet.interval(finite(0), finite(1))),
    ),
    "dirac_n": _Builtin(
        member=lambda n: dirac(finite(n)),
        cdf=lambda n, j: Fraction(j >= n),
        limit=dirac(POS_INF),
        tightness=lambda epsilon: (False, "member n has its whole unit mass at {n}, which leaves "
                                   "any bounded interval once n passes its right endpoint, so "
                                   "sup_n rho_n(I^c) = 1 >= epsilon", None),
    ),
}


class MeasureFamily(_Record):
    """An indexed sequence n -> probability measure, built-in or tabulated."""

    __slots__ = ("kind", "table")  # kind: a name in _BUILTINS, or "table"

    def __init__(self, kind: str, table: tuple[DiscreteMeasure, ...] | None = None) -> None:
        if kind != "table" and table is not None:
            raise DomainError(f"a {kind} family takes no table")
        if table is None and kind not in _BUILTINS:
            raise DomainError(
                f"unknown builtin family {kind!r}; use {', '.join(_BUILTINS)}, "
                "or a table of measures (@file.json)"
            )
        if table is not None and not table:
            raise DomainError("explicit family needs at least one measure")
        for i, m in enumerate(table or (), start=1):
            if not m.is_probability:
                raise DomainError(
                    f"family member {i} has total {rat_str(m.total)}, not a probability"
                )
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "table", table)

    def member(self, n: int) -> DiscreteMeasure:
        _check_index(n, self.table, "family", "explicit family")
        return _BUILTINS[self.kind].member(n) if self.table is None else self.table[n - 1]


def builtin_family(name: str) -> MeasureFamily:
    return MeasureFamily(name)


def table_family(measures: Sequence[DiscreteMeasure]) -> MeasureFamily:
    return MeasureFamily("table", tuple(measures))
