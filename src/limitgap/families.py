"""The family model: indexed sequences n -> probability measure.

A family is one of the builtins (mu, the coin-flip argmax laws; lambda, the
fair coin on {0, 1}; dirac_n, the unit mass at n) or a table of measures.
Each builtin also has its member n as a cdf on the integers and its weak
limit, built once here.  `measure show` and `compactify` read a member and
nothing else, so this module is kept apart from the limit machinery of
`convergence_lab`, which imports it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import DomainError
from .measure_core import POS_INF, DiscreteMeasure, _Record, dirac, finite, rat_str
from .process_lab import FAIR, lambda_measure, mu_closed_form


def _check_index(n: int, table: tuple | None, noun: str, table_noun: str) -> None:
    """Refuse a 1-based index below 1, or past the end of a table."""
    if n < 1:
        raise DomainError(f"{noun} index must be at least 1, got {n}")
    if table is not None and n > len(table):
        raise DomainError(f"{table_noun} has {len(table)} members, index {n} requested")


class MeasureFamily(_Record):
    """An indexed sequence n -> probability measure, built-in or tabulated."""

    __slots__ = ("kind", "table")  # kind: "mu", "lambda", "dirac_n", or "table"

    def __init__(self, kind: str, table: tuple[DiscreteMeasure, ...] | None = None) -> None:
        if kind != "table" and table is not None:
            raise DomainError(f"a {kind} family takes no table")
        if table is None and kind not in _BUILTIN_CDFS:
            raise DomainError(
                f"unknown builtin family {kind!r}; use mu, lambda, dirac_n, "
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
        if self.kind == "mu":
            return mu_closed_form(n)
        if self.kind == "lambda":
            return _BUILTIN_LIMITS["lambda"]  # every member is its weak limit
        if self.kind == "dirac_n":
            return dirac(finite(n))
        return self.table[n - 1]


# Each builtin's member n as a cdf on the integers, its whole support:
# (n, j) -> the mass of (-inf, j].
_BUILTIN_CDFS: dict[str, Callable[[int, int], Fraction]] = {
    "mu": lambda n, j: Fraction(0) if j < 1 else Fraction(1) if j >= n
    else Fraction(2**j - 1, 2**n),
    "lambda": lambda n, j: Fraction(0) if j < 0 else FAIR if j == 0 else Fraction(1),
    "dirac_n": lambda n, j: Fraction(j >= n),
}
# Each builtin's weak limit, built once: mu's and dirac_n's mass escapes to +inf.
_BUILTIN_LIMITS = {"mu": dirac(POS_INF), "lambda": lambda_measure(), "dirac_n": dirac(POS_INF)}


def builtin_family(name: str) -> MeasureFamily:
    return MeasureFamily(name)


def table_family(measures: Sequence[DiscreteMeasure]) -> MeasureFamily:
    return MeasureFamily("table", tuple(measures))

