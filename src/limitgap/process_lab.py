"""The coin-flip process: flips X_i, running maximum Y_n, last-argmax Z_n.

Outcomes of length n are enumerated exhaustively (2**n of them) with exact
rational probabilities.  The hot paths encode an outcome as the integer v
whose bit i-1 is X_i, so Y_n is "v != 0", Z_n is v.bit_length() for v > 0
(and n for the all-zeros outcome, where every index attains the maximum and
the largest is taken), and the outcome probability depends only on the
popcount of v.  The law of Z_n needs no scan: it has a closed form.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .errors import DomainError, KRangeError, NTooLargeError
from .measure_core import DiscreteMeasure, from_mass_pairs, rat_str

if TYPE_CHECKING:
    from types import ModuleType

    from .event_dsl import EventPredicate

MAX_ENUM_N = 24
MAX_LIST_N = 20  # enumerate_outcomes(20) peaks near 400 MB; each step up doubles it

FAIR = Fraction(1, 2)

_PACKAGE = sys.modules[__package__]  # the package generation this module belongs to


def _event_dsl() -> ModuleType:
    """The event language, which the package root loads on first use.

    It is read through this module's own package, not sys.modules, so after a
    re-import an event parsed by this generation is still compiled by it.
    """
    return _PACKAGE.event_dsl


class Outcome(NamedTuple):
    bits: tuple[int, ...]  # bits[i-1] is the i-th flip
    p: Fraction
    prob: Fraction


class ProcessRow(NamedTuple):
    outcome: Outcome
    y: int  # max of the bits
    z: int  # largest index attaining that max


def _checked(n: int, p: Fraction, cap: int | None = MAX_ENUM_N) -> Fraction:
    """p as a Fraction, once the horizon n (1 up to cap, if any) and the bias p are checked."""
    if n < 1:
        raise DomainError(f"horizon must be at least 1, got {n}")
    if cap is not None and n > cap:
        raise NTooLargeError(f"horizon {n} exceeds the enumeration cap {cap} (2**{n} outcomes)")
    p = Fraction(p)
    if not 0 < p < 1:
        raise DomainError(f"success probability must lie strictly in (0, 1), got {rat_str(p)}")
    return p


def _popcount_probs(n: int, p: Fraction) -> list[Fraction]:
    """prob of any fixed outcome with k ones, for k = 0..n."""
    q = 1 - p
    return [p**k * q ** (n - k) for k in range(n + 1)]


def _weighted(counts: list[int], probs: list[Fraction]) -> Fraction:
    """The total probability of counts[k] outcomes with k ones, one product per nonempty class."""
    return sum((count * probs[k] for k, count in enumerate(counts) if count), Fraction(0))


def _bit_table(width: int) -> list[tuple[int, ...]]:
    """table[v] is the bit tuple of v < 2**width, lowest bit first, built by doubling."""
    table: list[tuple[int, ...]] = [()]
    for _ in range(width):
        table = [b + (0,) for b in table] + [b + (1,) for b in table]
    return table


def iter_outcomes(n: int, p: Fraction = FAIR) -> Iterator[ProcessRow]:
    """All 2**n process rows in increasing order of the encoded outcome, one at a time.

    The arguments are checked at the call, not on the first row.  Row v's bit
    tuple is joined from two tables of 2**(n/2) tuples each, one for its low
    and one for its high bits, so no more than O(2**(n/2)) tuples are held.
    """
    return _rows(n, _checked(n, p))


def _rows(n: int, p: Fraction) -> Iterator[ProcessRow]:
    probs = _popcount_probs(n, p)
    half = n // 2
    mask = (1 << half) - 1
    lo_bits, hi_bits = _bit_table(half), _bit_table(n - half)
    for v in range(1 << n):
        y = 1 if v else 0
        z = v.bit_length() if v else n
        bits = lo_bits[v & mask] + hi_bits[v >> half]
        yield ProcessRow(Outcome(bits, p, probs[v.bit_count()]), y, z)


def enumerate_outcomes(n: int, p: Fraction = FAIR) -> list[ProcessRow]:
    """All 2**n process rows in increasing order of the encoded outcome: iter_outcomes as a list.

    Capped at n = MAX_LIST_N before any row is built; iter_outcomes streams up to MAX_ENUM_N.
    """
    rows = iter_outcomes(n, p)
    if n > MAX_LIST_N:
        raise NTooLargeError(
            f"horizon {n} exceeds the list cap {MAX_LIST_N} (2**{n} rows held at once);"
            " iter_outcomes yields them one at a time"
        )
    return list(rows)


def z_law(n: int, p: Fraction = FAIR) -> list[tuple[int, Fraction]]:
    """The law of Z_n in closed form, for any bias p = a/d: (point, mass) pairs, points 1 to n.

    Z_n = n - k < n exactly when flip n - k is 1 and the k flips after it
    are 0, so that atom carries p*q**k = a*b**k / d**(k+1) with q = b/d;
    Z_n = n when the last flip is 1 or every flip is 0, mass p + q**n.
    The total is exactly 1, and every mass is positive.
    """
    p = _checked(n, p, cap=None)
    a, d = p.numerator, p.denominator
    b = d - a
    pairs = [(n - k, Fraction(a * b**k, d ** (k + 1))) for k in range(n - 1, 0, -1)]
    pairs.append((n, p + Fraction(b**n, d**n)))
    return pairs


def z_distribution(n: int, p: Fraction = FAIR) -> DiscreteMeasure:
    """The distribution of Z_n: the pairs of z_law as a measure."""
    return from_mass_pairs(z_law(n, p))


def mu_closed_form(n: int) -> DiscreteMeasure:
    """The Z_n distribution for the fair coin: z_distribution(n, 1/2).

    Mass 2**-(n-j+1) at each j < n and 2**-1 + 2**-n at j = n.
    """
    return z_distribution(n, FAIR)


def lambda_measure() -> DiscreteMeasure:
    """The common distribution of every single flip: mass 1/2 at 0 and at 1."""
    return from_mass_pairs([(0, FAIR), (1, FAIR)])


def event_probability(n: int, p: Fraction, e: EventPredicate | str) -> Fraction:
    """Exact probability of an event over the length-n process.

    Scans all 2**n outcomes with the predicate compiled to a closure over
    the integer encoding, tallying matches per popcount so the rational
    arithmetic happens once per popcount class rather than once per outcome.
    """
    events = _event_dsl()
    p = _checked(n, p)
    if isinstance(e, str):
        e = events.parse_event(e)
    pred = events.compile_event(e, n)  # raises IndexOutOfRangeError for X[i], i > n
    counts = [0] * (n + 1)
    for v in range(1 << n):
        y = 1 if v else 0
        z = v.bit_length() if v else n
        if pred(v, y, z):
            counts[v.bit_count()] += 1
    return _weighted(counts, _popcount_probs(n, p))


def escaped_mass_profile(n: int, k_max: int) -> list[tuple[int, Fraction]]:
    """Masses mu_n({n-k}) for k = 0..k_max: the atoms marching off to +inf.

    k = 0 carries 1/2 + 2**-n; every k >= 1 carries exactly 2**-(k+1),
    independent of n — the mass that no bounded interval can retain.
    """
    _checked(n, FAIR, cap=None)  # n alone: the law read below is the fair coin's
    if not 0 <= k_max < n:
        raise KRangeError(f"k_max must lie in [0, {n - 1}], got {k_max}")
    masses = dict(z_law(n))
    return [(k, masses[n - k]) for k in range(k_max + 1)]
