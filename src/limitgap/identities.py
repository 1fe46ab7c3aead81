"""The process identities, checked outcome by outcome.

`verify_process_identities` recomputes Y_n and Z_n from an explicit bit
tuple for each of the 2**n outcomes, so it is also an oracle for the integer
encoding in `process_lab`.  The package root loads this module on first use
of one of its names, and `process identities` imports it when it runs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .measure_core import _Record, _fields_json
from .process_lab import FAIR, _checked, _popcount_probs, _weighted


class IdentityReport(_Record):
    """Outcome-by-outcome verification of the process identities at horizon n.

    Checks Z_n <= n, X_{Z_n} = Y_n, and the event identity
    {X_n = 0, Z_n < n} = {Z_n < n} on every outcome, and reports the exact
    probability of both sides of the latter.  `all_hold` is derived from the
    three checks, so the constructor takes the other eight fields.
    """

    __slots__ = ("n", "rows_checked", "z_in_range", "argmax_attains_max", "set_identity",
                 "all_hold", "violations", "p_last_zero_and_z_below", "p_z_below")

    def __init__(self, n: int, rows_checked: int, z_in_range: bool, argmax_attains_max: bool,
                 set_identity: bool, violations: tuple[str, ...],
                 p_last_zero_and_z_below: Fraction, p_z_below: Fraction) -> None:
        all_hold = z_in_range and argmax_attains_max and set_identity
        super().__init__(n, rows_checked, z_in_range, argmax_attains_max, set_identity,
                         all_hold, violations, p_last_zero_and_z_below, p_z_below)

    to_dict = _fields_json


def verify_process_identities(n: int, p: Fraction = FAIR) -> IdentityReport:
    """Check the defining identities on all 2**n outcomes.

    Deliberately recomputes Y_n and Z_n from first principles (max over an
    explicit bit tuple, last index attaining it) rather than reusing the
    integer-encoding shortcuts, so this doubles as an oracle for them.  The
    hits on each side are tallied per popcount, as in event_probability.
    """
    p = _checked(n, p)
    probs = _popcount_probs(n, p)
    z_in_range = argmax_attains = set_identity = True
    violations: list[str] = []
    hits_both, hits_z_below = [0] * (n + 1), [0] * (n + 1)
    for bits in product((0, 1), repeat=n):
        y = max(bits)
        z = n - bits[::-1].index(y)  # the last index attaining y, 1-based
        ones = sum(bits)
        if not z <= n:
            z_in_range = False
            violations.append(f"{bits}: Z={z} exceeds n={n}")
        if bits[z - 1] != y:
            argmax_attains = False
            violations.append(f"{bits}: X[{z}]={bits[z - 1]} but Y={y}")
        in_left = bits[-1] == 0 and z < n
        in_right = z < n
        if in_left != in_right:
            set_identity = False
            violations.append(f"{bits}: X[N]==0&&Z<N is {in_left} but Z<N is {in_right}")
        if in_left:
            hits_both[ones] += 1
        if in_right:
            hits_z_below[ones] += 1
    return IdentityReport(
        n=n,
        rows_checked=1 << n,
        z_in_range=z_in_range,
        argmax_attains_max=argmax_attains,
        set_identity=set_identity,
        violations=tuple(violations[:8]),
        p_last_zero_and_z_below=_weighted(hits_both, probs),
        p_z_below=_weighted(hits_z_below, probs),
    )
