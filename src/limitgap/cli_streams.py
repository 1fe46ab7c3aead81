"""The text of the two commands that stream their rows: `process enumerate` and `plotdata`.

Each writes what `cli._Output` would print for its rows, in every format, a
block of rows at a time; the text around the rows comes from `_frame`.  Only
those two commands import this module, so no other command loads it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import accumulate
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

from .measure_core import rat_str
from .process_lab import _bit_table, _popcount_probs, z_law


class _Frame(NamedTuple):
    """The text around a table's rows in one format, known before any row.

    A row is seps[0] + its first value + seps[1] + ... + its last value +
    seps[-1], each value padded to its column's width, and the rows stand
    between head and foot.
    """

    head: str
    seps: tuple[str, ...]
    widths: tuple[int, ...]
    foot: str

    def around(self, blocks: Iterable[str]) -> Iterator[str]:
        """The head, the blocks of whole rows from the first row on, then the foot."""
        blocks = iter(blocks)
        # json's seps[0] opens with the comma between rows, which the first row goes without
        yield self.head + next(blocks).removeprefix(self.seps[0][:1])
        yield from blocks
        yield self.foot


def _frame(fmt: str, keys: dict[str, Any], rows_key: str,
           columns: Sequence[tuple[str, int, bool]]) -> _Frame:
    """What `cli._Output` prints around the rows of {**keys, rows_key: rows}, for at least one row.

    Each column is (name, its widest value's length, whether json quotes its values).
    """
    names = [name for name, _, _ in columns]
    if fmt == "json":  # what JSONEncoder(indent=2) prints
        quotes = ['"' if text else "" for _, _, text in columns]
        opens = [f"\n      {json.dumps(name)}: {quote}" for name, quote in zip(names, quotes)]
        seps = (",\n    {" + opens[0], *map("{},{}".format, quotes, opens[1:]), quotes[-1] + "\n    }")
        head = "".join(f"\n  {json.dumps(key)}: {json.dumps(value)}," for key, value in keys.items())
        head = f"{{{head}\n  {json.dumps(rows_key)}: ["
        return _Frame(head, seps, (0,) * len(columns), "\n  ]\n}\n")
    if fmt == "csv":  # what csv.writer prints: the values need no quoting
        sep, end, widths = ",", "\r\n", [0] * len(columns)
    else:  # what cli._rows_table prints: every column padded to its widest entry
        sep, end = "  ", "\n"
        widths = [max(len(name), widest) for name, widest, _ in columns]
    head = sep.join(map(str.ljust, names, widths)) + end
    return _Frame(head, ("", *(sep for _ in columns[1:]), end), tuple(widths), "")


_BIT_DIGITS = bytes.maketrans(b"\0\1", b"01")


def enumerate_blocks(n: int, p: Fraction, fmt: str) -> Iterator[str]:
    """The text of `process enumerate`: the header, one block per high half, the footer.

    Row v's line is lo_text[v & mask] + suffix[popcount(v & mask)], where the
    n // 2 + 1 suffixes of high half h = v >> half hold its bits, Y, Z and
    the probability of popcount(h) + k ones.  For h > 0, Y is 1 and Z is
    h.bit_length() + half; the h = 0 block splits by lo.bit_length().  Every
    column's width is known before any row: the table pads the suffixes.
    """
    half = n // 2
    probs = [rat_str(prob) for prob in _popcount_probs(n, p)]
    frame = _frame(fmt, {"n": n, "p": rat_str(p)}, "rows", (
        ("bits", n, True), ("prob", max(map(len, probs)), True),
        ("y", 1, False), ("z", len(str(n)), False)))
    lead, to_prob, to_y, to_z, end = frame.seps
    bits_w, prob_w, y_w, z_w = frame.widths
    lo_text, hi_text = ([start + bytes(b).translate(_BIT_DIGITS).decode() for b in _bit_table(width)]
                        for start, width in ((lead, half), ("", n - half)))
    lo_ones = list(map(int.bit_count, range(1 << half)))

    def lines(h: int, y: int, z: int, lo: slice) -> str:
        head = hi_text[h].ljust(bits_w - half) + to_prob
        tail = f"{to_y}{str(y).ljust(y_w)}{to_z}{str(z).ljust(z_w)}{end}"
        ones = h.bit_count()
        suffix = [head + probs[ones + k].ljust(prob_w) + tail for k in range(half + 1)]
        return "".join(map(str.__add__, lo_text[lo], map(suffix.__getitem__, lo_ones[lo])))

    def blocks() -> Iterator[str]:
        yield lines(0, 0, n, slice(1)) + "".join(
            lines(0, 1, z, slice(1 << (z - 1), 1 << z)) for z in range(1, half + 1))
        for h in range(1, 1 << (n - half)):
            yield lines(h, 1, h.bit_length() + half, slice(None))

    return frame.around(blocks())


def plot_blocks(n_max: int, fmt: str) -> Iterator[str]:
    """The text of `plotdata`: the header, one block per member n, the footer.

    Member n's atom at j < n carries the mass of z_law(n_max)'s atom at
    n_max - (n - j), the same for every n, so each is formatted once; its top
    atom at n carries 1 minus the masses below it.
    """
    masses = [mass for _, mass in z_law(n_max)[:-1]]  # at n_max - k, k = n_max - 1 down to 1
    shared = list(map(rat_str, masses))
    tops = [rat_str(1 - below) for below in accumulate(reversed(masses), initial=Fraction(0))]
    frame = _frame(fmt, {"n_max": n_max}, "segments", (
        ("n", len(str(n_max)), False), ("j", len(str(n_max)) + 2, True),
        ("mass", max(map(len, (*shared, *tops))), True)))
    lead, to_j, to_mass, end = frame.seps
    n_w, j_w, mass_w = frame.widths
    # j as str(finite(j)) prints it
    js = [f"{to_j}{f'{j}/1'.ljust(j_w)}{to_mass}" for j in range(1, n_max + 1)]
    shared_ends, top_ends = ([mass.ljust(mass_w) + end for mass in texts]
                             for texts in (shared, tops))

    def member(n: int) -> str:
        head = lead + str(n).ljust(n_w)
        ends = (*shared_ends[n_max - n:], top_ends[n - 1])
        return "".join(head + j + mass for j, mass in zip(js, ends))

    return frame.around(map(member, range(1, n_max + 1)))
