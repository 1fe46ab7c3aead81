"""A tree-walking event interpreter: the oracle the compiled events are checked against.

It walks the parsed tree on one row, with its own table of comparison
operators, and shares nothing with `compile_event` but the node classes.
It short-circuits `&&` and `||`, so it reads an X[i] only on the branches it
takes: at n = 6, "X[1]==0 || X[7]==1" is True on the rows with X1 = 0 and
raises IndexOutOfRangeError on the others, where `eval_event` raises on all.
"""

import operator

from limitgap.errors import IndexOutOfRangeError
from limitgap.event_dsl import And, Cmp, EventPredicate, Lit, Node, Not, Term, Var

_CMP_FUNCS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def eval_event(e: EventPredicate, row) -> bool:
    """Evaluate a predicate on a ProcessRow (anything with .outcome/.y/.z)."""
    bits = row.outcome.bits
    return _eval_node(e.root if isinstance(e, EventPredicate) else e,
                      bits, row.y, row.z, len(bits))


def _eval_term(term: Term, bits, y: int, z: int, n: int) -> int:
    if isinstance(term, Lit):
        return term.value
    if isinstance(term, Var):
        return {"Y": y, "Z": z, "N": n}[term.name]
    index = n if term.index is None else term.index
    if index > n:
        raise IndexOutOfRangeError(f"X[{index}] referenced but horizon is {n}")
    return bits[index - 1]


def _eval_node(node: Node, bits, y: int, z: int, n: int) -> bool:
    if isinstance(node, Cmp):
        return _CMP_FUNCS[node.op](
            _eval_term(node.lhs, bits, y, z, n), _eval_term(node.rhs, bits, y, z, n)
        )
    if isinstance(node, Not):
        return not _eval_node(node.operand, bits, y, z, n)
    if isinstance(node, And):
        return _eval_node(node.lhs, bits, y, z, n) and _eval_node(
            node.rhs, bits, y, z, n
        )
    return _eval_node(node.lhs, bits, y, z, n) or _eval_node(node.rhs, bits, y, z, n)
