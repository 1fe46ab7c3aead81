"""A tiny boolean expression language over coin-flip process variables.

Grammar (whitespace insignificant, keywords case-sensitive):

    expr       := or_expr
    or_expr    := and_expr ( "||" and_expr )*
    and_expr   := unary ( "&&" unary )*
    unary      := "!" unary | "(" expr ")" | comparison
    comparison := term cmp_op term
    cmp_op     := "==" | "!=" | "<" | "<=" | ">" | ">="
    term       := INT | "Y" | "Z" | "N" | "X" "[" ( INT | "N" ) "]"

X[i] is the i-th flip (i >= 1), X[N] the last one; Y is the running maximum,
Z the last index attaining it, N the horizon.  Indices are integer literals
or the symbol N only — X[Z] is deliberately not expressible, which keeps
evaluation first-order and the grammar LL(1).  INT is a run of decimal (Unicode Nd)
digits.  An event has at most MAX_TOKENS = 256 tokens, counted as printed, with "!"
as "!(...)": room for 126 nested parentheses, 84 nested "!" or 64 comparisons.
"""

from __future__ import annotations

import operator
import re
from typing import Callable

from .errors import EventParseError, IndexOutOfRangeError
from .measure_core import _Record

_CMP_FUNCS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_TERM_EXPECTED = ("integer", "X", "Y", "Z", "N")
_START_EXPECTED = ("!", "(") + _TERM_EXPECTED

MAX_TOKENS = 256
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<int>\d+)|(?P<cmp>[=!<>]=|[<>])"
    r"|(?P<punct>&&|\|\||[!()\[\]])|(?P<name>[XYZN])|(?P<bad>.)"
)


class Lit(_Record):
    __slots__ = ("value",)  # an int


class Var(_Record):
    __slots__ = ("name",)  # "Y", "Z", or "N"


class Coord(_Record):
    __slots__ = ("index",)  # X[index], or X[N] when None


Term = Lit | Var | Coord


class Cmp(_Record):
    __slots__ = ("op", "lhs", "rhs")  # an operator of _CMP_FUNCS between two Terms


class Not(_Record):
    __slots__ = ("operand",)  # a Node


class And(_Record):
    __slots__ = ("lhs", "rhs")  # two Nodes


class Or(_Record):
    __slots__ = ("lhs", "rhs")  # two Nodes


Node = Cmp | Not | And | Or


class EventPredicate(_Record):
    """A parsed event expression; compile_event evaluates it, and eval_event wraps that."""

    __slots__ = ("root",)  # a Node

    def max_coord_index(self) -> int:
        """Largest literal index used in any X[i]; 0 if none (X[N] adapts)."""
        return _max_index(self.root)


def _max_index(node: Node) -> int:
    if isinstance(node, Cmp):
        best = 0
        for term in (node.lhs, node.rhs):
            if isinstance(term, Coord) and term.index is not None:
                best = max(best, term.index)
        return best
    if isinstance(node, Not):
        return _max_index(node.operand)
    return max(_max_index(node.lhs), _max_index(node.rhs))


class _Token(_Record):
    # kind: "int", "name", "cmp", "&&", "||", "!", "(", ")", "[", "]" or "eof"
    __slots__ = ("kind", "text", "line", "col")


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start, size = 1, 0, 0
    for m in _TOKEN_RE.finditer(src):
        kind, text, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            if text in "&|=":
                raise EventParseError(f"lone {text!r}", line, col, (text * 2,))
            raise EventParseError(f"unexpected character {text!r}", line, col, _START_EXPECTED)
        elif kind != "space":
            # a "!" with no "(" after it counts 3, as the printer writes "!(...)"
            size += 3 if tokens and tokens[-1].kind == "!" and text != "(" else 1
            if size > MAX_TOKENS:
                raise EventParseError(f"over {MAX_TOKENS} tokens", line, col, ("end of input",))
            tokens.append(_Token(text if kind == "punct" else kind, text, line, col))
    tokens.append(_Token("eof", "", line, len(src) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, expected: tuple[str, ...]) -> EventParseError:
        tok = self.peek()
        return EventParseError(message, tok.line, tok.col, expected)

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise self.fail(f"expected {kind!r}, found {tok.text!r}", (kind,))
        return self.advance()

    def parse_expr(self) -> Node:
        node = self.parse_and()
        while self.peek().kind == "||":
            self.advance()
            node = Or(node, self.parse_and())
        return node

    def parse_and(self) -> Node:
        node = self.parse_unary()
        while self.peek().kind == "&&":
            self.advance()
            node = And(node, self.parse_unary())
        return node

    def parse_unary(self) -> Node:
        tok = self.peek()
        if tok.kind == "!":
            self.advance()
            return Not(self.parse_unary())
        if tok.kind == "(":
            self.advance()
            node = self.parse_expr()
            self.expect(")")
            return node
        return self.parse_comparison()

    def parse_comparison(self) -> Node:
        lhs = self.parse_term()
        tok = self.peek()
        if tok.kind != "cmp":
            raise self.fail(
                f"expected a comparison operator, found {tok.text or 'end of input'!r}",
                tuple(_CMP_FUNCS),
            )
        op = self.advance().text
        rhs = self.parse_term()
        return Cmp(op, lhs, rhs)

    def parse_int(self) -> int:
        tok = self.advance()
        try:
            return int(tok.text)
        except ValueError:  # more digits than sys.get_int_max_str_digits() allows
            message = f"integer literal of {len(tok.text)} digits is too long"
            raise EventParseError(message, tok.line, tok.col, ("shorter integer",)) from None

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            return Lit(self.parse_int())
        if tok.kind == "name":
            self.advance()
            if tok.text != "X":
                return Var(tok.text)
            self.expect("[")
            idx_tok = self.peek()
            if idx_tok.kind == "int":
                index = self.parse_int()
                if index < 1:
                    raise EventParseError(
                        f"coordinate index must be at least 1, found {index}",
                        idx_tok.line,
                        idx_tok.col,
                        ("positive integer", "N"),
                    )
            elif idx_tok.kind == "name" and idx_tok.text == "N":
                self.advance()
                index = None
            else:
                raise self.fail(
                    f"expected a coordinate index, found {idx_tok.text or 'end of input'!r}",
                    ("positive integer", "N"),
                )
            self.expect("]")
            return Coord(index)
        raise self.fail(
            f"expected a term, found {tok.text or 'end of input'!r}", _TERM_EXPECTED
        )


def parse_event(src: str) -> EventPredicate:
    """Parse an event expression; errors carry line, column, and expectations."""
    tokens = _tokenize(src)
    if tokens[0].kind == "eof":
        raise EventParseError("empty event expression", 1, 1, _START_EXPECTED)
    parser = _Parser(tokens)
    root = parser.parse_expr()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise EventParseError(
            f"unexpected trailing input {trailing.text!r}",
            trailing.line,
            trailing.col,
            ("&&", "||", "end of input"),
        )
    return EventPredicate(root)


def print_event(e: EventPredicate | Node) -> str:
    """Canonical text form; parse(print(e)) is structurally equal to e."""
    node = e.root if isinstance(e, EventPredicate) else e
    return _print_node(node)


def _print_term(term: Term) -> str:
    if isinstance(term, Lit):
        return str(term.value)
    if isinstance(term, Var):
        return term.name
    return "X[N]" if term.index is None else f"X[{term.index}]"


# How loosely each node binds.  A side binding more loosely than its operator
# is parenthesised, and a right side binding as loosely too: the parser groups left.
_LOOSENESS = {Cmp: 0, Not: 0, And: 1, Or: 2}


def _print_node(node: Node) -> str:
    if isinstance(node, Cmp):
        return f"{_print_term(node.lhs)}{node.op}{_print_term(node.rhs)}"
    if isinstance(node, Not):
        return f"!({_print_node(node.operand)})"
    if not isinstance(node, (And, Or)):
        raise TypeError(f"not an event node: {node!r}")
    lhs, rhs, looseness = _print_node(node.lhs), _print_node(node.rhs), _LOOSENESS[type(node)]
    if _LOOSENESS[type(node.lhs)] > looseness:
        lhs = f"({lhs})"
    if _LOOSENESS[type(node.rhs)] >= looseness:
        rhs = f"({rhs})"
    return f"{lhs} {'&&' if isinstance(node, And) else '||'} {rhs}"


def eval_event(e: EventPredicate, row) -> bool:
    """Evaluate a predicate on a ProcessRow (anything with .outcome/.y/.z).

    This is compile_event at the row's horizon n = len(row.outcome.bits), so
    it raises IndexOutOfRangeError for any X[i] with i > n, on every row.
    """
    bits = row.outcome.bits
    v = sum(bit << i for i, bit in enumerate(bits))
    return compile_event(e, len(bits))(v, row.y, row.z)


def compile_event(e: EventPredicate, n: int) -> Callable[[int, int, int], bool]:
    """Compile a predicate to a closure over (v, y, z) for a fixed horizon n.

    v is the outcome as an integer with bit i-1 holding X_i, which lets
    exhaustive scans of all 2**n outcomes skip building bit tuples.  Raises
    IndexOutOfRangeError immediately if any X[i] has i > n.
    """
    root = e.root if isinstance(e, EventPredicate) else e
    return _compile_node(root, n)


def _compile_term(term: Term, n: int) -> Callable[[int, int, int], int]:
    if isinstance(term, Lit):
        value = term.value
        return lambda v, y, z: value
    if isinstance(term, Var):
        if term.name == "Y":
            return lambda v, y, z: y
        if term.name == "Z":
            return lambda v, y, z: z
        return lambda v, y, z: n
    index = n if term.index is None else term.index
    if index > n:
        raise IndexOutOfRangeError(f"X[{index}] referenced but horizon is {n}")
    shift = index - 1
    return lambda v, y, z: (v >> shift) & 1


def _compile_node(node: Node, n: int) -> Callable[[int, int, int], bool]:
    if isinstance(node, Cmp):
        func = _CMP_FUNCS[node.op]
        lhs = _compile_term(node.lhs, n)
        rhs = _compile_term(node.rhs, n)
        return lambda v, y, z: func(lhs(v, y, z), rhs(v, y, z))
    if isinstance(node, Not):
        inner = _compile_node(node.operand, n)
        return lambda v, y, z: not inner(v, y, z)
    lhs = _compile_node(node.lhs, n)
    rhs = _compile_node(node.rhs, n)
    if isinstance(node, And):
        return lambda v, y, z: lhs(v, y, z) and rhs(v, y, z)
    return lambda v, y, z: lhs(v, y, z) or rhs(v, y, z)
