"""The polynomial parser against the one it replaced, kept here as the reference.

    PYTHONPATH=src python3 -m pytest tests/test_poly_parser.py

``parse_poly`` reads each product of literal factors, such as 3*x^2*y, as one
token.  Before that it read one token per number, variable and operator;
that lexer and its recursive descent are kept below, unchanged, and every
text must give both parsers the same polynomial, or the same exception type,
message and position.  The one intended difference, a literal with more
digits than ``int()`` reads, is tested in test_poly.py, not here.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Union

from hypothesis import example, given, settings
from hypothesis import strategies as st

from akforge.errors import InvalidInput, NegativeExponent, PolySyntaxError
from akforge.poly import (
    EXPANSION_BUDGET,
    LITERAL_POWER_BITS,
    NESTING_LIMIT,
    Monomial,
    Scalar,
    SparsePoly,
    _power,
    parse_poly,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import workloads  # noqa: E402

# -- the reference: the parser before products were lexed as one token -------

_NUM, _VAR, _OP, _LPAR, _RPAR, _END = range(6)

# One token after optional whitespace; the groups are a number with an
# optional denominator, a variable, an operator, '(', ')' and any other
# character, which is an error.
_TOKEN = re.compile(r"\s*(?:(\d+)(?:/(\d+))?|([xy])|([-+*^])|(\()|(\))|(\S))")
_KINDS = {3: _VAR, 4: _OP, 5: _LPAR, 6: _RPAR}


def _tokenize(text: str) -> list[tuple[int, object, int]]:
    tokens = []
    match, pos = _TOKEN.match, 0
    while (m := match(text, pos)) is not None:
        pos = m.end()
        group = m.lastindex
        if group == 1:
            tokens.append((_NUM, int(m[1]), m.start(1)))
        elif group == 2:
            den = int(m[2])
            if den == 0:
                raise PolySyntaxError("zero denominator in rational literal", m.start(2))
            tokens.append((_NUM, Fraction(int(m[1]), den), m.start(1)))
        elif group == 7:
            raise PolySyntaxError(f"unexpected character {m[7]!r}", m.start(7))
        else:
            tokens.append((_KINDS[group], m[group], m.start(group)))
    tokens.append((_END, None, len(text)))
    return tokens


_Value = Union[tuple, SparsePoly]


def _as_poly(v: _Value) -> SparsePoly:
    if isinstance(v, SparsePoly):
        return v
    c, ex, ey = v
    return SparsePoly._wrap({Monomial(ex, ey): Fraction(c)} if c else {})


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.pairs = 0
        self.depth = 0

    def product(self, a: SparsePoly, b: SparsePoly) -> SparsePoly:
        """a * b, charged its len(a) * len(b) term products against EXPANSION_BUDGET."""
        self.pairs += len(a) * len(b)
        if self.pairs > EXPANSION_BUDGET:
            raise InvalidInput(
                f"expanding the input forms more than {EXPANSION_BUDGET} term products"
            )
        return a * b

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str):
        raise PolySyntaxError(message, self.peek()[2])

    def parse(self) -> SparsePoly:
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != _END:
            self.fail("unexpected trailing input")
        return node

    def expr(self) -> SparsePoly:
        acc: dict[tuple[int, int], Scalar] = {}
        sign = 1
        while True:
            node = self.term()
            if isinstance(node, SparsePoly):
                items = node._terms.items()
            else:
                c, ex, ey = node
                items = (((ex, ey), c),)
            for m, c in items:
                acc[m] = acc.get(m, 0) + sign * c
            kind, val, _ = self.peek()
            if kind == _OP and val in "+-":
                self.advance()
                sign = 1 if val == "+" else -1
            else:
                return SparsePoly._wrap(
                    {Monomial(*m): Fraction(c) for m, c in acc.items() if c}
                )

    def term(self) -> _Value:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == _OP and val == "*":
                self.advance()
                rhs = self.factor()
                if isinstance(node, tuple) and isinstance(rhs, tuple):
                    node = (node[0] * rhs[0], node[1] + rhs[1], node[2] + rhs[2])
                else:
                    node = self.product(_as_poly(node), _as_poly(rhs))
            else:
                return node

    def factor(self) -> _Value:
        sign = 1
        while True:
            kind, val, _ = self.peek()
            if kind == _OP and val in "+-":
                self.advance()
                if val == "-":
                    sign = -sign
            else:
                break
        node = self.power()
        if sign > 0:
            return node
        return -node if isinstance(node, SparsePoly) else (-node[0], node[1], node[2])

    def power(self) -> _Value:
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == _OP and val == "^":
            self.advance()
            kind, val, pos = self.peek()
            if kind == _OP and val == "-":
                raise NegativeExponent("exponent must be non-negative", pos)
            if kind != _NUM:
                self.fail("expected integer exponent after '^'")
            if isinstance(val, Fraction):
                # a rational literal, even 4/2: the grammar has no '/', so x^4/2 is not x^2
                self.fail("exponent must be an integer literal")
            self.advance()
            e = val
            if isinstance(node, SparsePoly) and len(node) == 1:
                # a single term, such as (3*x), is raised as a monomial value
                ((ex, ey), c), = node._terms.items()
                node = (c, ex, ey)
            if isinstance(node, SparsePoly):
                return _power(node, e, self.product)
            c, ex, ey = node
            if c not in (0, 1, -1):
                bits = e * (abs(c.numerator).bit_length() + c.denominator.bit_length())
                if bits > LITERAL_POWER_BITS:
                    raise InvalidInput(
                        f"a number to the power {e} passes {LITERAL_POWER_BITS} bits"
                    )
            return (c**e, ex * e, ey * e)
        return node

    def atom(self) -> _Value:
        kind, val, _ = self.peek()
        if kind == _NUM:
            self.advance()
            return (val, 0, 0)
        if kind == _VAR:
            self.advance()
            return (1, 1, 0) if val == "x" else (1, 0, 1)
        if kind == _LPAR:
            if self.depth == NESTING_LIMIT:
                self.fail(f"parentheses nested more than {NESTING_LIMIT} deep")
            self.depth += 1
            self.advance()
            node = self.expr()
            kind, _, _ = self.peek()
            if kind != _RPAR:
                self.fail("expected ')'")
            self.advance()
            self.depth -= 1
            return node
        self.fail("expected a number, variable, or '('")


def reference_parse(text: str) -> SparsePoly:
    return _Parser(text).parse()


# -- the differential test ----------------------------------------------------


def outcome(parse, text: str) -> tuple:
    """("ok", polynomial), or the exception's type, message and position."""
    try:
        return ("ok", parse(text))
    except Exception as exc:
        return (type(exc), str(exc), getattr(exc, "position", None))


def workload_texts() -> list[str]:
    """Every polynomial text of germ-classify and oracle-crosscheck at seeds 101-103."""
    texts = []
    for seed in (101, 102, 103):
        for name in ("germ-classify", "oracle-crosscheck"):
            for inp in workloads.make_inputs(name, seed):
                argv = inp.get("argv", [])
                if "poly" in inp:
                    texts.append(inp["poly"])
                elif "--poly" in argv:
                    texts.append(argv[argv.index("--poly") + 1])
    return list(dict.fromkeys(texts))


# Token strings: operators, literals, the powers that the new lexer reads
# with its factors, spaces, a zero denominator and two characters the grammar
# has no use for.
PIECES = (
    "x", "y", "0", "2", "10", "1/2", "4/2", "1/0", "+", "-", "*", "^", "(", ")",
    "^2", "^0", "^-1", "$", "\u00b2", " ",
)
TOKEN_STRINGS = st.lists(st.sampled_from(PIECES), max_size=24).map("".join)


def grow(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(("+", "-", "*", " + ", " * ")), inner).map("".join),
        st.tuples(st.sampled_from(("-", "+", "- ")), inner).map("".join),
        inner.map("({})".format),
        st.tuples(inner, st.sampled_from(("^2", "^0", "^3", " ^ 2", "^02"))).map("".join),
    )


# Most token strings fail at their first few characters, so texts are also
# grown from the grammar, and some of those get one piece inserted.
LITERALS = st.sampled_from(("x", "y", "0", "2", "10", "1/2", "4/2"))
EXPRESSIONS = st.recursive(LITERALS, grow, max_leaves=8)
INSERTED = st.tuples(EXPRESSIONS, st.integers(0, 60), st.sampled_from(PIECES)).map(
    lambda t: t[0][: t[1]] + t[2] + t[0][t[1] :]
)
EXAMPLES = (
    "x^2^3", "2^0^-1", "(3^0^", "x^4/2", "x^1/2 + 1",
    "1/0*x", "1/00$", "(x+y)^2*3", "x*-y", "2 * x ^ 3", "x^02",
    "3^100000000000*x + y^2",
    # a number power past the bit budget is refused where it is parsed, so
    # an unknown character, a zero denominator or an earlier error comes first
    "3^100000000000*x $", "2^100000000000*1/0", ") + 3^100000000000",
    # and so is a coefficient past it that a product forms
    "2^3333*2^3333*2^3333*2^3333*x $", ") + 2^3333*2^3333*2^3333*2^3333",
    "x^y + (2^3333*x + 1)^8",
)


def differential(test):
    for text in (*EXAMPLES, *workload_texts()):
        test = example(text)(test)
    return test


@settings(derandomize=True, deadline=None, max_examples=1500)
@given(st.one_of(TOKEN_STRINGS, EXPRESSIONS, INSERTED))
@differential
def test_parser_matches_the_reference(text):
    assert outcome(parse_poly, text) == outcome(reference_parse, text)

