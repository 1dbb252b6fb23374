"""Exact sparse bivariate polynomials over the rationals.

A polynomial is a map from exponent pairs to nonzero ``Fraction``
coefficients.  The two variables are positional; they print as ``x`` and
``y`` by default but are reinterpreted as ``(x, z)`` by the series layer.

Canonical term order is graded lexicographic with x > y, listed leading
term first.  Serialization (text and JSON) always uses this order, so equal
polynomials serialize identically.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Union

from .errors import InvalidInput, NegativeExponent, PolySyntaxError

Rational = Fraction
Scalar = Union[int, Fraction]


class Monomial(NamedTuple):
    ex: int
    ey: int

    @property
    def degree(self) -> int:
        return self.ex + self.ey


def _grlex_key(m: Monomial) -> tuple[int, int]:
    # Sort key for descending graded-lex with x > y.
    return (-(m.ex + m.ey), -m.ex)


def _var_index(var: str) -> int:
    if var == "x":
        return 0
    if var == "y":
        return 1
    raise ValueError(f"unknown variable {var!r}; expected 'x' or 'y'")


class SparsePoly:
    """Immutable sparse polynomial in two variables with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | Iterable[tuple[tuple[int, int], Scalar]] = ()):
        data: dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (ex, ey), c in items:
            if isinstance(c, float):
                raise InvalidInput(f"coefficient {c!r} is a float; give an int or Fraction")
            try:
                ex, ey = operator.index(ex), operator.index(ey)
            except TypeError:
                raise InvalidInput(f"exponents {(ex, ey)!r} must be integers") from None
            if ex < 0 or ey < 0:
                raise ValueError("monomial exponents must be non-negative")
            c = Fraction(c)
            if c:
                m = Monomial(ex, ey)
                c = data.get(m, _ZERO) + c
                if c:
                    data[m] = c
                elif m in data:
                    del data[m]
        self._terms = data

    # -- constructors ------------------------------------------------------

    @classmethod
    def _wrap(cls, data: dict[Monomial, Fraction]) -> "SparsePoly":
        """Adopt an already canonical term dict without re-checking it.

        The keys must be Monomials and the values nonzero Fractions; every
        input check lives in the public constructor.
        """
        out = cls.__new__(cls)
        out._terms = data
        return out

    @classmethod
    def zero(cls) -> "SparsePoly":
        return _POLY_ZERO

    @classmethod
    def one(cls) -> "SparsePoly":
        return _POLY_ONE

    @classmethod
    def constant(cls, c: Scalar) -> "SparsePoly":
        return cls({(0, 0): c})

    @classmethod
    def variable(cls, var: str) -> "SparsePoly":
        return _POLY_X if _var_index(var) == 0 else _POLY_Y

    @classmethod
    def term(cls, ex: int, ey: int, c: Scalar = 1) -> "SparsePoly":
        return cls({(ex, ey): c})

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Yield (monomial, coefficient) pairs in canonical order."""
        for m in sorted(self._terms, key=_grlex_key):
            yield m, self._terms[m]

    def coefficient(self, ex: int, ey: int) -> Fraction:
        return self._terms.get(Monomial(ex, ey), _ZERO)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        return max((m.degree for m in self._terms), default=-1)

    def degree_in(self, var: str) -> int:
        i = _var_index(var)
        return max((m[i] for m in self._terms), default=-1)

    def order(self) -> int | float:
        """Minimum term degree (m-adic order); +inf for zero."""
        return min((m.degree for m in self._terms), default=math.inf)

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SparsePoly):
            return self._terms == other._terms
        return NotImplemented

    def __neg__(self) -> "SparsePoly":
        return SparsePoly._wrap({m: -c for m, c in self._terms.items()})

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        if not isinstance(other, SparsePoly):
            return NotImplemented
        data = dict(self._terms)
        for m, c in other._terms.items():
            s = data.get(m, _ZERO) + c
            if s:
                data[m] = s
            elif m in data:
                del data[m]
        return SparsePoly._wrap(data)

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly | Scalar") -> "SparsePoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, SparsePoly):
            return NotImplemented
        data: dict[Monomial, Fraction] = {}
        for (ax, ay), ac in self._terms.items():
            for (bx, by), bc in other._terms.items():
                m = Monomial(ax + bx, ay + by)
                s = data.get(m, _ZERO) + ac * bc
                if s:
                    data[m] = s
                elif m in data:
                    del data[m]
        return SparsePoly._wrap(data)

    __rmul__ = __mul__

    def scale(self, c: Scalar) -> "SparsePoly":
        c = Fraction(c)
        if not c:
            return _POLY_ZERO
        return SparsePoly._wrap({m: v * c for m, v in self._terms.items()})

    def __pow__(self, e: int) -> "SparsePoly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        if len(self._terms) == 1:
            ((ex, ey), c), = self._terms.items()
            return SparsePoly._wrap({Monomial(ex * e, ey * e): c**e})
        result = _POLY_ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def diff(self, var: str) -> "SparsePoly":
        """Formal partial derivative with respect to 'x' or 'y'."""
        i = _var_index(var)
        data: dict[Monomial, Fraction] = {}
        for m, c in self._terms.items():
            e = m[i]
            if e:
                nm = Monomial(m.ex - 1, m.ey) if i == 0 else Monomial(m.ex, m.ey - 1)
                data[nm] = c * e
        return SparsePoly._wrap(data)

    def subst(self, var: str, r: "SparsePoly") -> "SparsePoly":
        """Replace one variable by a polynomial, fully expanded.

        Horner evaluation over the substituted variable's exponents keeps the
        number of polynomial products proportional to the exponent range.
        """
        i = _var_index(var)
        layers: dict[int, dict[Monomial, Fraction]] = {}
        for m, c in self._terms.items():
            rest = Monomial(0, m.ey) if i == 0 else Monomial(m.ex, 0)
            layers.setdefault(m[i], {})[rest] = c
        if not layers:
            return _POLY_ZERO
        exps = sorted(layers, reverse=True)
        acc = SparsePoly._wrap(layers[exps[0]])
        for prev, e in zip(exps, exps[1:]):
            acc = acc * r ** (prev - e) + SparsePoly._wrap(layers[e])
        return acc * r ** exps[-1]

    def compose(self, px: "SparsePoly", py: "SparsePoly") -> "SparsePoly":
        """Simultaneous substitution x -> px, y -> py."""
        xpows = _power_table(px, {m.ex for m in self._terms})
        ypows = _power_table(py, {m.ey for m in self._terms})
        acc = _POLY_ZERO
        for m, c in self._terms.items():
            acc = acc + (xpows[m.ex] * ypows[m.ey]).scale(c)
        return acc

    def evaluate(self, vx: Scalar, vy: Scalar) -> Fraction:
        vx, vy = Fraction(vx), Fraction(vy)
        total = _ZERO
        for m, c in self._terms.items():
            total += c * vx**m.ex * vy**m.ey
        return total

    def coeffs_in_y(self) -> dict[int, dict[int, Fraction]]:
        """Group terms by y-exponent: {ey: {ex: coeff}}."""
        out: dict[int, dict[int, Fraction]] = {}
        for m, c in self._terms.items():
            out.setdefault(m.ey, {})[m.ex] = c
        return out

    # -- serialization -----------------------------------------------------

    def to_text(self, var_names: tuple[str, str] = ("x", "y")) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for m, c in self.terms():
            factors = []
            mag = abs(c)
            if mag != 1 or m.degree == 0:
                factors.append(format_rational(mag))
            for name, e in zip(var_names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def to_json_dict(self, var_names: tuple[str, str] = ("x", "y")) -> dict:
        return {
            "vars": list(var_names),
            "terms": [
                {"e": [m.ex, m.ey], "c": f"{c.numerator}/{c.denominator}"}
                for m, c in self.terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SparsePoly":
        if not isinstance(data, dict):
            raise InvalidInput("polynomial JSON must be an object with 'vars' and 'terms'")
        vars_ = data.get("vars")
        if not isinstance(vars_, list) or len(vars_) != 2:
            raise ValueError("polynomial JSON must carry exactly two variables")
        entries = data.get("terms", [])
        if not isinstance(entries, list):
            raise InvalidInput("polynomial JSON 'terms' must be a list")
        terms = []
        for entry in entries:
            e = entry.get("e") if isinstance(entry, dict) else None
            c = entry.get("c") if isinstance(entry, dict) else None
            # bool is an int subclass, so `type(...) is int` is the exact test.
            if not (isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)):
                raise InvalidInput(f"term exponents must be two plain integers, got {e!r}")
            if type(c) not in (int, str):
                raise InvalidInput(
                    f"term coefficient must be an integer or a rational string, got {c!r}"
                )
            try:
                terms.append(((e[0], e[1]), Fraction(c)))
            except (ValueError, ZeroDivisionError):
                raise InvalidInput(f"term coefficient {c!r} is not a rational") from None
        return cls(terms)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"SparsePoly({self.to_text()!r})"


def _power_table(base: SparsePoly, exponents: set[int]) -> dict[int, SparsePoly]:
    table = {0: _POLY_ONE}
    top = max(exponents, default=0)
    prev = _POLY_ONE
    for e in range(1, top + 1):
        prev = prev * base
        table[e] = prev
    return table


def format_rational(q: Fraction) -> str:
    """Render a rational without a denominator when it is integral."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_ZERO = Fraction(0)
_POLY_ZERO = SparsePoly()
_POLY_ONE = SparsePoly({(0, 0): 1})
_POLY_X = SparsePoly({(1, 0): 1})
_POLY_Y = SparsePoly({(0, 1): 1})


# -- parsing ---------------------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := ('+'|'-')* power
# power  := atom ('^' non-negative-integer)?
# atom   := rational-literal | 'x' | 'y' | '(' expr ')'
#
# Rational literals are contiguous, e.g. 3 or 22/7.  Implicit multiplication
# is rejected: "2x" is a syntax error.
#
# A value is a monomial (c, ex, ey), c an int or a Fraction, until a
# parenthesized expression makes it a SparsePoly, so a product such as
# 3*x^2*y is built directly.  An expression adds its terms into one
# coefficient dict and becomes a SparsePoly once, at its end.

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
                    node = _as_poly(node) * _as_poly(rhs)
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
            if isinstance(node, SparsePoly):
                return node**e
            c, ex, ey = node
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
            self.advance()
            node = self.expr()
            kind, _, _ = self.peek()
            if kind != _RPAR:
                self.fail("expected ')'")
            self.advance()
            return node
        self.fail("expected a number, variable, or '('")


def parse_poly(text: str) -> SparsePoly:
    """Parse polynomial text into canonical form.

    Raises PolySyntaxError (with position) on malformed input and
    NegativeExponent for a negative power.
    """
    return _Parser(text).parse()
