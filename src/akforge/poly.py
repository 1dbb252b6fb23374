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
        return _power(self, e, operator.mul)

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
        """Replace one variable by a polynomial, fully expanded, by ``compose``."""
        if _var_index(var) == 0:
            return self.compose(r, _POLY_Y)
        return self.compose(_POLY_X, r)

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


def _power(p: SparsePoly, e: int, mul) -> SparsePoly:
    """p**e by binary powering, each product formed by ``mul``; one term in one step."""
    if e < 0:
        raise ValueError("negative power of a polynomial")
    if len(p._terms) == 1:
        ((ex, ey), c), = p._terms.items()
        return SparsePoly._wrap({Monomial(ex * e, ey * e): c**e})
    result = _POLY_ONE
    while e:
        if e & 1:
            result = mul(result, p)
        e >>= 1
        if e:
            p = mul(p, p)
    return result


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
# The lexer reads each maximal product of literal factors, such as 3*x^2*y,
# as one monomial token (c, ex, ey), and ')' with its '^ integer' as one token;
# _Parser.factor reads a factor, its power and its atom.  A value is a
# monomial until a parenthesized expression makes it a SparsePoly; an
# expression adds its terms into one coefficient dict and becomes a
# SparsePoly once, at its end.

_MONO, _POWERED, _OP, _LPAR, _RPAR, _END = range(6)

# Term products (one per pair of terms multiplied) that expanding the
# products and powers of one text may form, counted before each product of a
# parenthesized polynomial; past the budget the text is InvalidInput.
# Exponents cost nothing, so (x^1000000000000 + y)^2 parses at once.
# (1 + x + y)^40 forms 51,000 term products (0.3 s); (1 + x + y)^60 would form
# 284,000, and (1 + x + y)^100000 is refused within its first squarings.
EXPANSION_BUDGET = 10**5

# Deepest nesting of parentheses; each level takes three frames of the recursive parser.
NESTING_LIMIT = 100

# Bits that one coefficient the parser forms may cost, counted as the bits of
# its numerator and denominator; past it the text is InvalidInput.  A power
# c^e of a number costs e times the bits of c and is checked before it is
# computed; a product of numbers, of monomials or of polynomials is checked
# on each coefficient it forms.  0, 1 and -1 cost nothing, so x^1000000000000
# parses.  10^4 bits is about 3,000 decimal digits, below the 4,300 that
# Python prints by default; a sum gains one bit per doubling of its terms.
LITERAL_POWER_BITS = 10**4


# A number with an optional denominator, or a variable, with an optional
# integer power; a power followed by '/' is left for the parser to refuse.
_FACTOR = r"(?:\d+(?:/\d+)?|[xy])(?:\s*\^\s*\d+(?![\d/]))?"
# One token after optional whitespace; the groups are a product of literal
# factors, ')' and its power, an operator, '(' and any other character,
# which is an error.
_TOKEN = re.compile(
    rf"\s*(?:({_FACTOR}(?:\s*\*\s*{_FACTOR})*)|(\))(?:\s*\^\s*(\d+)(?![\d/]))?"
    r"|([-+*^])|(\()|(\S))"
)
# The factors of one product: number, denominator, variable, power.
_PARTS = re.compile(r"(?:(\d+)(?:/(\d+))?|([xy]))(?:\s*\^\s*(\d+))?")


def _literal_power(c: Scalar, e: int) -> Scalar:
    """c**e, refused before it is computed if it passes LITERAL_POWER_BITS."""
    if c not in (0, 1, -1):
        bits = e * (abs(c.numerator).bit_length() + c.denominator.bit_length())
        if bits > LITERAL_POWER_BITS:
            raise InvalidInput(f"a number to the power {e} passes {LITERAL_POWER_BITS} bits")
    return c**e


def _bounded(c: Scalar) -> Scalar:
    """c, refused if its numerator and denominator pass LITERAL_POWER_BITS."""
    if abs(c.numerator).bit_length() + c.denominator.bit_length() > LITERAL_POWER_BITS:
        raise InvalidInput(f"a coefficient passes {LITERAL_POWER_BITS} bits")
    return c


def _monomial(text: str, start: int, end: int) -> tuple[int, object, int]:
    """The token of the literal product text[start:end], _POWERED if its last
    factor has a power.  Its value is (c, ex, ey), or the InvalidInput of its
    first number power or product past LITERAL_POWER_BITS, raised where it is
    parsed."""
    c, ex, ey, refused = 1, 0, 0, None
    try:
        for num, den, var, power in _PARTS.findall(text, start, end):
            e = int(power) if power else 1
            if var == "x":
                ex += e
            elif var == "y":
                ey += e
            else:
                v = Fraction(int(num), int(den)) if den else int(num)
                if refused is None:
                    try:
                        v = _literal_power(v, e) if power else v
                        c = v if c == 1 else _bounded(c * v)
                    except InvalidInput as exc:
                        refused = exc
    except (ValueError, ZeroDivisionError):
        raise _literal_error(text, start, end) from None
    return (_POWERED if power else _MONO, (c, ex, ey) if refused is None else refused, start)


def _literal_error(text: str, start: int, end: int) -> PolySyntaxError:
    """The error at the first literal in text[start:end] that int() or Fraction
    refuses: a zero denominator, or more digits than sys.get_int_max_str_digits()."""
    for f in _PARTS.finditer(text, start, end):
        for group in (1, 2, 4):
            try:
                if f[group] is not None and int(f[group]) == 0 and group == 2:
                    return PolySyntaxError("zero denominator in rational literal", f.start(2))
            except ValueError:
                return PolySyntaxError("number literal has too many digits", f.start(group))


def _tokenize(text: str) -> list[tuple[int, object, int]]:
    tokens = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 1:
            tokens.append(_monomial(text, m.start(1), m.end()))
        elif group <= 3:
            try:
                tokens.append((_RPAR, m[3] and int(m[3]), m.start(2)))
            except ValueError:
                raise _literal_error(text, m.start(3), m.end(3)) from None
        elif group == 6:
            raise PolySyntaxError(f"unexpected character {m[6]!r}", m.start(6))
        else:
            tokens.append((_OP if group == 4 else _LPAR, m[group], m.start(group)))
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
        """a * b, charged its len(a) * len(b) term products against EXPANSION_BUDGET;
        each coefficient it forms is held to LITERAL_POWER_BITS."""
        self.pairs += len(a) * len(b)
        if self.pairs > EXPANSION_BUDGET:
            raise InvalidInput(
                f"expanding the input forms more than {EXPANSION_BUDGET} term products"
            )
        out = a * b
        for c in out._terms.values():
            _bounded(c)
        return out

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        self.pos += 1
        return self.tokens[self.pos - 1]

    def fail(self, message: str):
        raise PolySyntaxError(message, self.peek()[2])

    def parse(self) -> SparsePoly:
        node = self.expr()
        if self.peek()[0] != _END:
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
                return SparsePoly._wrap({Monomial(*m): Fraction(c) for m, c in acc.items() if c})

    def term(self) -> _Value:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == _OP and val == "*":
                self.advance()
                rhs = self.factor()
                if isinstance(node, tuple) and isinstance(rhs, tuple):
                    node = (_bounded(node[0] * rhs[0]), node[1] + rhs[1], node[2] + rhs[2])
                else:
                    node = self.product(_as_poly(node), _as_poly(rhs))
            else:
                return node

    def factor(self) -> _Value:
        sign = 1
        while (token := self.advance())[0] == _OP and token[1] in "+-":
            sign = -sign if token[1] == "-" else sign
        kind, node, pos = token
        if kind == _LPAR:
            if self.depth == NESTING_LIMIT:
                raise PolySyntaxError(f"parentheses nested more than {NESTING_LIMIT} deep", pos)
            self.depth += 1
            node = self.expr()
            kind, e, _ = self.peek()
            if kind != _RPAR:
                self.fail("expected ')'")
            self.advance()
            self.depth -= 1
            if e is not None and len(node) != 1:
                node, kind = _power(node, e, self.product), _POWERED
            elif e is not None:
                # a single term, such as (3*x), is raised as a monomial value
                ((ex, ey), c), = node._terms.items()
                node, kind = (_literal_power(c, e), ex * e, ey * e), _POWERED
        elif kind != _MONO and kind != _POWERED:
            raise PolySyntaxError("expected a number, variable, or '('", pos)
        elif isinstance(node, InvalidInput):
            raise node
        # a '^' after a power is left unread, as the second '^' of x^2^3; after
        # anything else it is an error, as the lexer read every integer power
        if kind != _POWERED and self.peek()[:2] == (_OP, "^"):
            self.advance()
            kind, val, pos = self.peek()
            if kind == _OP and val == "-":
                raise NegativeExponent("exponent must be non-negative", pos)
            if kind not in (_MONO, _POWERED) or self.text[pos] in "xy":
                self.fail("expected integer exponent after '^'")
            # a rational literal, even 4/2: the grammar has no '/', so x^4/2 is not x^2
            self.fail("exponent must be an integer literal")
        if sign > 0:
            return node
        return -node if isinstance(node, SparsePoly) else (-node[0], node[1], node[2])


def parse_poly(text: str) -> SparsePoly:
    """Parse polynomial text into canonical form.

    Raises PolySyntaxError (with position) on malformed input and
    NegativeExponent for a negative power.
    """
    return _Parser(text).parse()
