"""Tests for the exact polynomial layer."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akforge import poly
from akforge.errors import InvalidInput, NegativeExponent, PolySyntaxError
from akforge.poly import (
    EXPANSION_BUDGET,
    LITERAL_POWER_BITS,
    NESTING_LIMIT,
    Monomial,
    SparsePoly,
    parse_poly,
)


def rand_poly(rng: random.Random, max_deg: int = 5, nterms: int = 6) -> SparsePoly:
    terms = []
    for _ in range(rng.randrange(nterms + 1)):
        e = (rng.randrange(max_deg + 1), rng.randrange(max_deg + 1))
        c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        terms.append((e, c))
    return SparsePoly(terms)


def test_constructor_merges_and_drops_zeros():
    p = SparsePoly([((1, 0), 2), ((1, 0), -2), ((0, 1), Fraction(1, 3))])
    assert p.coefficient(1, 0) == 0
    assert p.coefficient(0, 1) == Fraction(1, 3)
    assert len(p) == 1


def test_constructor_rejects_negative_exponents():
    with pytest.raises(InvalidInput):
        SparsePoly([((-1, 0), 1)])


@pytest.mark.parametrize("c", [0.1, 2.0, float("nan")])
def test_constructor_rejects_float_coefficients(c):
    # 0.1 has no exact binary value; storing it would silently turn the
    # input into 3602879701896397/36028797018963968.
    with pytest.raises(InvalidInput):
        SparsePoly([((2, 0), c)])
    with pytest.raises(InvalidInput):
        SparsePoly.term(2, 0, c)


def test_constructor_rejects_inexact_exponents():
    for e in ((1.7, 0), (1, 2.0), ("1", 0)):
        with pytest.raises(InvalidInput):
            SparsePoly([(e, 1)])


def test_zero_identities():
    z = SparsePoly.zero()
    assert z.is_zero
    assert z.total_degree == -1
    assert z.order() == math.inf
    assert str(z) == "0"


def test_canonical_term_order():
    p = parse_poly("y^3 + x*y^2 + x^3 + y + 1")
    monos = [m for m, _ in p.terms()]
    assert monos == [
        Monomial(3, 0),
        Monomial(1, 2),
        Monomial(0, 3),
        Monomial(0, 1),
        Monomial(0, 0),
    ]
    assert str(p) == "x^3 + x*y^2 + y^3 + y + 1"


def test_arithmetic_ring_axioms_randomized():
    rng = random.Random(20260823)
    for _ in range(300):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p - p == SparsePoly.zero()
        assert p * SparsePoly.one() == p


def test_multiplication_against_evaluation_oracle():
    # Evaluate the factors and the product at random rational points; the
    # values must multiply consistently.
    rng = random.Random(7)
    for _ in range(100):
        p, q = rand_poly(rng), rand_poly(rng)
        prod = p * q
        vx = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        vy = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        assert prod.evaluate(vx, vy) == p.evaluate(vx, vy) * q.evaluate(vx, vy)


def test_power_matches_repeated_multiplication():
    p = parse_poly("x + 2*y - 1")
    acc = SparsePoly.one()
    for e in range(6):
        assert p**e == acc
        acc = acc * p
    with pytest.raises(ValueError):
        p ** (-1)


@pytest.mark.parametrize(
    "base, e", [("x", 0), ("-x", 3), ("3/2*x^2*y", 5), ("x*y", 0), ("-7", 4), ("0", 2)]
)
def test_single_term_power_matches_repeated_multiplication(base, e):
    # a one-term base is raised in one step, not by binary powering
    p = parse_poly(base)
    acc = SparsePoly.one()
    for _ in range(e):
        acc = acc * p
    for power in (p**e, parse_poly(f"({base})^{e}")):
        assert power == acc
        assert all(type(m) is Monomial and type(c) is Fraction for m, c in power.terms())


def test_square_coefficients_of_degree_eight_form():
    # (x^4 + 2x^3y^2 - 2x^2y^4 + 4xy^6 - 10y^8)^2, two spot coefficients
    # confirmed by expanding the cross terms by hand.
    A = parse_poly("x^4 + 2*x^3*y^2 - 2*x^2*y^4 + 4*x*y^6 - 10*y^8")
    sq = A * A
    assert sq.coefficient(3, 10) == -56
    assert sq.coefficient(0, 16) == 100
    assert sq.coefficient(8, 0) == 1
    assert sq.total_degree == 16


def test_diff_basic_and_product_rule():
    p = parse_poly("x^3*y - 7*y^2 + 4")
    assert p.diff("x") == parse_poly("3*x^2*y")
    assert p.diff("y") == parse_poly("x^3 - 14*y")
    rng = random.Random(99)
    for _ in range(50):
        a, b = rand_poly(rng), rand_poly(rng)
        for v in ("x", "y"):
            assert (a * b).diff(v) == a.diff(v) * b + a * b.diff(v)


def test_subst_is_a_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(50):
        a, b = rand_poly(rng, max_deg=3), rand_poly(rng, max_deg=3)
        r = rand_poly(rng, max_deg=2, nterms=3)
        for v in ("x", "y"):
            assert (a * b).subst(v, r) == a.subst(v, r) * b.subst(v, r)
            assert (a + b).subst(v, r) == a.subst(v, r) + b.subst(v, r)


def test_subst_examples():
    p = parse_poly("y^2 + x*y")
    assert p.subst("y", parse_poly("x^2")) == parse_poly("x^4 + x^3")
    assert p.subst("x", SparsePoly.zero()) == parse_poly("y^2")
    assert SparsePoly.zero().subst("x", parse_poly("y")) == SparsePoly.zero()


def test_compose_matches_sequential_subst_on_disjoint_targets():
    rng = random.Random(11)
    for _ in range(40):
        p = rand_poly(rng, max_deg=3)
        # Targets in a single fresh variable keep sequential substitution
        # equivalent to simultaneous substitution.
        px = rand_poly(rng, max_deg=2, nterms=2)
        py = rand_poly(rng, max_deg=2, nterms=2)
        vx = Fraction(rng.randrange(-3, 4))
        vy = Fraction(rng.randrange(-3, 4))
        got = p.compose(px, py)
        assert got.evaluate(vx, vy) == p.evaluate(px.evaluate(vx, vy), py.evaluate(vx, vy))


def test_shear_compose():
    f = parse_poly("y^2 + x^3")
    sheared = f.compose(parse_poly("x + 2*y"), parse_poly("y"))
    assert sheared == parse_poly("(x + 2*y)^3 + y^2")


def test_degree_helpers():
    p = parse_poly("x^2*y^3 + x^5")
    assert p.total_degree == 5
    assert p.degree_in("x") == 5
    assert p.degree_in("y") == 3
    assert p.order() == 5
    assert parse_poly("1").order() == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda p: SparsePoly.variable("z"),
        lambda p: p.degree_in("X"),
        lambda p: p.diff("t"),
        lambda p: p.subst("", SparsePoly.one()),
    ],
)
def test_unknown_variable_names_are_invalid_input(call):
    with pytest.raises(InvalidInput, match="expected 'x' or 'y'"):
        call(parse_poly("x^2*y + 1"))


def test_coefficient_accessor_and_coeffs_in_y():
    p = parse_poly("3*x^2*y - y + 1/2")
    assert p.coefficient(2, 1) == 3
    assert p.coefficient(9, 9) == 0
    grouped = p.coeffs_in_y()
    assert grouped[1] == {2: Fraction(3), 0: Fraction(-1)}
    assert grouped[0] == {0: Fraction(1, 2)}


# -- parser ----------------------------------------------------------------


def test_parse_rationals_and_signs():
    assert parse_poly("22/7") == SparsePoly.constant(Fraction(22, 7))
    assert parse_poly("-x") == -SparsePoly.variable("x")
    assert parse_poly("--x") == SparsePoly.variable("x")
    assert parse_poly("+ - +x*y") == parse_poly("-x*y")
    assert parse_poly("-x^2") == -parse_poly("x^2")


def test_parse_precedence_and_parens():
    assert parse_poly("2*x + 3*y^2") == SparsePoly([((1, 0), 2), ((0, 2), 3)])
    assert parse_poly("(x + y)^2") == parse_poly("x^2 + 2*x*y + y^2")
    assert parse_poly("2*(x - 1)") == parse_poly("2*x - 2")
    assert parse_poly("x - y - y") == parse_poly("x - 2*y")


def test_parse_whitespace_insensitive():
    assert parse_poly("  x ^ 2+ y ") == parse_poly("x^2+y")


def test_text_round_trip_randomized():
    rng = random.Random(314)
    for _ in range(200):
        p = rand_poly(rng)
        assert parse_poly(p.to_text()) == p


def test_parse_error_positions():
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x + ")
    assert exc.value.position == 4
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x $ y")
    assert exc.value.position == 2
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("(x + y")
    assert exc.value.position == 6
    with pytest.raises(PolySyntaxError):
        parse_poly("")


def test_parse_rejects_implicit_multiplication():
    for bad in ("2x", "x y", "x(x+1)", "2(3)"):
        with pytest.raises(PolySyntaxError):
            parse_poly(bad)


def test_parse_negative_exponent():
    with pytest.raises(NegativeExponent) as exc:
        parse_poly("x^-1")
    assert exc.value.position == 2
    assert isinstance(exc.value, PolySyntaxError)


def test_parse_bad_exponents():
    with pytest.raises(PolySyntaxError):
        parse_poly("x^y")
    with pytest.raises(PolySyntaxError):
        parse_poly("x^1/2")
    with pytest.raises(PolySyntaxError):
        parse_poly("x^(2)")


def test_parse_expansion_budget():
    # the budget counts term products, not degrees: huge exponents are free
    assert len(parse_poly("(1 + x + y)^40")) == 861
    assert parse_poly("(x^1000000000000 + y)^2") == SparsePoly(
        {(2000000000000, 0): 1, (1000000000000, 1): 2, (0, 2): 1}
    )
    # a power, a product of two powers within the budget, and two powers
    # within it that one text adds: its products share the budget
    for text in (
        "(1 + x + y)^100000",
        "(1 + x + y)^30 * (1 - x + y)^30",
        "(1 + x + y)^40 + (1 - x + y)^40",
    ):
        with pytest.raises(InvalidInput, match=str(EXPANSION_BUDGET)):
            parse_poly(text)


def test_parse_literal_power_budget():
    # 0, 1 and -1 cost nothing; any other number costs its bits times e, and
    # a product costs the bits of each coefficient it forms
    assert parse_poly("x^1000000000000 + (-1)^1000000000001*y") == SparsePoly(
        {(1000000000000, 0): 1, (0, 1): -1}
    )
    assert parse_poly("0^1000000000000 + 1^1000000000000") == SparsePoly({(0, 0): 1})
    assert parse_poly("(2*x)^3333") == SparsePoly({(3333, 0): 2**3333})  # 9,999 bits
    assert parse_poly("(1/2)^3333*y") == SparsePoly({(0, 1): Fraction(1, 2**3333)})
    assert parse_poly("2^3333*2^3333*x") == SparsePoly({(1, 0): 2**6666})  # 6,668 bits
    assert parse_poly("(2^3333*x + 1)^2") == parse_poly("2^3333*2^3333*x^2 + 2*2^3333*x + 1")
    # a literal past the budget is read as it stands; only a product is refused
    assert parse_poly("1*" + "7" * 4000) == SparsePoly({(0, 0): int("7" * 4000)})
    for text in (
        "(2*x)^3334",
        "(2/3)^2501",  # 10,004 bits
        "((7)^1000)^1000",
        "3^100000000000*x + y^2",
        "(3)^100000000000",
        "(3*x)^100000000000",
        "*".join(["2^3333"] * 5) + "*x^2 + y^2",  # one literal product: 16,666 bits
        "2^3333*2^3333*x * -2^3333*2^3333",  # a product of two monomials
        "(2^3333*x + 1)*(2^3333*2^3333*y + 1)",  # a product of two polynomials
        "(2^3333*x + 1)^8",  # a power of a polynomial: 26,665 bits
    ):
        with pytest.raises(InvalidInput, match=f"passes {LITERAL_POWER_BITS} bits"):
            parse_poly(text)


def test_parse_nesting_limit():
    # the 101st '(' is refused where it stands, before the recursive parser
    # could pass Python's recursion limit (at about 330 levels on its own)
    assert parse_poly("(" * NESTING_LIMIT + "x" + ")" * NESTING_LIMIT) == parse_poly("x")
    for depth in (NESTING_LIMIT + 1, 2000):
        with pytest.raises(PolySyntaxError, match=f"more than {NESTING_LIMIT} deep") as exc:
            parse_poly("(" * depth + "x" + ")" * depth)
        assert exc.value.position == NESTING_LIMIT


def test_parse_zero_denominator():
    with pytest.raises(PolySyntaxError):
        parse_poly("1/0")


@pytest.mark.parametrize(
    "template, position",
    [
        ("{}", 0),
        ("x^{}", 2),
        ("y + 2/{}*x", 6),
        ("(x + y)^{}", 8),
        # the first refused literal in the text is the one reported
        ("1/0*{}", 2),
        ("{}/0", 0),
        ("x $ {}", 2),
    ],
)
def test_parse_over_long_literal(template, position):
    # int() reads at most sys.get_int_max_str_digits() digits (4,300 by
    # default); a longer literal is a syntax error at its position
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly(template.format("7" * 5000))
    assert exc.value.position == position


def test_parse_expansion_budget_counts_the_products_formed(monkeypatch):
    # a product of literal factors is one monomial, so (y+1)*2*x forms one
    # product of 2 term products, where multiplying by 2 and then by x formed 4
    monkeypatch.setattr(poly, "EXPANSION_BUDGET", 2)
    assert parse_poly("(y+1)*2*x") == parse_poly("2*x*y + 2*x")
    monkeypatch.setattr(poly, "EXPANSION_BUDGET", 1)
    with pytest.raises(InvalidInput, match="more than 1 term products"):
        parse_poly("(y+1)*2*x")


@pytest.mark.parametrize(
    "text, error, position",
    [
        ("3*x^-2", NegativeExponent, 4),
        ("2*y^x", PolySyntaxError, 4),
        ("x^1/2 + 1", PolySyntaxError, 2),
        # 4/2 is one rational literal, not x^4 divided by 2
        ("x^4/2", PolySyntaxError, 2),
        ("1/0*x", PolySyntaxError, 2),
        ("(x*y^2", PolySyntaxError, 6),
        ("x*y)", PolySyntaxError, 3),
        ("x ** 2", PolySyntaxError, 3),
        ("3/ 4", PolySyntaxError, 1),
        ("2*x*y + 7 $", PolySyntaxError, 10),
        # a superscript digit is no decimal digit: a syntax error, not a crash
        ("x^\u00b2", PolySyntaxError, 2),
    ],
)
def test_parse_error_kinds_and_positions(text, error, position):
    with pytest.raises(error) as exc:
        parse_poly(text)
    assert type(exc.value) is error and exc.value.position == position


# Coefficients with numerator and denominator up to 10^9, either sign, and
# exponents either small (so terms merge) or up to 10^12.
COEFFICIENTS = st.builds(Fraction, st.integers(-(10**9), 10**9), st.integers(1, 10**9))
EXPONENTS = st.one_of(st.integers(0, 3), st.integers(0, 10**12))
POLYS = st.lists(
    st.tuples(st.tuples(EXPONENTS, EXPONENTS), COEFFICIENTS), max_size=6
).map(SparsePoly)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(POLYS)
def test_text_round_trip_property(p):
    assert parse_poly(p.to_text()) == p


@settings(derandomize=True, deadline=None, max_examples=200)
@given(POLYS)
def test_json_round_trip_property(p):
    assert SparsePoly.from_json_dict(p.to_json_dict()) == p


def test_parse_sums_of_monomial_products_randomized():
    # each term c*x^a*y^b is built directly and the sum in one dict; the
    # result must equal SparsePoly arithmetic and stay canonical
    rng = random.Random(2718)
    xv, yv = SparsePoly.variable("x"), SparsePoly.variable("y")
    for _ in range(200):
        text, want = "", SparsePoly.zero()
        for _ in range(rng.randrange(1, 12)):
            c = Fraction(rng.randrange(0, 9), rng.choice((1, 1, 2, 3)))
            a, b = rng.randrange(4), rng.randrange(4)
            sign = rng.choice("+-")
            factors = [str(c), f"x^{a}", f"y^{b}"]
            rng.shuffle(factors)
            text += f" {sign} " + "*".join(factors)
            term = (xv**a * yv**b).scale(c)
            want = want + term if sign == "+" else want - term
        got = parse_poly(text)
        assert got == want, text
        assert all(type(m) is Monomial and type(c) is Fraction and c for m, c in got.terms())


# -- JSON ------------------------------------------------------------------


def test_json_round_trip_and_shape():
    p = parse_poly("y^2 - 2*x^3*y + 5/7*x")
    d = p.to_json_dict()
    assert d["vars"] == ["x", "y"]
    assert d["terms"][0] == {"e": [3, 1], "c": "-2/1"}
    assert all("/" in t["c"] for t in d["terms"])
    assert SparsePoly.from_json_dict(d) == p


def test_json_round_trip_randomized():
    rng = random.Random(2718)
    for _ in range(100):
        p = rand_poly(rng)
        assert SparsePoly.from_json_dict(p.to_json_dict()) == p


def test_json_accepts_plain_integer_coefficients():
    p = SparsePoly.from_json_dict({"vars": ["x", "y"], "terms": [{"e": [1, 1], "c": "3"}]})
    assert p == parse_poly("3*x*y")


@pytest.mark.parametrize(
    "e", [[1.7, True], [1, True], [False, 2], [2.0, 1], ["1", 0], [1], [1, 2, 3], 5, [-1, 0]]
)
def test_json_rejects_inexact_exponents(e):
    with pytest.raises(InvalidInput):
        SparsePoly.from_json_dict({"vars": ["x", "y"], "terms": [{"e": e, "c": "1"}]})


@pytest.mark.parametrize(
    "c",
    [
        0.1, 3.0, True, None, "1/0", "one",
        # the text grammar reads neither exponents nor decimal points, and holds
        # every coefficient to LITERAL_POWER_BITS; Fraction("1e30000000") alone
        # runs for most of a minute
        "1e30000000", "0.5",
        pytest.param(str(2**poly.LITERAL_POWER_BITS), id="over-budget"),
    ],
)
def test_json_rejects_inexact_coefficients(c):
    with pytest.raises(InvalidInput):
        SparsePoly.from_json_dict({"vars": ["x", "y"], "terms": [{"e": [1, 0], "c": c}]})


@pytest.mark.parametrize("data", [[], "x", {"vars": ["x", "y"], "terms": 3}])
def test_json_rejects_malformed_documents(data):
    with pytest.raises(InvalidInput):
        SparsePoly.from_json_dict(data)


def test_json_rejects_bad_vars():
    with pytest.raises(InvalidInput):
        SparsePoly.from_json_dict({"vars": ["x"], "terms": []})
    with pytest.raises(InvalidInput):
        SparsePoly.from_json_dict({"terms": []})
