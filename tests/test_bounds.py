"""Tests for the degree bound, the inertia count, and the ratio tables."""

from __future__ import annotations

from fractions import Fraction

import pytest

from akforge.bounds import (
    InertiaIndices,
    RatioRow,
    ratio_table,
    ratio_table_csv,
    ratio_table_json,
    render_decimal,
    steenbrink_inertia,
    upper_bound,
)
from akforge.errors import InvalidInput


def test_upper_bound_values():
    assert upper_bound(1) == 0
    assert upper_bound(2) == 1
    assert upper_bound(9) == 52
    assert upper_bound(37) == 990
    assert upper_bound(65) == 3104


def test_upper_bound_rejects_bad_degree():
    for bad in (0, -3, 2.5, "9", True):
        with pytest.raises(InvalidInput):
            upper_bound(bad)


def test_inertia_pinned_values():
    assert steenbrink_inertia(2) == InertiaIndices(2, 0, 0, 1)
    assert steenbrink_inertia(3) == InertiaIndices(3, 0, 0, 4)
    assert steenbrink_inertia(4) == InertiaIndices(4, 0, 2, 7)
    assert steenbrink_inertia(5).mu_minus == 14


def test_inertia_rejects_bad_degree():
    for bad in (1, 0, -2, 3.0, True, Fraction(3)):
        with pytest.raises(InvalidInput):
            steenbrink_inertia(bad)


def inertia_brute(d: int) -> tuple[int, int, int]:
    plus = zero = minus = 0
    for a in range(d - 1):
        for b in range(d - 1):
            val = Fraction(a + b + 2, d) + Fraction(1, 2)
            if val.denominator == 1:
                zero += 1
            elif (val.numerator // val.denominator) % 2 == 1:
                minus += 1
            else:
                plus += 1
    return plus, zero, minus


def test_inertia_matches_per_pair_enumeration():
    for d in range(2, 41):
        si = steenbrink_inertia(d)
        assert (si.mu_plus, si.mu_zero, si.mu_minus) == inertia_brute(d)


def test_inertia_count_equals_bound_up_to_1000():
    for d in range(2, 1001):
        si = steenbrink_inertia(d)
        assert si.mu_minus == upper_bound(d)
        assert si.total == (d - 1) ** 2


def test_bound_ratio_closed_forms_by_parity():
    # the d^-2-normalized bound has one closed form per parity of d
    for d in range(2, 1001):
        ratio = Fraction(upper_bound(d), d * d)
        if d % 2 == 0:
            expected = (
                Fraction(3, 4) - Fraction(3, 2 * d) + Fraction(1, d * d)
            )
        else:
            expected = (
                Fraction(3, 4) - Fraction(1, d) + Fraction(1, 4 * d * d)
            )
        assert ratio == expected, d


def test_inertia_indices_invariant_enforced():
    with pytest.raises(InvalidInput):
        InertiaIndices(3, 1, 1, 1)


def test_ratio_row_invariant_enforced():
    with pytest.raises(InvalidInput):
        RatioRow(0, 9, 53, 52, Fraction(53, 81), Fraction(52, 81))


def test_ratio_table_rows():
    rows = ratio_table(10)
    assert [r.d for r in rows[:3]] == [9, 37, 65]
    assert rows[0].k_constructed == 42 and rows[0].upper == 52
    assert rows[0].ratio_k == Fraction(42, 81)
    assert rows[1].k_constructed == 731 and rows[1].upper == 990
    assert abs(rows[10].ratio_k - Fraction(15, 28)) < Fraction(1, 1000)
    for bad in (-1, 2.5, True):
        with pytest.raises(InvalidInput):
            ratio_table(bad)


def test_ratio_table_monotone_toward_limit():
    rows = ratio_table(20)
    ratios = [r.ratio_k for r in rows]
    assert all(a <= b for a, b in zip(ratios, ratios[1:]))
    assert all(r < Fraction(15, 28) for r in ratios)
    assert all(r.ratio_bound < Fraction(3, 4) for r in rows)


def test_render_decimal():
    assert render_decimal(Fraction(14, 27)) == "0.518519"
    assert render_decimal(Fraction(1, 2)) == "0.500000"
    assert render_decimal(Fraction(-5, 4)) == "-1.250000"
    assert render_decimal(Fraction(1, 3)) == "0.333333"
    assert render_decimal(Fraction(7, 1)) == "7.000000"


def test_csv_shape():
    text = ratio_table_csv(ratio_table(2))
    lines = text.strip().split("\n")
    assert lines[0] == "s,d,k,upper,k_over_d2,upper_over_d2"
    assert lines[1] == "0,9,42,52,0.518519,0.641975"
    assert lines[3].startswith("2,65,2260,3104,")
    assert text.endswith("\n")


def test_json_table_exact_rationals():
    entry = ratio_table_json(ratio_table(0))[0]
    assert entry["k_over_d2"] == "14/27"
    assert entry["upper_over_d2"] == "52/81"
    assert entry["k_over_d2_decimal"] == "0.518519"
