"""Tests for the exact and modular linear-algebra kernels."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akforge._exactrank import det_bareiss, rank_profile_sparse
from akforge._modp import (
    _PRIME_HI,
    _PRIME_LO,
    DEFAULT_PRIME_SEED,
    _is_prime,
    eval_x_batch,
    interpolate_monomial,
    prime_seed,
    primes_from_seed,
    rank_profile_mod_p,
    resultant_batch,
)
from akforge.errors import InvalidInput


def gauss_profile_fractions(rows: list[list[int]]) -> list[int]:
    """Reference pivot-column computation over exact rationals."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots


def gauss_det_fractions(mat: list[list[int]]) -> Fraction:
    m = [[Fraction(v) for v in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[c])]
    return det


def sylvester_matrix(a: list[int], b: list[int]) -> list[list[int]]:
    """Reference: the Sylvester matrix of two univariate polynomials, whose
    determinant is their resultant.  Coefficient lists run low to high
    degree with nonzero leading entries."""
    assert a and b and a[-1] and b[-1]
    da, db = len(a) - 1, len(b) - 1
    rows = [[0] * i + a[::-1] + [0] * (db - 1 - i) for i in range(db)]
    return rows + [[0] * i + b[::-1] + [0] * (da - 1 - i) for i in range(da)]


def rand_matrix(rng: random.Random, nr: int, nc: int, density=0.5) -> list[list[int]]:
    return [
        [rng.randrange(-9, 10) if rng.random() < density else 0 for _ in range(nc)]
        for _ in range(nr)
    ]


def to_sparse(rows: list[list[int]]) -> list[dict[int, int]]:
    return [{c: v for c, v in enumerate(row) if v} for row in rows]


def test_rank_profile_sparse_against_fraction_oracle():
    rng = random.Random(1001)
    for _ in range(80):
        nr, nc = rng.randrange(1, 10), rng.randrange(1, 10)
        rows = rand_matrix(rng, nr, nc)
        assert rank_profile_sparse(to_sparse(rows), nc) == gauss_profile_fractions(rows)


def test_rank_profile_sparse_structured():
    # Duplicated and scaled rows collapse to one pivot.
    rows = [{0: 2, 3: 4}, {0: 3, 3: 6}, {0: -1, 3: -2}]
    assert rank_profile_sparse(rows, 5) == [0]
    assert rank_profile_sparse([], 4) == []
    assert rank_profile_sparse([{2: 7}], 3) == [2]
    with pytest.raises(ValueError):
        rank_profile_sparse([{5: 1}], 4)


def test_det_bareiss_against_fraction_oracle():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randrange(1, 7)
        mat = rand_matrix(rng, n, n, density=0.8)
        assert det_bareiss(mat) == gauss_det_fractions(mat)
    assert det_bareiss([]) == 1
    assert det_bareiss([[0, 1], [0, 2]]) == 0


def test_sylvester_known_resultant():
    # Res(x^2 - 1, x - 2) = value of x^2 - 1 at 2 = 3 (lc(g)=1).
    a = [-1, 0, 1]
    b = [-2, 1]
    assert det_bareiss(sylvester_matrix(a, b)) == 3
    # Res of two linear polys x - u, x - v is v - u... sign fixed by convention:
    # det [[1, -u], [1, -v]] = -v + u.
    assert det_bareiss(sylvester_matrix([-3, 1], [-5, 1])) == -5 - (-3)


def test_primes_from_seed_deterministic_and_valid():
    p1, p2 = primes_from_seed(2, seed=DEFAULT_PRIME_SEED)
    assert p1 != p2
    for p in (p1, p2):
        assert 2**31 < p <= 3037000499
        assert _is_prime(p)
    assert primes_from_seed(2, seed=DEFAULT_PRIME_SEED) == (p1, p2)
    assert primes_from_seed(2, seed=DEFAULT_PRIME_SEED + 1) != (p1, p2)
    many = primes_from_seed(5, seed=4)
    assert len(set(many)) == 5


def test_prime_seed_env(monkeypatch):
    monkeypatch.delenv("AKFORGE_PRIME_SEED", raising=False)
    assert prime_seed() == DEFAULT_PRIME_SEED
    monkeypatch.setenv("AKFORGE_PRIME_SEED", "  90210 ")
    assert prime_seed() == 90210
    monkeypatch.setenv("AKFORGE_PRIME_SEED", "pi")
    with pytest.raises(InvalidInput):
        prime_seed()


def test_is_prime_small_cases():
    assert _is_prime(2)
    assert _is_prime(3)
    assert _is_prime(2**31 - 1)
    for n in (9, 15, 21, 25, 49, 2**31 + 1, 3037000498):
        assert not _is_prime(n)


def test_rank_profile_mod_p_matches_exact():
    rng = random.Random(31337)
    (p,) = primes_from_seed(1, seed=6)
    for _ in range(40):
        nr, nc = rng.randrange(1, 9), rng.randrange(1, 9)
        rows = rand_matrix(rng, nr, nc)
        got = rank_profile_mod_p(np.array(rows, dtype=np.int64), p)
        assert got == gauss_profile_fractions(rows)
    assert rank_profile_mod_p(np.zeros((0, 0), dtype=np.int64), p) == []
    assert rank_profile_mod_p(np.zeros((3, 4), dtype=np.int64), p) == []


def test_eval_x_batch():
    (p,) = primes_from_seed(1, seed=6)
    # f = (3 + x + 2x^2) + y*(5x) + y^2*(1)
    layers = {0: {0: 3, 1: 1, 2: 2}, 1: {1: 5}, 2: {0: 1}}
    pts = np.array([0, 1, 2, 10], dtype=np.int64)
    vals = eval_x_batch(layers, pts, p)
    for col, t in enumerate(pts):
        assert vals[0, col] == (3 + t + 2 * t * t) % p
        assert vals[1, col] == 5 * t % p
        assert vals[2, col] == 1


def test_resultant_batch_matches_sylvester():
    rng = random.Random(9090)
    (p,) = primes_from_seed(1, seed=8)
    for _ in range(60):
        da, db = rng.randrange(0, 5), rng.randrange(0, 5)
        a = [rng.randrange(-9, 10) for _ in range(da)] + [rng.randrange(1, 10)]
        b = [rng.randrange(-9, 10) for _ in range(db)] + [rng.randrange(1, 10)]
        want = det_bareiss(sylvester_matrix(a, b)) % p
        fv = np.array(a, dtype=np.int64).reshape(-1, 1)
        gv = np.array(b, dtype=np.int64).reshape(-1, 1)
        got = resultant_batch(fv % p, gv % p, p)
        assert int(got[0]) == want, (a, b)


def test_resultant_batch_common_root():
    (p,) = primes_from_seed(1, seed=8)
    # both vanish at y=1: resultant is 0
    fv = np.array([[p - 1], [1]], dtype=np.int64)  # y - 1
    gv = np.array([[p - 1], [0], [1]], dtype=np.int64)  # y^2 - 1
    assert int(resultant_batch(fv, gv, p)[0]) == 0


def remainder_degrees(a: list[int], b: list[int], p: int | None = None) -> tuple[int, ...]:
    """Degrees of a, b and their Euclidean remainders over Q, or over GF(p)
    when p is given; -1 is a zero remainder."""

    def div(u, v):
        return u / v if p is None else u * pow(v, -1, p) % p

    if p is None:
        a, b = [Fraction(v) for v in a], [Fraction(v) for v in b]
    degs = [len(a) - 1, len(b) - 1]
    while b:
        while len(a) >= len(b):
            f, sh = div(a[-1], b[-1]), len(a) - len(b)
            a = [v - f * b[i - sh] if i >= sh else v for i, v in enumerate(a)][:-1]
            if p is not None:
                a = [v % p for v in a]
            while a and a[-1] == 0:
                a.pop()
        degs.append(len(a) - 1)
        a, b = b, a
    return tuple(degs)


def test_resultant_batch_many_columns():
    # One batch, as the modular oracle passes it: each column is one sample
    # point, and columns differ in degree, remainder sequence and roots.
    rng = random.Random(4242)
    (p,) = primes_from_seed(1, seed=8)

    def times_linear(c, r):  # c(y) * (y - r)
        return [-r * c[0]] + [c[i - 1] - r * c[i] for i in range(1, len(c))] + [c[-1]]

    pairs = [
        ([-1, 0, 1], [-1, 1]),  # common root y = 1
        ([1, 0, 0, 0, 1], [0, 0, 1]),  # remainder degree drops 2 -> 0
        ([1, 1, 1, 1], [1, 0, 1]),
        ([3, 1, 4, 0, 0], [5, 9]),  # zero top coefficients
        ([7], [1, 2, 3]),
        ([0, 0], [1, 1]),  # a zero polynomial
    ]
    while len(pairs) < 60:
        a = [rng.choice((0, 0, -2, -1, 1, 3)) for _ in range(rng.randrange(1, 6))]
        b = [rng.choice((0, 0, -2, -1, 1, 3)) for _ in range(rng.randrange(1, 6))]
        if len(pairs) % 3 == 0:
            r = rng.randrange(-3, 4)
            a, b = times_linear(a, r), times_linear(b, r)
        pairs.append((a, b))

    def trim(c):
        c = list(c)
        while c and c[-1] == 0:
            c.pop()
        return c

    fv = np.zeros((7, len(pairs)), dtype=np.int64)
    gv = np.zeros((7, len(pairs)), dtype=np.int64)
    want, sequences, common_roots = [], set(), 0
    for col, (a, b) in enumerate(pairs):
        fv[: len(a), col] = [v % p for v in a]
        gv[: len(b), col] = [v % p for v in b]
        a, b = trim(a), trim(b)
        if not a or not b:
            want.append(0)
            continue
        want.append(det_bareiss(sylvester_matrix(a, b)) % p)
        sequences.add(remainder_degrees(a, b))
        common_roots += want[-1] == 0
    assert len(sequences) >= 20 and common_roots >= 10
    assert resultant_batch(fv, gv, p).tolist() == want


def test_resultant_batch_da_below_db_in_every_column():
    # 40 columns, each with deg a < deg b and degree pairs that differ from
    # column to column: every group's first step is a bare swap of a and b.
    rng = random.Random(5757)
    (p,) = primes_from_seed(1, seed=8)
    fv = np.zeros((7, 40), dtype=np.int64)
    gv = np.zeros((7, 40), dtype=np.int64)
    want = []
    for col in range(40):
        da = rng.randrange(0, 4)
        db = rng.randrange(da + 1, 7)
        a = [rng.randrange(p) for _ in range(da)] + [rng.randrange(1, p)]
        b = [rng.randrange(p) for _ in range(db)] + [rng.randrange(1, p)]
        fv[: da + 1, col] = a
        gv[: db + 1, col] = b
        want.append(det_bareiss(sylvester_matrix(a, b)) % p)
    assert resultant_batch(fv, gv, p).tolist() == want


(KERNEL_PRIME,) = primes_from_seed(1, seed=8)

# Degree pairs (deg a, deg b) that a drawn batch shares: deg a < deg b,
# deg a >= deg b + 2, constants and equal degrees.
DEGREE_PAIRS = [(1, 4), (2, 5), (6, 3), (5, 1), (0, 3), (4, 0), (0, 0), (4, 4), (3, 2)]


def mul_mod(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = (out[i + j] + u * v) % p
    return out


def add_mod(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return [(u + v) % p for u, v in zip(a, b)]


@st.composite
def resultant_batches(draw):
    """A prime p and columns (a, b) mod p sharing one degree pair, of up to five kinds.

    p is 7, 13 or KERNEL_PRIME; at the small primes the leading
    coefficients of the remainders often vanish mod p.  generic: random
    coefficients.  zero: a, b or both are the zero polynomial.  root: a and
    b share the factor y - r.  drop: a and b are built from a remainder
    sequence whose degrees fall by one and then by two, e.g. 6, 3, 2, 0 (or
    by two at once when deg b = 2).  chain: the degrees fall by exactly one
    at every step, e.g. 6, 3, 2, 1, 0.  A batch with deg a >= deg b >= 2
    holds chain, drop and zero columns at once, so one group both goes on
    as it is and splits.
    """
    p = draw(st.sampled_from([7, 13, KERNEL_PRIME]))
    da, db = draw(st.sampled_from(DEGREE_PAIRS))

    def poly(deg):  # low to high, nonzero leading coefficient
        low = draw(st.lists(st.integers(0, p - 1), min_size=deg, max_size=deg))
        return low + [draw(st.integers(1, p - 1))]

    def from_remainders(degs):
        # r_(i-1) = q_i * r_i + r_(i+1): the Euclidean remainders of
        # (r_0, r_1) have exactly the degrees degs[2:].
        rs = [poly(degs[-2]), poly(degs[-1])]
        for d in reversed(degs[:-2]):
            q = poly(d - len(rs[0]) + 1)
            rs.insert(0, add_mod(mul_mod(q, rs[0], p), rs[1], p))
        return rs[0], rs[1]

    kinds = ["generic", "zero"]
    if min(da, db) >= 1:
        kinds.append("root")
    if da >= db >= 2:
        kinds.append("drop")
    if da >= db >= 1:
        kinds.append("chain")
    columns = []
    for kind in kinds + draw(st.lists(st.sampled_from(kinds), max_size=8)):
        if kind == "generic":
            a, b = poly(da), poly(db)
        elif kind == "zero":
            which = draw(st.sampled_from(["a", "b", "both"]))
            a = [0] * (da + 1) if which != "b" else poly(da)
            b = [0] * (db + 1) if which != "a" else poly(db)
        elif kind == "root":
            lin = [(-draw(st.integers(0, p - 1))) % p, 1]
            a, b = mul_mod(poly(da - 1), lin, p), mul_mod(poly(db - 1), lin, p)
        elif kind == "drop":
            tail = [db - 1, db - 3] if db >= 3 else [db - 2]
            a, b = from_remainders([da, db, *tail])
        else:
            a, b = from_remainders([da, *range(db, -1, -1)])
        columns.append((kind, a, b))
    return p, draw(st.permutations(columns))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(resultant_batches())
def test_resultant_batch_property_matches_sylvester(batch):
    p, columns = batch
    # One spare zero row on top: the kernel trims it per column.
    fv = np.zeros((8, len(columns)), dtype=np.int64)
    gv = np.zeros((8, len(columns)), dtype=np.int64)
    want = []
    for col, (kind, a, b) in enumerate(columns):
        fv[: len(a), col] = a
        gv[: len(b), col] = b
        if not any(a) or not any(b):
            want.append(0)
        else:
            want.append(det_bareiss(sylvester_matrix(a, b)) % p)
            assert kind != "root" or want[-1] == 0
            if kind == "chain":
                assert remainder_degrees(a, b, p)[2:] == tuple(range(len(b) - 2, -2, -1))
    assert resultant_batch(fv, gv, p).tolist() == want


def eval_dense_horner(layers: dict[int, dict[int, int]], points: list[int], p: int) -> list[list[int]]:
    """Reference: Horner over every cell of the dense (y-degree + 1, x-degree + 1) matrix."""
    nx = max(max(row) for row in layers.values()) + 1
    table = []
    for j in range(max(layers) + 1):
        row = layers.get(j, {})
        vals = []
        for t in points:
            acc = 0
            for i in range(nx - 1, -1, -1):
                acc = (acc * t + row.get(i, 0)) % p
            vals.append(acc)
        table.append(vals)
    return table


@st.composite
def y_layer_inputs(draw):
    """y-layers with gaps in both exponents, negative coefficients and
    coefficients that vanish mod p, and sample points that may pass p."""
    p = KERNEL_PRIME
    coeff = st.one_of(
        st.integers(-(10**30), 10**30),
        st.integers(-3, 3).map(lambda k: k * p),
        st.tuples(st.integers(-2, 2), st.integers(-5, 5)).map(lambda kr: kr[0] * p + kr[1]),
    )
    ys = draw(st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True))
    layers = {
        j: draw(st.dictionaries(st.integers(0, 40), coeff, min_size=1, max_size=6)) for j in ys
    }
    points = draw(
        st.lists(
            st.one_of(st.integers(0, 200), st.integers(p - 3, 3 * p)),
            min_size=1,
            max_size=12,
        )
    )
    return layers, points


@settings(derandomize=True, deadline=None, max_examples=150)
@given(y_layer_inputs())
def test_eval_x_batch_property_matches_dense_horner(case):
    layers, points = case
    p = KERNEL_PRIME
    got = eval_x_batch(layers, np.array(points, dtype=np.int64), p)
    assert got.tolist() == eval_dense_horner(layers, points, p)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.integers(0, 60).flatmap(
        lambda deg: st.tuples(
            st.lists(st.integers(-(10**20), 10**20), min_size=deg + 1, max_size=deg + 1),
            st.integers(0, 400),
        )
    )
)
def test_interpolate_monomial_property_recovers_polynomial(case):
    # A run of consecutive points from any start in 0..400; any degree up to 60.
    coeffs, start = case
    pts = list(range(start, start + len(coeffs)))
    p = KERNEL_PRIME
    vals = [sum(c * t**i for i, c in enumerate(coeffs)) % p for t in pts]
    got = interpolate_monomial(np.array(pts, dtype=np.int64), np.array(vals, dtype=np.int64), p)
    assert got.tolist() == [c % p for c in coeffs]


def test_interpolate_monomial():
    rng = random.Random(515151)
    (p,) = primes_from_seed(1, seed=11)
    for _ in range(25):
        deg = rng.randrange(0, 12)
        coeffs = [rng.randrange(0, 10**6) for _ in range(deg + 1)]
        start = rng.randrange(1, 60)
        pts = list(range(start, start + deg + 1))
        vals = [sum(c * t**i for i, c in enumerate(coeffs)) % p for t in pts]
        got = interpolate_monomial(
            np.array(pts, dtype=np.int64), np.array(vals, dtype=np.int64), p
        )
        assert [int(v) for v in got] == [c % p for c in coeffs]


def newton_monomial_reference(points: list[int], values: list[int], p: int) -> list[int]:
    """Divided differences and their expansion in Python integers mod p."""
    n = len(points)
    coef = [v % p for v in values]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) * pow(points[i] - points[i - j], -1, p) % p
    poly = [coef[n - 1]]
    for j in range(n - 2, -1, -1):
        nxt = [0] * (len(poly) + 1)
        for i, v in enumerate(poly):
            nxt[i + 1] += v
            nxt[i] -= points[j] * v
        nxt[0] += coef[j]
        poly = [v % p for v in nxt]
    return poly


def test_interpolate_monomial_lazy_reduction_at_the_largest_prime():
    # The largest prime the seeds can draw, so 62 - p.bit_length() unreduced
    # differences is the tightest interval.  Values alternating p - 1 and 0
    # double at every difference, the fastest growth residues allow, and
    # n = 256 points make the lazy reduction fire 8 times.
    p = next(q for q in range(_PRIME_HI, _PRIME_LO, -1) if _is_prime(q))
    n = 256
    rng = random.Random(7272)
    cases = {
        "alternating": [p - 1 if i % 2 == 0 else 0 for i in range(n)],
        "constant": [p - 1] * n,
        "random": [rng.randrange(p) for _ in range(n)],
    }
    for start in (0, 1, 300):
        pts = list(range(start, start + n))
        for name, vals in cases.items():
            got = interpolate_monomial(np.array(pts, dtype=np.int64), np.array(vals, dtype=np.int64), p)
            assert got.tolist() == newton_monomial_reference(pts, vals, p), (name, start)


@pytest.mark.parametrize(
    "points",
    [[3, 1, 2], [1, 2, 4], [2, 2, 3], [5, 4, 3], [-1, 0, 1], [0, 1, KERNEL_PRIME]],
)
def test_interpolate_monomial_rejects_points_that_are_no_run(points):
    # 5 + 2t + 7t^2 through [3, 1, 2] came out as wrong coefficients
    # when any increasing points were accepted
    p = KERNEL_PRIME
    vals = [(5 + 2 * t + 7 * t * t) % p for t in points]
    with pytest.raises(ValueError):
        interpolate_monomial(np.array(points, dtype=np.int64), np.array(vals, dtype=np.int64), p)
