"""Modular arithmetic kernels: seeded primes, batched resultants, interpolation.

Primes are drawn deterministically from a PRNG seed in the half-open range
(2^31, isqrt(2^63)], so any product of two residues fits in a signed 64-bit
integer.  The seed comes from the AKFORGE_PRIME_SEED environment variable
when set, else from DEFAULT_PRIME_SEED, which makes every modular result
reproducible byte for byte.

Every kernel is plain numpy over int64 residues.  The resultant oracle's
modular path uses three: evaluation of sparse y-layers at many sample
points (eval_x_batch: one product per term and point, against one running
power of the points), the univariate Euclidean resultant at every
point at once (resultant_batch: division-free pseudo-remainder steps per
group of points that share a degree sequence, with one inverse per point
at the end) and Newton interpolation through one run of consecutive
points (interpolate_monomial: O(n^2) forward differences by plain int64
subtraction, reduced mod p only every 62 - p.bit_length() steps and
scaled by 1/j! once, then an O(n^2) expansion to the monomial basis
inside one preallocated array).
The dense row elimination rank_profile_mod_p has no caller in the package;
perfbench still traces it under that name.  numpy is imported inside each
kernel, so importing this module, and with it the package, does not load
numpy.
"""

from __future__ import annotations

import os
import random
from typing import TYPE_CHECKING

from .errors import InvalidInput

if TYPE_CHECKING:
    import numpy as np

DEFAULT_PRIME_SEED = 1729

_PRIME_LO = 2**31
_PRIME_HI = 3037000499  # isqrt(2^63): keeps (p-1)^2 inside int64


def _is_prime(n: int) -> bool:
    # Miller-Rabin with bases 2, 3, 5, 7 is deterministic below 3215031751,
    # which covers the whole candidate range.
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_seed() -> int:
    raw = os.environ.get("AKFORGE_PRIME_SEED")
    if raw is None:
        return DEFAULT_PRIME_SEED
    try:
        return int(raw.strip())
    except ValueError:
        raise InvalidInput(
            f"AKFORGE_PRIME_SEED must be a decimal integer, got {raw!r}"
        ) from None


def primes_from_seed(count: int = 2, seed: int | None = None) -> tuple[int, ...]:
    """Deterministic distinct primes in (2^31, isqrt(2^63)]."""
    if seed is None:
        seed = prime_seed()
    rng = random.Random(seed)
    found: list[int] = []
    while len(found) < count:
        c = rng.randrange(_PRIME_LO + 1, _PRIME_HI) | 1
        while c <= _PRIME_HI and not _is_prime(c):
            c += 2
        if c <= _PRIME_HI and c not in found:
            found.append(c)
    return tuple(found)


# -- rank profile ----------------------------------------------------------


def rank_profile_mod_p(mat: np.ndarray, p: int) -> list[int]:
    """Pivot columns of an integer matrix over GF(p); the input is copied."""
    import numpy as np

    a = np.ascontiguousarray(np.asarray(mat, dtype=np.int64) % p)
    if a.size == 0:
        return []
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        below = a[r + 1 :, c]
        mask = below != 0
        if mask.any():
            f = below[mask] * inv % p
            block = a[r + 1 :][mask]
            a[r + 1 :][mask] = (block - f[:, None] * a[r][None, :]) % p
        pivots.append(c)
        r += 1
    return pivots


# -- batched univariate resultants over GF(p) ------------------------------
#
# A bivariate integer polynomial enters as y-layers {j: {i: c}}: the
# coefficient c of y^j x^i, one dict per y-exponent that has terms.
# Evaluating the x-variable at many sample points turns Res_y into one
# univariate Euclidean resultant per point.


def eval_x_batch(layers: dict[int, dict[int, int]], points: np.ndarray, p: int) -> np.ndarray:
    """Value table of y-layers {j: {i: c}} at every sample point, mod p.

    Row j, column t holds sum (c mod p) * t^i mod p over the terms of layer
    j alone; a y-exponent with no terms gives a zero row.  The terms are
    visited by increasing x-exponent i, with one running power t^i mod p
    advanced by one product per exponent, so no table of powers is kept.
    Each step adds a product of two residues to a residue,
    (p-1)^2 + (p-1) < 2^63, so it stays inside int64.
    """
    import numpy as np

    t = np.asarray(points, dtype=np.int64) % p
    by_x: dict[int, list[tuple[int, int]]] = {}
    for j, row in layers.items():
        for i, c in row.items():
            by_x.setdefault(i, []).append((j, c % p))
    out = np.zeros((max(layers) + 1, t.size), dtype=np.int64)
    power = np.ones(t.size, dtype=np.int64)
    for i in range(max(by_x) + 1):
        for j, c in by_x.get(i, ()):
            out[j] += c * power
            out[j] %= p
        power *= t
        power %= p
    return out


def _powmod(base: np.ndarray, e: int, p: int) -> np.ndarray:
    """Elementwise base^e mod p for residues and a scalar exponent e >= 0."""
    import numpy as np

    out = np.ones_like(base)
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _degrees(c: np.ndarray) -> np.ndarray:
    """Per column, the index of the last nonzero row; -1 for a zero column."""
    import numpy as np

    nz = c != 0
    last = c.shape[0] - 1 - np.argmax(nz[::-1], axis=0)
    return np.where(nz.any(axis=0), last, -1)


def resultant_batch(fv: np.ndarray, gv: np.ndarray, p: int) -> np.ndarray:
    """Res_y at each sample point, from value tables produced by eval_x_batch.

    Column t of ``fv`` and ``gv`` holds the residues (in [0, p)) of the two
    polynomials at one sample point, row b being the coefficient of y^b.  Trailing zero
    rows are trimmed per column, so the degrees may differ from point to
    point; a column where either polynomial vanishes gives 0.

    The Euclidean resultant recurrence

        Res(a, b) = (-1)^(da*db) * lc(b)^(da - dr) * Res(b, r),  r = a mod b,

    runs on whole groups of columns at once: a group is a set of columns
    sharing the current degree pair (da, db), stored as a (da + 1, ncols)
    and a (db + 1, ncols) array.  No level inverts anything.  The remainder
    is a pseudo-remainder: e = max(da - db + 1, 0) steps of
    a <- lc(b)*a - a_top*y^k*b leave r' = lc(b)^e * r, and
    Res(b, r') = lc(b)^(e*db) * Res(b, r), so each column carries a
    numerator and a denominator, and the level multiplies one of them by
    lc(b)^|da - dr - e*db|.  Each column's denominator is inverted once, by
    one vectorised Fermat powmod over all columns at the end.

    When the top row of the remainder is nonzero in every column of the
    group (dr = db - 1, the generic case), the group goes on with the
    arrays it has.  Only a group whose columns diverge (a drop by more than
    one, a zero remainder) pays for a degree scan and splits by dr into
    groups of their own.  A step forms lc(b)*a - a_top*b from two products
    of residues, each below p^2 < 2^63, so their difference, and every
    product here, stays inside int64 because p < isqrt(2^63).
    """
    import numpy as np

    fv = np.asarray(fv, dtype=np.int64)
    gv = np.asarray(gv, dtype=np.int64)
    num = np.zeros(fv.shape[1], dtype=np.int64)
    den = np.ones(fv.shape[1], dtype=np.int64)
    dfs, dgs = _degrees(fv), _degrees(gv)
    live = (dfs >= 0) & (dgs >= 0)
    work = []
    for da, db in set(zip(dfs[live].tolist(), dgs[live].tolist())):
        cols = np.nonzero(live & (dfs == da) & (dgs == db))[0]
        ones = np.ones(cols.size, dtype=np.int64)
        work.append((cols, fv[: da + 1, cols], gv[: db + 1, cols], da, db, ones, ones))
    while work:
        cols, a, b, da, db, n, d = work.pop()
        while db:
            lc = b[db]
            for top in range(da, db - 1, -1):
                low = a[:top]
                low *= lc
                low[top - db :] -= a[top] * b[:db]
                # low %= p by floor division: numpy divides int64 by a
                # scalar about 1.7 times faster than it takes a remainder.
                q = low // p
                q *= p
                low -= q
            e = max(da - db + 1, 0)
            if (da * db) & 1:
                n = p - n
            r = a[:db]
            if r.shape[0] == db and r[db - 1].all():
                n, d = _scale(n, d, lc, da - (db - 1) - e * db, p)
                a, b, da, db = b, r, db, db - 1
                continue
            drs = _degrees(r)
            # A zero remainder leaves its columns at 0 in ``num``.
            for dr in set(drs[drs >= 0].tolist()):
                sub = drs == dr
                ns, ds = _scale(n[sub], d[sub], lc[sub], da - dr - e * db, p)
                work.append((cols[sub], b[:, sub], r[: dr + 1, sub], db, dr, ns, ds))
            break
        else:
            num[cols] = n * _powmod(b[0], da, p) % p
            den[cols] = d
    return num * _powmod(den, p - 2, p) % p


def _scale(num: np.ndarray, den: np.ndarray, lc: np.ndarray, e: int, p: int):
    """(num * lc^e, den) for e >= 0, else (num, den * lc^-e), mod p."""
    if e >= 0:
        return num * _powmod(lc, e, p) % p, den
    return num, den * _powmod(lc, -e, p) % p


def interpolate_monomial(points: np.ndarray, values: np.ndarray, p: int) -> np.ndarray:
    """Coefficients (low degree first) of the interpolating polynomial mod p.

    One coefficient per sample point.  The points must be one run of
    consecutive integers x_0, x_0 + 1, ..., with 0 <= x_0 and the last below
    p; anything else raises ValueError.  On a run the Newton coefficients
    are the forward differences over j!: c_j = (Delta^j y)(x_0) / j!.  The
    differences are plain int64 subtractions, reduced mod p only every
    62 - p.bit_length() steps: from residues, k subtractions leave every
    entry below 2^k * p in absolute value, so below 2^62.  The scaling by
    1/j! takes one Fermat inverse, of (n-1)!, and runs down from it.  The
    Newton form is then expanded by Horner's rule inside one preallocated
    array, with one array for the products, so no expansion step allocates.
    """
    import numpy as np

    x = np.asarray(points, dtype=np.int64)
    n = x.size
    if n and (x[0] < 0 or x[-1] >= p or (np.diff(x) != 1).any()):
        raise ValueError("the sample points must be a run of consecutive integers in [0, p)")
    coef = np.asarray(values, dtype=np.int64) % p
    lazy = 62 - p.bit_length()
    for j in range(1, n):
        coef[j:] -= coef[j - 1 : -1]
        if j % lazy == 0:
            np.remainder(coef[j:], p, out=coef[j:])
    coef %= p
    fact = 1
    for j in range(2, n):
        fact = fact * j % p
    inv, inv_fact = pow(fact, p - 2, p), np.empty(n, dtype=np.int64)
    for j in range(n - 1, -1, -1):
        inv_fact[j] = inv
        inv = inv * j % p
    coef = coef * inv_fact % p
    # Horner: poly <- poly * (X - x_j) + c_j for j = n-2 .. 0, where out[:deg + 1]
    # holds poly, so out[k] <- out[k-1] - x_j * out[k], then out[0] gets c_j.
    out = np.zeros(n, dtype=np.int64)
    prods = np.empty(n, dtype=np.int64)
    out[0] = coef[n - 1]
    for deg, j in enumerate(range(n - 2, -1, -1)):
        xj = int(x[j])
        step = np.multiply(out[1 : deg + 2], -xj, out=prods[: deg + 1])
        step += out[: deg + 1]
        np.remainder(step, p, out=out[1 : deg + 2])
        out[0] = (coef[j] - xj * out[0]) % p
    return out
