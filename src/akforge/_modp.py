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
point at once (resultant_batch: one numpy remainder step per group of
points that share a degree sequence) and Newton interpolation
(interpolate_monomial: O(n^2) divided differences, whose table of
difference inverses is one vectorised powmod over 0..span, then an O(n^2)
expansion to the monomial basis inside one preallocated array).
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

    The Euclidean resultant recurrence runs on whole groups of columns at
    once: a group is a set of columns sharing the current degree pair
    (da, db), stored as a (da + 1, ncols) and a (db + 1, ncols) array with
    the running resultant factor per column.  One step reduces a modulo b
    for every column (leading inverses by a vectorized powmod), applies
    the sign (-1)^(da*db) and lc(b)^(da - dr), and regroups the columns by
    their remainder degree dr, so a column whose degree sequence departs
    from the others (a drop by more than one, da < db, a zero remainder)
    continues in a group of its own.  Every product of two residues, and a
    residue minus such a product, stays inside int64 because p < isqrt(2^63).
    """
    import numpy as np

    fv = np.asarray(fv, dtype=np.int64)
    gv = np.asarray(gv, dtype=np.int64)
    out = np.zeros(fv.shape[1], dtype=np.int64)
    dfs, dgs = _degrees(fv), _degrees(gv)
    live = (dfs >= 0) & (dgs >= 0)
    work = []
    for da, db in set(zip(dfs[live].tolist(), dgs[live].tolist())):
        cols = np.nonzero(live & (dfs == da) & (dgs == db))[0]
        ones = np.ones(cols.size, dtype=np.int64)
        work.append((cols, fv[: da + 1, cols], gv[: db + 1, cols], da, db, ones))
    while work:
        cols, a, b, da, db, res = work.pop()
        if db == 0:
            out[cols] = res * _powmod(b[0], da, p) % p
            continue
        if da >= db:
            binv = _powmod(b[db], p - 2, p)
            for top in range(da, db - 1, -1):
                f = a[top] * binv % p
                a[top - db : top + 1] = (a[top - db : top + 1] - f * b) % p
        r = a[:db]
        drs = _degrees(r)
        if (da * db) & 1:
            res = p - res
        # A zero remainder leaves its columns at 0 in ``out``.
        for dr in set(drs[drs >= 0].tolist()):
            sub = drs == dr
            step = res[sub] * _powmod(b[db, sub], da - dr, p) % p
            work.append((cols[sub], b[:, sub], r[: dr + 1, sub], db, dr, step))
    return out


def interpolate_monomial(points: np.ndarray, values: np.ndarray, p: int) -> np.ndarray:
    """Coefficients (low degree first) of the interpolating polynomial mod p.

    One coefficient per sample point.  Newton divided differences, then
    expansion to the monomial basis.  The sample points must be increasing
    small non-negative integers; difference inverses are served from one
    table, built by one vectorised powmod.  A divided-difference step takes
    one remainder: the difference of two residues lies in (-p, p) and the
    inverse below p, so their product fits in int64.  The Newton form is
    expanded by Horner's rule inside one preallocated array, with one
    array for the products, so no expansion step allocates.
    """
    import numpy as np

    x = np.asarray(points, dtype=np.int64)
    coef = np.asarray(values, dtype=np.int64) % p
    n = x.size
    span = int(x.max() - x.min()) if n else 0
    # Fermat inverses of 0..span in one vectorised powmod; 0 maps to 0.
    inv_table = _powmod(np.arange(span + 1, dtype=np.int64), p - 2, p)
    for j in range(1, n):
        coef[j:] = (coef[j:] - coef[j - 1 : -1]) * inv_table[x[j:] - x[:-j]] % p
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
