"""Modular arithmetic kernels: seeded primes, batched resultants, interpolation.

Primes are drawn deterministically from a PRNG seed in the half-open range
(2^31, isqrt(2^63)], so any product of two residues fits in a signed 64-bit
integer.  The seed comes from the AKFORGE_PRIME_SEED environment variable
when set, else from DEFAULT_PRIME_SEED, which makes every modular result
reproducible byte for byte.

Every kernel is plain numpy over int64 residues.  The resultant oracle's
modular path uses three: Horner evaluation of the x-variable at many sample
points (eval_x_batch), the univariate Euclidean resultant at every point at
once (resultant_batch: one numpy remainder step per group of points that
share a degree sequence) and Newton interpolation (interpolate_monomial).
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
# A bivariate integer polynomial enters as a dense int64 matrix C[b, i]:
# the coefficient of y^b x^i.  Evaluating the x-variable at many sample
# points turns Res_y into one univariate Euclidean resultant per point.


def eval_x_batch(c_mat: np.ndarray, points: np.ndarray, p: int) -> np.ndarray:
    """Horner-evaluate every y-layer at every sample point, mod p."""
    import numpy as np

    c = np.asarray(c_mat, dtype=np.int64) % p
    t = np.asarray(points, dtype=np.int64) % p
    nb, nx = c.shape
    out = np.zeros((nb, t.size), dtype=np.int64)
    for i in range(nx - 1, -1, -1):
        out = (out * t[None, :] + c[:, i][:, None]) % p
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

    Newton divided differences, then expansion to the monomial basis.  The
    sample points must be distinct small non-negative integers; difference
    inverses are served from one batch table.
    """
    import numpy as np

    x = np.asarray(points, dtype=np.int64)
    coef = (np.asarray(values, dtype=np.int64) % p).copy()
    n = x.size
    span = int(x.max() - x.min()) if n else 0
    inv_table = np.zeros(span + 1, dtype=np.int64)
    for v in range(1, span + 1):
        inv_table[v] = pow(v, p - 2, p)
    for j in range(1, n):
        diff = x[j:] - x[:-j]
        coef[j:] = (coef[j:] - coef[j - 1 : -1]) % p * inv_table[diff] % p
    # Horner expansion: poly = (...((c_{n-1})(X - x_{n-2}) + c_{n-2})...).
    out = np.zeros(n, dtype=np.int64)
    out[0] = coef[n - 1]
    deg = 0
    for j in range(n - 2, -1, -1):
        shifted = np.zeros(n, dtype=np.int64)
        shifted[1 : deg + 2] = out[: deg + 1]
        shifted[: deg + 1] = (shifted[: deg + 1] - int(x[j]) * out[: deg + 1]) % p
        deg += 1
        shifted[0] = (shifted[0] + coef[j]) % p
        out = shifted
    return out % p
