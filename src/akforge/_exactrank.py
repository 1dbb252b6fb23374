"""Exact integer linear algebra: sparse rank profiles and small determinants.

Rank profiles use sparse fraction-free elimination.  Rows are dicts mapping
column index to a nonzero integer.  Columns are eliminated left to right, so
the returned pivot columns are exactly the leftmost independent columns,
which downstream code uses to read off ranks of every column prefix in one
pass.  Row updates use the one-step rule lam*r - mu*p followed by content
removal, which keeps entries integral without Bareiss bookkeeping.
"""

from __future__ import annotations

from math import gcd


def _content_strip(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def rank_profile_sparse(rows: list[dict[int, int]], ncols: int) -> list[int]:
    """Pivot columns (ascending) of the row space spanned by integer rows."""
    buckets: dict[int, list[dict[int, int]]] = {}
    for r in rows:
        live = {c: v for c, v in r.items() if v}
        if live:
            if min(live) < 0 or max(live) >= ncols:
                raise ValueError("column index out of range")
            buckets.setdefault(min(live), []).append(live)

    pivots: list[int] = []
    while buckets:
        c = min(buckets)
        group = buckets.pop(c)
        # Favor short rows with a small leading entry as the pivot.
        pi = min(range(len(group)), key=lambda i: (len(group[i]), abs(group[i][c])))
        pivot = group[pi]
        pivots.append(c)
        pl = pivot[c]
        for idx, row in enumerate(group):
            if idx == pi:
                continue
            rl = row[c]
            g = gcd(pl, rl)
            lam, mu = pl // g, rl // g
            new: dict[int, int] = {}
            for col, v in row.items():
                w = lam * v - mu * pivot.get(col, 0)
                if w:
                    new[col] = w
            for col, v in pivot.items():
                if col not in row:
                    w = -mu * v
                    if w:
                        new[col] = w
            new.pop(c, None)
            if new:
                new = _content_strip(new)
                buckets.setdefault(min(new), []).append(new)
    return pivots


def sylvester_matrix(a: list[int], b: list[int]) -> list[list[int]]:
    """Sylvester matrix of two univariate polynomials.

    Coefficient lists run low to high degree with nonzero leading entries.
    The determinant of the returned matrix is the resultant in the standard
    convention, matching the Euclidean-remainder recurrence used mod p.
    """
    if not a or not b or a[-1] == 0 or b[-1] == 0:
        raise ValueError("polynomials must be nonzero with trimmed leading zeros")
    da, db = len(a) - 1, len(b) - 1
    n = da + db
    desc_a = a[::-1]
    desc_b = b[::-1]
    rows = []
    for i in range(db):
        rows.append([0] * i + desc_a + [0] * (n - i - da - 1))
    for i in range(da):
        rows.append([0] * i + desc_b + [0] * (n - i - db - 1))
    return rows


def det_bareiss(mat: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix, fraction-free."""
    n = len(mat)
    if n == 0:
        return 1
    m = [list(map(int, row)) for row in mat]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pk = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            ri, rk = m[i], m[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - mik * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1]
