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
                g = gcd(*new.values())
                if g > 1:
                    new = {col: v // g for col, v in new.items()}
                buckets.setdefault(min(new), []).append(new)
    return pivots


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
