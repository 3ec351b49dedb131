"""Small dense linear algebra over exact fields.

Everything here works on lists of lists whose entries support +, -, *, /
and truthiness (rationals, GaussianRational).  The pivot is the first
nonzero entry of its column, so results are deterministic.

Only what the package needs: reduced row echelon form, rank, and a
particular solution with free variables pinned to zero.
"""

from __future__ import annotations


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    rows = [list(r) for r in rows]
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivot_cols = []
    r = 0
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        rows[r] = [e / pv for e in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
    return rows, pivot_cols


def rank(rows):
    """Rank of A."""
    _, pivot_cols = rref(rows)
    return len(pivot_cols)


def solve(rows, rhs):
    """One solution of A x = b with free variables set to zero.

    Returns the solution list, or None if the system is inconsistent.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivot_cols = rref(aug)
    if ncols in pivot_cols:
        return None  # pivot in the augmented column: inconsistent
    zero = rows[0][0] - rows[0][0]
    x = [zero] * ncols
    row_idx = 0
    for c in pivot_cols:
        x[c] = red[row_idx][ncols]
        row_idx += 1
    return x
