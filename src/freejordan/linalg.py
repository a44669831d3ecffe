"""Exact rational Gaussian elimination: rref, rank and quotients.

Matrices are lists of rows of Fractions (or ints).  Everything is dense;
the matrices in this project stay small enough that simplicity wins.
Every exact elimination in the package enters through ``rank`` or
``quotient``, and both reduce with ``rref``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Sequence

Row = list[Fraction]
Matrix = list[Row]
SparseRow = tuple[tuple[int, Fraction], ...]


def _to_fraction_rows(rows: Sequence[Sequence[Fraction | int]]) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows: Sequence[Sequence[Fraction | int]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = _to_fraction_rows(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        # Pivot choice: smallest numerator magnitude among nonzero entries,
        # to keep intermediate fractions modest.
        best = None
        for i in range(r, len(m)):
            if m[i][c]:
                if best is None or abs(m[i][c].numerator) < abs(m[best][c].numerator):
                    best = i
        if best is None:
            continue
        m[r], m[best] = m[best], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    return len(rref(rows)[1])


def quotient(
    rows: Collection[SparseRow], parity: Sequence[int]
) -> tuple[list[int], list[tuple[Fraction, ...]]]:
    """Quotient of a coordinate space by the span of sparse relation rows.

    ``parity[k]`` is the parity of coordinate k, every even coordinate
    first.  Each row ``((k, c), ...)`` must lie in one parity block; the
    blocks are reduced separately.  Returns the non-pivot coordinates in
    order (the quotient basis) and, for every coordinate, its image in
    that basis.
    """
    n = len(parity)
    n_even = parity.count(0)
    kept: list[int] = []
    pivot_expr: dict[int, list[tuple[int, Fraction]]] = {}
    for lo, hi in ((0, n_even), (n_even, n)):
        block = []
        for key in rows:
            if any(lo <= k < hi for k, _ in key):
                if not all(lo <= k < hi for k, _ in key):
                    raise AssertionError("relation row mixes parities")
                vec = [Fraction(0)] * (hi - lo)
                for k, c in key:
                    vec[k - lo] = c
                block.append(vec)
        reduced, pivots = rref(block) if block else ([], [])
        pivset = set(pivots)
        kept += [k for k in range(lo, hi) if k - lo not in pivset]
        for row, piv in zip(reduced, pivots):
            pivot_expr[piv + lo] = [(k + lo, -c) for k, c in enumerate(row) if k != piv and c]
    index = {k: q for q, k in enumerate(kept)}
    projection = []
    for k in range(n):
        col = [Fraction(0)] * len(kept)
        if k in index:
            col[index[k]] = Fraction(1)
        else:
            for k2, c2 in pivot_expr[k]:
                col[index[k2]] += c2
        projection.append(tuple(col))
    return kept, projection
