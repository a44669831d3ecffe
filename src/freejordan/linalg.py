"""Exact rational Gaussian elimination: rref and rank.

Matrices are lists of rows of Fractions (or ints).  Everything is dense;
the matrices in this project stay small enough that simplicity wins.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Row = list[Fraction]
Matrix = list[Row]


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

