"""Exact rational row reduction of sparse rows: rref, rank and quotients.

A row is a ``SparseRow``: ``(column, coefficient)`` pairs with distinct
columns and Fraction or int coefficients; zero entries are ignored.
``rref`` inserts the rows one at a time and keeps the pivot rows fully
reduced after every insertion: a new row is reduced by the pivot rows
whose columns it touches, its lowest remaining column becomes a new
pivot, and that column is cleared from the other pivot rows.  The pivot
rows then always have a leading 1 in their own pivot column and zeros in
every other pivot column, and they span the rows seen so far.  A basis
of a row space with those two properties is unique, so the output is the
reduced row echelon form whatever the order of the input rows, and
equals what dense Gaussian elimination gives.

Every exact elimination in the package enters through ``rank`` or
``quotient``, and both reduce with ``rref``.  ``SparseRow`` is also the
one vector type of the package: the algebra's tables, Bs(J), the TAG
bracket and the Chevalley-Eilenberg boundary columns hold their vectors
as sorted pairs with no zero coefficient, built with ``accumulate`` and
``sparse_row``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Collection, Sequence

SparseRow = tuple[tuple[int, Fraction], ...]


def accumulate(acc: dict[int, Fraction], row: SparseRow, scale: Fraction | int = 1) -> None:
    """acc += scale * row.

    A new key takes its term as it is, and scale 1 multiplies nothing:
    seeding with the int 0 would cost a ``Fraction.__radd__`` per entry.
    """
    if scale != 1:
        row = [(k, scale * c) for k, c in row]
    for k, c in row:
        if k in acc:
            acc[k] += c
        else:
            acc[k] = c


def sparse_row(acc: dict[int, Fraction]) -> SparseRow:
    """The nonzero entries of ``acc``, sorted by index."""
    return tuple(sorted((k, c) for k, c in acc.items() if c))


def _subtract(vec: dict[int, Fraction], f: Fraction, row: dict[int, Fraction], skip: int) -> None:
    """vec -= f * row outside column ``skip``, dropping the zeros."""
    for k, c in row.items():
        if k != skip:
            v = vec.get(k, 0) - f * c
            if v:
                vec[k] = v
            else:
                del vec[k]


def rref(rows: Sequence[SparseRow]) -> tuple[list[SparseRow], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The rows come back sorted by pivot, each as sorted sparse pairs.
    """
    reduced: dict[int, dict[int, Fraction]] = {}  # pivot column -> its row
    # The order does not change the result; short rows first keep the
    # pivot rows sparse for longer.
    for row in sorted(rows, key=len):
        vec = {k: Fraction(c) for k, c in row if c}
        for p in [k for k in vec if k in reduced]:
            _subtract(vec, vec.pop(p), reduced[p], p)
        if not vec:
            continue
        piv = min(vec)
        inv = 1 / vec[piv]
        vec = {k: c * inv for k, c in vec.items()}
        for other in reduced.values():
            if piv in other:
                _subtract(other, other.pop(piv), vec, piv)
        reduced[piv] = vec
    pivots = sorted(reduced)
    return [tuple(sorted(reduced[p].items())) for p in pivots], pivots


def rank(rows: Sequence[SparseRow]) -> int:
    return len(rref(rows)[1])


def quotient(
    rows: Collection[SparseRow], parity: Sequence[int]
) -> tuple[list[int], list[SparseRow]]:
    """Quotient of a coordinate space by the span of sparse relation rows.

    ``parity[k]`` is the parity of coordinate k.  Each row ``((k, c), ...)``
    must lie in one parity block.  Returns the non-pivot coordinates in
    order (the quotient basis) and, for every coordinate, its image in
    that basis as a sparse row: a kept coordinate maps to ``((q, 1),)``,
    a pivot coordinate to its pivot row negated off the pivot.
    """
    for row in rows:
        if len({parity[k] for k, _ in row}) > 1:
            raise AssertionError("relation row mixes parities")
    reduced, pivots = rref(list(rows))
    pivot_row = dict(zip(pivots, reduced))
    kept = [k for k in range(len(parity)) if k not in pivot_row]
    index = {k: q for q, k in enumerate(kept)}
    # Off its pivot, a reduced row lies in kept columns only, in order.
    projection = [
        ((index[k], Fraction(1)),) if k in index
        else tuple((index[k2], -c) for k2, c in pivot_row[k] if k2 != k)
        for k in range(len(parity))
    ]
    return kept, projection
