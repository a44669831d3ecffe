"""Exact fraction-free row reduction of sparse rows: rref, rank and quotients.

A row is a ``SparseRow``: ``(column, coefficient)`` pairs with distinct
columns and int coefficients; zero entries are ignored.  Every caller
builds its rows from integer tables (the algebra's, held at
``alg.scale``, or the TAG bracket table).  ``rref`` eliminates over the
integers (fraction-free Gauss-Jordan, after Bareiss, Math. Comp. 22,
1968), and the pivot rows are kept primitive: the gcd of a row's entries
is 1 and its leading entry is positive.  The rows are inserted one at a
time and the pivot rows stay fully reduced after every insertion: a new
row is reduced by the pivot rows whose columns it touches, through the
integer combination ``row[p]*vec - vec[p]*row`` divided by
``gcd(row[p], vec[p])``; its lowest remaining column becomes a new pivot,
and that column is cleared from the other pivot rows the same way.  Every
step is exact, so no prime, reconstruction or certificate is needed, and
the entries stay small.

The output stays in ints too.  Each pivot row is primitive, has a
positive entry in its own pivot column and zeros in every other pivot
column, and the rows span the rows seen so far.  A basis of a row space
with those properties is unique, so ``rref`` returns the same rows
whatever the order of the input rows and whatever nonzero multiple of
each row is given; each row divided by its pivot entry is the reduced
row echelon form that rational Gaussian elimination gives.
``quotient`` writes its projection over one ``scale``, the lcm of the
pivot entries: as each row is primitive, that is the lcm of the
denominators of the rational projection, which is the projection divided
by ``scale``.

Every exact elimination in the package enters through ``rank`` or
``quotient``.  Both reduce with ``_reduce``; ``quotient`` goes on through
``rref`` to the sorted pivot rows, which ``rank`` never builds.
``rank_mod_p`` is the one inexact engine: a rank mod ``PRIME`` on packed
rows, a lower bound for the rank over Q that only a certificate may
promote to an exact rank (``homology``).
``SparseRow`` is also the one vector type of the package: the algebra's
tables, Bs(J), the TAG bracket and the Chevalley-Eilenberg boundary
columns hold their vectors as sorted pairs with no zero coefficient,
built with ``accumulate`` and ``sparse_row``.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import itemgetter
from typing import Collection, Sequence

SparseRow = tuple[tuple[int, int], ...]


def accumulate(acc: dict[int, int], row: SparseRow, scale: int = 1) -> None:
    """acc += scale * row."""
    for k, c in row:
        acc[k] = acc.get(k, 0) + scale * c


def sparse_row(acc: dict[int, int]) -> SparseRow:
    """The nonzero entries of ``acc``, sorted by index."""
    return tuple(sorted(filter(itemgetter(1), acc.items())))


def _eliminate(vec: dict[int, int], row: dict[int, int], p: int) -> None:
    """Clear column p of vec in place: vec <- (row[p]*vec - vec[p]*row) / g.

    g = gcd(row[p], vec[p]), and row[p] > 0, so vec keeps its sign.
    """
    v = vec.pop(p)
    lead = row[p]
    g = gcd(lead, v)
    if g != lead:
        a = lead // g
        for k in vec:
            vec[k] *= a
    b = v // g
    for k, c in row.items():
        if k != p:
            x = vec.get(k, 0) - b * c
            if x:
                vec[k] = x
            else:
                del vec[k]


def _make_primitive(vec: dict[int, int], lead: int) -> None:
    """Divide vec by the gcd of its entries, signed so that vec[lead] > 0."""
    g = gcd(*vec.values())
    if vec[lead] < 0:
        g = -g
    if g != 1:
        for k in vec:
            vec[k] //= g


def _reduce(rows: Sequence[SparseRow]) -> dict[int, dict[int, int]]:
    """The fully reduced primitive pivot rows of the int ``rows``, keyed by pivot column."""
    reduced: dict[int, dict[int, int]] = {}
    # The order does not change the result; short rows first keep the
    # pivot rows sparse for longer.
    for row in sorted(rows, key=len):
        vec = {k: c for k, c in row if c}
        for p in [k for k in vec if k in reduced]:
            _eliminate(vec, reduced[p], p)
        if not vec:
            continue
        piv = min(vec)
        _make_primitive(vec, piv)
        for q, other in reduced.items():
            if piv in other:
                _eliminate(other, vec, piv)
                _make_primitive(other, q)
        reduced[piv] = vec
    return reduced


def rref(rows: Sequence[SparseRow]) -> tuple[list[SparseRow], list[int]]:
    """The fully reduced primitive basis of the row space; returns (rows, pivot columns).

    The rows come back sorted by pivot, each as sorted sparse pairs of
    ints, so its first entry is its pivot entry, which is positive.
    Divided by that entry, they are the reduced row echelon form.
    """
    reduced = _reduce(rows)
    pivots = sorted(reduced)
    return [tuple(sorted(reduced[p].items())) for p in pivots], pivots


def rank(rows: Sequence[SparseRow]) -> int:
    """Row rank: the number of pivots, with no sorted output rows built."""
    return len(_reduce(rows))


PRIME = 13
# Every byte b to b mod PRIME.  A packed step leaves each digit at most
# (PRIME - 1) + (PRIME - 1)**2 < 256, so no digit carries into the next.
_MOD_P = bytes(b % PRIME for b in range(256))
_INVERSE = [0] + [pow(c, -1, PRIME) for c in range(1, PRIME)]


def _mod_p(v: int, size: int) -> int:
    """Each of the ``size`` bytes of v reduced mod PRIME."""
    return int.from_bytes(v.to_bytes(size, "little").translate(_MOD_P), "little")


def rank_mod_p(rows: Sequence[SparseRow]) -> int:
    """Rank mod PRIME of the int ``rows``, each first divided by the gcd of its entries.

    Dividing a row by a constant keeps the rank over Q, and a minor that
    vanishes over Q vanishes mod PRIME, so this is at most ``rank(rows)``.
    A row is packed one byte per column into one int, column k at byte k.
    Its pivot is its top nonzero byte, and pivot rows are kept monic, so
    one elimination step clears that byte f of v by v + (PRIME - f)·q, one
    big-int multiply-add, then reduces every byte mod PRIME.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        g = gcd(*(c for _, c in row))
        if not g:
            continue  # a zero row
        v = 0
        for k, c in row:
            v |= c // g % PRIME << 8 * k
        while v:
            top = (v.bit_length() - 1) >> 3
            f = v >> 8 * top
            q = pivots.get(top)
            if q is None:
                pivots[top] = _mod_p(v * _INVERSE[f], top + 1) if f != 1 else v
                break
            v = _mod_p(v + (PRIME - f) * q, top + 1)
    return len(pivots)


def quotient(
    rows: Collection[SparseRow], parity: Sequence[int]
) -> tuple[list[int], list[SparseRow], int]:
    """Quotient of a coordinate space by the span of sparse relation rows.

    ``parity[k]`` is the parity of coordinate k.  Each row ``((k, c), ...)``
    must lie in one parity block.  Returns the non-pivot coordinates in
    order (the quotient basis), for every coordinate ``scale`` times its
    image in that basis as a sparse row, and ``scale``, the lcm of the
    pivot entries: a kept coordinate maps to ``((q, scale),)``, a pivot
    coordinate to its pivot row negated off the pivot, times ``scale``
    over its pivot entry.
    """
    for row in rows:
        if len({parity[k] for k, _ in row}) > 1:
            raise AssertionError("relation row mixes parities")
    reduced, pivots = rref(list(rows))
    scale = lcm(*(row[0][1] for row in reduced))
    pivot_set = set(pivots)
    kept = [k for k in range(len(parity)) if k not in pivot_set]
    index = {k: q for q, k in enumerate(kept)}
    # Off its pivot, a reduced row lies in kept columns only, in order.
    image = {}
    for (p, lead), *rest in reduced:
        image[p] = tuple((index[k], -c * (scale // lead)) for k, c in rest)
    projection = [image[k] if k in image else ((index[k], scale),) for k in range(len(parity))]
    return kept, projection, scale
