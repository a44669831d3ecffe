"""Exact fraction-free row reduction of sparse rows: rref, rank and quotients.

A row is a ``SparseRow``: ``(column, coefficient)`` pairs with distinct
columns; zero entries are ignored.  The rows given to ``rank``, ``rref``
and ``quotient`` hold ints, and nothing is scaled on the way in: every
caller builds its rows from integer tables (the algebra's, held at
``alg.scale``, or the TAG bracket table).  ``rref`` eliminates over the
integers (fraction-free Gauss-Jordan, after Bareiss, Math. Comp. 22,
1968), and the pivot rows are kept primitive: the gcd of a row's entries
is 1 and its leading entry is positive.  The rows are inserted one at a
time and the pivot rows stay fully reduced after every insertion: a new
row is reduced by the pivot rows whose columns it touches, through the
integer combination ``row[p]*vec - vec[p]*row`` divided by
``gcd(row[p], vec[p])``; its lowest remaining column becomes a new pivot,
and that column is cleared from the other pivot rows the same way.  Every step is exact, so no prime, reconstruction or certificate is
needed, and the entries stay small.

Only the output is rational: each pivot row is divided by its leading
entry.  The pivot rows then have a leading 1 in their own pivot column
and zeros in every other pivot column, and they span the rows seen so
far.  A basis of a row space with those two properties is unique, so the
output is the reduced row echelon form whatever the order of the input
rows and whatever nonzero multiple of each row is given, and equals what
rational Gaussian elimination gives.

Every exact elimination in the package enters through ``rank`` or
``quotient``.  Both reduce with ``_reduce``; ``quotient`` goes on through
``rref`` to the rational output rows, which ``rank`` never builds.
``rank_mod_p`` is the one inexact engine: a rank mod ``PRIME`` on packed
rows, a lower bound for the rank over Q that only a certificate may
promote to an exact rank (``homology``).
``SparseRow`` is also the one vector type of the package: the algebra's
tables, Bs(J), the TAG bracket and the Chevalley-Eilenberg boundary
columns hold their vectors as sorted pairs with no zero coefficient,
built with ``accumulate`` and ``sparse_row``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import Collection, Iterable, Sequence

SparseRow = tuple[tuple[int, Fraction | int], ...]


def accumulate(acc: dict[int, int], row: SparseRow, scale: int = 1) -> None:
    """acc += scale * row."""
    for k, c in row:
        acc[k] = acc.get(k, 0) + scale * c


def sparse_row(acc: dict[int, Fraction | int]) -> SparseRow:
    """The nonzero entries of ``acc``, sorted by index."""
    return tuple(sorted(filter(itemgetter(1), acc.items())))


def denominator(rows: Iterable[SparseRow]) -> int:
    """The lcm of the denominators of every coefficient in ``rows``."""
    return lcm(*(c.denominator for row in rows for _, c in row))


def scaled(row: SparseRow, den: int) -> SparseRow:
    """``den * row`` with int coefficients; ``den`` must clear every denominator (an int's is 1)."""
    return tuple((k, c.numerator * (den // c.denominator)) for k, c in row)


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
    """Reduced row echelon form; returns (nonzero rows, pivot columns).

    The rows come back sorted by pivot, each as sorted sparse pairs with
    Fraction coefficients.
    """
    reduced = _reduce(rows)
    pivots = sorted(reduced)
    out = []
    for p in pivots:
        vec = reduced[p]
        lead = vec[p]
        out.append(tuple((k, Fraction(c, lead)) for k, c in sorted(vec.items())))
    return out, pivots


def rank(rows: Sequence[SparseRow]) -> int:
    """Row rank: the number of pivots, with no rational output rows built."""
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
