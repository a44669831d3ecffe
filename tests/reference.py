"""Brute-force reference implementations that the tests check the package against.

None of these runs in a command: each recomputes by another route what the
package computes in closed form or through its tables.

* ``lambda_direct``      -- lambda of a graded superspace by basis enumeration;
* ``adjoint_even_line``,
  ``adjoint_odd_line``   -- the adjoint line factors as sums of t-integers;
* ``is_t_symmetric``     -- the t -> 1/t symmetry of an sl2 character;
* ``jordan_residual``    -- the super Jordan identity through the tables;
* ``fraction_rref``      -- reduced row echelon form by rational elimination.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from freejordan import linalg
from freejordan.jordan import GradedJordanAlgebra, Vector
from freejordan.rings import (
    GDIM_ONE,
    GDIM_ZERO,
    GDim,
    RLaurent,
    SuperSeries,
    TZSeries,
    t_integer,
)


def adjoint_even_line(m: int, order: int) -> TZSeries:
    """(1 - [2]_t z^m + z^{2m}, 0): lambda of one even vector tensor adjoint."""
    out = TZSeries.one(order)
    out = out + TZSeries.monomial(-t_integer(2), m, order)
    out = out + TZSeries.monomial(RLaurent.one(), 2 * m, order)
    return out


def adjoint_odd_line(m: int, order: int) -> TZSeries:
    """(sum_i [2i+1]_t z^{2im}, -sum_i [2i+2]_t z^{(2i+1)m})."""
    coeffs = []
    j = 0
    while j * m <= order:
        if j % 2 == 0:
            coeffs.append(t_integer(j + 1))
        else:
            coeffs.append(t_integer(j + 1) * GDim(0, -1))
        j += 1
    full = [RLaurent.zero()] * (order + 1)
    for j, c in enumerate(coeffs):
        full[j * m] = c
    return TZSeries(order, full)


def lambda_direct(pieces: Sequence[tuple[GDim, int]], order: int) -> SuperSeries:
    """Brute-force lambda of a graded superspace, by basis enumeration.

    ``pieces`` lists (graded dimension, z-degree) for finitely many graded
    components with nonnegative entries.  Expands every exterior-power
    subset of the even basis and every symmetric-power multiset of the odd
    basis, with sign (-1)^(p+q); the multiset parity decides even/odd.
    Serves as an independent oracle for the closed-form line factors.
    """
    even_degs: list[int] = []
    odd_degs: list[int] = []
    for g, m in pieces:
        if m < 1:
            raise ValueError("graded pieces must sit in degree >= 1")
        if g.even < 0 or g.odd < 0:
            raise ValueError("direct enumeration needs an effective class")
        even_degs.extend([m] * g.even)
        odd_degs.extend([m] * g.odd)

    # Exterior powers of the even part: plain subsets.
    ext = [GDIM_ZERO] * (order + 1)  # signed count per total degree, parity even
    for p in range(len(even_degs) + 1):
        for sub in combinations(even_degs, p):
            d = sum(sub)
            if d <= order:
                ext[d] = ext[d] + (GDIM_ONE if p % 2 == 0 else GDim(-1, 0))
    ext_series = SuperSeries(order, ext)

    # Symmetric powers of the odd part: multisets, enumerated recursively.
    # Each multiset of size q contributes (-1)^q with parity q mod 2.
    sym = [GDIM_ZERO] * (order + 1)
    sym[0] = GDIM_ONE

    def visit(i: int, deg: int, q: int) -> None:
        for j in range(i, len(odd_degs)):
            d, k = deg, q
            while True:
                d += odd_degs[j]
                k += 1
                if d > order:
                    break
                sym[d] = sym[d] + (GDim(1, 0) if k % 2 == 0 else GDim(0, -1))
                visit(j + 1, d, k)

    visit(0, 0, 0)
    sym_series = SuperSeries(order, sym)
    return ext_series * sym_series


def is_t_symmetric(c: RLaurent) -> bool:
    """Whether the coefficient at t^e always equals the one at t^-e."""
    return all(c[e] == c[-e] for e, _ in c.terms)


def jordan_residual(
    alg: GradedJordanAlgebra,
    x: tuple[int, Vector],
    y: tuple[int, Vector],
    z: tuple[int, Vector],
    w: tuple[int, Vector],
) -> Vector:
    """The super Jordan identity operator applied to (x, y, z) and w.

    Vanishes identically on a Jordan superalgebra; evaluated through
    the stored multiplication tables.
    """
    n = x[0] + y[0] + z[0] + w[0]
    if n > alg.max_degree:
        raise ValueError("total degree beyond truncation")
    acc: dict[int, Fraction] = {}
    triple = [x, y, z]
    for r in range(3):
        (di, xi), (dj, xj), (dk, xk) = triple[r % 3], triple[(r + 1) % 3], triple[(r + 2) % 3]
        pi = alg._vec_parity(di, xi)
        pj = alg._vec_parity(dj, xj)
        pk = alg._vec_parity(dk, xk)
        s1 = (-1) ** (pi * pk)
        s2 = (-1) ** ((pi + pj) * pk)
        ab = alg.multiply(di, xi, dj, xj)
        zw = alg.multiply(dk, xk, w[0], w[1])
        t1 = alg.multiply(di + dj, ab, dk + w[0], zw)
        abw = alg.multiply(di + dj, ab, w[0], w[1])
        t2 = alg.multiply(dk, xk, di + dj + w[0], abw)
        linalg.accumulate(acc, t1, s1)
        linalg.accumulate(acc, t2, -s1 * s2)
    return linalg.sparse_row(acc)


def _subtract(vec: dict[int, Fraction], f: Fraction, row: dict[int, Fraction], skip: int) -> None:
    """vec -= f * row outside column ``skip``, dropping the zeros."""
    for k, c in row.items():
        if k != skip:
            v = vec.get(k, 0) - f * c
            if v:
                vec[k] = v
            else:
                del vec[k]


def fraction_rref(rows: Sequence[linalg.SparseRow]) -> tuple[list[linalg.SparseRow], list[int]]:
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
