"""Closed forms for the super lambda-operation and the character products.

For a class a = (e, o) z^m the lambda-operation is the alternating sum of
exterior powers of the even part tensored with symmetric powers of the odd
part.  On one graded line it has the closed form

    lambda(a z^m) = (1 - z^m)^e * (1/(1 - z^{2m}), -z^m/(1 - z^{2m}))^o,

and on a line tensored with the adjoint sl2 character (t-weights -2,0,2)

    lambda(a z^m [adjoint]) = (1 - [2]_t z^m + z^{2m}, 0)^e *
        (sum_i [2i+1]_t z^{2im}, -sum_i [2i+2]_t z^{(2i+1)m})^o.

One line factor serves every product: the degree-n factor of

    Phi(a, b) = lambda(a(z) [adjoint] + (a + b)(z))

is ``phi_line(a_n, b_n, n, order)``.  The adjoint character product is
Psi(a) = Phi(a, -a), and the plain lambda-operation is lambda(c) =
Phi(0, c), whose factors are t-free.  Infinite products over lines n >= 1
are finite after truncation because the n-th factor is congruent to 1
mod z^n.

The solvers read these products through L0(c) = c_0 - c_{-1} =
Res_{t=0} (t^-1 - 1) c dt and L2(c) = c_{-1} - c_{-2} = Res_{t=0} (1 - t) c dt
(``rings``), the multiplicities of the trivial and adjoint sl2 isotypes.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations
from math import comb
from operator import mul
from typing import Sequence

from .rings import (
    GDIM_ONE,
    GDIM_X,
    GDIM_ZERO,
    GDim,
    RLaurent,
    SuperSeries,
    TZSeries,
    t_integer,
)


def _require_no_constant(a: SuperSeries, name: str) -> None:
    if a[0]:
        raise ValueError(f"{name} must have zero constant term")


def _one_minus_pow(c: GDim, texp: int, m: int, k: int, order: int) -> TZSeries:
    """(1 - c * t^texp * z^m) ** k for any integer k, via binomial series.

    Closed-form expansion keeps factors sparse even for huge exponents:
    for k >= 0 the sum is finite, for k < 0 it is the generalized binomial
    series, truncated at z^order either way.
    """
    jmax = order // m
    if k >= 0:
        jmax = min(jmax, k)
    terms: list[RLaurent] = [RLaurent.zero()] * (order + 1)
    for j in range(jmax + 1):
        if k >= 0:
            coef = comb(k, j) * (-1) ** j
        else:
            coef = comb(-k + j - 1, j)
        terms[j * m] = RLaurent({j * texp: (c**j) * coef})
    return TZSeries(order, terms)


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


def phi_line(an: GDim, bn: GDim, n: int, order: int) -> TZSeries:
    """Degree-n factor of Phi(a, b): lambda of an z^n [adjoint] + (an + bn) z^n.

    Phi is the product of these factors over n >= 1.  Each line is a
    product of binomials (1 - c t^e z^m)^k, listed below as (c, e, m, k):
    the plain lines of (an + bn) z^n, then the adjoint lines of an z^n.
    The t-free lines come first, while the partial product is still t-free
    and cheap to multiply; each line's sparse binomials are multiplied
    together before they meet the denser partial product.
    """
    s = an + bn
    table = (
        # plain even line: 1 - z^n
        ((GDIM_ONE, 0, n, s.even),),
        # plain odd line: (1 - x z^n) / (1 - z^{2n})
        ((GDIM_ONE, 0, 2 * n, -s.odd), (GDIM_X, 0, n, s.odd)),
        # adjoint even line: 1 - [2]_t z^n + z^{2n} = (1 - t z^n)(1 - z^n/t)
        ((GDIM_ONE, 1, n, an.even), (GDIM_ONE, -1, n, an.even)),
        # adjoint odd line:
        #   (1 - x t z^n)(1 - x z^n/t) / ((1 - t^2 z^{2n})(1 - z^{2n}/t^2))
        ((GDIM_ONE, 2, 2 * n, -an.odd), (GDIM_ONE, -2, 2 * n, -an.odd),
         (GDIM_X, 1, n, an.odd), (GDIM_X, -1, n, an.odd)),
    )
    factors = [
        reduce(mul, [_one_minus_pow(c, e, m, k, order) for c, e, m, k in line])
        for line in table
        if line[0][3]
    ]
    return reduce(mul, factors) if factors else TZSeries.one(order)


def phi_series(a: SuperSeries, b: SuperSeries) -> TZSeries:
    """lambda of a(z) tensor adjoint plus b(z), as the explicit product."""
    _require_no_constant(a, "a")
    _require_no_constant(b, "b")
    a._check(b)
    order = a.order
    out = TZSeries.one(order)
    for n in range(1, order + 1):
        if a[n] or b[n]:
            out = out * phi_line(a[n], b[n], n, order)
    return out


def lambda_adjoint_series(a: SuperSeries) -> TZSeries:
    """Psi(a), lambda of a(z) tensor adjoint: the product Phi(a, -a)."""
    return phi_series(a, -a)


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
