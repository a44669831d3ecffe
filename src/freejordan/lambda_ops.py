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

A dimension series a(z) = sum_{n>=1} a_n z^n is passed as the tuple
(a_1, ..., a_N) of its GDim coefficients; it has no constant term, and its
length N is the truncation order of the product.  Every product is a
``TZSeries``, the package's one series type.

The solvers read these products through L0(c) = c_0 - c_{-1} =
Res_{t=0} (t^-1 - 1) c dt and L2(c) = c_{-1} - c_{-2} = Res_{t=0} (1 - t) c dt
(``rings``), the multiplicities of the trivial and adjoint sl2 isotypes.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce
from math import comb
from operator import mul

from .rings import GDIM_ONE, GDIM_X, GDim, RLaurent, TZSeries


def _one_minus_pow(c: GDim, texp: int, m: int, k: int, order: int) -> TZSeries:
    """(1 - c * t^texp * z^m) ** k for any integer k, via binomial series.

    c is 1 or x, so c**j is c for odd j and 1 for even j.  Closed-form
    expansion keeps factors sparse even for huge exponents:
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
        terms[j * m] = RLaurent({j * texp: (c if j & 1 else GDIM_ONE) * coef})
    return TZSeries(order, terms)


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


def phi_series(a: Sequence[GDim], b: Sequence[GDim]) -> TZSeries:
    """lambda of a(z) tensor adjoint plus b(z), as the explicit product.

    ``a`` and ``b`` hold the coefficients of z^1..z^N; the product is
    truncated at that N.
    """
    if len(a) != len(b):
        raise ValueError(f"mismatched truncation orders {len(a)} != {len(b)}")
    order = len(a)
    out = TZSeries.one(order)
    for n, (an, bn) in enumerate(zip(a, b), start=1):
        if an or bn:
            out = out * phi_line(an, bn, n, order)
    return out


def lambda_adjoint_series(a: Sequence[GDim]) -> TZSeries:
    """Psi(a), lambda of a(z) tensor adjoint: the product Phi(a, -a)."""
    return phi_series(a, [-c for c in a])
