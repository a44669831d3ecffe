"""Brute-force reference implementations that the tests check the package against.

None of these runs in a command: each recomputes by another route what the
package computes in closed form or through its tables.

* ``t_integer``          -- the t-integer [m]_t as a sum of t-powers;
* ``laurent_product``    -- the product of two RLaurents, summed as GDim
                           products over pairs of exponents;
* ``t_free``,
  ``z_monomial``,
  ``series_one``         -- series with t-free coefficients, c z^m, and 1;
* ``series_power``       -- integer powers of a series, the inverse by the
                           term-by-term recurrence;
* ``one_minus_pow``,
  ``phi_line``,
  ``line_product``       -- Phi(a, b) as the product of its closed-form line
                           factors, each a product of binomial series
                           (1 - c t^e z^m)^k, the route the plethystic
                           exponential replaced;
* ``lambda_direct``      -- lambda of a graded superspace by basis enumeration;
* ``single_residuals``,
  ``pair_residuals``     -- the residue of the single equation and the
                           defects of the two-equation system on given
                           series, read off the whole product series, the
                           route the kernel's residues replaced for the
                           single equation;
* ``adjoint_even_line``,
  ``adjoint_odd_line``   -- the adjoint line factors as sums of t-integers;
* ``is_t_symmetric``     -- the t -> 1/t symmetry of an sl2 character;
* ``rational``           -- an algebra's tables over its scale, in Fractions:
                           the rational products, at scale 1;
* ``basis_vector``,
  ``multiply``,
  ``derivation_of``      -- rational vectors, products and d_{x,y} = [L_x, L_y]
                           through the tables, for any homogeneous vectors
                           (rational on a ``rational`` view);
* ``jordan_residual``    -- the super Jordan identity through the tables;
* ``identity_instance``  -- one top-level instance of the identity in W_n,
                           summed over the rotations of (x, y, z), the route
                           D applied to a cyclic row replaced;
* ``tag_graded_dims``    -- the graded dimensions of the TAG basis, counted;
* ``unfold``,
  ``bs_json``            -- Bs(J) over every ordered pair of J (x) J, as it was
                           held before its coordinates were folded to the
                           super exterior square, with the rational
                           projection, and all its degrees as JSON;
* ``project``            -- the class in Bs(J) of an ambient J (x) J vector;
* ``element``            -- the kind ("sl2" or "bs") and data of a TAG basis
                           element, read off ``tag.at``;
* ``sl2_index``,
  ``bs_index``           -- the TAG basis position of a(x)J_n[u] and of
                           Bs_n[u], read off ``tag.at``;
* ``sl2_tensor``,
  ``bs_terms``,
  ``bs_lift``            -- a J vector as a(x)J terms and a Bs vector as Bs
                           terms of the TAG basis, and the ambient lift of
                           a Bs class;
* ``fraction_brackets``  -- the TAG bracket table summed in Fractions from
                           the rational tables, the route the integer table
                           replaced;
* ``bracket``,
  ``structure_constants_json`` -- one bracket, and the whole table as JSON,
                           in Fractions: the integer table over its scale;
* ``theta``,
  ``theta_table``        -- the sl2 mirror e <-> f, h -> -h of the TAG basis
                           (Bs fixed), and the bracket table carried through it;
* ``fraction_rref``,
  ``fraction_quotient``  -- reduced row echelon form by rational elimination,
                           and the quotient with its rational projection,
                           the route the int output of ``linalg`` replaced;
* ``reference_chain_blocks``,
  ``reference_boundary_monomial`` -- the Chevalley-Eilenberg chains by
                           filtering every index tuple, and their boundary
                           with signs summed factor by factor;
* ``FullWeightComplex``  -- the chain blocks and boundary columns at every
                           weight, negative ones included, each column from
                           its tail's with the smallest factor as head;
* ``pair_boundaries``    -- every boundary column of a chain complex by the
                           pair formula, one bracket per pair of factors;
* ``block_key``,
  ``block_dim``          -- a chain's block, summed from its factors, and
                           the dimensions of the blocks at one (r, d);
* ``ordered_jacobi_failures`` -- every ordered in-range triple whose
                           Jacobiator is nonzero, summed with plain dicts;
* ``q_homology_weights`` -- dim H_r per weight with every block of a
                           ``FullWeightComplex``, negative weights included,
                           ranked over Q by ``linalg.rank``, the route the
                           certified ranks replaced;
* ``isotypic_multiplicities`` -- the multiplicity of each irreducible in H_r
                           as the difference of the dimensions at adjacent
                           weights, the route that reading it off the
                           rank certificate replaced.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import replace
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, combinations_with_replacement, product
from math import comb
from operator import mul
from typing import Sequence

from freejordan import linalg, solver
from freejordan.homology import BlockKey, ChainComplex, Monomial
from freejordan.jordan import GradedJordanAlgebra, PairSpace, Vector
from freejordan.lambda_ops import lambda_adjoint_series, phi_series
from freejordan.rings import GDIM_ONE, GDIM_X, GDIM_ZERO, L0, L2, RLAURENT_ONE, RLAURENT_ZERO, GDim, RLaurent, TZSeries
from freejordan.tag import BsComponent, TagAlgebra

# sl2 in the basis e, h, f: [a, b] = coeff c as (a, b) -> (c, coeff), and
# the trace form k(e,f) = k(f,e) = 4, k(h,h) = 8.
SL2_BRACKET = {
    (0, 2): (1, 1), (2, 0): (1, -1), (1, 0): (0, 2), (0, 1): (0, -2), (1, 2): (2, -2), (2, 1): (2, 2),
}
KAPPA = {(0, 2): 4, (2, 0): 4, (1, 1): 8}


def t_integer(m: int) -> RLaurent:
    """The t-integer [m]_t = (t^m - t^-m)/(t - t^-1) = sum t^(m-1-2i)."""
    if m < 1:
        raise ValueError("t-integers are defined for m >= 1")
    return RLaurent({m - 1 - 2 * i: GDIM_ONE for i in range(m)})


def laurent_product(a: RLaurent, b: RLaurent) -> RLaurent:
    """a * b as a sum of GDim products, one per pair of exponents."""
    acc: dict[int, GDim] = {}
    for e1, *_ in a.terms:
        for e2, *_ in b.terms:
            acc[e1 + e2] = acc.get(e1 + e2, GDIM_ZERO) + a[e1] * b[e2]
    return RLaurent(acc)


def t_free(coeffs: Sequence[GDim], order: int) -> TZSeries:
    """The series sum_n coeffs[n] z^n, n from 0, with t-free coefficients."""
    return TZSeries(order, [RLaurent({0: c}) for c in coeffs])


def z_monomial(c: RLaurent, m: int, order: int) -> TZSeries:
    """c z^m, truncated at z^order."""
    coeffs = [RLAURENT_ZERO] * (order + 1)
    if m <= order:
        coeffs[m] = c
    return TZSeries(order, coeffs)


def series_one(order: int) -> TZSeries:
    """The series 1, truncated at z^order."""
    return z_monomial(RLAURENT_ONE, 0, order)


def series_power(f: TZSeries, k: int) -> TZSeries:
    """f**k by repeated products.

    For k < 0, f must have constant term 1: its inverse g is built term by
    term, g_n = -sum_{i=1..n} f_i g_{n-i}, and raised to -k.
    """
    if k < 0:
        if f[0] != RLAURENT_ONE:
            raise ValueError("only a series with constant term 1 is inverted")
        g = [RLAURENT_ONE]
        for n in range(1, f.order + 1):
            acc = RLAURENT_ZERO
            for i in range(1, n + 1):
                acc = acc + f[i] * g[n - i]
            g.append(-acc)
        f, k = TZSeries(f.order, g), -k
    out = series_one(f.order)
    for _ in range(k):
        out = out * f
    return out


def adjoint_even_line(m: int, order: int) -> TZSeries:
    """(1 - [2]_t z^m + z^{2m}, 0): lambda of one even vector tensor adjoint."""
    out = series_one(order)
    out = out + z_monomial(-t_integer(2), m, order)
    out = out + z_monomial(RLAURENT_ONE, 2 * m, order)
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
    full = [RLAURENT_ZERO] * (order + 1)
    for j, c in enumerate(coeffs):
        full[j * m] = c
    return TZSeries(order, full)


def one_minus_pow(c: GDim, texp: int, m: int, k: int, order: int) -> TZSeries:
    """(1 - c * t^texp * z^m) ** k for any integer k, via binomial series.

    c is 1 or x, so c**j is c for odd j and 1 for even j.  For k >= 0 the
    sum is finite, for k < 0 it is the generalized binomial series,
    truncated at z^order either way.
    """
    jmax = order // m
    if k >= 0:
        jmax = min(jmax, k)
    terms: list[RLaurent] = [RLAURENT_ZERO] * (order + 1)
    for j in range(jmax + 1):
        if k >= 0:
            coef = comb(k, j) * (-1) ** j
        else:
            coef = comb(-k + j - 1, j)
        terms[j * m] = RLaurent({j * texp: (c if j & 1 else GDIM_ONE) * coef})
    return TZSeries(order, terms)


def phi_line(an: GDim, bn: GDim, n: int, order: int) -> TZSeries:
    """Degree-n factor of Phi(a, b): lambda of an z^n [adjoint] + (an + bn) z^n.

    Each line is a product of binomials (1 - c t^e z^m)^k, listed below as
    (c, e, m, k): the plain lines of (an + bn) z^n, then the adjoint lines
    of an z^n.
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
        reduce(mul, [one_minus_pow(c, e, m, k, order) for c, e, m, k in line])
        for line in table
        if line[0][3]
    ]
    return reduce(mul, factors) if factors else series_one(order)


def line_product(a: Sequence[GDim], b: Sequence[GDim]) -> TZSeries:
    """Phi(a, b) as the product of ``phi_line`` over the lines n = 1..N."""
    order = len(a)
    out = series_one(order)
    for n, (an, bn) in enumerate(zip(a, b), start=1):
        if an or bn:
            out = out * phi_line(an, bn, n, order)
    return out


def lambda_direct(pieces: Sequence[tuple[GDim, int]], order: int) -> TZSeries:
    """Brute-force lambda of a graded superspace, by basis enumeration, t-free.

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
    out = [GDIM_ZERO] * (order + 1)
    for i, e in enumerate(ext):
        for j in range(order + 1 - i):
            out[i + j] = out[i + j] + e * sym[j]
    return t_free(out, order)


def single_residuals(a: Sequence[GDim], d1: int, d2: int) -> list[GDim]:
    """Res_{t=0} psi * Psi(a) dt at z^0..z^N, read off the whole series Psi(a):
    L2 + D z L0, psi = (1 - t) + D z (t^-1 - 1)."""
    gens = solver._generators(d1, d2)
    psi = lambda_adjoint_series(a).coeffs
    return [L2(psi[0])] + [L2(psi[n]) + gens * L0(psi[n - 1]) for n in range(1, len(psi))]


def pair_residuals(
    a: Sequence[GDim], b: Sequence[GDim], d1: int, d2: int
) -> tuple[list[GDim], list[GDim]]:
    """Defects of the two-equation system at z^0..z^N; zero on a solution."""
    residues = [(L0(c), L2(c)) for c in phi_series(a, b).coeffs]
    return solver._pair_defects(residues, solver._generators(d1, d2))


def is_t_symmetric(c: RLaurent) -> bool:
    """Whether the coefficient at t^e always equals the one at t^-e."""
    return all(c[e] == c[-e] for e, _, _ in c.terms)


def rational(alg: GradedJordanAlgebra) -> GradedJordanAlgebra:
    """``alg`` with every table entry c read as Fraction(c, alg.scale), at scale 1.

    Its ``multiply_basis`` and ``derivation`` give the rational products and
    derivations, which ``alg`` holds times ``alg.scale`` and ``alg.scale**2``.
    """
    return replace(alg, scale=1, tables={
        key: [[tuple((k, Fraction(c, alg.scale)) for k, c in vec) for vec in row] for row in tab]
        for key, tab in alg.tables.items()
    })


def basis_vector(alg: GradedJordanAlgebra, n: int, idx: int) -> Vector:
    if not 0 <= idx < alg.dim(n):
        raise IndexError(f"no basis element {idx} in degree {n}")
    return ((idx, Fraction(1)),)


def vector_parity(alg: GradedJordanAlgebra, n: int, x: Vector) -> int:
    pars = {alg.parities[n][u] for u, _ in x}
    if len(pars) > 1:
        raise ValueError("vector is not parity-homogeneous")
    return pars.pop() if pars else 0


def multiply(alg: GradedJordanAlgebra, i: int, x: Vector, j: int, y: Vector) -> Vector:
    """Bilinear extension of the basis product."""
    if i + j > alg.max_degree:
        raise ValueError(f"product degree {i + j} beyond truncation")
    acc: dict[int, Fraction] = {}
    for u, cu in x:
        for v, cv in y:
            linalg.accumulate(acc, alg.multiply_basis(i, u, j, v), cu * cv)
    return linalg.sparse_row(acc)


def derivation_of(
    alg: GradedJordanAlgebra, i: int, x: Vector, j: int, y: Vector, m: int
) -> list[Vector]:
    """Matrix columns of [L_x, L_y] restricted to degree m.

    Column u is the image of the u-th degree-m basis element, living in
    degree i + j + m.
    """
    sign = (-1) ** (vector_parity(alg, i, x) * vector_parity(alg, j, y))
    cols = []
    for u in range(alg.dim(m)):
        zu = basis_vector(alg, m, u)
        acc: dict[int, Fraction] = {}
        linalg.accumulate(acc, multiply(alg, i, x, j + m, multiply(alg, j, y, m, zu)))
        linalg.accumulate(acc, multiply(alg, j, y, i + m, multiply(alg, i, x, m, zu)), -sign)
        cols.append(linalg.sparse_row(acc))
    return cols


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
        pi = vector_parity(alg, di, xi)
        pj = vector_parity(alg, dj, xj)
        pk = vector_parity(alg, dk, xk)
        s1 = (-1) ** (pi * pk)
        s2 = (-1) ** ((pi + pj) * pk)
        ab = multiply(alg, di, xi, dj, xj)
        zw = multiply(alg, dk, xk, w[0], w[1])
        t1 = multiply(alg, di + dj, ab, dk + w[0], zw)
        abw = multiply(alg, di + dj, ab, w[0], w[1])
        t2 = multiply(alg, dk, xk, di + dj + w[0], abw)
        linalg.accumulate(acc, t1, s1)
        linalg.accumulate(acc, t2, -s1 * s2)
    return linalg.sparse_row(acc)


def identity_instance(
    space: PairSpace,
    x: tuple[int, int],
    y: tuple[int, int],
    z: tuple[int, int],
    w: tuple[int, int],
) -> linalg.SparseRow:
    """One top-level instance of the super Jordan identity, expanded directly in W_n.

    x, y, z and w are basis elements (degree, index) and ``space`` is W_n,
    ``PairSpace(alg, n, 1)``.  The row is

        sum over cyclic (a,b,c) of (-1)^{|a||c|} ((a.b).(c.w) - (-1)^{(|a|+|b|)|c|} c.((a.b).w))

    with the inner products reduced and the outermost one taken in W_n: the
    route that D applied to a cyclic row replaced.
    """
    par, index = space.parities, space.index
    product = space.alg.multiply_basis
    s, wu = w
    acc: dict[int, int] = {}
    triple = (x, y, z)
    for r in range(3):
        (di, ui), (dj, uj), (dk, uk) = triple[r], triple[(r + 1) % 3], triple[(r + 2) % 3]
        pi, pj, pk = par[di][ui], par[dj][uj], par[dk][uk]
        s1 = -1 if pi & pk else 1  # (-1)^{|a||c|}
        s12 = -s1 if (pi ^ pj) & pk else s1  # times (-1)^{(|a|+|b|)|c|}
        dab = di + dj
        ab = product(di, ui, dj, uj)
        # (a.b).(c.w)
        for b, cb in product(dk, uk, s, wu):
            for a, ca in ab:
                k, sign = index[(dab, a, dk + s, b)]
                acc[k] = acc.get(k, 0) + (s1 * sign) * ca * cb
        # c.((a.b).w)
        for a, ca in ab:
            for b, cb in product(dab, a, s, wu):
                k, sign = index[(dk, uk, dab + s, b)]
                acc[k] = acc.get(k, 0) - (s12 * sign) * ca * cb
    return linalg.sparse_row(acc)


def tag_graded_dims(tag: TagAlgebra) -> dict[int, GDim]:
    """dim of the TAG algebra per z-degree, counted over its basis."""
    out: dict[int, GDim] = {}
    for n, p in zip(tag.degrees, tag.parities):
        out[n] = out.get(n, GDIM_ZERO) + (GDim(1, 0) if p == 0 else GDim(0, 1))
    return out


def unfold(comp: BsComponent, parities: dict[int, tuple[int, ...]]) -> BsComponent:
    """``comp`` with every ordered pair of J (x) J as its own coordinate.

    The coordinates are sorted parity-first and then by shape, each with
    sign 1 in ``index``.  A pair that ``comp`` holds as a multiple of its
    partner, x(x)y = -(-1)^{|x||y|} y(x)x, projects to that multiple of the
    partner's class, an even square to (), and the lifts are positions
    among these coordinates.  The projection is the rational one,
    Fraction(c, comp.scale) for each held entry c, at scale 1.
    """
    cpar = lambda c: (parities[c[0]][c[1]] + parities[c[2]][c[3]]) % 2
    coords = sorted(comp.index, key=lambda c: (cpar(c), c))
    index = {c: (k, 1) for k, c in enumerate(coords)}
    projection = []
    for c in coords:
        k, s = comp.index[c]
        projection.append(
            tuple((q, Fraction(s * x, comp.scale)) for q, x in comp.projection[k]) if s else ()
        )
    return BsComponent(
        coords=coords,
        index=index,
        parities=comp.parities,
        labels=comp.labels,
        lifts=tuple(index[comp.coords[k]][0] for k in comp.lifts),
        projection=projection,
        scale=1,
    )


def bs_json(tag: TagAlgebra) -> dict:
    """Every degree of ``tag.bs``, unfolded, with coefficients as strings."""
    out = {}
    for n, comp in sorted(tag.bs.items()):
        comp = unfold(comp, tag.alg.parities)
        out[str(n)] = {
            "coords": [list(c) for c in comp.coords],
            "parities": list(comp.parities),
            "labels": list(comp.labels),
            "lifts": list(comp.lifts),
            "projection": [[[k, str(c)] for k, c in vec] for vec in comp.projection],
        }
    return out


def project(comp: BsComponent, ambient: dict[int, Fraction]) -> Vector:
    """Class in Bs(J) of ``{position: coefficient}`` over ``unfold(comp)``'s coordinates."""
    acc: dict[int, Fraction] = {}
    for k, c in ambient.items():
        linalg.accumulate(acc, comp.projection[k], c)
    return linalg.sparse_row(acc)


def element(tag: TagAlgebra, g: int) -> tuple[str, tuple[int, ...]]:
    """(kind, data) of basis element g, read off ``tag.at``.

    kind "sl2" with data (a, u) for a(x)J_n[u], a in 0..2 (e, h, f), and
    kind "bs" with data (u,) for Bs_n[u], where n = ``tag.degrees[g]``.
    """
    n = tag.degrees[g]
    first, bs = tag.at[n][0], tag.at[n][3]
    if g >= bs:
        return "bs", (g - bs,)
    return "sl2", divmod(g - first, tag.alg.dim(n))


def sl2_index(tag: TagAlgebra, a: int, n: int, u: int) -> int:
    """The TAG basis position of a(x)J_n[u]."""
    return tag.at[n][a] + u


def bs_index(tag: TagAlgebra, n: int, u: int) -> int:
    """The TAG basis position of Bs_n[u]."""
    return tag.at[n][3] + u


def sl2_tensor(tag: TagAlgebra, a: int, n: int, vec: Vector, scale: int) -> Vector:
    """``scale * a(x)vec`` for a degree-n vector of J, as TAG terms."""
    return tuple((sl2_index(tag, a, n, u), scale * c) for u, c in vec)


def bs_terms(tag: TagAlgebra, n: int, vec: Vector, scale: int) -> Vector:
    """``scale * vec`` for a vector of Bs_n in quotient coordinates, as TAG terms."""
    return tuple((bs_index(tag, n, u), scale * c) for u, c in vec)


def bs_lift(tag: TagAlgebra, g: int) -> tuple[int, int, int, int]:
    """The ambient coordinate (i, u, j, v) that the Bs class g lifts to."""
    comp = tag.bs[tag.degrees[g]]
    return comp.coords[comp.lifts[element(tag, g)[1][0]]]


def fraction_brackets(tag: TagAlgebra) -> dict[tuple[int, int], Vector]:
    """Every nonzero in-range [gi, gj] of basis elements, with Fraction coefficients.

    Each bracket is summed coefficient by coefficient from the rational
    tables (``rational``), the Bs projection and ``derivation_of``, pair of
    basis elements by pair, with no common scale.
    """
    alg, deg, par = rational(tag.alg), tag.degrees, tag.parities
    bs = {n: unfold(comp, alg.parities) for n, comp in tag.bs.items()}
    derivations: dict[tuple[int, ...], list[Vector]] = {}

    def derivation(gb, m):
        i, u, j, v = lift = bs_lift(tag, gb)
        if lift + (m,) not in derivations:
            derivations[lift + (m,)] = derivation_of(
                alg, i, basis_vector(alg, i, u), j, basis_vector(alg, j, v), m
            )
        return lift, derivations[lift + (m,)]

    def bs_on_sl2(gb, gs):
        a, w = element(tag, gs)[1]
        return sl2_tensor(tag, a, deg[gb] + deg[gs], derivation(gb, deg[gs])[1][w], 1)

    out = {}
    for gi, gj in product(range(len(deg)), repeat=2):
        i, j = deg[gi], deg[gj]
        n = i + j
        if n > tag.max_degree:
            continue
        (k1, x1), (k2, x2) = element(tag, gi), element(tag, gj)
        acc: dict[int, Fraction] = {}
        if k1 == "sl2" and k2 == "sl2":
            (a, u), (b, v) = x1, x2
            kap = KAPPA.get((a, b))
            if kap and n in bs:
                amb = {bs[n].index[(i, u, j, v)][0]: 1}
                linalg.accumulate(acc, bs_terms(tag, n, project(bs[n], amb), Fraction(kap, 2)))
            if (a, b) in SL2_BRACKET:
                c_idx, coeff = SL2_BRACKET[(a, b)]
                prod = alg.multiply_basis(i, u, j, v)
                linalg.accumulate(acc, sl2_tensor(tag, c_idx, n, prod, coeff))
        elif k1 == "bs" and k2 == "sl2":
            linalg.accumulate(acc, bs_on_sl2(gi, gj))
        elif k1 == "sl2" and k2 == "bs":
            sign = -((-1) ** (par[gi] * par[gj]))
            linalg.accumulate(acc, bs_on_sl2(gj, gi), sign)
        else:
            comp = bs[n]
            (p, s, q, t) = bs_lift(tag, gj)
            (i, _, j, _), cols_p = derivation(gi, p)
            _, cols_q = derivation(gi, q)
            sgn = (-1) ** (par[gi] * alg.parities[p][s])
            amb: dict[int, Fraction] = {}
            linalg.accumulate(amb, [(comp.index[(i + j + p, k, q, t)][0], c) for k, c in cols_p[s]])
            linalg.accumulate(amb, [(comp.index[(p, s, i + j + q, k)][0], c) for k, c in cols_q[t]], sgn)
            linalg.accumulate(acc, bs_terms(tag, n, project(comp, amb), 1))
        terms = linalg.sparse_row(acc)
        if terms:
            out[(gi, gj)] = terms
    return out


def theta(tag: TagAlgebra, g: int) -> tuple[int, int]:
    """The sl2 mirror of basis element g, as (index, sign).

    e(x)x <-> f(x)x and h(x)x -> -h(x)x, with Bs fixed: the automorphism
    e <-> f, h -> -h of sl2 tensored with J, which keeps the trace form.
    """
    kind, data = element(tag, g)
    if kind == "bs":
        return g, 1
    a, u = data
    return sl2_index(tag, 2 - a, tag.degrees[g], u), -1 if a == 1 else 1


def theta_table(tag: TagAlgebra) -> dict[tuple[int, int], Vector]:
    """The bracket table carried through theta: [theta x, theta y] = theta [x, y]."""
    out = {}
    for (gi, gj), terms in tag.brackets.items():
        (ti, si), (tj, sj) = theta(tag, gi), theta(tag, gj)
        image = []
        for g, c in terms:
            k, s = theta(tag, g)
            image.append((k, si * sj * s * c))
        out[(ti, tj)] = tuple(sorted(image))
    return out


def bracket(tag: TagAlgebra, gi: int, gj: int) -> Vector:
    """[gi, gj] of basis elements in Fractions: the integer table over its scale."""
    if tag.degrees[gi] + tag.degrees[gj] > tag.max_degree:
        raise ValueError("bracket degree beyond truncation")
    return tuple((k, Fraction(c, tag.scale)) for k, c in tag.brackets.get((gi, gj), ()))


def structure_constants_json(tag: TagAlgebra) -> dict:
    """Serializable structure-constant table (rationals as strings)."""
    return {
        "basis": [
            {
                "kind": element(tag, g)[0],
                "degree": tag.degrees[g],
                "parity": tag.parities[g],
                "weight": tag.weights[g],
                "label": tag.labels[g],
            }
            for g in range(len(tag.degrees))
        ],
        "brackets": {
            f"{i},{j}": [[k, str(Fraction(c, tag.scale))] for k, c in terms]
            for (i, j), terms in sorted(tag.brackets.items())
        },
    }

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


def fraction_quotient(
    rows: Sequence[linalg.SparseRow], parity: Sequence[int]
) -> tuple[list[int], list[linalg.SparseRow]]:
    """The quotient by ``fraction_rref``: (kept coordinates, rational projection).

    A kept coordinate maps to ``((q, 1),)``, a pivot coordinate to its
    pivot row negated off the pivot.
    """
    for row in rows:
        if len({parity[k] for k, _ in row}) > 1:
            raise AssertionError("relation row mixes parities")
    reduced, pivots = fraction_rref(list(rows))
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


def reference_chain_blocks(tag: TagAlgebra, r_max: int, d_max: int) -> dict:
    """CE chain blocks by filtering every weakly increasing index tuple.

    A chain is a tuple from ``combinations_with_replacement`` with no
    repeated even index, z-degree <= d_max and length <= r_max.  Chains are
    grouped by (length, z-degree, weight, parity) and listed in tuple
    order; the blocks come in the order of their first chain.
    """
    deg, wt, par = tag.degrees, tag.weights, tag.parities
    chains = []
    for r in range(r_max + 1):
        # Every factor has z-degree >= 1, so a longer tuple cannot fit
        # with a factor above d_max - (r - 1); dropping those only saves time.
        pool = [g for g, n in enumerate(deg) if n <= d_max - max(r - 1, 0)]
        for mon in combinations_with_replacement(pool, r):
            if sum(deg[g] for g in mon) > d_max:
                continue
            if any(a == b and par[a] == 0 for a, b in zip(mon, mon[1:])):
                continue
            chains.append(mon)
    blocks: dict = {}
    for mon in sorted(chains):
        key = (
            len(mon),
            sum(deg[g] for g in mon),
            sum(wt[g] for g in mon),
            sum(par[g] for g in mon) % 2,
        )
        blocks.setdefault(key, []).append(mon)
    return blocks


def reference_boundary_monomial(tag: TagAlgebra, mon: tuple[int, ...]) -> dict:
    """tag.scale times the CE boundary of one chain, signs factor by factor.

    Moving a_s and then a_t to the front passes every factor ahead of
    them, and the bracket term is re-inserted past every smaller factor
    of the rest, each step with the adjacent swap rule
    x ^ y = -(-1)^{|x||y|} y ^ x.
    """
    par = tag.parities

    def insert(g, rest):
        pg = par[g]
        sign = 1
        pos = 0
        for h in rest:
            if h < g:
                sign *= -((-1) ** (pg * par[h]))
                pos += 1
            else:
                break
        if pg == 0 and pos < len(rest) and rest[pos] == g:
            return None
        return rest[:pos] + (g,) + rest[pos:], sign

    out: dict = {}
    r = len(mon)
    pars = [par[g] for g in mon]
    for s in range(r):
        for t in range(s + 1, r):
            terms = tag.brackets.get((mon[s], mon[t]), ())
            sign = (-1) ** s * (-1) ** (pars[s] * sum(pars[:s]))
            sign *= (-1) ** (t - 1) * (-1) ** (pars[t] * (sum(pars[:t]) - pars[s]))
            rest = mon[:s] + mon[s + 1:t] + mon[t + 1:]
            for k, c in terms:
                ins = insert(k, rest)
                if ins is None:
                    continue
                new, s2 = ins
                out[new] = out.get(new, 0) + sign * s2 * c
    return {m: c for m, c in out.items() if c}


def pair_boundaries(cc: ChainComplex) -> dict[BlockKey, list[linalg.SparseRow]]:
    """``cc.boundaries`` rebuilt by the pair formula, in the same positions.

    Each pair of slots s < t of a chain is replaced by its bracket, so a
    repeated odd factor contributes once per pair of slots.  Moving a_s
    and then a_t to the front costs s + |a_s|·before[s] and
    t - 1 + |a_t|·(before[t] - |a_s|), where before[i] counts the odd
    factors ahead of slot i.  Inserting the bracket term g at position pos
    of the rest costs pos + |g|·(odd factors of the rest ahead of pos).
    """
    brackets, par = cc.tag.brackets, cc.tag.parities

    def column(mon, target):
        pars = [par[g] for g in mon]
        before = [0, *accumulate(pars)]
        r = len(mon)
        col: dict[int, int] = {}
        for s in range(r):
            ps = pars[s]
            for t in range(s + 1, r):
                pt = pars[t]
                sign = s + t - 1 + ps * before[s] + pt * (before[t] - ps)
                rest = mon[:s] + mon[s + 1:t] + mon[t + 1:]
                for g, c in brackets.get((mon[s], mon[t]), ()):
                    # g sorts after both factors: at position at - 2 of the rest.
                    at = bisect_left(mon, g)
                    pg = par[g]
                    if not pg and at < r and mon[at] == g:
                        continue
                    i = target[rest[:at - 2] + (g,) + rest[at - 2:]]
                    odd = before[at] - ps - pt
                    col[i] = col.get(i, 0) + (-c if (sign + at + pg * odd) & 1 else c)
        return linalg.sparse_row(col)

    return {key: [column(mon, target) for mon in blk]
            for key, blk in cc.blocks.items()
            for target in [cc.blocks.get((key[0] - 1, *key[1:]), {})]}


class FullWeightComplex:
    """The CE chains and boundary at every h-weight, negative ones included.

    ``blocks`` and ``boundaries`` have the layout of ``ChainComplex``'s, and
    equal them at w >= 0, position for position.  The chains are enumerated
    depth first, and each column is built from its tail's with the smallest
    factor as head, the route that building only the w >= 0 half replaced;
    it runs no gate.
    """

    def __init__(self, tag: TagAlgebra, r_max: int, d_max: int) -> None:
        self.tag = tag
        self.r_max = r_max
        self.d_max = d_max
        self.blocks: dict[BlockKey, dict[Monomial, int]] = {}
        self._enumerate()
        self.boundaries = self._boundaries()
        self._q_ranks: dict[BlockKey, int] = {}

    def _enumerate(self) -> None:
        """Every chain, depth first; a block numbers its chains in that order.

        The basis is sorted by z-degree, so the factors that still fit under
        ``d_max`` after z-degree d are an initial segment of it, ending at
        ``stop[d]``.  An even factor moves ``start`` past itself, so even
        factors never repeat.  The children of a chain go on the stack in
        reverse, so the first one comes off it first.
        """
        deg, wt, par = self.tag.degrees, self.tag.weights, self.tag.parities
        stop = [bisect_right(deg, self.d_max - d) for d in range(self.d_max + 1)]
        r_max, blocks = self.r_max, self.blocks
        stack: list[tuple[Monomial, int, int, int, int]] = [((), 0, 0, 0, 0)]
        while stack:
            mon, start, d, w, p = stack.pop()
            key = (len(mon), d, w, p)
            blk = blocks.get(key)
            if blk is None:
                blk = blocks[key] = {}
            blk[mon] = len(blk)
            if len(mon) < r_max:
                for g in reversed(range(start, stop[d])):
                    pg = par[g]
                    stack.append((mon + (g,), g + 1 - pg, d + deg[g], w + wt[g], p ^ pg))

    def _boundaries(self) -> dict[BlockKey, list[linalg.SparseRow]]:
        """tag.scale times d of every chain, block by block as r grows.

        A chain is a ^ w with a its smallest factor, and every term of dw
        sorts after a, so -a ^ dw is the tail's column, negated and moved by
        a head map, which sends a chain's position in the tail's block to
        that of a prefixed to it, and fills as each tail is found.  The maps
        filled at level r are read at level r + 1 only.  The [a, w_t] term
        costs t - 1 + |w_t|·(odd factors of w ahead of w_t) to move, and
        pos + |g|·(odd factors ahead of pos) to insert its term g at
        position pos of the rest.
        """
        blocks, brackets = self.blocks, self.tag.brackets
        deg, wt, par = self.tag.degrees, self.tag.weights, self.tag.parities
        # The empty chain's block sorts first, and has no boundary.
        cols: dict[BlockKey, list[linalg.SparseRow]] = {(0, 0, 0, 0): [()]}
        # (a, tail block) -> head map, filled at this level and one level down.
        heads: dict[tuple[int, BlockKey], dict[int, int]] = {}
        below: dict[tuple[int, BlockKey], dict[int, int]] = {}
        level = 1
        for key in sorted(blocks)[1:]:
            r, d, w, p = key
            if r != level:
                level, below, heads = r, heads, {}
            target = blocks.get((r - 1, d, w, p), {})
            out = cols[key] = []
            a = None
            for mon, j in blocks[key].items():
                if mon[0] != a:  # the chains of one head come together
                    a, pa = mon[0], par[mon[0]]
                    tail = (r - 1, d - deg[a], w - wt[a], p ^ pa)
                    tails, tail_cols = blocks.get(tail, {}), cols.get(tail)
                    fill = heads.setdefault((a, tail), {})
                    head = below.get((a, (r - 2, *tail[1:])), {})
                i = tails.get(mon[1:])
                if i is None:
                    raise AssertionError(f"the tail of chain {mon} is not in block {tail}")
                fill[i] = j
                try:
                    col = {head[k]: -c for k, c in tail_cols[i]}
                except KeyError:
                    raise AssertionError(f"a term of d{mon[1:]} has no head {a}") from None
                pars = [par[g] for g in mon]
                before = [0, *accumulate(pars)]
                for t in range(1, r):
                    terms = brackets.get((a, mon[t]))
                    if not terms:
                        continue
                    pt = pars[t]
                    sign = t - 1 + pt * (before[t] - pa)
                    for g, c in terms:
                        # g sorts after w_t, at position at - 2 of the rest.
                        at = bisect_left(mon, g)
                        pg = par[g]
                        if not pg and at < r and mon[at] == g:
                            continue  # an even factor squares to zero
                        k = target.get(mon[1:t] + mon[t + 1:at] + (g,) + mon[at:])
                        if k is None:
                            raise AssertionError("boundary leaves its block")
                        odd = before[at] - pa - pt
                        term = -c if (sign + at + pg * odd) & 1 else c
                        col[k] = col.get(k, 0) + term
                out.append(linalg.sparse_row(col))
        return {key: cols[key] for key in blocks}

    def q_rank(self, key: BlockKey) -> int:
        """The rank over Q of the boundary out of a block, by ``linalg.rank``,
        each block ranked once."""
        if key not in self._q_ranks:
            self._q_ranks[key] = linalg.rank([col for col in self.boundaries.get(key, ()) if col])
        return self._q_ranks[key]

    def chain_character(self, d: int) -> tuple[list[int], list[int]]:
        """``ChainComplex.chain_character``, summed over every block at z-degree d."""
        p, m = [0] * (2 * d + 1), [0] * (2 * d + 1)
        for (r, dd, w, par), mons in self.blocks.items():
            if dd == d:
                c = -len(mons) if r & 1 else len(mons)
                p[d + w // 2] += c
                m[d + w // 2] += -c if par else c
        return p, m


def block_key(cc: ChainComplex, mon: Monomial) -> BlockKey:
    """(r, z-degree, weight, parity) of a chain, summed over its factors."""
    tag = cc.tag
    d = sum(tag.degrees[g] for g in mon)
    w = sum(tag.weights[g] for g in mon)
    par = sum(tag.parities[g] for g in mon) % 2
    return (len(mon), d, w, par)


def block_dim(cc: ChainComplex, r: int, d: int) -> dict[tuple[int, int], int]:
    """Dimensions per (weight, parity) of the chains V_r at z-degree d."""
    out: dict[tuple[int, int], int] = {}
    for (rr, dd, w, par), mons in cc.blocks.items():
        if rr == r and dd == d:
            out[(w, par)] = len(mons)
    return out


def ordered_jacobi_failures(tag: TagAlgebra) -> set[str]:
    """Messages naming every ordered in-range triple whose Jacobiator is nonzero.

    Sums (-1)^{|a||c|} [[a,b],c] over the cyclic rotations with plain dict
    arithmetic, independently of ``check_jacobi``.
    """
    deg, par, labels = tag.degrees, tag.parities, tag.labels
    n = len(deg)
    failing = set()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if deg[i] + deg[j] + deg[k] > tag.max_degree:
                    continue
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    sign = (-1) ** (par[a] * par[c])
                    for m, coeff in tag.brackets.get((a, b), ()):
                        for q, v in tag.brackets.get((m, c), ()):
                            acc[q] = acc.get(q, 0) + sign * coeff * v
                if any(acc.values()):
                    failing.add(
                        f"Jacobi fails on ({labels[i]}, {labels[j]}, {labels[k]})"
                    )
    return failing


def q_homology_weights(cc: FullWeightComplex, r: int, d: int) -> dict[int, GDim]:
    """``ChainComplex.homology_weights(r, d)`` from a complex at every weight,
    each block ranked over Q."""
    out = {}
    for w in sorted({w for (rr, dd, w, _p) in cc.blocks if (rr, dd) == (r, d)}):
        pair = [0, 0]
        for p in (0, 1):
            dim = len(cc.blocks.get((r, d, w, p), ()))
            if dim:
                pair[p] = dim - cc.q_rank((r, d, w, p)) - cc.q_rank((r + 1, d, w, p))
        if any(pair):
            out[w] = GDim(*pair)
    return out


def isotypic_multiplicities(ws: dict[int, GDim]) -> dict[int, GDim]:
    """Multiplicity of the irreducible of highest weight w in H_r, from dim H_r
    per h-weight as ``q_homology_weights`` returns it.

    mult(w) = dim(weight w) - dim(weight w + 2) for even w >= 0; an odd
    weight or a negative multiplicity is a broken weight string, and raises.
    """
    if any(w % 2 for w in ws):
        raise AssertionError(f"odd h-weight in {ws}")
    out = {}
    for w in range(0, max(ws, default=0) + 1, 2):
        m = ws.get(w, GDIM_ZERO) - ws.get(w + 2, GDIM_ZERO)
        if m.even < 0 or m.odd < 0:
            raise AssertionError(f"negative multiplicity at weight {w} in {ws}")
        if m:
            out[w] = m
    return out
