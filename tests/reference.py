"""Brute-force reference implementations that the tests check the package against.

None of these runs in a command: each recomputes by another route what the
package computes in closed form or through its tables.

* ``t_integer``          -- the t-integer [m]_t as a sum of t-powers;
* ``laurent_product``    -- the product of two RLaurents, summed as GDim
                           products over pairs of exponents;
* ``t_free``,
  ``z_monomial``         -- series with t-free coefficients, and c z^m;
* ``series_power``       -- integer powers of a series, the inverse by the
                           term-by-term recurrence;
* ``lambda_direct``      -- lambda of a graded superspace by basis enumeration;
* ``pair_residuals``     -- the defects of the two-equation system on given
                           series a(z), b(z);
* ``adjoint_even_line``,
  ``adjoint_odd_line``   -- the adjoint line factors as sums of t-integers;
* ``is_t_symmetric``     -- the t -> 1/t symmetry of an sl2 character;
* ``basis_vector``,
  ``multiply``,
  ``derivation_of``      -- rational vectors, products and d_{x,y} = [L_x, L_y]
                           through the tables, for any homogeneous vectors;
* ``jordan_residual``    -- the super Jordan identity through the tables;
* ``tag_graded_dims``    -- the graded dimensions of the TAG basis, counted;
* ``project``            -- the class in Bs(J) of an ambient J (x) J vector;
* ``fraction_brackets``  -- the TAG bracket table summed in Fractions from
                           the rational tables, the route the integer table
                           replaced;
* ``bracket``,
  ``structure_constants_json`` -- one bracket, and the whole table as JSON,
                           in Fractions: the integer table over its scale;
* ``fraction_rref``      -- reduced row echelon form by rational elimination;
* ``reference_chain_blocks``,
  ``reference_boundary_monomial`` -- the Chevalley-Eilenberg chains by
                           filtering every index tuple, and their boundary
                           with signs summed factor by factor;
* ``block_key``,
  ``block_dim``          -- a chain's block, summed from its factors, and
                           the dimensions of the blocks at one (r, d).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Sequence

from freejordan import linalg, solver
from freejordan.homology import BlockKey, ChainComplex, Monomial
from freejordan.jordan import GradedJordanAlgebra, Vector
from freejordan.lambda_ops import phi_series
from freejordan.rings import GDIM_ONE, GDIM_ZERO, RLAURENT_ONE, RLAURENT_ZERO, GDim, RLaurent, TZSeries
from freejordan.tag import _KAPPA, _SL2_BRACKET, BsComponent, TagAlgebra


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
    out = TZSeries.one(f.order)
    for _ in range(k):
        out = out * f
    return out


def adjoint_even_line(m: int, order: int) -> TZSeries:
    """(1 - [2]_t z^m + z^{2m}, 0): lambda of one even vector tensor adjoint."""
    out = TZSeries.one(order)
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



def pair_residuals(
    a: Sequence[GDim], b: Sequence[GDim], d1: int, d2: int
) -> tuple[list[GDim], list[GDim]]:
    """Defects of the two-equation system at z^0..z^N; zero on a solution."""
    return solver._pair_defects(phi_series(a, b), solver._generators(d1, d2))

def is_t_symmetric(c: RLaurent) -> bool:
    """Whether the coefficient at t^e always equals the one at t^-e."""
    return all(c[e] == c[-e] for e, _, _ in c.terms)


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


def tag_graded_dims(tag: TagAlgebra) -> dict[int, GDim]:
    """dim of the TAG algebra per z-degree, counted over its basis."""
    out: dict[int, GDim] = {}
    for el in tag.basis:
        d = out.get(el.degree, GDIM_ZERO)
        out[el.degree] = d + (GDim(1, 0) if el.parity == 0 else GDim(0, 1))
    return out


def project(comp: BsComponent, ambient: dict[int, Fraction]) -> Vector:
    """Class of the ambient vector ``{position: coefficient}`` in Bs(J)."""
    acc: dict[int, Fraction] = {}
    for k, c in ambient.items():
        linalg.accumulate(acc, comp.projection[k], c)
    return linalg.sparse_row(acc)


def fraction_brackets(tag: TagAlgebra) -> dict[tuple[int, int], Vector]:
    """Every nonzero in-range [basis[gi], basis[gj]] with Fraction coefficients.

    Each bracket is summed coefficient by coefficient from the rational
    tables, the Bs projection and ``derivation_of``, with no common scale.
    """
    alg, bs, basis = tag.alg, tag.bs, tag.basis
    derivations: dict[tuple[int, ...], list[Vector]] = {}

    def derivation(el, m):
        comp = bs[el.degree]
        i, u, j, v = lift = comp.coords[comp.lifts[el.data[0]]]
        if lift + (m,) not in derivations:
            derivations[lift + (m,)] = derivation_of(
                alg, i, basis_vector(alg, i, u), j, basis_vector(alg, j, v), m
            )
        return lift, derivations[lift + (m,)]

    def sl2_tensor(a, n, vec):
        return [(tag._sl2_index[(a, n, u)], c) for u, c in vec]

    def bs_terms(n, vec):
        return [(tag._bs_index[(n, u)], c) for u, c in vec]

    def bs_on_sl2(eb, es):
        a, w = es.data
        return sl2_tensor(a, eb.degree + es.degree, derivation(eb, es.degree)[1][w])

    out = {}
    for gi, gj in tag._pairs(tag.max_degree):
        e1, e2 = basis[gi], basis[gj]
        n = e1.degree + e2.degree
        acc: dict[int, Fraction] = {}
        if e1.kind == "sl2" and e2.kind == "sl2":
            (a, u), (b, v) = e1.data, e2.data
            i, j = e1.degree, e2.degree
            kap = _KAPPA.get((a, b))
            if kap and n in bs:
                amb = {bs[n].index[(i, u, j, v)]: 1}
                linalg.accumulate(acc, bs_terms(n, project(bs[n], amb)), Fraction(kap, 2))
            for c_idx, coeff in _SL2_BRACKET.get((a, b), ()):
                prod = alg.multiply_basis(i, u, j, v)
                linalg.accumulate(acc, sl2_tensor(c_idx, n, prod), coeff)
        elif e1.kind == "bs" and e2.kind == "sl2":
            linalg.accumulate(acc, bs_on_sl2(e1, e2))
        elif e1.kind == "sl2" and e2.kind == "bs":
            sign = -((-1) ** (e1.parity * e2.parity))
            linalg.accumulate(acc, bs_on_sl2(e2, e1), sign)
        else:
            comp = bs[n]
            (p, s, q, t) = bs[e2.degree].coords[bs[e2.degree].lifts[e2.data[0]]]
            (i, _, j, _), cols_p = derivation(e1, p)
            _, cols_q = derivation(e1, q)
            sgn = (-1) ** (e1.parity * alg.parities[p][s])
            amb: dict[int, Fraction] = {}
            linalg.accumulate(amb, [(comp.index[(i + j + p, k, q, t)], c) for k, c in cols_p[s]])
            linalg.accumulate(amb, [(comp.index[(p, s, i + j + q, k)], c) for k, c in cols_q[t]], sgn)
            linalg.accumulate(acc, bs_terms(n, project(comp, amb)))
        terms = linalg.sparse_row(acc)
        if terms:
            out[(gi, gj)] = terms
    return out



def bracket(tag: TagAlgebra, gi: int, gj: int) -> Vector:
    """[basis[gi], basis[gj]] in Fractions: the integer table over its scale."""
    if tag.basis[gi].degree + tag.basis[gj].degree > tag.max_degree:
        raise ValueError("bracket degree beyond truncation")
    return tuple((k, Fraction(c, tag.scale)) for k, c in tag.brackets.get((gi, gj), ()))


def structure_constants_json(tag: TagAlgebra) -> dict:
    """Serializable structure-constant table (rationals as strings)."""
    return {
        "basis": [
            {
                "kind": el.kind,
                "degree": el.degree,
                "parity": el.parity,
                "weight": el.weight,
                "label": el.label,
            }
            for el in tag.basis
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


def reference_chain_blocks(tag: TagAlgebra, r_max: int, d_max: int) -> dict:
    """CE chain blocks by filtering every weakly increasing index tuple.

    A chain is a tuple from ``combinations_with_replacement`` with no
    repeated even index, z-degree <= d_max and length <= r_max.  Chains are
    grouped by (length, z-degree, weight, parity) and listed in tuple
    order; the blocks come in the order of their first chain.
    """
    basis = tag.basis
    chains = []
    for r in range(r_max + 1):
        # Every factor has z-degree >= 1, so a longer tuple cannot fit
        # with a factor above d_max - (r - 1); dropping those only saves time.
        pool = [g for g, el in enumerate(basis) if el.degree <= d_max - max(r - 1, 0)]
        for mon in combinations_with_replacement(pool, r):
            if sum(basis[g].degree for g in mon) > d_max:
                continue
            if any(a == b and basis[a].parity == 0 for a, b in zip(mon, mon[1:])):
                continue
            chains.append(mon)
    blocks: dict = {}
    for mon in sorted(chains):
        key = (
            len(mon),
            sum(basis[g].degree for g in mon),
            sum(basis[g].weight for g in mon),
            sum(basis[g].parity for g in mon) % 2,
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
    basis = tag.basis

    def insert(g, rest):
        pg = basis[g].parity
        sign = 1
        pos = 0
        for h in rest:
            if h < g:
                sign *= -((-1) ** (pg * basis[h].parity))
                pos += 1
            else:
                break
        if pg == 0 and pos < len(rest) and rest[pos] == g:
            return None
        return rest[:pos] + (g,) + rest[pos:], sign

    out: dict = {}
    r = len(mon)
    pars = [basis[g].parity for g in mon]
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


def block_key(cc: ChainComplex, mon: Monomial) -> BlockKey:
    """(r, z-degree, weight, parity) of a chain, summed over its factors."""
    basis = cc.tag.basis
    d = sum(basis[g].degree for g in mon)
    w = sum(basis[g].weight for g in mon)
    par = sum(basis[g].parity for g in mon) % 2
    return (len(mon), d, w, par)


def block_dim(cc: ChainComplex, r: int, d: int) -> dict[tuple[int, int], int]:
    """Dimensions per (weight, parity) of the chains V_r at z-degree d."""
    out: dict[tuple[int, int], int] = {}
    for (rr, dd, w, par), mons in cc.blocks.items():
        if rr == r and dd == d:
            out[(w, par)] = len(mons)
    return out
