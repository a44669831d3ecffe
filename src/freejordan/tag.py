"""The symmetric tensor quotient Bs(J) and the TAG Lie superalgebra.

Bs(J) is the quotient of J (x) J by the span of the supercommutators

    x(x)y + (-1)^{|x||y|} y(x)x

and the cyclic relations

    (-1)^{|x||z|}(x.y)(x)z + (-1)^{|x||y|}(y.z)(x)x + (-1)^{|y||z|}(z.x)(x)y.

Its classes {x(x)y} act on J through the operators d_{x,y} = [L_x, L_y],
and the Lie superalgebra

    g = (sl2 (x) J) + Bs(J)

carries the bracket

    [a(x)x, b(x)y]       = 1/2 k(a,b) {x(x)y} + [a,b](x)(x.y)
    [{x(x)y}, a(x)z]     = a (x) d_{x,y}(z)
    [{x(x)y}, {z(x)w}]   = {d_{x,y}(z)(x)w} + (-1)^{(|x|+|y|)|z|}{z(x)d_{x,y}(w)}

where k is the sl2 trace form with k(e,f) = 4 and k(h,h) = 8.  Everything
is graded: a(x)x has the z-degree of x and h-weight +2/0/-2 for a = e/h/f;
Bs classes have weight 0.  The supercommutators leave the super exterior
square of J, which is ``jordan.PairSpace`` with sign -1, the builder of
the construction's W_n: one coordinate per unordered pair, odd squares
kept.  So Bs(J) reduces only the cyclic rows (``jordan.cyclic_row``), one
per S3 orbit of basis triples (``jordan.triple_groups``), through
``PairSpace.quotient``.  Through d_{x,y} at a basis element w, a cyclic
row gives an instance of the super Jordan identity, as the construction
builds them; these vanish in J, so Bs(J) acts on J.  The bracket table is
written from J's data, not from pairs of TAG basis elements: each product
x.y with the class of x(x)y gives the 7 nonzero [a(x)x, b(x)y], each column
d_{x,y}(z) the 6 brackets of {x(x)y} with a(x)z, and each pair of Bs
classes its bracket.  Exhaustive gates check anticommutativity, the super
Jacobi identity and, in ``freejordan.sl2``, that sl2 acts by derivations
(see ``build_tag`` for which runs where).

The layer is built in ints from J's tables, which hold ``alg.scale``
times the rational products; ``TagAlgebra`` gives the scales.  This
module imports no ``Fraction`` and keeps no rational data.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import gcd, lcm

from . import linalg
from .jordan import GradedJordanAlgebra, PairSpace, Vector, cyclic_row, triple_groups
from .rings import GDim

# sl2 basis order: e, h, f
SL2_NAMES = ("e", "h", "f")
SL2_WEIGHTS = (2, 0, -2)
# [a(x)x, b(x)y] = coeff c(x)(x.y) + k(a,b)/2 {x(x)y}, where [a,b] = coeff c in
# sl2 ([e,f] = h, [h,e] = 2e, [h,f] = -2f) and k is the trace form, k(e,f) =
# k(f,e) = 4 and k(h,h) = 8.  One row (a, b, c, coeff, k(a,b)/4) for each of
# the 7 pairs with a nonzero bracket; coeff = 0 where [a,b] = 0.
SL2_RULES = (
    (0, 1, 0, -2, 0),  # [e,h] = -2e
    (0, 2, 1, 1, 1),  # [e,f] = h, k = 4
    (1, 0, 0, 2, 0),  # [h,e] = 2e
    (1, 1, 0, 0, 2),  # [h,h] = 0, k = 8
    (1, 2, 2, -2, 0),  # [h,f] = -2f
    (2, 0, 1, -1, 1),  # [f,e] = -h, k = 4
    (2, 1, 2, 2, 0),  # [f,h] = 2f
)


@dataclass
class BsComponent:
    """One z-degree of Bs(J): quotient basis and ambient projection.

    The ambient space is J's super exterior square in that degree,
    ``PairSpace(alg, n, -1)``, whose ``coords`` and ``index`` it keeps: one
    (i, u, j, v) per unordered pair, the later element first, odd squares
    kept and even ones dropped; every ordered pair maps to (position,
    sign), as x(x)y = -(-1)^{|x||y|} y(x)x, and an even square to sign 0.
    """

    coords: list[tuple[int, int, int, int]]  # ambient (i, u, j, v), canonical
    index: dict[tuple[int, int, int, int], tuple[int, int]]  # pair -> (position, sign)
    parities: tuple[int, ...]  # of the quotient basis
    labels: tuple[str, ...]
    lifts: tuple[int, ...]  # position in coords of each quotient basis element
    projection: list[Vector]  # ambient index -> quotient coordinates, times scale
    scale: int  # the lcm of the rational projection's denominators

    @property
    def dim(self) -> GDim:
        return GDim(self.parities.count(0), self.parities.count(1))


def build_Bs(alg: GradedJordanAlgebra, max_degree: int) -> dict[int, BsComponent]:
    """Bs(J) per z-degree 2..max_degree, by exact row reduction.

    Each cyclic row is ``alg.scale`` times the rational one, with the same
    row space, quotient and projection.
    """
    if max_degree > alg.max_degree:
        raise ValueError("algebra not built deep enough")
    return {n: _build_bs_degree(alg, n) for n in range(2, max_degree + 1)}


def _build_bs_degree(alg: GradedJordanAlgebra, n: int) -> BsComponent:
    # One cyclic row per S3 orbit of basis triples spans them all.
    space = PairSpace(alg, n, -1)
    rows = dict.fromkeys(filter(None, (
        cyclic_row(space, *t) for triples in triple_groups(alg.parities, n) for t in triples
    )))
    kept, parities, labels, projection, scale = space.quotient(rows, "{{{}(x){}}}")
    return BsComponent(space.coords, space.index, parities, labels, tuple(kept), projection, scale)


def inner_rank_diagnostic(tag: TagAlgebra, n: int) -> GDim:
    """Rank of the degree-n classes of Bs(J) acting on J through tag.max_degree.

    Reads the Bs-on-e(x)J block of ``tag.brackets``: one row per class b
    and one column per (e(x)z, term), numbered z * len(tag.degrees) + k.
    As [b, e(x)z] = e(x)d(z), d the class's derivation, each row is the
    class's derivation matrix at one common scale, which the rank does not
    see.  The rank is a truncation-dependent lower bound for the graded
    dimension of the degree-n inner derivations: action at z-degrees
    above the horizon is invisible, so the true dimension may be larger.
    """
    at, width = tag.at, len(tag.degrees)
    rows: dict[int, list[linalg.SparseRow]] = {0: [], 1: []}
    for q, parity in enumerate(tag.bs[n].parities):
        rows[parity].append(tuple(
            (gs * width + k, c)
            for m in range(1, tag.max_degree - n + 1)
            for gs in range(at[m][0], at[m][1])
            for k, c in tag.brackets.get((at[n][3] + q, gs), ())
        ))
    return GDim(linalg.rank(rows[0]), linalg.rank(rows[1]))


class TagAlgebra:
    """Truncation of the TAG Lie superalgebra with exact structure constants.

    Basis elements are indexed globally, ordered by z-degree, with the
    sl2-tensor part before the Bs part inside each degree: ``at[n]`` holds
    the first index of e (x) J_n, h (x) J_n, f (x) J_n and Bs_n, and element
    g has ``degrees[g]``, ``weights[g]`` (h-weight), ``parities[g]`` and
    ``labels[g]``.  Brackets are precomputed for every ordered pair whose
    total z-degree stays within the truncation and stored once, as
    integers: ``scale`` is the least common denominator of all structure
    constants, and ``brackets[(gi, gj)]`` holds ``scale * [gi, gj]`` with
    int coefficients; the gates and the chain complex read this integer
    table directly.

    Everything is built in ints from J's tables, each entry times T =
    ``alg.scale``, the lcm of their denominators: Bs(J) from cyclic rows
    T times the rational ones, the derivation columns at T**2, and the Bs
    projections, each held over its component's scale, read at P, the lcm
    of those scales.  At S = lcm(2P, P*T**2) every entry is one J-level
    vector's entry times a multiplier: the k/2 part of a projection row at
    P, the [a,b](x)(x.y) part of a product at T, the Bs-on-sl2 part of a
    derivation column at T**2 and the Bs-on-Bs part of an image at
    P*T**2.  With g the gcd of S and those entries, ``scale`` = S // g, and
    each bracket is written once at that scale; as every rational
    coefficient is an entry over S, S // g is the lcm of their
    denominators.  Of the integer data only the bracket table outlives
    construction.
    """

    def __init__(self, alg: GradedJordanAlgebra, max_degree: int) -> None:
        self.alg = alg
        self.max_degree = max_degree
        self.bs = build_Bs(alg, max_degree)
        self.at: dict[int, tuple[int, ...]] = {}
        self.degrees, self.weights, self.parities, self.labels = [], [], [], []
        for n in range(1, max_degree + 1):
            dim, comp = alg.dim(n), self.bs.get(n)
            self.at[n] = tuple(len(self.degrees) + a * dim for a in range(4))
            for a in range(3):
                self.weights += [SL2_WEIGHTS[a]] * dim
                self.parities += alg.parities[n]
                self.labels += [f"{SL2_NAMES[a]}(x){x}" for x in alg.labels[n]]
            if comp:
                self.weights += [0] * len(comp.parities)
                self.parities += comp.parities
                self.labels += comp.labels
            self.degrees += [n] * (len(self.parities) - len(self.degrees))
        # lift (i, u, j, v) of a Bs class + (m,) -> T**2 times d_{x,y} on degree m.
        derivations: dict[tuple[int, ...], list[Vector]] = {
            comp.coords[k] + (m,): alg.derivation(*comp.coords[k], m)
            for n, comp in self.bs.items()
            for k in comp.lifts
            for m in range(1, max_degree - n + 1)
        }
        self.brackets, self.scale = self._bracket_table(derivations)

    def _bracket_table(self, derivations: dict) -> tuple[dict, int]:
        """Every in-range bracket in ints, from the derivation columns; returns (brackets, scale).

        In a degree the sl2 tensors come before the Bs classes, so every
        bracket below is sorted as written.
        """
        alg, N, T = self.alg, self.max_degree, self.alg.scale
        par = alg.parities
        P = lcm(*(comp.scale for comp in self.bs.values()))
        projection = {n: [tuple((k, c * (P // comp.scale)) for k, c in vec)
                          for vec in comp.projection] for n, comp in self.bs.items()}
        S = lcm(2 * P, P * T * T)
        at = self.at
        classes = [
            (n, at[n][3] + q, comp.parities[q], comp.coords[k])
            for n, comp in self.bs.items() for q, k in enumerate(comp.lifts)
        ]
        # [b, z(x)w] = {d(z)(x)w} + (-1)^{|b||z|} {z(x)d(w)}, d of the class b, at P*T**2.
        images = []
        for d, gb, pb, lift in classes:
            for n, gc, _, (p, s, q, t) in classes:
                if d + n > N:
                    break
                index, proj = self.bs[d + n].index, projection[d + n]
                sign = -1 if pb & par[p][s] else 1
                terms = [((d + p, k, q, t), c) for k, c in derivations[lift + (p,)][s]]
                terms += [((p, s, d + q, k), sign * c) for k, c in derivations[lift + (q,)][t]]
                image = {}
                for key, c in terms:
                    k, e = index[key]
                    if e:
                        linalg.accumulate(image, proj[k], e * c)
                if any(image.values()):
                    images.append(((gb, gc), at[d + n][3], linalg.sparse_row(image)))
        # Each entry is a vector entry below times its multiplier to S.
        to_s = (S // T, 2 * S // P, S // (T * T), S // (P * T * T))
        g = gcd(S, *(m * gcd(*(c for vec in vecs for _, c in vec)) for m, vecs in zip(to_s, (
            [vec for (i, j), tab in alg.tables.items() if i + j <= N for row in tab for vec in row],
            [vec for rows in projection.values() for vec in rows],
            [col for cols in derivations.values() for col in cols],
            [row for _, _, row in images],
        ))))

        def rescale(vec, part, offset=0):
            return [(offset + k, c * to_s[part] // g) for k, c in vec]

        brackets = {}
        for n in range(2, N + 1):
            o = at[n]
            # Every ordered pair: an even square has class 0 but a product.
            for (i, u, j, v), (q, e) in self.bs[n].index.items():
                prod = rescale(alg.multiply_basis(i, u, j, v), 0)
                kap = rescale(projection[n][q], 1, o[3]) if e else ()
                for a, b, c_idx, coeff, half in SL2_RULES:
                    out = [(o[c_idx] + k, coeff * c) for k, c in prod if coeff]
                    out += [(k, e * half * c) for k, c in kap if half]
                    if out:
                        brackets[(at[i][a] + u, at[j][b] + v)] = tuple(out)
        for n, gb, pb, lift in classes:
            for m in range(1, N - n + 1):
                for w, col in enumerate(derivations[lift + (m,)]):
                    # [a(x)z, b] = -(-1)^{|b||z|} [b, a(x)z]
                    neg = not (pb & par[m][w])
                    for a in range(3 if col else 0):
                        gs = at[m][a] + w
                        image = brackets[(gb, gs)] = tuple(rescale(col, 2, at[n + m][a]))
                        brackets[(gs, gb)] = tuple((k, -c) for k, c in image) if neg else image
        for key, offset, row in images:
            brackets[key] = tuple(rescale(row, 3, offset))

        deg, wt, parity = self.degrees, self.weights, self.parities
        for (gi, gj), terms in brackets.items():
            d, w, p = deg[gi] + deg[gj], wt[gi] + wt[gj], parity[gi] ^ parity[gj]
            for k, _ in terms:
                if deg[k] != d or wt[k] != w:
                    raise AssertionError("bracket violates grading")
                if parity[k] != p:
                    raise AssertionError("bracket violates parity")
        return brackets, S // g

    # -- self-tests ------------------------------------------------------

    def check_anticommutativity(self) -> None:
        """[x, y] = -(-1)^{|x||y|} [y, x] on every unordered in-range pair.

        Read off the integer table, so each side is ``scale`` times the
        rational one, and compared as canonical tuples: sorted, with no
        zero coefficient, so two are equal exactly when the vectors are.
        A pair with both brackets zero holds; every other pair has a key
        in the table, and is compared once, from its first key.
        """
        brackets, par = self.brackets, self.parities
        for (gi, gj), terms in brackets.items():
            if gi > gj and (gj, gi) in brackets:
                continue
            partner = brackets.get((gj, gi), ())
            if not par[gi] & par[gj]:
                partner = tuple((k, -c) for k, c in partner)
            if terms != partner:
                raise AssertionError(
                    f"anticommutativity fails on ({self.labels[gi]}, {self.labels[gj]})"
                )

    def check_jacobi(self) -> int:
        """Super Jacobi on every sorted in-range basis triple; returns the count.

        The Jacobiator of (i, j, k) is the sum over its cyclic rotations
        (a, b, c) of (-1)^{|a||c|} [[a, b], c], read off the integer table:
        ``scale**2`` times it, and 0 when the three [a, b] are empty.
        Only gi <= gj <= gk is checked, repeats included, and that covers
        every ordered triple once ``check_anticommutativity`` has passed:
        the Jacobiator is invariant under rotation as written, and with
        [b, a] = -(-1)^{|a||b|} [a, b] swapping two arguments multiplies it
        by -(-1)^{|a||b|+|b||c|+|c||a|}.  So every permutation of a triple
        gives plus or minus the Jacobiator of the sorted triple.
        """
        count, N, deg, par = 0, self.max_degree, self.degrees, self.parities
        rows = [{} for _ in deg]  # rows[a][b] = [a, b]
        for (a, b), terms in self.brackets.items():
            rows[a][b] = terms
        for gi, di in enumerate(deg):
            for gj in range(gi, bisect_right(deg, N - 1 - di)):
                ij = rows[gi].get(gj, ())
                stop = bisect_right(deg, N - di - deg[gj])
                count += max(stop - gj, 0)
                for gk in range(gj, stop):
                    jk, ki = rows[gj].get(gk, ()), rows[gk].get(gi, ())
                    if not (ij or jk or ki):
                        continue
                    acc = {}
                    for a, c, terms in ((gi, gk, ij), (gj, gi, jk), (gk, gj, ki)):
                        sign = -1 if par[a] & par[c] else 1
                        for m, coeff in terms:
                            coeff *= sign
                            for q, v in rows[m].get(c, ()):
                                acc[q] = acc.get(q, 0) + coeff * v
                    if any(acc.values()):
                        labels = self.labels
                        raise AssertionError(
                            f"Jacobi fails on ({labels[gi]}, {labels[gj]}, {labels[gk]})"
                        )
        return count


def build_tag(alg: GradedJordanAlgebra, max_degree: int) -> TagAlgebra:
    """Build the TAG algebra and run its anticommutativity gate.

    The other gates run where their answers are used.  ``freejordan
    oracle`` calls ``check_jacobi``.  ``ChainComplex`` calls
    ``sl2.check_sl2``, and its d^2 = 0 gate on the r = 3 blocks of weight
    >= 0, which commutes with sl2, is the Jacobi identity on every triple
    in its range, so ``compute_homology`` calls ``check_jacobi`` only when
    r_max < 3.
    """
    tag = TagAlgebra(alg, max_degree)
    tag.check_anticommutativity()
    return tag
