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
Bs classes have weight 0.  After construction, anticommutativity is checked
on every unordered in-range basis pair and the super Jacobi identity on
every sorted in-range basis triple; by graded antisymmetry the other
orderings follow from these, so both checks are exhaustive.

The layer is built in ints from ``alg.integer_copy()``, J's tables times
T; ``TagAlgebra`` gives the scales.  This module imports no ``Fraction``:
the one rational data it keeps is ``BsComponent.projection``, as
``linalg.quotient`` returns it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import gcd, lcm
from typing import Iterator

from . import linalg
from .jordan import GradedJordanAlgebra, Vector
from .rings import GDim

# sl2 basis order: e, h, f
SL2_NAMES = ("e", "h", "f")
SL2_WEIGHTS = (2, 0, -2)
# [e,f]=h, [h,e]=2e, [h,f]=-2f; entry (i,j) -> list of (k, coeff)
_SL2_BRACKET = {
    (0, 2): ((1, 1),),
    (2, 0): ((1, -1),),
    (1, 0): ((0, 2),),
    (0, 1): ((0, -2),),
    (1, 2): ((2, -2),),
    (2, 1): ((2, 2),),
}
# Trace form on sl2: k(e,f) = k(f,e) = 4, k(h,h) = 8.
_KAPPA = {(0, 2): 4, (2, 0): 4, (1, 1): 8}


@dataclass
class BsComponent:
    """One z-degree of Bs(J): quotient basis and ambient projection.

    The ambient space is J (x) J in that degree, with coordinates
    ``coords`` and their positions ``index``.
    """

    degree: int
    coords: list[tuple[int, int, int, int]]  # ambient (i, u, j, v), canonical
    index: dict[tuple[int, int, int, int], int]  # ambient coordinate -> position
    parities: tuple[int, ...]  # of the quotient basis
    labels: tuple[str, ...]
    lifts: tuple[int, ...]  # ambient coordinate index of each quotient basis elt
    projection: list[Vector]  # ambient index -> quotient coordinates

    @property
    def dim(self) -> GDim:
        return GDim(self.parities.count(0), self.parities.count(1))


def build_Bs(alg: GradedJordanAlgebra, max_degree: int) -> dict[int, BsComponent]:
    """Bs(J) per z-degree 2..max_degree, by exact row reduction.

    ``alg``'s tables must hold ints, as ``alg.integer_copy()``'s do: each
    cyclic row is then T times the rational one, with the same row space,
    quotient and projection.
    """
    if max_degree > alg.max_degree:
        raise ValueError("algebra not built deep enough")
    out: dict[int, BsComponent] = {}
    for n in range(2, max_degree + 1):
        out[n] = _build_bs_degree(alg, n)
    return out


def _build_bs_degree(alg: GradedJordanAlgebra, n: int) -> BsComponent:
    par = alg.parities
    coords = [
        (i, u, n - i, v)
        for i in range(1, n)
        for u in range(len(par[i]))
        for v in range(len(par[n - i]))
    ]
    cpar = lambda c: (par[c[0]][c[1]] + par[c[2]][c[3]]) % 2
    coords.sort(key=lambda c: (cpar(c), c))
    index = {c: k for k, c in enumerate(coords)}
    coord_parity = [cpar(c) for c in coords]

    rows: dict[linalg.SparseRow, None] = {}

    def add_row(terms: list[tuple[int, int]]) -> None:
        acc: dict[int, int] = {}
        linalg.accumulate(acc, terms)
        row = linalg.sparse_row(acc)
        if row:
            rows[row] = None

    # Supercommutator relations.
    for (i, u, j, v) in coords:
        sign = (-1) ** (par[i][u] * par[j][v])
        add_row([(index[(i, u, j, v)], 1), (index[(j, v, i, u)], sign)])

    # Cyclic relations on basis triples.
    product = alg.multiply_basis
    for p in range(1, n - 1):
        for q in range(1, n - p):
            r = n - p - q
            if r < 1:
                continue
            for xu in range(len(par[p])):
                for yu in range(len(par[q])):
                    xy = product(p, xu, q, yu)
                    for zu in range(len(par[r])):
                        px, py, pz = par[p][xu], par[q][yu], par[r][zu]
                        yz = product(q, yu, r, zu)
                        zx = product(r, zu, p, xu)
                        add_row([
                            (index[(dd, k, de, unit)], s * c)
                            for s, dd, vec, de, unit in (
                                ((-1) ** (px * pz), p + q, xy, r, zu),
                                ((-1) ** (px * py), q + r, yz, p, xu),
                                ((-1) ** (py * pz), r + p, zx, q, yu),
                            )
                            for k, c in vec
                        ])

    kept, projection = linalg.quotient(rows, coord_parity)
    return BsComponent(
        degree=n,
        coords=coords,
        index=index,
        parities=tuple(coord_parity[k] for k in kept),
        labels=tuple(
            f"{{{alg.labels[i][u]}(x){alg.labels[j][v]}}}"
            for (i, u, j, v) in (coords[k] for k in kept)
        ),
        lifts=tuple(kept),
        projection=projection,
    )


def inner_rank_diagnostic(tag: TagAlgebra, n: int) -> GDim:
    """Rank of the degree-n classes of Bs(J) acting on J through tag.max_degree.

    Reads the derivation matrices that ``tag`` built once, at scale T**2,
    which the rank does not see.  The rank is a truncation-dependent lower
    bound for the graded dimension of the degree-n inner derivations:
    action at z-degrees above the horizon is invisible, so the true
    dimension may be larger.
    """
    bs = tag.bs[n]
    rows: dict[int, list[linalg.SparseRow]] = {0: [], 1: []}
    for idx, k in enumerate(bs.lifts):
        # Each class is the concatenation of its derivation columns.
        row: list[tuple[int, int]] = []
        offset = 0
        for m in range(1, tag.max_degree - n + 1):
            for col in tag._derivations[bs.coords[k] + (m,)]:
                row.extend((offset + pos, c) for pos, c in col)
                offset += tag.alg.dim(n + m)
        rows[bs.parities[idx]].append(tuple(row))
    return GDim(linalg.rank(rows[0]), linalg.rank(rows[1]))


@dataclass(frozen=True)
class TagElement:
    kind: str  # "sl2" or "bs"
    degree: int  # z-degree
    parity: int
    weight: int  # h-weight
    label: str
    # sl2: (a, u) with a in 0..2 (e, h, f) and u a J-basis index
    # bs:  (u,) a Bs quotient basis index
    data: tuple[int, ...]


class TagAlgebra:
    """Truncation of the TAG Lie superalgebra with exact structure constants.

    Basis elements are indexed globally, ordered by z-degree, with the
    sl2-tensor part before the Bs part inside each degree.  Brackets are
    precomputed for every ordered pair whose total z-degree stays within
    the truncation and stored once, as integers: ``scale`` is the least
    common denominator of all structure constants, and ``brackets[(gi, gj)]``
    holds ``scale * [basis[gi], basis[gj]]`` with int coefficients; the
    gates and the chain complex read this integer table directly.

    Everything is built in ints from one integer copy of J's tables, each
    entry times T, the lcm of their denominators: Bs(J) from cyclic rows
    T times the rational ones, the derivation columns at T**2, and the Bs
    projection read at P, the lcm of its denominators.  Each bracket is
    summed at S = lcm(2P, P*T**2): the k/2 part carries 2P, the
    [a,b](x)(x.y) part T, the Bs-on-sl2 part T**2 and the Bs-on-Bs part
    P*T**2.  With g the gcd of S and every entry, ``scale`` = S // g and
    each entry is divided by g; as every rational coefficient is an entry
    over S, S // g is the lcm of their denominators.  Of the integer data
    only ``_derivations`` outlives construction: the T**2 columns of every
    Bs class on every degree in range, read by ``inner_rank_diagnostic``.
    """

    def __init__(self, alg: GradedJordanAlgebra, max_degree: int) -> None:
        if max_degree > alg.max_degree:
            raise ValueError("algebra not built deep enough")
        self.alg = alg
        self.max_degree = max_degree
        T, scaled = alg.integer_copy()
        self.bs = build_Bs(scaled, max_degree)
        self.basis: list[TagElement] = []
        self._sl2_index: dict[tuple[int, int, int], int] = {}
        self._bs_index: dict[tuple[int, int], int] = {}
        for n in range(1, max_degree + 1):
            for a in range(3):
                for u in range(alg.dim(n)):
                    self._sl2_index[(a, n, u)] = len(self.basis)
                    self.basis.append(TagElement(
                        kind="sl2",
                        degree=n,
                        parity=alg.parities[n][u],
                        weight=SL2_WEIGHTS[a],
                        label=f"{SL2_NAMES[a]}(x){alg.labels[n][u]}",
                        data=(a, u),
                    ))
            if n in self.bs:
                for u in range(len(self.bs[n].parities)):
                    self._bs_index[(n, u)] = len(self.basis)
                    self.basis.append(TagElement(
                        kind="bs",
                        degree=n,
                        parity=self.bs[n].parities[u],
                        weight=0,
                        label=self.bs[n].labels[u],
                        data=(u,),
                    ))
        self._degrees = [el.degree for el in self.basis]
        # lift (i, u, j, v) of a Bs class + (m,) -> T**2 times d_{x,y} on degree m.
        self._derivations: dict[tuple[int, int, int, int, int], list[Vector]] = {
            comp.coords[k] + (m,): scaled.derivation(*comp.coords[k], m)
            for n, comp in self.bs.items()
            for k in comp.lifts
            for m in range(1, max_degree - n + 1)
        }
        self.brackets, self.scale = self._bracket_table(scaled, T)

    def _pairs(self, max_total: int, unordered: bool = False) -> Iterator[tuple[int, int]]:
        """Basis index pairs whose z-degrees sum to at most ``max_total``.

        The basis is ordered by degree, so the partners of gi are an
        initial segment of it.  ``unordered`` keeps only gi <= gj.
        """
        for gi, d in enumerate(self._degrees):
            start = gi if unordered else 0
            for gj in range(start, bisect_right(self._degrees, max_total - d)):
                yield gi, gj

    # -- bracket construction -------------------------------------------

    # The helpers below map a vector to TAG indices times ``scale``.  Every
    # vector is sorted and the indices of one (a, degree) or one Bs degree
    # are consecutive, so each image is sorted too.

    def _sl2_tensor(self, a: int, n: int, vec: Vector, scale: int) -> list[tuple[int, int]]:
        return [(self._sl2_index[(a, n, u)], scale * c) for u, c in vec]

    def _bs_terms(self, n: int, vec: Vector, scale: int) -> list[tuple[int, int]]:
        return [(self._bs_index[(n, u)], scale * c) for u, c in vec]

    def _bs_lift(self, el: TagElement) -> tuple[int, int, int, int]:
        comp = self.bs[el.degree]
        return comp.coords[comp.lifts[el.data[0]]]

    def _bracket_table(
        self, scaled: GradedJordanAlgebra, T: int
    ) -> tuple[dict[tuple[int, int], Vector], int]:
        """Every in-range bracket in ints; returns (brackets, scale).

        See the class docstring for the scales T, P and S.  Inside a degree
        the sl2 tensors come before the Bs classes, so the k/2 part of an
        sl2 bracket follows its [a,b](x)(x.y) part, and each bracket but a
        Bs-on-Bs one is a concatenation of sorted images with no sum.
        """
        P = linalg.denominator(vec for comp in self.bs.values() for vec in comp.projection)
        projection = {
            n: [linalg.scaled(vec, P) for vec in comp.projection] for n, comp in self.bs.items()
        }
        S = lcm(2 * P, P * T * T)
        # Multipliers that bring each part of a bracket to scale S.
        half_kappa = {key: kap * (S // (2 * P)) for key, kap in _KAPPA.items()}
        to_s_product = S // T
        to_s_derivation = S // (T * T)
        to_s_bs = S // (P * T * T)

        grade = [(el.degree, el.weight, el.parity) for el in self.basis]
        brackets: dict[tuple[int, int], Vector] = {}
        for gi, gj in self._pairs(self.max_degree):
            e1, e2 = self.basis[gi], self.basis[gj]
            n = e1.degree + e2.degree
            if e1.kind == "sl2" and e2.kind == "sl2":
                (a, u), (b, v) = e1.data, e2.data
                i, j = e1.degree, e2.degree
                out = []
                for c_idx, coeff in _SL2_BRACKET.get((a, b), ()):
                    prod = scaled.multiply_basis(i, u, j, v)
                    out += self._sl2_tensor(c_idx, n, prod, coeff * to_s_product)
                kap = half_kappa.get((a, b))
                if kap and n in self.bs:
                    coord = self.bs[n].index[(i, u, j, v)]
                    out += self._bs_terms(n, projection[n][coord], kap)
            elif e1.kind != e2.kind:
                # [sl2, Bs] = -(-1)^{|x||y|} [Bs, sl2]
                eb, es, sign = (
                    (e1, e2, 1) if e1.kind == "bs"
                    else (e2, e1, -((-1) ** (e1.parity * e2.parity)))
                )
                a, w = es.data
                col = self._derivations[self._bs_lift(eb) + (es.degree,)][w]
                out = self._sl2_tensor(a, n, col, sign * to_s_derivation)
            else:
                # {d(z)(x)w} + (-1)^{|e1||z|} {z(x)d(w)}, d of e1 and z(x)w the lift of e2
                lift, (p, s, q, t) = self._bs_lift(e1), self._bs_lift(e2)
                d, index = e1.degree, self.bs[n].index
                sign = (-1) ** (e1.parity * scaled.parities[p][s])
                image: dict[int, int] = {}
                for k, c in self._derivations[lift + (p,)][s]:
                    linalg.accumulate(image, projection[n][index[(d + p, k, q, t)]], c)
                for k, c in self._derivations[lift + (q,)][t]:
                    linalg.accumulate(image, projection[n][index[(p, s, d + q, k)]], sign * c)
                out = self._bs_terms(n, linalg.sparse_row(image), to_s_bs)
            if not out:
                continue
            want = (n, e1.weight + e2.weight, (e1.parity + e2.parity) % 2)
            for k, _ in out:
                if grade[k] != want:
                    bad = "parity" if grade[k][:2] == want[:2] else "grading"
                    raise AssertionError(f"bracket violates {bad}")
            brackets[(gi, gj)] = tuple(out)
        g = S
        for terms in brackets.values():
            g = gcd(g, *(c for _, c in terms))
        if g != 1:
            for key, terms in brackets.items():
                brackets[key] = tuple((k, c // g) for k, c in terms)
        return brackets, S // g

    # -- self-tests ------------------------------------------------------

    def check_anticommutativity(self) -> None:
        """[x, y] + (-1)^{|x||y|} [y, x] = 0 on every unordered in-range pair.

        Read off the integer table, so each sum is ``scale`` times the
        rational one, and vanishes exactly when it does.  The condition
        for (y, x) is (-1)^{|x||y|} times the one for (x, y), so checking
        gi <= gj reads every table entry, once as [x, y] and once as the
        partner [y, x].
        """
        for gi, gj in self._pairs(self.max_degree, unordered=True):
            acc = dict(self.brackets.get((gi, gj), ()))
            sign = (-1) ** (self.basis[gi].parity * self.basis[gj].parity)
            linalg.accumulate(acc, self.brackets.get((gj, gi), ()), sign)
            if any(acc.values()):
                raise AssertionError(
                    f"anticommutativity fails on ({self.basis[gi].label}, "
                    f"{self.basis[gj].label})"
                )

    def check_jacobi(self) -> int:
        """Super Jacobi on every sorted in-range basis triple; returns the count.

        The Jacobiator of (i, j, k) is the sum over its cyclic rotations
        (a, b, c) of (-1)^{|a||c|} [[a, b], c], each read off the integer
        table, so what is summed is ``scale**2`` times the Jacobiator.
        Only gi <= gj <= gk is checked, repeats included, and that covers
        every ordered triple once ``check_anticommutativity`` has passed:
        the Jacobiator is invariant under rotation as written, and with
        [b, a] = -(-1)^{|a||b|} [a, b] swapping two arguments multiplies it
        by -(-1)^{|a||b|+|b||c|+|c||a|}.  So every permutation of a triple
        gives plus or minus the Jacobiator of the sorted triple.
        """
        count = 0
        par = [el.parity for el in self.basis]
        for gi, gj in self._pairs(self.max_degree - 1, unordered=True):
            top = self.max_degree - self._degrees[gi] - self._degrees[gj]
            for gk in range(gj, bisect_right(self._degrees, top)):
                acc: dict[int, int] = {}
                for a, b, c in ((gi, gj, gk), (gj, gk, gi), (gk, gi, gj)):
                    sign = (-1) ** (par[a] * par[c])
                    for m, coeff in self.brackets.get((a, b), ()):
                        linalg.accumulate(acc, self.brackets.get((m, c), ()), sign * coeff)
                if any(acc.values()):
                    raise AssertionError(
                        f"Jacobi fails on ({self.basis[gi].label}, "
                        f"{self.basis[gj].label}, {self.basis[gk].label})"
                    )
                count += 1
        return count


def build_tag(alg: GradedJordanAlgebra, max_degree: int) -> TagAlgebra:
    """Build the TAG algebra and run its exhaustive self-tests."""
    tag = TagAlgebra(alg, max_degree)
    tag.check_anticommutativity()
    tag.check_jacobi()
    return tag
