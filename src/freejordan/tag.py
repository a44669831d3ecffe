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
Bs classes have weight 0.  Anticommutativity and the super Jacobi identity
are checked exhaustively after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from . import linalg
from .jordan import GradedJordanAlgebra, Vector, _zero
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
    """One z-degree of Bs(J): quotient basis and ambient projection."""

    degree: int
    coords: list[tuple[int, int, int, int]]  # ambient (i, u, j, v), canonical
    parities: tuple[int, ...]  # of the quotient basis
    labels: tuple[str, ...]
    lifts: tuple[int, ...]  # ambient coordinate index of each quotient basis elt
    projection: list[Vector]  # ambient index -> quotient coordinates

    @property
    def dim(self) -> GDim:
        return GDim(self.parities.count(0), self.parities.count(1))

    def coord_index(self, coord: tuple[int, int, int, int]) -> int:
        cache = getattr(self, "_coord_index", None)
        if cache is None:
            cache = self._coord_index = {c: k for k, c in enumerate(self.coords)}
        return cache[coord]

    def project(self, ambient: Sequence[Fraction]) -> Vector:
        out = _zero(len(self.parities))
        for k, c in enumerate(ambient):
            if c:
                for idx, p in enumerate(self.projection[k]):
                    if p:
                        out[idx] += c * p
        return tuple(out)


def build_Bs(alg: GradedJordanAlgebra, max_degree: int) -> dict[int, BsComponent]:
    """Bs(J) per z-degree 2..max_degree, by exact row reduction."""
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
    nw = len(coords)
    coord_parity = [cpar(c) for c in coords]

    rows: dict[linalg.SparseRow, None] = {}

    def add_row(row: Sequence[Fraction]) -> None:
        if any(row):
            rows[tuple((k, c) for k, c in enumerate(row) if c)] = None

    # Supercommutator relations.
    for (i, u, j, v) in coords:
        row = _zero(nw)
        row[index[(i, u, j, v)]] += 1
        row[index[(j, v, i, u)]] += (-1) ** (par[i][u] * par[j][v])
        add_row(row)

    # Cyclic relations on basis triples.
    for p in range(1, n - 1):
        for q in range(1, n - p):
            r = n - p - q
            if r < 1:
                continue
            for xu in range(len(par[p])):
                xv = alg.basis_vector(p, xu)
                for yu in range(len(par[q])):
                    yv = alg.basis_vector(q, yu)
                    xy = alg.multiply(p, xv, q, yv)
                    for zu in range(len(par[r])):
                        zv = alg.basis_vector(r, zu)
                        px, py, pz = par[p][xu], par[q][yu], par[r][zu]
                        yz = alg.multiply(q, yv, r, zv)
                        zx = alg.multiply(r, zv, p, xv)
                        row = _zero(nw)
                        for s, (dd, vec, de, unit) in (
                            ((-1) ** (px * pz), (p + q, xy, r, zu)),
                            ((-1) ** (px * py), (q + r, yz, p, xu)),
                            ((-1) ** (py * pz), (r + p, zx, q, yu)),
                        ):
                            for k, c in enumerate(vec):
                                if c:
                                    row[index[(dd, k, de, unit)]] += s * c
                        add_row(row)

    kept, projection = linalg.quotient(rows, coord_parity)
    return BsComponent(
        degree=n,
        coords=coords,
        parities=tuple(coord_parity[k] for k in kept),
        labels=tuple(
            f"{{{alg.labels[i][u]}(x){alg.labels[j][v]}}}"
            for (i, u, j, v) in (coords[k] for k in kept)
        ),
        lifts=tuple(kept),
        projection=projection,
    )


def inner_rank_diagnostic(alg: GradedJordanAlgebra, bs: BsComponent, max_degree: int) -> GDim:
    """Rank of the classes of ``bs`` acting on J through degree max_degree.

    ``bs`` is one z-degree n = ``bs.degree`` of Bs(J), as ``build_Bs``
    (or ``TagAlgebra.bs``) returns it for ``alg``.  The rank is a
    truncation-dependent lower bound for the graded dimension of the
    degree-n inner derivations: action at z-degrees above the horizon is
    invisible, so the true dimension may be larger.
    """
    n = bs.degree
    rows: dict[int, list[linalg.SparseRow]] = {0: [], 1: []}
    for idx, k in enumerate(bs.lifts):
        (i, u, j, v) = bs.coords[k]
        flat: list[Fraction] = []
        for m in range(1, max_degree - n + 1):
            for col in alg.derivation_of(i, alg.basis_vector(i, u), j, alg.basis_vector(j, v), m):
                flat.extend(col)
        rows[bs.parities[idx]].append(tuple((pos, c) for pos, c in enumerate(flat) if c))
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
    the truncation.
    """

    def __init__(self, alg: GradedJordanAlgebra, max_degree: int) -> None:
        if max_degree > alg.max_degree:
            raise ValueError("algebra not built deep enough")
        self.alg = alg
        self.max_degree = max_degree
        self.bs = build_Bs(alg, max_degree)
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
        self._derivations: dict[tuple[int, int, int, int, int], list[Vector]] = {}
        self.brackets: dict[tuple[int, int], tuple[tuple[int, Fraction], ...]] = {}
        for gi in range(len(self.basis)):
            for gj in range(len(self.basis)):
                if self.basis[gi].degree + self.basis[gj].degree <= max_degree:
                    terms = self._bracket_basis(gi, gj)
                    if terms:
                        self.brackets[(gi, gj)] = terms

    def graded_dims(self) -> dict[int, GDim]:
        out: dict[int, GDim] = {}
        for el in self.basis:
            d = out.get(el.degree, GDim(0, 0))
            out[el.degree] = d + (GDim(1, 0) if el.parity == 0 else GDim(0, 1))
        return out

    def bracket(self, gi: int, gj: int) -> tuple[tuple[int, Fraction], ...]:
        """[basis[gi], basis[gj]] as sparse (index, coefficient) pairs."""
        if self.basis[gi].degree + self.basis[gj].degree > self.max_degree:
            raise ValueError("bracket degree beyond truncation")
        return self.brackets.get((gi, gj), ())

    # -- bracket construction -------------------------------------------

    def _sl2_tensor(self, a: int, n: int, vec: Sequence[Fraction], scale: Fraction) -> Iterator[tuple[int, Fraction]]:
        for u, c in enumerate(vec):
            if c:
                yield self._sl2_index[(a, n, u)], scale * c

    def _bs_terms(self, n: int, vec: Sequence[Fraction], scale: Fraction) -> Iterator[tuple[int, Fraction]]:
        for u, c in enumerate(vec):
            if c:
                yield self._bs_index[(n, u)], scale * c

    def _bracket_basis(self, gi: int, gj: int) -> tuple[tuple[int, Fraction], ...]:
        e1, e2 = self.basis[gi], self.basis[gj]
        acc: dict[int, Fraction] = {}

        def add(pairs: Iterator[tuple[int, Fraction]], sign: int = 1) -> None:
            for k, c in pairs:
                acc[k] = acc.get(k, Fraction(0)) + sign * c

        n = e1.degree + e2.degree
        if e1.kind == "sl2" and e2.kind == "sl2":
            a, u = e1.data
            b, v = e2.data
            i, j = e1.degree, e2.degree
            kap = _KAPPA.get((a, b))
            if kap and n in self.bs:
                amb = _zero(len(self.bs[n].coords))
                amb[self.bs[n].coord_index((i, u, j, v))] = Fraction(kap, 2)
                add(self._bs_terms(n, self.bs[n].project(amb), Fraction(1)))
            for c_idx, coeff in _SL2_BRACKET.get((a, b), ()):
                prod = self.alg.multiply_basis(i, u, j, v)
                add(self._sl2_tensor(c_idx, n, prod, Fraction(coeff)))
        elif e1.kind == "bs" and e2.kind == "sl2":
            add(self._bs_on_sl2(e1, e2))
        elif e1.kind == "sl2" and e2.kind == "bs":
            sign = -((-1) ** (e1.parity * e2.parity))
            add(self._bs_on_sl2(e2, e1), sign)
        else:
            add(self._bs_on_bs(e1, e2))
        out = tuple(sorted((k, c) for k, c in acc.items() if c))
        for k, _ in out:
            el = self.basis[k]
            if el.degree != n or el.weight != e1.weight + e2.weight:
                raise AssertionError("bracket violates grading")
            if el.parity != (e1.parity + e2.parity) % 2:
                raise AssertionError("bracket violates parity")
        return out

    def _bs_lift(self, el: TagElement) -> tuple[int, int, int, int]:
        comp = self.bs[el.degree]
        return comp.coords[comp.lifts[el.data[0]]]

    def _derivation(self, lift: tuple[int, int, int, int], m: int) -> list[Vector]:
        """Columns of d_{x,y} on degree m for the lift x(x)y, built once."""
        key = lift + (m,)
        if key not in self._derivations:
            i, u, j, v = lift
            alg = self.alg
            self._derivations[key] = alg.derivation_of(
                i, alg.basis_vector(i, u), j, alg.basis_vector(j, v), m
            )
        return self._derivations[key]

    def _bs_on_sl2(self, eb: TagElement, es: TagElement) -> Iterator[tuple[int, Fraction]]:
        a, w = es.data
        m = es.degree
        col = self._derivation(self._bs_lift(eb), m)[w]
        return self._sl2_tensor(a, eb.degree + m, col, Fraction(1))

    def _bs_on_bs(self, e1: TagElement, e2: TagElement) -> Iterator[tuple[int, Fraction]]:
        lift = self._bs_lift(e1)
        (i, _, j, _) = lift
        (p, s, q, t) = self._bs_lift(e2)
        n = e1.degree + e2.degree
        comp = self.bs[n]
        dz = self._derivation(lift, p)[s]
        dw = self._derivation(lift, q)[t]
        amb = _zero(len(comp.coords))
        for k, c in enumerate(dz):
            if c:
                amb[comp.coord_index((i + j + p, k, q, t))] += c
        sgn = (-1) ** (e1.parity * self.alg.parities[p][s])
        for k, c in enumerate(dw):
            if c:
                amb[comp.coord_index((p, s, i + j + q, k))] += sgn * c
        return self._bs_terms(n, comp.project(amb), Fraction(1))

    # -- self-tests ------------------------------------------------------

    def check_anticommutativity(self) -> None:
        nb = len(self.basis)
        for gi in range(nb):
            for gj in range(nb):
                if self.basis[gi].degree + self.basis[gj].degree > self.max_degree:
                    continue
                sign = (-1) ** (self.basis[gi].parity * self.basis[gj].parity)
                lhs = dict(self.brackets.get((gi, gj), ()))
                for k, c in self.brackets.get((gj, gi), ()):
                    lhs[k] = lhs.get(k, Fraction(0)) + sign * c
                if any(lhs.values()):
                    raise AssertionError(
                        f"anticommutativity fails on ({self.basis[gi].label}, "
                        f"{self.basis[gj].label})"
                    )

    def _bracket_vec(self, vec: dict[int, Fraction], gj: int) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for gi, c in vec.items():
            for k, c2 in self.brackets.get((gi, gj), ()):
                out[k] = out.get(k, Fraction(0)) + c * c2
        return out

    def check_jacobi(self) -> int:
        """Super Jacobi on every in-range basis triple; returns the count."""
        count = 0
        nb = len(self.basis)
        for gi in range(nb):
            di, pi = self.basis[gi].degree, self.basis[gi].parity
            for gj in range(nb):
                dj, pj = self.basis[gj].degree, self.basis[gj].parity
                if di + dj >= self.max_degree:
                    continue
                ij = dict(self.brackets.get((gi, gj), ()))
                for gk in range(nb):
                    dk, pk = self.basis[gk].degree, self.basis[gk].parity
                    if di + dj + dk > self.max_degree:
                        continue
                    acc: dict[int, Fraction] = {}
                    s1 = (-1) ** (pi * pk)
                    for k, c in self._bracket_vec(ij, gk).items():
                        acc[k] = acc.get(k, Fraction(0)) + s1 * c
                    jk = dict(self.brackets.get((gj, gk), ()))
                    s2 = (-1) ** (pj * pi)
                    for k, c in self._bracket_vec(jk, gi).items():
                        acc[k] = acc.get(k, Fraction(0)) + s2 * c
                    ki = dict(self.brackets.get((gk, gi), ()))
                    s3 = (-1) ** (pk * pj)
                    for k, c in self._bracket_vec(ki, gj).items():
                        acc[k] = acc.get(k, Fraction(0)) + s3 * c
                    if any(acc.values()):
                        raise AssertionError(
                            f"Jacobi fails on ({self.basis[gi].label}, "
                            f"{self.basis[gj].label}, {self.basis[gk].label})"
                        )
                    count += 1
        return count

    def structure_constants_json(self) -> dict:
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
                for el in self.basis
            ],
            "brackets": {
                f"{i},{j}": [[k, str(c)] for k, c in terms]
                for (i, j), terms in sorted(self.brackets.items())
            },
        }


def build_tag(alg: GradedJordanAlgebra, max_degree: int) -> TagAlgebra:
    """Build the TAG algebra and run its exhaustive self-tests."""
    tag = TagAlgebra(alg, max_degree)
    tag.check_anticommutativity()
    tag.check_jacobi()
    return tag
