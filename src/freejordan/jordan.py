"""Degreewise brute-force construction of the free Jordan superalgebra.

The algebra on d1 even and d2 odd generators is graded by word length.
Degree n >= 2 starts from the supercommutative pair space W_n,
``PairSpace(alg, n, 1)``, and is cut down by the top-level instances of
the super Jordan operator identity

    sum over cyclic (x,y,z) of (-1)^{|x||z|} [L_{x.y}, L_z] = 0

applied to a fourth basis element w, with total degree n.  Such an
instance is D_{a,b} = [L_a, L_b] applied at w to the cyclic row of
(x, y, z) (``cyclic_row``): the cyclic relation on the super exterior
square, ``PairSpace(alg, t, -1)``, that ``freejordan.tag`` reduces to
Bs(J).  The cyclic row is invariant under rotation, and a transposition
multiplies it by (-1)^{|x||y| + |y||z| + |z||x|}, as J is
supercommutative.  So only x <= y <= z in the (degree, index) order is
expanded (``triple_groups``), with every w, and the span is that of all
instances.  Inner products use the already-reduced lower-degree tables,
so embedded instances of the identity vanish automatically.  The tables
hold ints, ``scale`` times the rational products, so each row is
``scale**2`` times its rational instance: the same row space, in ints.
The quotient is taken by exact fraction-free row reduction
(``PairSpace.quotient``), whose projection holds ints over a scale of
its own: at the lcm of that scale and the tables', it gives the new
tables, and the stored ones are multiplied up to it.  Quotient bases are
the non-pivot pair coordinates in a canonical order (parity even-first,
then the lexicographic pair shape), which makes the structure constants
reproducible.

Every vector is a ``Vector``, the package's one sparse type
(``linalg.SparseRow``): sorted (index, coefficient) pairs with no zero
coefficient, so the zero vector is ``()``.  The tables hold their entries
in that form, and the cache stores them as held, beside the scale.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, groupby, product
from math import gcd, lcm
from typing import Collection, Iterator

from . import linalg
from .rings import GDim

FORMAT_VERSION = 3

# The default cap on relation-matrix entries per construction degree.
DEFAULT_BUDGET = 20_000_000

Vector = linalg.SparseRow


class ResourceBudgetExceeded(Exception):
    """The relation matrix for some degree outgrew the configured budget."""


@dataclass
class GradedJordanAlgebra:
    """Truncation of the free Jordan superalgebra with exact mult tables.

    ``parities[n]`` lists the parity (0 or 1) of each degree-n basis
    element; ``tables[(i, j)][u][v]`` (only i <= j) is ``scale`` times the
    product of basis elements u and v, as a sparse ``Vector`` in degree
    i + j with int coefficients.  ``scale`` is the lcm of the rational
    products' denominators.  Instances are treated as immutable once
    built.  ``to_json`` writes the tables and ``scale`` as held, with a
    sha256 of the payload that ``from_json`` checks.
    """

    d1: int
    d2: int
    max_degree: int
    parities: dict[int, tuple[int, ...]]
    labels: dict[int, tuple[str, ...]]
    tables: dict[tuple[int, int], list[list[Vector]]]
    scale: int
    dims: dict[int, GDim] = field(init=False)

    def __post_init__(self) -> None:
        # Always derived, never stored: a cache cannot carry dims that
        # disagree with its basis.
        self.dims = {
            n: GDim(p.count(0), p.count(1)) for n, p in self.parities.items()
        }

    def dim(self, n: int) -> int:
        return len(self.parities[n])

    def graded_dims(self) -> tuple[GDim, ...]:
        """Graded dimensions of degrees 1..max_degree: the z^1..z^N coefficients."""
        return tuple(self.dims[n] for n in range(1, self.max_degree + 1))

    def multiply_basis(self, i: int, u: int, j: int, v: int) -> Vector:
        """``scale`` times the product of basis elements, in degree i + j."""
        if i + j > self.max_degree:
            raise ValueError(f"product degree {i + j} beyond truncation")
        if i <= j:
            return self.tables[(i, j)][u][v]
        sign = (-1) ** (self.parities[i][u] * self.parities[j][v])
        w = self.tables[(j, i)][v][u]
        return w if sign == 1 else tuple((k, -c) for k, c in w)

    def derivation(self, i: int, u: int, j: int, v: int, m: int) -> list[Vector]:
        """``scale**2`` times the columns of d_{x,y} = [L_x, L_y] on degree m.

        x is element u of degree i and y element v of degree j; column w is
        x.(y.z_w) - (-1)^{|x||y|} y.(x.z_w), in degree i + j + m.
        """
        sign = -1 if self.parities[i][u] & self.parities[j][v] else 1
        cols = []
        for w in range(self.dim(m)):
            acc: dict[int, int] = {}
            for a, b, c, d, s in ((i, u, j, v, 1), (j, v, i, u, -sign)):
                for k, ck in self.multiply_basis(c, d, m, w):
                    for q, cq in self.multiply_basis(a, b, c + m, k):
                        acc[q] = acc.get(q, 0) + s * ck * cq
            cols.append(linalg.sparse_row(acc))
        return cols

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON: the sparse tables and ``scale`` as held, plus a sha256 of the rest."""
        payload = {
            "format_version": FORMAT_VERSION,
            "d1": self.d1,
            "d2": self.d2,
            "max_degree": self.max_degree,
            "parities": {str(n): list(p) for n, p in self.parities.items()},
            "labels": {str(n): list(v) for n, v in self.labels.items()},
            "tables": {f"{i},{j}": tab for (i, j), tab in self.tables.items()},
            "scale": self.scale,
        }
        payload["sha256"] = _digest(payload)
        return _canonical(payload)

    @classmethod
    def from_json(cls, text: str) -> "GradedJordanAlgebra":
        """Inverse of ``to_json``.

        Raises ValueError unless the sha256 matches and the payload is well
        formed: d1, d2 >= 0, max_degree >= 1 and scale >= 1 are ints;
        parities, labels and tables are JSON objects; a list of parities 0
        or 1 and as many string labels for each degree 1..max_degree, with
        the d1 even and then the d2 odd generators in degree 1; one table
        for each i <= j with i + j <= max_degree, of dim(i) x dim(j)
        entries, each a ``Vector`` of [index, int] pairs with indices below
        dim(i + j) and every term of the parity |x_u| + |y_v| of its entry;
        and gcd(scale, every entry) = 1, so that ``scale`` is the least
        common denominator of the rational products.
        """
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("cache payload is not a JSON object")
        if payload.pop("sha256", None) != _digest(payload):
            raise ValueError("cache content does not match its sha256")
        if payload.get("format_version") != FORMAT_VERSION:
            raise ValueError("unsupported cache format version")
        header = [payload.get(key) for key in ("d1", "d2", "max_degree", "scale")]
        if not _ints(header):
            raise ValueError("cache d1, d2, max_degree or scale is not an int")
        d1, d2, max_degree, scale = header
        if min(max_degree, scale) < 1:
            raise ValueError("cache max_degree or scale is below 1")
        if not all(isinstance(payload.get(key), dict) for key in ("parities", "labels", "tables")):
            raise ValueError("cache parities, labels or tables is not a JSON object")
        if not all(_ints(p) and set(p) <= {0, 1} for p in payload["parities"].values()):
            raise ValueError("cache parity is not 0 or 1")
        parities = {int(n): tuple(p) for n, p in payload["parities"].items()}
        if len(parities) != max_degree or set(parities) != set(range(1, max_degree + 1)):
            raise ValueError("cache parities do not cover degrees 1..max_degree")
        gens = parities[1]  # d1 zeros, then d2 ones
        if list(gens) != sorted(gens) or [gens.count(0), gens.count(1)] != [d1, d2]:
            raise ValueError("cache degree-1 parities are not the generators'")
        if not all(type(v) is list and all(type(s) is str for s in v)
                   for v in payload["labels"].values()):
            raise ValueError("cache label is not a string")
        labels = {int(n): tuple(v) for n, v in payload["labels"].items()}
        if {n: len(v) for n, v in labels.items()} != {n: len(p) for n, p in parities.items()}:
            raise ValueError("cache labels do not match the parities")
        cached = {tuple(map(int, key.split(","))): tab for key, tab in payload["tables"].items()}
        if set(cached) != {
            (i, j) for i in range(1, max_degree) for j in range(i, max_degree + 1 - i)
        }:
            raise ValueError("cache tables do not match the products through max_degree")
        tables = {(i, j): _read_table(tab, parities, i, j) for (i, j), tab in cached.items()}
        entries = (c for tab in tables.values() for row in tab for vec in row for _, c in vec)
        if gcd(scale, *entries) != 1:
            raise ValueError("cache scale is not the least common denominator of the products")
        return cls(d1, d2, max_degree, parities, labels, tables, scale)


def cache_key(d1: int, d2: int, max_degree: int) -> str:
    """Name of the cached algebra of this shape in the current format."""
    raw = f"{d1}|{d2}|{max_degree}|{FORMAT_VERSION}"
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def _ints(xs) -> bool:
    """Whether ``xs`` is a list of ints; a bool, though an int to Python, is not one."""
    return type(xs) is list and all(type(x) is int for x in xs)


def _read_table(
    tab, parities: dict[int, tuple[int, ...]], i: int, j: int
) -> list[list[Vector]]:
    """The cached (i, j) table as held; ValueError unless it fits ``parities``.

    It must be dim(i) x dim(j) lists, each entry a ``Vector`` of [index,
    int] pairs (indices strictly increasing and below dim(i + j), no zero
    coefficient), and each term of the entry x_u.y_v must have the parity
    |x_u| + |y_v|.
    """
    if type(tab) is not list or len(tab) != len(parities[i]) or any(
        type(row) is not list or len(row) != len(parities[j]) for row in tab
    ):
        raise ValueError(f"cache table ({i}, {j}) is not dim({i}) x dim({j})")
    if not all(type(vec) is list and all(
        type(t) is list and len(t) == 2 and type(t[0]) is int and type(t[1]) is int for t in vec
    ) for row in tab for vec in row):
        raise ValueError(f"cache table ({i}, {j}) holds a term that is not a pair of ints")
    out = [[tuple(map(tuple, vec)) for vec in row] for row in tab]
    dim = len(parities[i + j])
    if any(not 0 <= k < dim for row in out for vec in row for k, _ in vec):
        raise ValueError(f"cache table ({i}, {j}) holds an index beyond dim({i + j})")
    if any(not c for row in out for vec in row for _, c in vec):
        raise ValueError(f"cache table ({i}, {j}) holds a zero coefficient")
    if any(k >= l for row in out for vec in row for (k, _), (l, _) in zip(vec, vec[1:])):
        raise ValueError(f"cache table ({i}, {j}) holds terms out of order or repeated")
    pk = parities[i + j]
    if any(pk[k] != pu ^ pv for pu, row in zip(parities[i], out)
           for pv, vec in zip(parities[j], row) for k, _ in vec):
        raise ValueError(f"cache table ({i}, {j}) holds a term of the wrong parity")
    return out


class PairSpace:
    """Degree n of J (x) J modulo x(x)y = sign (-1)^{|x||y|} y(x)x, for ``alg`` through n - 1.

    ``coords`` holds one (i, u, j, v) per unordered pair of basis elements,
    sorted parity even-first and then by shape; a square survives iff
    sign (-1)^{|x|} = 1.  Sign 1 gives W_n, the earlier element in
    (degree, index) order first and odd squares dropped (u.u = 0 for odd
    u); sign -1 the super exterior square that Bs(J) is taken on, the later
    element first and even squares dropped.  ``index`` maps every ordered
    pair to (coordinate, sign): 1 as stored, sign (-1)^{|x||y|} swapped, 0
    for a dropped square.  Reduced products come from ``alg``.
    """

    def __init__(self, alg: GradedJordanAlgebra, n: int, sign: int) -> None:
        self.alg = alg
        par = self.parities = alg.parities
        index = self.index = {
            (i, u, n - i, v): (0, 0)
            for i in range(1, n)
            for u in range(len(par[i]))
            for v in range(len(par[n - i]))
        }
        cpar = lambda c: (par[c[0]][c[1]] + par[c[2]][c[3]]) % 2
        # Each unordered pair once: found earlier element first, stored
        # later element first for sign -1.
        self.coords = sorted(
            (c if sign == 1 else c[2:] + c[:2] for c in index
             if c[:2] < c[2:] or c[:2] == c[2:] and sign == (-1) ** par[c[0]][c[1]]),
            key=lambda c: (cpar(c), c),
        )
        for k, (i, u, j, v) in enumerate(self.coords):
            index[(j, v, i, u)] = (k, -sign if par[i][u] & par[j][v] else sign)
            index[(i, u, j, v)] = (k, 1)
        self.coord_parity = [cpar(c) for c in self.coords]

    def quotient(
        self, rows: Collection[linalg.SparseRow], name: str
    ) -> tuple[list[int], tuple[int, ...], tuple[str, ...], list[Vector], int]:
        """(kept, parities, labels, projection, scale) of this space modulo ``rows``.

        ``kept`` lists the non-pivot coordinates, the quotient basis, and
        ``projection`` maps every coordinate into it, times ``scale``
        (``linalg.quotient``).  The kept pair (x, y) is labelled
        ``name.format(label of x, label of y)``.
        """
        kept, projection, scale = linalg.quotient(rows, self.coord_parity)
        labels = self.alg.labels
        return (
            kept,
            tuple(self.coord_parity[k] for k in kept),
            tuple(name.format(labels[i][u], labels[j][v])
                  for i, u, j, v in (self.coords[k] for k in kept)),
            projection,
            scale,
        )


def triple_groups(parities: dict[int, tuple[int, ...]], total: int) -> Iterator[list[tuple]]:
    """The sorted basis triples x <= y <= z of degree ``total``, one list per degree multiset.

    Basis elements are (degree, index).  The groups come in the order of
    their degrees d1 <= d2 <= d3, each sorted: a run of r equal degrees
    takes its r elements with replacement.
    """
    for d1 in range(1, total // 3 + 1):
        for d2 in range(d1, (total - d1) // 2 + 1):
            runs = [
                combinations_with_replacement([(d, u) for u in range(len(parities[d]))], len(list(g)))
                for d, g in groupby((d1, d2, total - d1 - d2))
            ]
            yield [sum(t, ()) for t in product(*runs)]


def cyclic_row(
    ext: PairSpace, x: tuple[int, int], y: tuple[int, int], z: tuple[int, int]
) -> linalg.SparseRow:
    """The cyclic relation of basis elements x, y and z in ``ext``'s coordinates.

    x, y and z are (degree, index), and ``ext`` is ``PairSpace(alg, t, -1)``
    at their total degree t.  The row is

        sum over cyclic (a,b,c) of (-1)^{|a||c|} (a.b)(x)c

    with a.b reduced, so it is the tables' scale times the rational relation.
    """
    par, index = ext.parities, ext.index
    product = ext.alg.multiply_basis
    acc: dict[int, int] = {}
    triple = (x, y, z)
    for r in range(3):
        (da, a), (db, b), (dc, c) = triple[r], triple[(r + 1) % 3], triple[(r + 2) % 3]
        s1 = -1 if par[da][a] & par[dc][c] else 1  # (-1)^{|a||c|}
        for k, ck in product(da, a, db, b):
            pos, sign = index[(da + db, k, dc, c)]
            acc[pos] = acc.get(pos, 0) + s1 * sign * ck
    return linalg.sparse_row(acc)


def relation_row(
    space: PairSpace, ext: PairSpace, cyclic: linalg.SparseRow, w: tuple[int, int]
) -> linalg.SparseRow:
    """One top-level instance of the super Jordan identity, in W_n coordinates.

    It is D applied at the basis element w to ``cyclic``, a ``cyclic_row``
    of ``ext``: each coordinate (x, y) adds its coefficient times
    D_{x,y}(w) = x.(y.w) - (-1)^{|x||y|} y.(x.w), the inner products
    reduced and the outer one taken in W_n.  D is well defined on the super
    exterior square, as D_{y,x} = -(-1)^{|x||y|} D_{x,y} and D_{x,x} = 0
    for even x.  The row is ``alg.scale**2`` times its rational instance.
    """
    par, index = space.parities, space.index
    product = space.alg.multiply_basis
    s, wu = w
    acc: dict[int, int] = {}
    for k, c in cyclic:
        i, u, j, v = ext.coords[k]
        for a, b, d, e, cd in ((i, u, j, v, c), (j, v, i, u, c if par[i][u] & par[j][v] else -c)):
            # a.(d.w)
            for q, cq in product(d, e, s, wu):
                pos, sign = index[(a, b, d + s, q)]
                acc[pos] = acc.get(pos, 0) + cd * sign * cq
    return linalg.sparse_row(acc)


def build_free_jordan(
    d1: int, d2: int, max_degree: int, budget: int = DEFAULT_BUDGET
) -> GradedJordanAlgebra:
    """Construct the free Jordan superalgebra through the given degree.

    ``budget`` caps the relation-matrix entries of one degree: before each
    group of identity instances is expanded, (rows so far + instances in
    the group) x dim W_n must not exceed it.
    """
    if d1 < 0 or d2 < 0 or d1 + d2 < 1:
        raise ValueError("need d1, d2 >= 0 with d1 + d2 >= 1")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")

    parities: dict[int, tuple[int, ...]] = {1: (0,) * d1 + (1,) * d2}
    labels: dict[int, tuple[str, ...]] = {
        1: tuple(f"x{k + 1}" for k in range(d1)) + tuple(f"y{k + 1}" for k in range(d2))
    }
    # One table dict, grown a degree at a time and rescaled in place when
    # the scale grows, so the exterior squares kept from earlier degrees
    # read it at the current scale.
    tables: dict[tuple[int, int], list[list[Vector]]] = {}
    alg = GradedJordanAlgebra(d1, d2, 1, dict(parities), dict(labels), tables, 1)
    exts: dict[int, PairSpace] = {}  # total t -> PairSpace(alg, t, -1)

    for n in range(2, max_degree + 1):
        space = PairSpace(alg, n, 1)
        nw = len(space.coords)
        if n > 3:
            exts[n - 1] = PairSpace(alg, n - 1, -1)

        # Top-level super Jordan instances with total degree n: D applied
        # to one cyclic row per S3 orbit of (x, y, z).
        rows: dict[linalg.SparseRow, None] = {}
        for total, ext in exts.items():
            s = n - total
            ns = len(parities[s])
            for triples in triple_groups(parities, total):
                if (len(rows) + len(triples) * ns) * nw > budget:
                    raise ResourceBudgetExceeded(
                        f"degree {n}: relation matrix would exceed budget {budget}"
                    )
                for triple in triples:
                    cyclic = cyclic_row(ext, *triple)
                    for wu in range(ns):
                        row = relation_row(space, ext, cyclic, (s, wu))
                        if row:
                            rows[row] = None

        # Relations are parity-homogeneous; quotient basis is non-pivots.
        _, parities[n], labels[n], projection, pscale = space.quotient(rows, "({}.{})")
        scale = lcm(alg.scale, pscale)
        if scale > alg.scale:
            for tab in tables.values():
                for row in tab:
                    row[:] = [tuple((k, c * (scale // alg.scale)) for k, c in vec) for vec in row]

        def entry(k, sign):
            m = sign * (scale // pscale)
            return tuple((q, c * m) for q, c in projection[k]) if m else ()

        for i in range(1, n // 2 + 1):
            j = n - i
            tables[(i, j)] = [
                [entry(*space.index[(i, u, j, v)]) for v in range(len(parities[j]))]
                for u in range(len(parities[i]))
            ]

        alg = GradedJordanAlgebra(d1, d2, n, dict(parities), dict(labels), tables, scale)

    return alg
