"""Degreewise brute-force construction of the free Jordan superalgebra.

The algebra on d1 even and d2 odd generators is graded by word length.
Degree n >= 2 starts from the supercommutative pair space

    W_n = direct sum over i + j = n, i <= j of (basis_i x basis_j)

(with u.u = 0 for odd u, and only ordered pairs u <= v when i = j), and is
cut down by the top-level instances of the super Jordan operator identity

    sum over cyclic (x,y,z) of (-1)^{|x||z|} [L_{x.y}, L_z] = 0

applied to a fourth basis element w, with total degree n.  One instance per
S3 orbit of basis triples suffices: the operator is cyclic in (x, y, z), and
a transposition multiplies it by (-1)^{|x||y| + |y||z| + |z||x|}, because
L_{y.x} = (-1)^{|x||y|} L_{x.y} in the supercommutative tables.  So only
x <= y <= z in the (degree, index) order is expanded, with every w, and the
span is that of all instances.  Inner products use the already-reduced
lower-degree tables, so embedded instances of the identity vanish
automatically.  The rows are built from ``integer_copy()`` of the
lower-degree tables, T times the rational ones, so each row is T**2 times
its rational instance: the same row space, in ints.  The quotient is taken
by exact fraction-free row reduction, whose rational reduced rows give the
new tables; quotient bases are the non-pivot pair coordinates in a
canonical order (parity even-first, then the lexicographic pair shape),
which makes the structure constants reproducible.

Every vector is a ``Vector``, the package's one sparse type
(``linalg.SparseRow``): sorted (index, coefficient) pairs with no zero
coefficient, so the zero vector is ``()``.  The tables hold their entries
in that form, and the cache stores them as they are held.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations_with_replacement

from . import linalg
from .rings import GDim

FORMAT_VERSION = 2

# The default cap on relation-matrix entries per construction degree.
DEFAULT_BUDGET = 20_000_000

Vector = linalg.SparseRow


class ResourceBudgetExceeded(Exception):
    """The relation matrix for some degree outgrew the configured budget."""


@dataclass
class GradedJordanAlgebra:
    """Truncation of the free Jordan superalgebra with exact mult tables.

    ``parities[n]`` lists the parity (0 or 1) of each degree-n basis
    element; ``tables[(i, j)][u][v]`` (only i <= j) is the product of basis
    elements u and v as a sparse ``Vector`` in degree i + j.  Instances are
    treated as immutable once built.  ``to_json`` writes the tables as they
    are held, with a sha256 of the payload that ``from_json`` checks.
    """

    d1: int
    d2: int
    max_degree: int
    parities: dict[int, tuple[int, ...]]
    labels: dict[int, tuple[str, ...]]
    tables: dict[tuple[int, int], list[list[Vector]]]
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
        """Product of basis elements, as coordinates in degree i + j."""
        if i + j > self.max_degree:
            raise ValueError(f"product degree {i + j} beyond truncation")
        if i <= j:
            return self.tables[(i, j)][u][v]
        sign = (-1) ** (self.parities[i][u] * self.parities[j][v])
        w = self.tables[(j, i)][v][u]
        return w if sign == 1 else tuple((k, -c) for k, c in w)

    def derivation(self, i: int, u: int, j: int, v: int, m: int) -> list[Vector]:
        """Columns of d_{x,y} = [L_x, L_y] on degree m, for basis elements x and y.

        x is element u of degree i and y element v of degree j; column w is
        x.(y.z_w) - (-1)^{|x||y|} y.(x.z_w), in degree i + j + m.
        """
        sign = -1 if self.parities[i][u] & self.parities[j][v] else 1
        cols = []
        for w in range(self.dim(m)):
            acc: dict[int, Fraction | int] = {}
            for a, b, c, d, s in ((i, u, j, v, 1), (j, v, i, u, -sign)):
                for k, ck in self.multiply_basis(c, d, m, w):
                    for q, cq in self.multiply_basis(a, b, c + m, k):
                        acc[q] = acc.get(q, 0) + s * ck * cq
            cols.append(linalg.sparse_row(acc))
        return cols

    def integer_copy(self) -> tuple[int, GradedJordanAlgebra]:
        """(T, a copy whose table entries are T times these, as ints).

        T is the lcm of the tables' denominators, so the copy's products
        are T times these and its derivations T**2 times these.
        """
        T = linalg.denominator(vec for tab in self.tables.values() for row in tab for vec in row)
        return T, replace(self, tables={
            key: [[linalg.scaled(vec, T) for vec in row] for row in tab]
            for key, tab in self.tables.items()
        })

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON: the sparse tables as held, plus a sha256 of the rest."""
        payload = {
            "format_version": FORMAT_VERSION,
            "d1": self.d1,
            "d2": self.d2,
            "max_degree": self.max_degree,
            "parities": {str(n): list(p) for n, p in self.parities.items()},
            "labels": {str(n): list(v) for n, v in self.labels.items()},
            "tables": {
                f"{i},{j}": [[[[k, str(c)] for k, c in vec] for vec in row] for row in tab]
                for (i, j), tab in self.tables.items()
            },
        }
        payload["sha256"] = _digest(payload)
        return _canonical(payload)

    @classmethod
    def from_json(cls, text: str) -> "GradedJordanAlgebra":
        """Inverse of ``to_json``.

        Raises ValueError unless the sha256 matches and the payload is well
        formed: a parity tuple and as many labels for each degree
        1..max_degree, and one table for each i <= j with i + j <=
        max_degree, of dim(i) x dim(j) entries with indices below
        dim(i + j) and no zero denominator.
        """
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("cache payload is not a JSON object")
        if payload.pop("sha256", None) != _digest(payload):
            raise ValueError("cache content does not match its sha256")
        if payload.get("format_version") != FORMAT_VERSION:
            raise ValueError("unsupported cache format version")
        max_degree = payload["max_degree"]
        parities = {int(n): tuple(p) for n, p in payload["parities"].items()}
        if set(parities) != set(range(1, max_degree + 1)):
            raise ValueError("cache parities do not cover degrees 1..max_degree")
        labels = {int(n): tuple(v) for n, v in payload["labels"].items()}
        if {n: len(v) for n, v in labels.items()} != {n: len(p) for n, p in parities.items()}:
            raise ValueError("cache labels do not match the parities")
        cached = {tuple(map(int, key.split(","))): tab for key, tab in payload["tables"].items()}
        if set(cached) != {
            (i, j) for i in range(1, max_degree) for j in range(i, max_degree + 1 - i)
        }:
            raise ValueError("cache tables do not match the products through max_degree")
        tables = {(i, j): _read_table(tab, parities, i, j) for (i, j), tab in cached.items()}
        return cls(
            d1=payload["d1"],
            d2=payload["d2"],
            max_degree=max_degree,
            parities=parities,
            labels=labels,
            tables=tables,
        )


def cache_key(d1: int, d2: int, max_degree: int) -> str:
    """Name of the cached algebra of this shape in the current format."""
    raw = f"{d1}|{d2}|{max_degree}|{FORMAT_VERSION}"
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def _read_table(
    tab: list, parities: dict[int, tuple[int, ...]], i: int, j: int
) -> list[list[Vector]]:
    """The cached (i, j) table as held; ValueError unless its shape fits ``parities``."""
    if len(tab) != len(parities[i]) or any(len(row) != len(parities[j]) for row in tab):
        raise ValueError(f"cache table ({i}, {j}) is not dim({i}) x dim({j})")
    try:
        out = [[tuple((k, Fraction(c)) for k, c in vec) for vec in row] for row in tab]
    except ArithmeticError as exc:  # a zero denominator, or an infinite float
        raise ValueError(f"cache table ({i}, {j}) holds an invalid coefficient") from exc
    dim = len(parities[i + j])
    if any(not 0 <= k < dim for row in out for vec in row for k, _ in vec):
        raise ValueError(f"cache table ({i}, {j}) holds an index beyond dim({i + j})")
    return out


def _pair_coords(parities: dict[int, tuple[int, ...]], n: int) -> list[tuple[int, int, int, int]]:
    """Canonical W_n coordinates (i, u, j, v): parity even-first, then shape."""
    coords = []
    for i in range(1, n // 2 + 1):
        j = n - i
        if i > j:
            break
        for u in range(len(parities[i])):
            vs = range(len(parities[j])) if i < j else range(u, len(parities[j]))
            for v in vs:
                if i == j and u == v and parities[i][u] == 1:
                    continue  # odd squares vanish in characteristic 0
                coords.append((i, u, j, v))
    par = lambda c: (parities[c[0]][c[1]] + parities[c[2]][c[3]]) % 2
    coords.sort(key=lambda c: (par(c), c))
    return coords


class PairSpace:
    """The pair space W_n over an algebra built through degree n - 1.

    Holds the canonical coordinates of W_n and the top-level product of two
    basis elements into them; reduced products come from ``alg``, whose
    tables hold ints (``integer_copy``).
    """

    def __init__(self, alg: GradedJordanAlgebra, n: int) -> None:
        self.alg = alg
        self.parities = alg.parities
        self.coords = _pair_coords(alg.parities, n)
        self.index = {c: k for k, c in enumerate(self.coords)}
        self.coord_parity = [
            (self.parities[i][u] + self.parities[j][v]) % 2 for (i, u, j, v) in self.coords
        ]

    def outer(self, i: int, u: int, j: int, v: int) -> tuple[int, int] | None:
        """W_n coordinate and sign of the top-level product of two basis elements."""
        sign = 1
        if i > j or (i == j and u > v):
            if self.parities[i][u] & self.parities[j][v]:
                sign = -1
            i, u, j, v = j, v, i, u
        if i == j and u == v and self.parities[i][u] == 1:
            return None
        return self.index[(i, u, j, v)], sign


def relation_row(
    space: PairSpace,
    x: tuple[int, int],
    y: tuple[int, int],
    z: tuple[int, int],
    w: tuple[int, int],
) -> linalg.SparseRow:
    """One top-level instance of the super Jordan identity, in W_n coordinates.

    x, y, z and w are basis elements (degree, index).  The row is

        sum over cyclic (a,b,c) of (-1)^{|a||c|} ((a.b).(c.w) - (-1)^{(|a|+|b|)|c|} c.((a.b).w))

    with the inner products reduced and the outermost one taken in W_n.
    Every term is a product of two table entries, so over tables T times
    the rational ones the row is T**2 times the rational instance.
    """
    par = space.parities
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
                hit = space.outer(dab, a, dk + s, b)
                if hit is not None:
                    k, sign = hit
                    acc[k] = acc.get(k, 0) + (s1 * sign) * ca * cb
        # c.((a.b).w)
        for a, ca in ab:
            for b, cb in product(dab, a, s, wu):
                hit = space.outer(dk, uk, dab + s, b)
                if hit is not None:
                    k, sign = hit
                    acc[k] = acc.get(k, 0) - (s12 * sign) * ca * cb
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
    tables: dict[tuple[int, int], list[list[Vector]]] = {}
    alg = GradedJordanAlgebra(d1, d2, 1, dict(parities), dict(labels), tables)

    for n in range(2, max_degree + 1):
        space = PairSpace(alg.integer_copy()[1], n)
        nw = len(space.coords)

        # Top-level super Jordan instances with total degree n, one per S3
        # orbit of (x, y, z): the other orderings give the same row up to sign.
        basis = [(d, u) for d in range(1, n - 2) for u in range(len(parities[d]))]
        groups: dict[tuple[int, ...], list[tuple[tuple[int, int], ...]]] = {}
        for triple in combinations_with_replacement(basis, 3):
            degrees = tuple(d for d, _ in triple)
            if sum(degrees) < n:
                groups.setdefault(degrees, []).append(triple)
        rows: dict[linalg.SparseRow, None] = {}
        for degrees, triples in groups.items():
            s = n - sum(degrees)
            ns = len(parities[s])
            if (len(rows) + len(triples) * ns) * nw > budget:
                raise ResourceBudgetExceeded(
                    f"degree {n}: relation matrix would exceed budget {budget}"
                )
            for (x, y, z) in triples:
                for wu in range(ns):
                    row = relation_row(space, x, y, z, (s, wu))
                    if row:
                        rows[row] = None

        # Relations are parity-homogeneous; quotient basis is non-pivots.
        kept, projection = linalg.quotient(rows, space.coord_parity)
        parities[n] = tuple(space.coord_parity[k] for k in kept)
        labels[n] = tuple(
            f"({labels[i][u]}.{labels[j][v]})"
            for (i, u, j, v) in (space.coords[k] for k in kept)
        )
        for i in range(1, n // 2 + 1):
            j = n - i
            tab = []
            for u in range(len(parities[i])):
                row_tab = []
                for v in range(len(parities[j])):
                    hit = space.outer(i, u, j, v)
                    if hit is None:
                        row_tab.append(())
                    else:
                        k, sgn = hit
                        row_tab.append(
                            projection[k] if sgn == 1 else tuple((q, -c) for q, c in projection[k])
                        )
                tab.append(row_tab)
            tables[(i, j)] = tab

        alg = GradedJordanAlgebra(d1, d2, n, dict(parities), dict(labels), tables)

    return alg
