"""Exact arithmetic in the graded-dimension ring and its one series extension.

The base ring is R = Z[x]/(x^2 - 1), with (a, b) standing for a + b*x.  A
pair records the dimensions of the even and odd parts of a superspace, so
multiplication follows the tensor-product rule for superspaces:

    (a0, a1) * (b0, b1) = (a0*b0 + a1*b1, a0*b1 + a1*b0).

On top of R live a Laurent polynomial ring and one truncated series ring:

* ``RLaurent``  -- finitely supported Laurent polynomials in t over R,
                   stored in split coordinates (see the class),
* ``TZSeries``  -- R[t, t^-1][[z]] mod z^(N+1).

A series of graded dimensions, sum_{n>=1} a_n z^n, is not a ring element
here: the package holds it as the tuple (a_1, ..., a_N) of its GDim
coefficients.  ``L0`` and ``L2`` read GDim values off an RLaurent
coefficient.

All values are immutable; every operation returns a fresh value.  Integer
coefficients are arbitrary precision throughout.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping


class GDim:
    """An element (even, odd) of R = Z[x]/(x^2 - 1)."""

    __slots__ = ("even", "odd")

    def __init__(self, even: int, odd: int = 0) -> None:
        object.__setattr__(self, "even", even)
        object.__setattr__(self, "odd", odd)

    def __setattr__(self, name, value):
        raise AttributeError("GDim is immutable")

    def __reduce__(self):
        return GDim, (self.even, self.odd)

    def __repr__(self) -> str:
        return f"GDim({self.even}, {self.odd})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = GDim(other)
        if not isinstance(other, GDim):
            return NotImplemented
        return self.even == other.even and self.odd == other.odd

    def __hash__(self) -> int:
        # Equal to the int `even` when odd == 0, so it must hash like it.
        return hash(self.even) if self.odd == 0 else hash((self.even, self.odd))

    def __bool__(self) -> bool:
        return self.even != 0 or self.odd != 0

    def __add__(self, other: "GDim | int") -> "GDim":
        other = _as_gdim(other)
        return GDim(self.even + other.even, self.odd + other.odd)

    __radd__ = __add__

    def __neg__(self) -> "GDim":
        return GDim(-self.even, -self.odd)

    def __sub__(self, other: "GDim | int") -> "GDim":
        return self + (-_as_gdim(other))

    def __rsub__(self, other: "GDim | int") -> "GDim":
        return _as_gdim(other) + (-self)

    def __mul__(self, other: "GDim | int") -> "GDim":
        if isinstance(other, int):
            return GDim(self.even * other, self.odd * other)
        if not isinstance(other, GDim):
            return NotImplemented
        return GDim(
            self.even * other.even + self.odd * other.odd,
            self.even * other.odd + self.odd * other.even,
        )

    __rmul__ = __mul__

    def pair(self) -> tuple[int, int]:
        return (self.even, self.odd)

    def json_form(self) -> list[str]:
        """[even, odd] as decimal strings: how every JSON report writes a GDim."""
        return [str(self.even), str(self.odd)]

    def __str__(self) -> str:
        return f"({self.even},{self.odd})"


GDIM_ZERO = GDim(0, 0)
GDIM_ONE = GDim(1, 0)
GDIM_X = GDim(0, 1)


def _as_gdim(v: "GDim | int") -> GDim:
    return GDim(v) if isinstance(v, int) else v


class RLaurent:
    """Finitely supported Laurent polynomial in t over R.

    A coefficient (e, o) is stored in the split coordinates (p, m) =
    (e + o, e - o): R is the subring of Z x Z where p = m (mod 2), so an
    R-product is the two int products p1*p2 and m1*m2, and the Laurent and
    series products are both ``_convolve``.  ``terms`` holds (exponent, p, m),
    sorted, with (p, m) != (0, 0); ``c[e]`` reads a coefficient as a GDim.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, GDim | int] | Iterable[tuple[int, GDim | int]] = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        gs = [(e, _as_gdim(c)) for e, c in items]
        split = _sum((e, g.even + g.odd, g.even - g.odd) for e, g in gs)
        object.__setattr__(self, "terms", split.terms)

    def __setattr__(self, name, value):
        raise AttributeError("RLaurent is immutable")

    def __reduce__(self):
        return _sum, (self.terms,)

    def __getitem__(self, e: int) -> GDim:
        for exp, p, m in self.terms:
            if exp == e:
                return _gdim(p, m)
        return GDIM_ZERO

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RLaurent):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "RLaurent") -> "RLaurent":
        return _sum(self.terms + other.terms)

    def __neg__(self) -> "RLaurent":
        return self * -1

    def __sub__(self, other: "RLaurent") -> "RLaurent":
        return self + (-other)

    def __mul__(self, other: "RLaurent | GDim | int") -> "RLaurent":
        if isinstance(other, (GDim, int)):
            other = RLaurent({0: other})
        if not isinstance(other, RLaurent):
            return NotImplemented
        p: dict[int, int] = {}
        m: dict[int, int] = {}
        _convolve(p, m, self.terms, other.terms)
        return _laurent(p, m)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"{_gdim(p, m)}t^{e}" for e, p, m in self.terms)

    def __repr__(self) -> str:
        return f"RLaurent({self})"


def _gdim(p: int, m: int) -> GDim:
    """The GDim with split coordinates (p, m); p = m (mod 2)."""
    return GDim((p + m) >> 1, (p - m) >> 1)


def _laurent(p: dict[int, int], m: dict[int, int]) -> RLaurent:
    """The RLaurent with split coordinates p[k], m[k] at t^k."""
    out = object.__new__(RLaurent)
    object.__setattr__(out, "terms", tuple((k, p[k], m[k]) for k in sorted(p) if p[k] or m[k]))
    return out


def _sum(terms: Iterable[tuple[int, int, int]]) -> RLaurent:
    """The RLaurent of split terms, repeated exponents summed."""
    p: dict[int, int] = {}
    m: dict[int, int] = {}
    for e, pe, me in terms:
        p[e] = p.get(e, 0) + pe
        m[e] = m.get(e, 0) + me
    return _laurent(p, m)


def _convolve(p: dict[int, int], m: dict[int, int], xs: tuple, ys: tuple) -> None:
    """Add the Laurent product of the split terms xs and ys into p and m."""
    for e1, p1, m1 in xs:
        for e2, p2, m2 in ys:
            e = e1 + e2
            p[e] = p.get(e, 0) + p1 * p2
            m[e] = m.get(e, 0) + m1 * m2


RLAURENT_ZERO = RLaurent()
RLAURENT_ONE = RLaurent({0: GDIM_ONE})


class TZSeries:
    """R[t, 1/t][[z]] mod z^(N+1): sum_{n=0}^{N} c_n z^n with RLaurent c_n.

    The truncation order N is fixed at construction; binary operations
    insist on equal orders to rule out silent order mixing.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[RLaurent] = ()) -> None:
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        cs = list(coeffs)
        if len(cs) > order + 1:
            raise ValueError("too many coefficients for the truncation order")
        cs.extend([RLAURENT_ZERO] * (order + 1 - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("TZSeries is immutable")

    def __getitem__(self, n: int) -> RLaurent:
        if 0 <= n <= self.order:
            return self.coeffs[n]
        raise IndexError(f"z-degree {n} outside truncation order {self.order}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TZSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def _check(self, other: "TZSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"mismatched truncation orders {self.order} != {other.order}"
            )

    def __add__(self, other: "TZSeries") -> "TZSeries":
        self._check(other)
        return TZSeries(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "TZSeries":
        return TZSeries(self.order, [-c for c in self.coeffs])

    def __sub__(self, other: "TZSeries") -> "TZSeries":
        return self + (-other)

    def __str__(self) -> str:
        parts = [f"({c})z^{n}" for n, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"TZSeries(order={self.order}, {self})"

    def __mul__(self, other: "TZSeries") -> "TZSeries":
        self._check(other)
        n = self.order
        ys = [c.terms for c in other.coeffs]
        ps: list[dict[int, int]] = [{} for _ in range(n + 1)]
        ms: list[dict[int, int]] = [{} for _ in range(n + 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(n + 1 - i):
                if ys[j]:
                    _convolve(ps[i + j], ms[i + j], a.terms, ys[j])
        return TZSeries(n, [_laurent(p, m) for p, m in zip(ps, ms)])


def L0(c: RLaurent) -> GDim:
    """Res_{t=0} (t^-1 - 1) c dt = c_0 - c_{-1}.

    For a t-symmetric sl2 character c (weight 2k at t^k), the multiplicity
    of the trivial isotype; L2 gives that of the adjoint isotype.
    """
    return c[0] - c[-1]


def L2(c: RLaurent) -> GDim:
    """Res_{t=0} (1 - t) c dt = c_{-1} - c_{-2}."""
    return c[-1] - c[-2]
