"""Order-by-order solution of the residue equations for graded dimensions.

Two solvers live here.  ``solve_dims`` determines the series a(z) from the
single residue equation

    Res_{t=0} psi * Psi(a) dt = 0,    psi = (1 - t) + D z (t^-1 - 1),

with D = (d1, d2); ``solve_dims_pair`` determines (a(z), b(z)) from the
two-equation system

    Res_{t=0} (t^-1 - 1) Phi(a, b) dt = (1, 0),
    Res_{t=0} (1 - t)    Phi(a, b) dt = -D z.

Each residue is a difference of t-coefficients: Res (t^-1 - 1) c dt =
c_0 - c_{-1} = L0(c) and Res (1 - t) c dt = c_{-1} - c_{-2} = L2(c), the
multiplicities of the trivial and the adjoint sl2 isotypes in c.  So the
single equation's z^n residue is L2(Psi_n) + D L0(Psi_{n-1}).

Psi and Phi are products of line factors, the degree-n factor depending
only on the n-th coefficients and being a series in z^n.  So the unknown
n-th coefficients enter the z^n equation only through the z^n coefficient
of their own line, affinely and with a slope that does not depend on n:
-I for the single equation, a fixed signed permutation for the pair.  Both
solvers read that slope off the closed-form degree-1 line, check it against
the constant, and then keep one running product P of the lines found so
far, at the final order: the z^n defect of P alone determines the n-th
coefficients, whose line is then multiplied into P.  At the end P is the
whole product, so the residual of the solution is read off it: each step
zeroes its own degree, and a nonzero residual (a line that disagrees with
the checked slope) raises ``SolverStepError`` at its first degree.
``residual_series`` and ``pair_residuals`` evaluate given series instead,
such as the dimensions of a constructed algebra.

A series a(z) = sum_{n>=1} a_n z^n is given, and reported in
``SolveReport.a``, as the tuple (a_1, ..., a_N) of its GDim coefficients.
A residual is the list of its GDim coefficients at z^0..z^N, and
``vanishing_order`` reads the degree of its first nonzero one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from .lambda_ops import lambda_adjoint_series, phi_line, phi_series
from .rings import GDIM_ONE, GDIM_ZERO, L0, L2, GDim, TZSeries

# Slope of the z^n defects in the n-th unknowns.  Single equation: rows
# (even, odd) of the residue, columns (even, odd) of a_n.  Pair system:
# rows (L0 even, L0 odd, L2 even, L2 odd), columns (a_n, b_n) likewise.
MINUS_IDENTITY = ((-1, 0), (0, -1))
PAIR_STEP = ((0, 0, -1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, -1, 0, 0))

_UNITS = (GDim(1, 0), GDim(0, 1))


class SolverStepError(Exception):
    """Failure of the order-by-order scheme at a specific degree."""

    def __init__(self, step: int, message: str) -> None:
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solver run: coefficients plus per-step diagnostics."""

    d1: int
    d2: int
    order: int
    a: tuple[GDim, ...]  # coefficients for n = 1..order
    b: Optional[tuple[GDim, ...]]
    step_matrix: tuple[tuple[int, ...], ...]  # the slope at every degree
    residual_order: int  # order + 1: the solvers raise on a nonzero residual


def _generators(d1: int, d2: int) -> GDim:
    """The generator class D = (d1, d2)."""
    if d1 < 0 or d2 < 0:
        raise ValueError("generator counts must be >= 0")
    return GDim(d1, d2)


def _check_args(d1: int, d2: int, order: int) -> GDim:
    gens = _generators(d1, d2)
    if not gens:
        raise ValueError("need d1 + d2 >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    return gens


def _step_matrix(columns: list[list[GDim]], expected) -> tuple[tuple[int, ...], ...]:
    """Assemble the slope from per-unknown defect columns and check it.

    ``columns[j]`` holds the z^1 defects of the degree-1 line whose j-th
    unknown is a unit; every line is a series in z^n, so the same matrix
    governs every degree.
    """
    m = tuple(zip(*[[x for g in col for x in g.pair()] for col in columns]))
    if m != expected:
        raise SolverStepError(1, f"step linearization {m} is not the constant {expected}")
    return m


def vanishing_order(coeffs: Sequence[GDim]) -> int:
    """Index of the first nonzero coefficient; len(coeffs) if none."""
    for n, c in enumerate(coeffs):
        if c:
            return n
    return len(coeffs)


def _residual_order(*residuals: list[GDim]) -> int:
    """Vanishing order of the final residuals; raise at a nonzero degree."""
    v = min(vanishing_order(r) for r in residuals)
    if v < len(residuals[0]):
        values = ", ".join(str(r[v]) for r in residuals)
        raise SolverStepError(v, f"residual {values} at z^{v} is not zero")
    return v


def _single_defect(psi_a: TZSeries, gens: GDim) -> list[GDim]:
    """Res_{t=0} psi * Psi(a) dt per z-degree: L2 + D z L0 of Psi(a)."""
    c = psi_a.coeffs
    return [L2(c[0])] + [L2(c[n]) + gens * L0(c[n - 1]) for n in range(1, len(c))]


def residual_series(a: Sequence[GDim], d1: int, d2: int) -> list[GDim]:
    """Res_{t=0} psi * Psi(a) dt at z^0..z^N; callers assert vanishing."""
    gens = _generators(d1, d2)
    return _single_defect(lambda_adjoint_series(a), gens)


def solve_dims(d1: int, d2: int, order: int) -> SolveReport:
    """Solve the single residue equation for a(z) through z^order."""
    gens = _check_args(d1, d2, order)
    step = _step_matrix([[L2(phi_line(u, -u, 1, 1)[1])] for u in _UNITS], MINUS_IDENTITY)
    a: list[GDim] = [GDIM_ZERO]  # index 0 unused
    prod = TZSeries.one(order)  # lines 1..n-1 of Psi
    for n in range(1, order + 1):
        # The z^n residue is (defect of prod) - a_n.
        an = L2(prod[n]) + gens * L0(prod[n - 1])
        a.append(an)
        if an:
            prod = prod * phi_line(an, -an, n, order)

    return SolveReport(
        d1=d1,
        d2=d2,
        order=order,
        a=tuple(a[1:]),
        b=None,
        step_matrix=step,
        residual_order=_residual_order(_single_defect(prod, gens)),
    )


def _pair_defects(phi: TZSeries, gens: GDim) -> tuple[list[GDim], list[GDim]]:
    e1 = [L0(c) for c in phi.coeffs]
    e2 = [L2(c) for c in phi.coeffs]
    e1[0] = e1[0] - GDIM_ONE
    if phi.order >= 1:
        e2[1] = e2[1] + gens
    return e1, e2


def pair_residuals(
    a: Sequence[GDim], b: Sequence[GDim], d1: int, d2: int
) -> tuple[list[GDim], list[GDim]]:
    """Defects of the two-equation system at z^0..z^N; zero on a solution."""
    gens = _generators(d1, d2)
    return _pair_defects(phi_series(a, b), gens)


def solve_dims_pair(d1: int, d2: int, order: int) -> SolveReport:
    """Solve the two-equation system for (a(z), b(z)) through z^order."""
    gens = _check_args(d1, d2, order)
    lines = [phi_line(u, GDIM_ZERO, 1, 1) for u in _UNITS]
    lines += [phi_line(GDIM_ZERO, u, 1, 1) for u in _UNITS]
    step = _step_matrix([[L0(f[1]), L2(f[1])] for f in lines], PAIR_STEP)
    a: list[GDim] = [GDIM_ZERO]
    b: list[GDim] = [GDIM_ZERO]
    prod = TZSeries.one(order)  # lines 1..n-1 of Phi
    for n in range(1, order + 1):
        # The z^n defects are (L0 of prod) - b_n and (L2 of prod) + D[n=1] - a_n.
        bn = L0(prod[n])
        an = L2(prod[n]) + (gens if n == 1 else GDIM_ZERO)
        a.append(an)
        b.append(bn)
        if an or bn:
            prod = prod * phi_line(an, bn, n, order)

    return SolveReport(
        d1=d1,
        d2=d2,
        order=order,
        a=tuple(a[1:]),
        b=tuple(b[1:]),
        step_matrix=step,
        residual_order=_residual_order(*_pair_defects(prod, gens)),
    )
