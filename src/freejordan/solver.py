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

Psi and Phi are plethystic exponentials (``lambda_ops``): line n, the
contribution of the n-th coefficients, enters only their log terms at
z^{kn}.  So the unknown n-th coefficients enter the z^n equation only
through the z^n coefficient of their own line, affinely and with a slope
that does not depend on n: -I for the single equation, a fixed signed
permutation for the pair.  Both solvers read that slope off the degree-1
line through the kernel, check it against the constant, and then step one
``PhiKernel`` at the final order: the residues of the z^n coefficient of
lines 1..n-1 (``pending_residues``) determine the n-th coefficients, and
``add`` takes their line and completes the z^n coefficient from its log
terms, not from the slope.  At the end the kernel holds the whole product,
so the residual of the solution is read off it: each step zeroes its own
degree, and a nonzero residual (a line that disagrees with the checked
slope) raises ``SolverStepError`` at its first degree.  Every coefficient
is t-symmetric, and L0 and L2 read only t^-2..t^0, so the kernel computes
only the t^-n..t^0 half of each, and the residues are read off its int
sides (``residues``); no series is built.  ``residual_series`` evaluates
the single equation on a given series instead, such as the dimensions of
a constructed algebra: it adds that series' lines to a kernel one by one
and reads the residues off it in the same way.

A series a(z) = sum_{n>=1} a_n z^n is given, and reported in
``SolveReport.a``, as the tuple (a_1, ..., a_N) of its GDim coefficients.
A residual is the list of its GDim coefficients at z^0..z^N, and
``vanishing_order`` reads the degree of its first nonzero one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

from .lambda_ops import PhiKernel, lambda_adjoint_series, phi_series
from .rings import GDIM_ONE, GDIM_ZERO, L0, L2, GDim

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
    """Outcome of a solver run: coefficients and the residual's vanishing order."""

    order: int
    a: tuple[GDim, ...]  # coefficients for n = 1..order
    b: Optional[tuple[GDim, ...]]
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


def _check_slope(columns: list[list[GDim]], expected) -> None:
    """Check the slope read off per-unknown defect columns against ``expected``.

    ``columns[j]`` holds the z^1 defects of the degree-1 line whose j-th
    unknown is a unit; every line is a series in z^n, so the same matrix
    governs every degree.
    """
    m = tuple(zip(*[[x for g in col for x in g.pair()] for col in columns]))
    if m != expected:
        raise SolverStepError(1, f"step linearization {m} is not the constant {expected}")


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


def _single_defect(res: Sequence[tuple[GDim, GDim]], gens: GDim) -> list[GDim]:
    """Res_{t=0} psi * Psi(a) dt per z-degree: L2 + D z L0, from (L0, L2) of each Psi_n."""
    return [res[0][1]] + [res[n][1] + gens * res[n - 1][0] for n in range(1, len(res))]


def residual_series(a: Sequence[GDim], d1: int, d2: int) -> list[GDim]:
    """Res_{t=0} psi * Psi(a) dt at z^0..z^N; callers assert vanishing."""
    gens = _generators(d1, d2)
    psi = PhiKernel(len(a))
    for an in a:
        psi.add(an, -an)
    return _single_defect([psi.residues(n) for n in range(len(a) + 1)], gens)


def solve_dims(d1: int, d2: int, order: int) -> SolveReport:
    """Solve the single residue equation for a(z) through z^order."""
    gens = _check_args(d1, d2, order)
    _check_slope([[L2(lambda_adjoint_series((u,))[1])] for u in _UNITS], MINUS_IDENTITY)
    a: list[GDim] = []
    psi = PhiKernel(order)  # Psi: lines 1..n-1 at the start of step n
    for n in range(1, order + 1):
        # The z^n residue is (defect of lines 1..n-1) - a_n.
        an = psi.pending_residues()[1] + gens * psi.residues(n - 1)[0]
        a.append(an)
        psi.add(an, -an)

    residues = [psi.residues(n) for n in range(order + 1)]
    return SolveReport(
        order=order,
        a=tuple(a),
        b=None,
        residual_order=_residual_order(_single_defect(residues, gens)),
    )


def _pair_defects(res: Sequence[tuple[GDim, GDim]], gens: GDim) -> tuple[list[GDim], list[GDim]]:
    """The pair system's defects per z-degree, from (L0, L2) of each Phi_n."""
    e1 = [r0 for r0, _ in res]
    e2 = [r2 for _, r2 in res]
    e1[0] = e1[0] - GDIM_ONE
    if len(res) > 1:
        e2[1] = e2[1] + gens
    return e1, e2


def solve_dims_pair(d1: int, d2: int, order: int) -> SolveReport:
    """Solve the two-equation system for (a(z), b(z)) through z^order."""
    gens = _check_args(d1, d2, order)
    lines = [phi_series((u,), (GDIM_ZERO,))[1] for u in _UNITS]
    lines += [phi_series((GDIM_ZERO,), (u,))[1] for u in _UNITS]
    _check_slope([[L0(c), L2(c)] for c in lines], PAIR_STEP)
    a: list[GDim] = []
    b: list[GDim] = []
    phi = PhiKernel(order)  # lines 1..n-1 at the start of step n
    for n in range(1, order + 1):
        # The z^n defects are (L0 of lines 1..n-1) - b_n and
        # (L2 of lines 1..n-1) + D[n=1] - a_n.
        bn, an = phi.pending_residues()
        an = an + (gens if n == 1 else GDIM_ZERO)
        a.append(an)
        b.append(bn)
        phi.add(an, bn)

    residues = [phi.residues(n) for n in range(order + 1)]
    return SolveReport(
        order=order,
        a=tuple(a),
        b=tuple(b),
        residual_order=_residual_order(*_pair_defects(residues, gens)),
    )
