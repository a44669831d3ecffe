"""Acceptance suite: the eight headline checks, one pass/fail line each.

Every test prints a single summary line; run with ``pytest -v -s
tests/test_acceptance.py`` to see them.  All arithmetic is exact and all
tolerances are zero.
"""

import pytest

from freejordan.homology import build_chain_complex, compute_homology
from freejordan.jordan import build_free_jordan
from freejordan.lambda_ops import (
    adjoint_odd_line,
    adjoint_odd_line_pow,
    lambda_adjoint_series,
    lambda_direct,
    lambda_series,
    phi_series,
    theta_series,
)
from freejordan.rings import GDIM_ZERO, GDim, SuperSeries, TZSeries
from freejordan.solver import (
    residual_series,
    solve_dims,
    solve_dims_pair,
)
from freejordan.tag import build_tag


def report(n: int, text: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_solver_golden_values():
    rep = solve_dims(0, 1, 10)
    assert rep.a[0] == GDim(0, 1) and all(c == GDIM_ZERO for c in rep.a[1:])
    assert solve_dims(0, 2, 4).a == (GDim(0, 2), GDim(1, 0), GDim(0, 2), GDim(5, 0))
    assert solve_dims(1, 1, 4).a == (GDim(1, 1), GDim(1, 1), GDim(2, 2), GDim(3, 3))
    report(1, "residue-equation solver reproduces all hand-computed dimension tables")


def test_criterion_2_pair_system_consistency():
    rep = solve_dims_pair(0, 1, 8)
    assert rep.a[0] == GDim(0, 1) and all(c == GDIM_ZERO for c in rep.a[1:])
    assert rep.b[1] == GDim(1, 0)
    assert all(c == GDIM_ZERO for i, c in enumerate(rep.b) if i != 1)
    for d1 in range(5):
        for d2 in range(5):
            if 1 <= d1 + d2 <= 4:
                pair = solve_dims_pair(d1, d2, 12)
                single = solve_dims(d1, d2, 12)
                assert pair.a == single.a, (d1, d2)
    report(2, "two-equation system matches the single equation for all "
              "generator counts up to 4, through order 12")


def test_criterion_3_oracle_golden_values():
    alg = build_free_jordan(0, 1, 5)
    assert alg.dims[1] == GDim(0, 1)
    assert all(alg.dims[n] == GDim(0, 0) for n in range(2, 6))
    alg = build_free_jordan(0, 2, 4)
    assert [alg.dims[n] for n in range(1, 5)] == [
        GDim(0, 2), GDim(1, 0), GDim(0, 2), GDim(5, 0)
    ]
    alg = build_free_jordan(1, 1, 4)
    assert [alg.dims[n] for n in range(1, 5)] == [
        GDim(1, 1), GDim(1, 1), GDim(2, 2), GDim(3, 3)
    ]
    alg = build_free_jordan(1, 0, 8)
    assert all(alg.dims[n] == GDim(1, 0) for n in range(1, 9))
    report(3, "brute-force construction reproduces every published dimension")


def test_criterion_4_residue_vanishing_and_frontier():
    for d1, d2 in [(1, 1), (0, 2)]:
        alg = build_free_jordan(d1, d2, 4)
        res = residual_series(alg.graded_dims(), d1, d2)
        assert res.vanishing_order() >= 5, (d1, d2)
    rep = solve_dims(2, 0, 15)
    assert rep.residual_order == 16
    frontier = 6
    alg = build_free_jordan(2, 0, frontier)
    mismatches = [
        n for n in range(1, frontier + 1) if alg.dims[n] != rep.a[n - 1]
    ]
    # A mismatch here would be a conjecture-level finding, to be reported
    # (CLI exit code 5), not a machinery failure; as of this truncation the
    # two computations agree.
    assert mismatches == [], f"conjecture-level discrepancy at degrees {mismatches}"
    report(4, "residues vanish to the documented orders; solver prefix matches "
              f"the constructed algebra through degree {frontier}")


def test_criterion_5_lambda_operation_properties():
    import random
    from itertools import combinations_with_replacement

    rng = random.Random(101)
    order = 10
    for _ in range(100):
        a = SuperSeries(order, [GDIM_ZERO] + [
            GDim(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(order)
        ])
        b = SuperSeries(order, [GDIM_ZERO] + [
            GDim(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(order)
        ])
        assert lambda_series(a + b) == lambda_series(a) * lambda_series(b)
    for m in (1, 2, 3):
        assert adjoint_odd_line_pow(m, 1, 30) == adjoint_odd_line(m, 30)
    for _ in range(10):
        a = SuperSeries(6, [GDIM_ZERO] + [
            GDim(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(6)
        ])
        b = SuperSeries(6, [GDIM_ZERO] + [
            GDim(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(6)
        ])
        assert phi_series(a, b) == lambda_adjoint_series(a) * TZSeries.from_super(
            theta_series(a, b)
        )
    slots = [(par, m) for par in (0, 1) for m in range(1, 5)]
    for total in range(1, 5):
        for chosen in combinations_with_replacement(slots, total):
            pieces: dict[int, GDim] = {}
            for par, m in chosen:
                pieces[m] = pieces.get(m, GDIM_ZERO) + (
                    GDim(1, 0) if par == 0 else GDim(0, 1)
                )
            piece_list = [(g, m) for m, g in pieces.items()]
            coeffs = [GDIM_ZERO] * 9
            for g, m in piece_list:
                coeffs[m] = g
            assert lambda_direct(piece_list, 8) == lambda_series(SuperSeries(8, coeffs))
    report(5, "lambda-operation: homomorphism (100 random classes), deep line "
              "identity, product factorization, brute-force agreement")


def test_criterion_6_algebraic_gates():
    for d1, d2 in [(1, 1), (0, 2)]:
        alg = build_free_jordan(d1, d2, 4)
        # supercommutativity on the full grid
        for i in range(1, 4):
            for j in range(1, 5 - i):
                for u in range(alg.dim(i)):
                    for v in range(alg.dim(j)):
                        sign = (-1) ** (alg.parities[i][u] * alg.parities[j][v])
                        assert alg.multiply_basis(i, u, j, v) == tuple(
                            (k, sign * c) for k, c in alg.multiply_basis(j, v, i, u)
                        )
        # super Jordan residual on the full degree-compatible quadruple grid
        for du in range(alg.dim(1)):
            for dv in range(alg.dim(1)):
                for dw in range(alg.dim(1)):
                    for dx in range(alg.dim(1)):
                        r = alg.jordan_residual(
                            (1, alg.basis_vector(1, du)),
                            (1, alg.basis_vector(1, dv)),
                            (1, alg.basis_vector(1, dw)),
                            (1, alg.basis_vector(1, dx)),
                        )
                        assert r == ()
        # TAG anticommutativity + Jacobi on all in-range triples
        tag = build_tag(alg, 4)
        assert tag.check_jacobi() > 0
        # d^2 = 0 on every Chevalley-Eilenberg block
        build_chain_complex(tag, 4, 4)
    report(6, "supercommutativity, defining-identity residuals, bracket axioms, "
              "and the boundary-squared gate all hold exactly")


def test_criterion_7_homology_reproduction():
    for d1, d2 in [(0, 1), (1, 1)]:
        tag = build_tag(build_free_jordan(d1, d2, 5), 5)
        rep = compute_homology(tag, 5, 5)
        # H_0 = ground field
        assert rep.weights[(0, 0)] == {0: GDim(1, 0)}
        # H_1 = adjoint tensor the generator space, only at z-degree 1
        assert rep.multiplicities[(1, 1)] == {2: GDim(d1, d2)}
        assert all(d == 1 for (r, d) in rep.weights if r == 1)
        # H_2: no trivial or adjoint part; purely highest weight 4
        for (r, d), mult in rep.multiplicities.items():
            if r == 2:
                assert set(mult) <= {4}, (d1, d2, d)
        # Euler characteristic against the lambda product, z-degree <= 5
        cc = build_chain_complex(tag, 5, 5)
        assert cc.euler_check(5) == 6
    report(7, "homology reproduces the ground field, the generator space, the "
              "weight-4 isotypic structure, and the Euler identity through z^5")


def test_criterion_8_degree_three_evidence():
    tag = build_tag(build_free_jordan(0, 1, 6), 6)
    rep = compute_homology(tag, 6, 6)
    values = {}
    for (r, d), ws in rep.weights.items():
        if r != 3:
            continue
        mult = rep.multiplicities[(r, d)]
        values[d] = {
            "mult0": mult.get(0, GDIM_ZERO),
            "mult2": mult.get(2, GDIM_ZERO),
            "full": {w: str(g) for w, g in mult.items()},
        }
        # internal invariants only: weight symmetry and nonnegativity
        for w, g in ws.items():
            assert ws.get(-w) == g, "weight-space symmetry"
            assert g.even >= 0 and g.odd >= 0
    assert values, "no complete degree-3 blocks computed"
    summary = "; ".join(
        f"z^{d}: trivial={v['mult0']}, adjoint={v['mult2']}"
        for d, v in sorted(values.items())
    )
    report(8, f"degree-3 homology evidence (reported, not asserted): {summary}")
