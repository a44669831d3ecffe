import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from freejordan import linalg
from freejordan.jordan import (
    GradedJordanAlgebra,
    PairSpace,
    ResourceBudgetExceeded,
    _pair_coords,
    build_free_jordan,
    relation_row,
)
from freejordan.rings import GDim
from freejordan.solver import solve_dims


def rand_homogeneous(alg, rng, n):
    """Random parity-homogeneous vector in degree n (may be zero)."""
    par = rng.randint(0, 1)
    idxs = [i for i, p in enumerate(alg.parities[n]) if p == par]
    if not idxs:
        par ^= 1
        idxs = [i for i, p in enumerate(alg.parities[n]) if p == par]
    return linalg.sparse_row({i: Fraction(rng.randint(-3, 3)) for i in idxs})


class TestGoldenDimensions:
    def test_one_odd_generator_truncates(self):
        alg = build_free_jordan(0, 1, 5)
        assert alg.dims[1] == GDim(0, 1)
        assert all(alg.dims[n] == GDim(0, 0) for n in range(2, 6))

    def test_two_odd_generators(self):
        alg = build_free_jordan(0, 2, 4)
        assert [alg.dims[n] for n in range(1, 5)] == [
            GDim(0, 2), GDim(1, 0), GDim(0, 2), GDim(5, 0)
        ]

    def test_mixed_generators(self):
        alg = build_free_jordan(1, 1, 4)
        assert [alg.dims[n] for n in range(1, 5)] == [
            GDim(1, 1), GDim(1, 1), GDim(2, 2), GDim(3, 3)
        ]

    def test_one_even_generator_is_polynomial_algebra(self):
        alg = build_free_jordan(1, 0, 8)
        for n in range(1, 9):
            assert alg.dims[n] == GDim(1, 0)
        # independent oracle: non-unital polynomial algebra span{x, x^2, ...}
        # with x^i . x^j = x^{i+j}
        for i in range(1, 5):
            for j in range(1, 9 - i):
                assert alg.multiply_basis(i, 0, j, 0) == ((0, Fraction(1)),)

    def test_degree_two_formula(self):
        # dim J_2 = (d1(d1+1)/2 + d2(d2-1)/2, d1 d2)
        for d1, d2 in [(1, 1), (0, 2), (2, 0), (3, 2), (2, 3)]:
            alg = build_free_jordan(d1, d2, 2)
            expect = GDim(d1 * (d1 + 1) // 2 + d2 * (d2 - 1) // 2, d1 * d2)
            assert alg.dims[2] == expect, (d1, d2)


class TestAlgebraStructure:
    def test_supercommutativity_full_grid(self):
        alg = build_free_jordan(1, 1, 5)
        for i in range(1, 5):
            for j in range(1, 6 - i):
                for u in range(alg.dim(i)):
                    for v in range(alg.dim(j)):
                        sign = (-1) ** (alg.parities[i][u] * alg.parities[j][v])
                        lhs = alg.multiply_basis(i, u, j, v)
                        rhs = alg.multiply_basis(j, v, i, u)
                        assert lhs == tuple((k, sign * c) for k, c in rhs)

    def test_jordan_residual_zero_on_basis_grid(self):
        for d1, d2 in [(1, 1), (0, 2)]:
            alg = build_free_jordan(d1, d2, 4)
            dims1 = alg.dim(1)
            for xu in range(dims1):
                for yu in range(dims1):
                    for zu in range(dims1):
                        for wu in range(dims1):
                            r = alg.jordan_residual(
                                (1, alg.basis_vector(1, xu)),
                                (1, alg.basis_vector(1, yu)),
                                (1, alg.basis_vector(1, zu)),
                                (1, alg.basis_vector(1, wu)),
                            )
                            assert r == ()

    def test_jordan_residual_zero_on_random_combinations(self):
        alg = build_free_jordan(1, 1, 6)
        rng = random.Random(17)
        for _ in range(40):
            degs = [rng.randint(1, 2) for _ in range(4)]
            while sum(degs) > 6:
                degs[rng.randrange(4)] = 1
            args = [(d, rand_homogeneous(alg, rng, d)) for d in degs]
            assert alg.jordan_residual(*args) == ()

    def test_relations_are_nonvacuous(self):
        # For one even generator the degree-4 pair space is 2-dimensional
        # but the quotient is a line: the identity actually cuts.
        alg = build_free_jordan(1, 0, 4)
        assert len(_pair_coords(alg.parities, 4)) == 2
        assert alg.dim(4) == 1

    def test_odd_squares_vanish(self):
        alg = build_free_jordan(0, 2, 3)
        for u in range(2):
            assert alg.multiply_basis(1, u, 1, u) == ()

    def test_degree_overflow(self):
        alg = build_free_jordan(1, 1, 3)
        with pytest.raises(ValueError):
            alg.multiply_basis(2, 0, 2, 0)


class TestConjectureAgreement:
    # Conjecture-level cross-check at the reachable frontier.
    @staticmethod
    def _assert_agreement(d1, d2, max_degree):
        alg = build_free_jordan(d1, d2, max_degree)
        rep = solve_dims(d1, d2, max_degree)
        for n in range(1, max_degree + 1):
            assert alg.dims[n] == rep.a[n - 1], n

    def test_two_even_generators_match_solver(self):
        self._assert_agreement(2, 0, 8)

    def test_mixed_generators_match_solver(self):
        self._assert_agreement(1, 1, 8)

    def test_two_odd_generators_match_solver(self):
        self._assert_agreement(0, 2, 8)


class TestRelationRows:
    @pytest.mark.parametrize("d1, d2", [(2, 0), (1, 1), (0, 2), (1, 2)])
    def test_rows_are_s3_symmetric_up_to_koszul_sign(self, d1, d2):
        # The construction expands only x <= y <= z.  That has the span of
        # every ordering because an even permutation of (x, y, z) leaves the
        # row unchanged and an odd one multiplies it by
        # (-1)^{|x||y| + |y||z| + |z||x|}.
        even_perms = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
        nonzero = flipped = 0
        for n in range(4, 7):
            alg = build_free_jordan(d1, d2, n - 1)
            space = PairSpace(alg, n)
            basis = [(d, u) for d in range(1, n - 2) for u in range(alg.dim(d))]
            for triple in combinations_with_replacement(basis, 3):
                s = n - sum(d for d, _ in triple)
                if s < 1:
                    continue
                px, py, pz = (alg.parities[d][u] for d, u in triple)
                eps = (-1) ** (px * py + py * pz + pz * px)
                for wu in range(alg.dim(s)):
                    row = relation_row(space, *triple, (s, wu))
                    nonzero += bool(row)
                    flipped += bool(row) and eps == -1
                    for perm in permutations(range(3)):
                        sign = 1 if perm in even_perms else eps
                        got = relation_row(space, *(triple[k] for k in perm), (s, wu))
                        assert got == tuple((k, sign * c) for k, c in row), (n, triple, wu, perm)
        assert nonzero
        assert flipped or d2 == 0


class TestSerialization:
    def test_roundtrip(self):
        alg = build_free_jordan(1, 1, 4)
        clone = GradedJordanAlgebra.from_json(alg.to_json())
        assert clone.parities == alg.parities
        assert clone.tables == alg.tables
        assert clone.dims == alg.dims
        assert clone.labels == alg.labels

    def test_cache_key_depends_on_shape(self):
        a = build_free_jordan(1, 1, 3)
        b = build_free_jordan(1, 1, 4)
        c = build_free_jordan(0, 2, 3)
        assert len({a.cache_key(), b.cache_key(), c.cache_key()}) == 3

    def test_corrupted_cache_rejected(self):
        alg = build_free_jordan(0, 2, 3)
        text = alg.to_json().replace('"d2":2', '"d2":3')
        with pytest.raises(ValueError):
            GradedJordanAlgebra.from_json(text)


def test_budget_guard():
    with pytest.raises(ResourceBudgetExceeded):
        build_free_jordan(2, 2, 7, budget=50)


def test_bad_args():
    with pytest.raises(ValueError):
        build_free_jordan(0, 0, 3)
    with pytest.raises(ValueError):
        build_free_jordan(1, 1, 0)
    # Degree 3 has no identity instances, so only the argument check can fire.
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget"):
            build_free_jordan(1, 0, 3, budget=budget)
