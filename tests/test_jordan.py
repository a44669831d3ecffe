import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from freejordan import linalg
from freejordan.jordan import (
    GradedJordanAlgebra,
    PairSpace,
    ResourceBudgetExceeded,
    build_free_jordan,
    cache_key,
    cyclic_row,
    relation_row,
    triple_groups,
)
from freejordan.rings import GDim
from freejordan.solver import solve_dims
from reference import basis_vector, identity_instance, jordan_residual


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
                            r = jordan_residual(
                                alg,
                                (1, basis_vector(alg, 1, xu)),
                                (1, basis_vector(alg, 1, yu)),
                                (1, basis_vector(alg, 1, zu)),
                                (1, basis_vector(alg, 1, wu)),
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
            assert jordan_residual(alg, *args) == ()

    def test_relations_are_nonvacuous(self):
        # For one even generator the degree-4 pair space is 2-dimensional
        # but the quotient is a line: the identity actually cuts.
        alg = build_free_jordan(1, 0, 4)
        assert len(PairSpace(alg, 4, 1).coords) == 2
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


class TestPairSpace:
    def test_index_follows_the_swap_rule(self):
        # Written out as each pair space held it before ``index`` covered
        # every ordered pair.  W_n (sign 1): the coordinates are the pairs
        # (i, u) <= (j, v) without the odd squares, and a pair in the other
        # order is its swap times (-1)^{|x||y|}.  Bs's super exterior square
        # (sign -1): the pairs (i, u) >= (j, v) without the even squares,
        # and a pair in the other order is its swap times -(-1)^{|x||y|}.
        # Both sort parity even-first and then by shape; a dropped square
        # has no coordinate.
        alg = build_free_jordan(1, 2, 4)
        par = alg.parities
        cpar = lambda c: (par[c[0]][c[1]] + par[c[2]][c[3]]) % 2
        for sign in (1, -1):
            dropped, signs = 0, set()
            for n in range(2, 6):
                space = PairSpace(alg, n, sign)
                if sign == 1:
                    coords = sorted(
                        ((i, u, n - i, v) for i in range(1, n // 2 + 1) for u in range(alg.dim(i))
                         for v in range(u if 2 * i == n else 0, alg.dim(n - i))
                         if not (2 * i == n and u == v and par[i][u])),
                        key=lambda c: (cpar(c), c),
                    )
                else:
                    coords = sorted(
                        ((i, u, n - i, v) for i in range((n + 1) // 2, n) for u in range(alg.dim(i))
                         for v in range(u + 1 if 2 * i == n else alg.dim(n - i))
                         if not (2 * i == n and u == v and not par[i][u])),
                        key=lambda c: (cpar(c), c),
                    )
                assert space.coords == coords, (sign, n)

                def swap_rule(i, u, j, v):
                    swap = 1
                    if (j, v) < (i, u) if sign == 1 else (i, u) < (j, v):
                        swap = (-1 if par[i][u] & par[j][v] else 1) * sign
                        i, u, j, v = j, v, i, u
                    if (i, u) == (j, v) and par[i][u] == (sign == 1):
                        return None
                    return coords.index((i, u, j, v)), swap

                pairs = [(i, u, n - i, v) for i in range(1, n) for u in range(alg.dim(i))
                         for v in range(alg.dim(n - i))]
                assert sorted(space.index) == sorted(pairs), (sign, n)
                for pair in pairs:
                    want = swap_rule(*pair)
                    if want is None:
                        dropped += 1
                        assert space.index[pair][1] == 0, (sign, pair)
                    else:
                        assert space.index[pair] == want, (sign, pair)
                        signs.add(want[1])
            # Odd squares: y1.y1 and y2.y2 in degree 2, and the squares of
            # x.y1 and x.y2 in 4.  Even squares: x.x in degree 2, and the
            # squares of x.x and y1.y2 in 4.
            assert dropped == (4 if sign == 1 else 3), sign
            assert signs == {1, -1}, sign


class TestTripleGroups:
    def test_every_sorted_triple_once_grouped_by_degrees(self):
        # Against brute force: every sorted triple x <= y <= z of basis
        # elements (degree, index) with degrees summing to the total, each
        # once, and each group of one degree multiset.
        parities = build_free_jordan(1, 2, 5).parities
        basis = [(d, u) for d in range(1, 6) for u in range(len(parities[d]))]
        for total in range(3, 8):
            groups = list(triple_groups(parities, total))
            got = [t for group in groups for t in group]
            want = [t for t in combinations_with_replacement(basis, 3)
                    if sum(d for d, _ in t) == total]
            assert sorted(got) == want and len(got) == len(set(got)), total
            for group in groups:
                assert len({tuple(d for d, _ in t) for t in group}) == 1, total
            # One group per partition of the total into three degrees.
            assert len(groups) == {3: 1, 4: 1, 5: 2, 6: 3, 7: 4}[total]


class TestRelationRows:
    @pytest.mark.parametrize("d1, d2", [(2, 0), (1, 1), (0, 2), (1, 2)])
    def test_rows_are_s3_symmetric_up_to_koszul_sign(self, d1, d2):
        # The construction and Bs(J) expand only x <= y <= z.  That has the
        # span of every ordering because an even permutation of (x, y, z)
        # leaves the cyclic row unchanged and an odd one multiplies it by
        # (-1)^{|x||y| + |y||z| + |z||x|}.
        even_perms = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
        nonzero = flipped = 0
        for total in range(3, 7):
            alg = build_free_jordan(d1, d2, total - 1)
            ext = PairSpace(alg, total, -1)
            basis = [(d, u) for d in range(1, total - 1) for u in range(alg.dim(d))]
            for triple in combinations_with_replacement(basis, 3):
                if sum(d for d, _ in triple) != total:
                    continue
                px, py, pz = (alg.parities[d][u] for d, u in triple)
                eps = (-1) ** (px * py + py * pz + pz * px)
                row = cyclic_row(ext, *triple)
                nonzero += bool(row)
                flipped += bool(row) and eps == -1
                for perm in permutations(range(3)):
                    sign = 1 if perm in even_perms else eps
                    got = cyclic_row(ext, *(triple[k] for k in perm))
                    assert got == tuple((k, sign * c) for k, c in row), (total, triple, perm)
        assert nonzero
        assert flipped or d2 == 0

    @pytest.mark.parametrize("d1, d2", [(2, 0), (1, 1), (0, 2), (1, 2)])
    def test_rows_equal_the_direct_expansion(self, d1, d2):
        # D applied to the cyclic row of (x, y, z) at w is the identity's
        # instance on (x, y, z, w), int for int over the scaled tables the
        # construction reads.
        nonzero = 0
        for n in range(4, 7):
            alg = build_free_jordan(d1, d2, n - 1)
            space = PairSpace(alg, n, 1)
            for total in range(3, n):
                ext = PairSpace(alg, total, -1)
                s = n - total
                for triple in (t for group in triple_groups(alg.parities, total) for t in group):
                    cyclic = cyclic_row(ext, *triple)
                    for w in ((s, wu) for wu in range(alg.dim(s))):
                        want = identity_instance(space, *triple, w)
                        assert relation_row(space, ext, cyclic, w) == want, (n, triple, w)
                        nonzero += bool(want)
        assert nonzero

    def test_each_exterior_square_is_built_once(self, monkeypatch):
        # The construction keeps PairSpace(alg, t, -1) from degree t + 1
        # on: one per total 3..6 in a build to degree 7, not one per
        # (degree, total).
        built = []
        init = PairSpace.__init__

        def counted(self, alg, n, sign):
            built.append((n, sign))
            init(self, alg, n, sign)

        monkeypatch.setattr(PairSpace, "__init__", counted)
        build_free_jordan(2, 0, 7)
        assert sorted(n for n, sign in built if sign == -1) == [3, 4, 5, 6]


class TestSerialization:
    # The scale grows 1 -> 2 -> 4 -> 16 over (2|0)'s degrees 3..6.
    @pytest.mark.parametrize("d1, d2, n, scale", [(1, 1, 4, 2), (2, 0, 6, 16)],
                             ids=["(1|1)@4", "(2|0)@6"])
    def test_roundtrip(self, d1, d2, n, scale):
        alg = build_free_jordan(d1, d2, n)
        assert alg.scale == scale
        clone = GradedJordanAlgebra.from_json(alg.to_json())
        assert clone.parities == alg.parities
        assert clone.tables == alg.tables
        assert clone.scale == alg.scale
        assert clone.dims == alg.dims
        assert clone.labels == alg.labels
        assert clone.to_json() == alg.to_json()

    def test_cache_key_depends_on_shape(self):
        assert len({cache_key(1, 1, 3), cache_key(1, 1, 4), cache_key(0, 2, 3)}) == 3

    def test_corrupted_cache_rejected(self):
        alg = build_free_jordan(0, 2, 3)
        text = alg.to_json().replace('"d2":2', '"d2":3')
        with pytest.raises(ValueError):
            GradedJordanAlgebra.from_json(text)


def test_budget_guard():
    with pytest.raises(ResourceBudgetExceeded):
        build_free_jordan(2, 2, 7, budget=50)


@pytest.mark.parametrize("d1, d2, n, least", [
    (1, 1, 6, 1936), (2, 0, 7, 64512), (0, 3, 6, 78408), (2, 1, 5, 23250),
])
def test_budget_boundary(d1, d2, n, least):
    # The least budget that builds each shape: every sorted triple of a
    # group counts, its cyclic row zero or not.
    build_free_jordan(d1, d2, n, budget=least)
    with pytest.raises(ResourceBudgetExceeded):
        build_free_jordan(d1, d2, n, budget=least - 1)


def test_bad_args():
    with pytest.raises(ValueError):
        build_free_jordan(0, 0, 3)
    with pytest.raises(ValueError):
        build_free_jordan(1, 1, 0)
    # Degree 3 has no identity instances, so only the argument check can fire.
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget"):
            build_free_jordan(1, 0, 3, budget=budget)
