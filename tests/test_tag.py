import random
from fractions import Fraction

import pytest

from freejordan import linalg
from freejordan.jordan import GradedJordanAlgebra, build_free_jordan
from freejordan.rings import GDim
from freejordan.solver import solve_dims_pair
from freejordan.tag import (
    TagAlgebra,
    build_Bs,
    build_tag,
    inner_rank_diagnostic,
)


class TestBs:
    def test_one_odd_generator(self):
        # Bs of the 1-dimensional odd algebra: one even class {y(x)y}.
        alg = build_free_jordan(0, 1, 6)
        bs = build_Bs(alg, 6)
        assert bs[2].dim == GDim(1, 0)
        assert all(bs[n].dim == GDim(0, 0) for n in range(3, 7))

    def test_starts_in_degree_two(self):
        alg = build_free_jordan(1, 1, 3)
        bs = build_Bs(alg, 3)
        assert 1 not in bs
        assert sorted(bs) == [2, 3]

    def test_supercommutator_relation_holds(self):
        alg = build_free_jordan(1, 1, 4)
        bs = build_Bs(alg, 4)
        for n, comp in bs.items():
            for (i, u, j, v) in comp.coords:
                amb = {comp.index[(i, u, j, v)]: Fraction(1)}
                sign = (-1) ** (alg.parities[i][u] * alg.parities[j][v])
                k = comp.index[(j, v, i, u)]
                amb[k] = amb.get(k, 0) + sign
                assert comp.project(amb) == ()

    def test_cyclic_relation_holds(self):
        alg = build_free_jordan(0, 2, 4)
        bs = build_Bs(alg, 4)
        rng = random.Random(23)
        for _ in range(30):
            # random basis triple with total degree 4
            p, q, r = rng.choice([(1, 1, 2), (1, 2, 1), (2, 1, 1)])
            comp = bs[4]
            xu = rng.randrange(alg.dim(p))
            yu = rng.randrange(alg.dim(q))
            zu = rng.randrange(alg.dim(r))
            px, py, pz = alg.parities[p][xu], alg.parities[q][yu], alg.parities[r][zu]
            amb = {}
            for s, (da, vec, db, w) in (
                ((-1) ** (px * pz),
                 (p + q, alg.multiply_basis(p, xu, q, yu), r, zu)),
                ((-1) ** (px * py),
                 (q + r, alg.multiply_basis(q, yu, r, zu), p, xu)),
                ((-1) ** (py * pz),
                 (r + p, alg.multiply_basis(r, zu, p, xu), q, yu)),
            ):
                for k, c in vec:
                    pos = comp.index[(da, k, db, w)]
                    amb[pos] = amb.get(pos, 0) + s * c
            assert comp.project(amb) == ()

    def test_matches_pair_solver(self):
        # Conjecture-level agreement of Bs dimensions with the b-series.
        for d1, d2 in [(1, 1), (0, 2)]:
            alg = build_free_jordan(d1, d2, 5)
            bs = build_Bs(alg, 5)
            rep = solve_dims_pair(d1, d2, 5)
            for n in range(2, 6):
                assert bs[n].dim == rep.b[n - 1], (d1, d2, n)

    def test_insufficient_depth(self):
        alg = build_free_jordan(1, 1, 3)
        with pytest.raises(ValueError):
            build_Bs(alg, 4)


class TestDerivations:
    def test_inner_derivations_vanish_for_one_odd_generator(self):
        alg = build_free_jordan(0, 1, 6)
        y = alg.basis_vector(1, 0)
        for m in range(1, 5):
            cols = alg.derivation_of(1, y, 1, y, m)
            assert all(col == () for col in cols)
        assert inner_rank_diagnostic(TagAlgebra(alg, 6), 2) == GDim(0, 0)

    def test_even_self_commutator_vanishes(self):
        alg = build_free_jordan(2, 0, 5)
        x = alg.basis_vector(1, 0)
        for m in range(1, 4):
            cols = alg.derivation_of(1, x, 1, x, m)
            assert all(col == () for col in cols)

    def test_explicit_mixed_value(self):
        # d_{x,y}(x) = x.(y.x) - y.x^2 in degree 3.
        alg = build_free_jordan(1, 1, 3)
        x = alg.basis_vector(1, 0)
        y = alg.basis_vector(1, 1)
        col = alg.derivation_of(1, x, 1, y, 1)[0]
        yx = alg.multiply(1, y, 1, x)
        xx = alg.multiply(1, x, 1, x)
        byhand = {}
        linalg.accumulate(byhand, alg.multiply(1, x, 2, yx))
        linalg.accumulate(byhand, alg.multiply(1, y, 2, xx), -1)
        assert col == linalg.sparse_row(byhand)

    def test_rank_bounded_by_bs(self):
        tag = TagAlgebra(build_free_jordan(1, 1, 5), 5)
        bs = tag.bs
        for n in (2, 3):
            rank = inner_rank_diagnostic(tag, n)
            assert rank.even <= bs[n].dim.even
            assert rank.odd <= bs[n].dim.odd

    def test_two_even_generators_faithful_at_degree_two(self):
        # For the Jordan-algebra case the kernel phenomenon is absent at
        # this truncation: every degree-2 class acts nontrivially.
        tag = TagAlgebra(build_free_jordan(2, 0, 5), 5)
        assert inner_rank_diagnostic(tag, 2) == tag.bs[2].dim


class TestTagAlgebra:
    def test_one_odd_generator_is_1_3_dimensional(self):
        alg = build_free_jordan(0, 1, 4)
        tag = build_tag(alg, 4)
        dims = tag.graded_dims()
        assert dims == {1: GDim(0, 3), 2: GDim(1, 0)}

    def test_e_f_bracket_rule(self):
        # [e(x)x, f(x)y] = 2{x(x)y} + h(x)(x.y)
        alg = build_free_jordan(1, 1, 4)
        tag = TagAlgebra(alg, 4)
        ge = tag._sl2_index[(0, 1, 0)]
        gf = tag._sl2_index[(2, 1, 0)]
        terms = dict(tag.bracket(ge, gf))
        comp = tag.bs[2]
        amb = {comp.index[(1, 0, 1, 0)]: Fraction(2)}
        expect = dict(tag._bs_terms(2, comp.project(amb), Fraction(1)))
        prod = alg.multiply_basis(1, 0, 1, 0)
        for u, c in prod:
            expect[tag._sl2_index[(1, 2, u)]] = c
        assert terms == expect

    def test_h_h_bracket_central_element(self):
        # [h(x)y, h(x)y] = 4{y(x)y} for the one-odd-generator algebra.
        alg = build_free_jordan(0, 1, 4)
        tag = TagAlgebra(alg, 4)
        gh = tag._sl2_index[(1, 1, 0)]
        gbs = tag._bs_index[(2, 0)]
        assert tag.bracket(gh, gh) == ((gbs, Fraction(4)),)

    def test_each_derivation_matrix_is_built_once(self, monkeypatch):
        # Building and checking the bracket, then every inner rank, reads
        # one memo: 36 distinct matrices at (1|1)@6, each built once.
        alg = build_free_jordan(1, 1, 6)
        calls = []
        derivation_of = GradedJordanAlgebra.derivation_of

        def counted(self, i, x, j, y, m):
            calls.append((i, tuple(x), j, tuple(y), m))
            return derivation_of(self, i, x, j, y, m)

        monkeypatch.setattr(GradedJordanAlgebra, "derivation_of", counted)
        tag = build_tag(alg, 6)
        for n in tag.bs:
            inner_rank_diagnostic(tag, n)
        assert len(calls) == len(set(calls)) == 36

    def test_bs_action_matches_derivation(self):
        # Bracket rule 2 factors through d_{x,y}.
        alg = build_free_jordan(1, 1, 5)
        tag = TagAlgebra(alg, 5)
        for (n, u), gbs in tag._bs_index.items():
            (i, xu, j, yv) = tag._bs_lift(tag.basis[gbs])
            for m in range(1, tag.max_degree - n + 1):
                cols = alg.derivation_of(
                    i, alg.basis_vector(i, xu), j, alg.basis_vector(j, yv), m
                )
                for a in range(3):
                    for w in range(alg.dim(m)):
                        gs = tag._sl2_index[(a, m, w)]
                        got = dict(tag.bracket(gbs, gs))
                        expect = {tag._sl2_index[(a, n + m, k)]: c for k, c in cols[w]}
                        assert got == expect

    def test_weights_are_minus2_0_2(self):
        alg = build_free_jordan(0, 2, 4)
        tag = build_tag(alg, 4)
        assert {el.weight for el in tag.basis} <= {-2, 0, 2}

    def test_self_tests_pass(self):
        # build_tag runs exhaustive anticommutativity and Jacobi checks.
        alg = build_free_jordan(0, 2, 5)
        tag = build_tag(alg, 5)
        assert tag.check_jacobi() > 0

    def test_structure_constants_serialize(self):
        import json

        alg = build_free_jordan(0, 1, 3)
        tag = build_tag(alg, 3)
        payload = tag.structure_constants_json()
        text = json.dumps(payload)
        assert json.loads(text) == payload
        assert len(payload["basis"]) == len(tag.basis)

    def test_bracket_beyond_truncation(self):
        alg = build_free_jordan(1, 1, 3)
        tag = TagAlgebra(alg, 3)
        g = tag._sl2_index[(0, 2, 0)]
        with pytest.raises(ValueError):
            tag.bracket(g, g)
