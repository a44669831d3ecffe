import math
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
from reference import (
    basis_vector,
    bracket,
    derivation_of,
    fraction_brackets,
    multiply,
    project,
    structure_constants_json,
    tag_graded_dims,
)


def ordered_jacobi_failures(tag):
    """Messages naming every ordered in-range triple whose Jacobiator is nonzero.

    Sums (-1)^{|a||c|} [[a,b],c] over the cyclic rotations with plain dict
    arithmetic, independently of ``check_jacobi``.
    """
    deg = [el.degree for el in tag.basis]
    par = [el.parity for el in tag.basis]
    n = len(tag.basis)
    failing = set()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if deg[i] + deg[j] + deg[k] > tag.max_degree:
                    continue
                acc = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    sign = (-1) ** (par[a] * par[c])
                    for m, coeff in tag.brackets.get((a, b), ()):
                        for q, v in tag.brackets.get((m, c), ()):
                            acc[q] = acc.get(q, 0) + sign * coeff * v
                if any(acc.values()):
                    failing.add(
                        f"Jacobi fails on ({tag.basis[i].label}, "
                        f"{tag.basis[j].label}, {tag.basis[k].label})"
                    )
    return failing


class TestBs:
    def test_one_odd_generator(self):
        # Bs of the 1-dimensional odd algebra: one even class {y(x)y}.
        alg = build_free_jordan(0, 1, 6)
        bs = build_Bs(alg.integer_copy()[1], 6)
        assert bs[2].dim == GDim(1, 0)
        assert all(bs[n].dim == GDim(0, 0) for n in range(3, 7))

    def test_starts_in_degree_two(self):
        alg = build_free_jordan(1, 1, 3)
        bs = build_Bs(alg.integer_copy()[1], 3)
        assert 1 not in bs
        assert sorted(bs) == [2, 3]

    def test_supercommutator_relation_holds(self):
        alg = build_free_jordan(1, 1, 4)
        bs = build_Bs(alg.integer_copy()[1], 4)
        for n, comp in bs.items():
            for (i, u, j, v) in comp.coords:
                amb = {comp.index[(i, u, j, v)]: Fraction(1)}
                sign = (-1) ** (alg.parities[i][u] * alg.parities[j][v])
                k = comp.index[(j, v, i, u)]
                amb[k] = amb.get(k, 0) + sign
                assert project(comp, amb) == ()

    def test_cyclic_relation_holds(self):
        alg = build_free_jordan(0, 2, 4)
        bs = build_Bs(alg.integer_copy()[1], 4)
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
            assert project(comp, amb) == ()

    def test_matches_pair_solver(self):
        # Conjecture-level agreement of Bs dimensions with the b-series.
        for d1, d2 in [(1, 1), (0, 2)]:
            alg = build_free_jordan(d1, d2, 5)
            bs = build_Bs(alg.integer_copy()[1], 5)
            rep = solve_dims_pair(d1, d2, 5)
            for n in range(2, 6):
                assert bs[n].dim == rep.b[n - 1], (d1, d2, n)

    def test_insufficient_depth(self):
        alg = build_free_jordan(1, 1, 3)
        with pytest.raises(ValueError):
            build_Bs(alg.integer_copy()[1], 4)


class TestDerivations:
    def test_inner_derivations_vanish_for_one_odd_generator(self):
        alg = build_free_jordan(0, 1, 6)
        for m in range(1, 5):
            cols = alg.derivation(1, 0, 1, 0, m)
            assert all(col == () for col in cols)
        assert inner_rank_diagnostic(TagAlgebra(alg, 6), 2) == GDim(0, 0)

    def test_even_self_commutator_vanishes(self):
        alg = build_free_jordan(2, 0, 5)
        for m in range(1, 4):
            cols = alg.derivation(1, 0, 1, 0, m)
            assert all(col == () for col in cols)

    def test_explicit_mixed_value(self):
        # d_{x,y}(x) = x.(y.x) - y.x^2 in degree 3.
        alg = build_free_jordan(1, 1, 3)
        x = basis_vector(alg, 1, 0)
        y = basis_vector(alg, 1, 1)
        col = alg.derivation(1, 0, 1, 1, 1)[0]
        yx = multiply(alg, 1, y, 1, x)
        xx = multiply(alg, 1, x, 1, x)
        byhand = {}
        linalg.accumulate(byhand, multiply(alg, 1, x, 2, yx))
        linalg.accumulate(byhand, multiply(alg, 1, y, 2, xx), -1)
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
        dims = tag_graded_dims(tag)
        assert dims == {1: GDim(0, 3), 2: GDim(1, 0)}

    def test_e_f_bracket_rule(self):
        # [e(x)x, f(x)y] = 2{x(x)y} + h(x)(x.y)
        alg = build_free_jordan(1, 1, 4)
        tag = TagAlgebra(alg, 4)
        ge = tag._sl2_index[(0, 1, 0)]
        gf = tag._sl2_index[(2, 1, 0)]
        terms = dict(bracket(tag, ge, gf))
        comp = tag.bs[2]
        amb = {comp.index[(1, 0, 1, 0)]: Fraction(2)}
        expect = dict(tag._bs_terms(2, project(comp, amb), 1))
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
        assert bracket(tag, gh, gh) == ((gbs, Fraction(4)),)

    def test_each_derivation_matrix_is_built_once(self, monkeypatch):
        # Building and checking the bracket, then every inner rank, reads
        # one memo: 36 distinct matrices at (1|1)@6, each built once.
        alg = build_free_jordan(1, 1, 6)
        calls = []
        derivation = GradedJordanAlgebra.derivation

        def counted(self, i, u, j, v, m):
            calls.append((i, u, j, v, m))
            return derivation(self, i, u, j, v, m)

        monkeypatch.setattr(GradedJordanAlgebra, "derivation", counted)
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
                cols = derivation_of(
                    alg, i, basis_vector(alg, i, xu), j, basis_vector(alg, j, yv), m
                )
                for a in range(3):
                    for w in range(alg.dim(m)):
                        gs = tag._sl2_index[(a, m, w)]
                        got = dict(bracket(tag, gbs, gs))
                        expect = {tag._sl2_index[(a, n + m, k)]: c for k, c in cols[w]}
                        assert got == expect

    def test_weights_are_minus2_0_2(self):
        alg = build_free_jordan(0, 2, 4)
        tag = build_tag(alg, 4)
        assert {el.weight for el in tag.basis} <= {-2, 0, 2}

    def test_self_tests_pass(self):
        # build_tag runs exhaustive anticommutativity and Jacobi checks;
        # the count is every sorted in-range triple gi <= gj <= gk, which
        # covers every ordered one once anticommutativity holds.
        for d1, d2, n, triples in [
            (0, 2, 5, 476), (1, 1, 4, 224), (2, 0, 5, 1016), (1, 1, 6, 2030),
        ]:
            tag = build_tag(build_free_jordan(d1, d2, n), n)
            assert tag.check_jacobi() == triples, (d1, d2, n)

    def test_anticommutativity_gate_catches_one_scaled_entry(self):
        # Every entry the gate constrains, on either side of the diagonal:
        # the sorted-pair loop reads the ``below`` entries with gi > gj only
        # as the partner [y,x].  An odd [x,x] is symmetric, so it is left out.
        for d1, d2, below in [(1, 1, 138), (0, 2, 90)]:
            tag = TagAlgebra(build_free_jordan(d1, d2, 4), 4)
            keys = [(gi, gj) for gi, gj in tag.brackets
                    if gi != gj or tag.basis[gi].parity == 0]
            assert sum(gi > gj for gi, gj in keys) == below, (d1, d2)
            for key in keys:
                terms = tag.brackets[key]
                tag.brackets[key] = tuple((k, 2 * c) for k, c in terms)
                with pytest.raises(AssertionError, match="anticommutativity"):
                    tag.check_anticommutativity()
                tag.brackets[key] = terms
            # An even [x,x] is zero, so it is not in the table; plant one.
            gx = next(g for g, el in enumerate(tag.basis)
                      if el.parity == 0 and 2 * el.degree <= tag.max_degree)
            tag.brackets[(gx, gx)] = ((0, Fraction(1)),)
            with pytest.raises(AssertionError, match="anticommutativity"):
                tag.check_anticommutativity()

    def test_jacobi_gate_catches_a_doubled_antisymmetric_pair(self):
        # Doubling [gi,gj] and [gj,gi] together keeps anticommutativity, so
        # only the Jacobi gate can see it.
        tag = TagAlgebra(build_free_jordan(1, 1, 4), 4)
        gi, gj = next(
            (gi, gj) for gi, gj in tag.brackets
            if gi < gj and tag.basis[gi].degree + tag.basis[gj].degree < tag.max_degree
        )
        for key in ((gi, gj), (gj, gi)):
            tag.brackets[key] = tuple((k, 2 * c) for k, c in tag.brackets[key])
        tag.check_anticommutativity()
        with pytest.raises(AssertionError, match="Jacobi"):
            tag.check_jacobi()

    @pytest.mark.parametrize("d1,d2,npairs", [(1, 1, 47), (0, 2, 35)])
    def test_sorted_jacobi_gate_agrees_with_every_ordered_triple(self, d1, d2, npairs):
        # Double each antisymmetric pair in turn.  The sorted-triple gate
        # must fail exactly when some ordered triple fails, and name a
        # failing triple.
        tag = TagAlgebra(build_free_jordan(d1, d2, 4), 4)
        pairs = [(gi, gj) for gi, gj in tag.brackets
                 if gi < gj and tag._degrees[gi] + tag._degrees[gj] < tag.max_degree]
        assert len(pairs) == npairs
        caught = 0
        for gi, gj in pairs:
            saved = {key: tag.brackets[key] for key in ((gi, gj), (gj, gi))}
            for key, terms in saved.items():
                tag.brackets[key] = tuple((k, 2 * c) for k, c in terms)
            failing = ordered_jacobi_failures(tag)
            if failing:
                with pytest.raises(AssertionError, match="Jacobi") as err:
                    tag.check_jacobi()
                assert str(err.value) in failing
                caught += 1
            else:
                tag.check_jacobi()
            tag.brackets.update(saved)
        assert caught == npairs

    @pytest.mark.parametrize("d1,d2,n,scale", [
        (1, 1, 4, 2), (2, 0, 5, 4), (0, 2, 4, 1), (2, 0, 6, 48), (2, 1, 5, 8),
    ])
    def test_bracket_table_is_integral(self, d1, d2, n, scale):
        # The table stores scale * [x, y] with int coefficients, where scale
        # is the least common denominator of the rational brackets, which
        # fraction_brackets sums in Fractions.  At (2|0)@6 and (2|1)@5 both
        # the table scale T and the projection scale P exceed 1.
        tag = TagAlgebra(build_free_jordan(d1, d2, n), n)
        rational = fraction_brackets(tag)
        assert set(tag.brackets) == set(rational)
        assert all(type(c) is int for terms in tag.brackets.values() for _, c in terms)
        denominators = [c.denominator for terms in rational.values() for _, c in terms]
        assert tag.scale == math.lcm(*denominators) == scale
        for key, terms in rational.items():
            assert bracket(tag, *key) == terms
            assert all(type(c) is Fraction for _, c in bracket(tag, *key))
            assert tag.brackets[key] == tuple((k, int(c * scale)) for k, c in terms)

    def test_structure_constants_serialize(self):
        import json

        alg = build_free_jordan(0, 1, 3)
        tag = build_tag(alg, 3)
        payload = structure_constants_json(tag)
        text = json.dumps(payload)
        assert json.loads(text) == payload
        assert len(payload["basis"]) == len(tag.basis)

    def test_bracket_beyond_truncation(self):
        alg = build_free_jordan(1, 1, 3)
        tag = TagAlgebra(alg, 3)
        g = tag._sl2_index[(0, 2, 0)]
        with pytest.raises(ValueError):
            bracket(tag, g, g)
