import math
from fractions import Fraction
from itertools import product

import pytest

from freejordan import linalg
from freejordan.jordan import GradedJordanAlgebra, build_free_jordan
from freejordan.rings import GDim
from freejordan.sl2 import check_sl2
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
    bs_index,
    bs_lift,
    bs_terms,
    derivation_of,
    fraction_brackets,
    multiply,
    ordered_jacobi_failures,
    project,
    rational,
    sl2_index,
    structure_constants_json,
    tag_graded_dims,
    theta_table,
    unfold,
)


# The number of nonzero in-range brackets of each shape that
# test_bracket_table_is_integral builds.
BRACKET_COUNTS = {
    (1, 1, 4): 279, (2, 0, 5): 1056, (0, 2, 4): 182, (2, 0, 6): 2670, (2, 1, 5): 5233,
    (1, 0, 1): 0, (0, 1, 2): 3, (3, 0, 3): 360, (0, 1, 6): 3, (1, 2, 4): 1188,
}


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
        # index holds x(x)y = -(-1)^{|x||y|} y(x)x: every ordered pair maps to
        # the coordinate of its unordered pair, the later element first, an
        # odd square to itself and an even square to sign 0.  Unfolded, each
        # supercommutator x(x)y + (-1)^{|x||y|} y(x)x projects to 0.
        for d1, d2 in [(1, 1), (0, 2), (2, 0)]:
            alg = build_free_jordan(d1, d2, 5)
            par = alg.parities
            for n, comp in build_Bs(alg, 5).items():
                unfolded = unfold(comp, par)
                for (i, u, j, v), (k, s) in comp.index.items():
                    x, y = (i, u), (j, v)
                    if x == y:
                        assert s == par[i][u], (n, x)
                    else:
                        assert s == (1 if x > y else -(-1) ** (par[i][u] * par[j][v]))
                    assert not s or comp.coords[k] == max(x, y) + min(x, y)
                    amb = {unfolded.index[(i, u, j, v)][0]: Fraction(1)}
                    sign = (-1) ** (par[i][u] * par[j][v])
                    k = unfolded.index[(j, v, i, u)][0]
                    amb[k] = amb.get(k, 0) + sign
                    assert project(unfolded, amb) == ()
        # {y(x)y} survives for one odd generator; {x(x)x} = 0 for one even one.
        odd = build_Bs(build_free_jordan(0, 1, 2), 2)[2]
        assert odd.index == {(1, 0, 1, 0): (0, 1)} and odd.dim == GDim(1, 0)
        assert odd.projection == [((0, 1),)]
        even = build_Bs(build_free_jordan(1, 0, 2), 2)[2]
        assert even.index[(1, 0, 1, 0)][1] == 0 and even.coords == []
        assert even.dim == GDim(0, 0)

    def test_coordinates_are_the_super_exterior_square(self):
        # One coordinate per unordered pair of basis elements, less the even
        # squares, counted from the parities.
        for d1, d2, top in [(1, 1, 6), (0, 2, 6), (2, 0, 6), (2, 1, 5)]:
            alg = build_free_jordan(d1, d2, top)
            par = alg.parities
            for n, comp in build_Bs(alg, top).items():
                pairs = sum(alg.dim(i) * alg.dim(n - i) for i in range(1, (n + 1) // 2))
                if n % 2 == 0:
                    m = alg.dim(n // 2)
                    pairs += m * (m + 1) // 2 - par[n // 2].count(0)
                assert len(comp.coords) == pairs, (d1, d2, n)

    def test_only_cyclic_rows_are_reduced(self, monkeypatch):
        # Over degrees 2..8 of (1|1): 292 cyclic rows over 386 coordinates
        # of the super exterior square, where J (x) J with its
        # supercommutator rows had 678 rows over 772 coordinates.
        alg = build_free_jordan(1, 1, 8)
        shapes = []
        quotient = linalg.quotient

        def counted(rows, parity):
            shapes.append((len(rows), len(parity)))
            return quotient(rows, parity)

        monkeypatch.setattr(linalg, "quotient", counted)
        build_Bs(alg, 8)
        assert len(shapes) == 7
        assert [sum(col) for col in zip(*shapes)] == [292, 386]

    def test_cyclic_relation_holds(self):
        # Every ordered basis triple of every degree: build_Bs expands only
        # x <= y <= z, so this checks the S3 reduction against each ordering.
        for d1, d2, triples in [(1, 1, 104), (0, 2, 50)]:
            alg = build_free_jordan(d1, d2, 5)
            bs = build_Bs(alg, 5)
            elems = [(d, u) for d in range(1, 4) for u in range(alg.dim(d))]
            checked = 0
            for x, y, z in product(elems, repeat=3):
                (p, xu), (q, yu), (r, zu) = x, y, z
                if p + q + r > 5:
                    continue
                comp = unfold(bs[p + q + r], alg.parities)
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
                        pos = comp.index[(da, k, db, w)][0]
                        amb[pos] = amb.get(pos, 0) + s * c
                assert project(comp, amb) == (), (d1, d2, x, y, z)
                checked += 1
            assert checked == triples, (d1, d2)

    def test_matches_pair_solver(self):
        # Conjecture-level agreement of Bs dimensions with the b-series.
        for d1, d2 in [(1, 1), (0, 2)]:
            alg = build_free_jordan(d1, d2, 5)
            bs = build_Bs(alg, 5)
            rep = solve_dims_pair(d1, d2, 5)
            for n in range(2, 6):
                assert bs[n].dim == rep.b[n - 1], (d1, d2, n)

    def test_public_build_on_the_algebra_as_built(self):
        # build_Bs reads the tables as build_free_jordan returns them, at
        # scale 16 here, and gives what the TAG algebra builds and the pair
        # solver's b(z).
        alg = build_free_jordan(2, 0, 6)
        bs = build_Bs(alg, 6)
        tag = build_tag(alg, 6)
        assert sorted(bs) == sorted(tag.bs)
        for n, comp in bs.items():
            assert comp == tag.bs[n], n
        rep = solve_dims_pair(2, 0, 6)
        assert [bs[n].dim for n in range(2, 7)] == list(rep.b[1:6])

    def test_insufficient_depth(self):
        alg = build_free_jordan(1, 1, 3)
        with pytest.raises(ValueError):
            build_Bs(alg, 4)
        # The TAG constructor reaches the same guard through build_Bs.
        with pytest.raises(ValueError, match="algebra not built deep enough"):
            TagAlgebra(alg, alg.max_degree + 1)


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
        ge = sl2_index(tag, 0, 1, 0)
        gf = sl2_index(tag, 2, 1, 0)
        terms = dict(bracket(tag, ge, gf))
        comp = unfold(tag.bs[2], alg.parities)
        amb = {comp.index[(1, 0, 1, 0)][0]: Fraction(2)}
        expect = dict(bs_terms(tag, 2, project(comp, amb), 1))
        prod = rational(alg).multiply_basis(1, 0, 1, 0)
        for u, c in prod:
            expect[sl2_index(tag, 1, 2, u)] = c
        assert terms == expect

    def test_h_h_bracket_central_element(self):
        # [h(x)y, h(x)y] = 4{y(x)y} for the one-odd-generator algebra.
        alg = build_free_jordan(0, 1, 4)
        tag = TagAlgebra(alg, 4)
        gh = sl2_index(tag, 1, 1, 0)
        gbs = bs_index(tag, 2, 0)
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
        # Bracket rule 2 factors through d_{x,y}, the rational derivation.
        alg = build_free_jordan(1, 1, 5)
        tag = TagAlgebra(alg, 5)
        alg = rational(alg)
        for n, comp in tag.bs.items():
            for u in range(len(comp.lifts)):
                gbs = bs_index(tag, n, u)
                (i, xu, j, yv) = bs_lift(tag, gbs)
                for m in range(1, tag.max_degree - n + 1):
                    cols = derivation_of(
                        alg, i, basis_vector(alg, i, xu), j, basis_vector(alg, j, yv), m
                    )
                    for a in range(3):
                        for w in range(alg.dim(m)):
                            got = dict(bracket(tag, gbs, sl2_index(tag, a, m, w)))
                            expect = {sl2_index(tag, a, n + m, k): c for k, c in cols[w]}
                            assert got == expect

    def test_weights_are_minus2_0_2(self):
        alg = build_free_jordan(0, 2, 4)
        tag = build_tag(alg, 4)
        assert set(tag.weights) <= {-2, 0, 2}

    def test_self_tests_pass(self):
        # build_tag runs the exhaustive anticommutativity check; the Jacobi
        # count is every sorted in-range triple gi <= gj <= gk, which
        # covers every ordered one once anticommutativity holds.
        for d1, d2, n, triples in [
            (0, 2, 5, 476), (1, 1, 4, 224), (2, 0, 5, 1016), (1, 1, 6, 2030),
        ]:
            tag = build_tag(build_free_jordan(d1, d2, n), n)
            assert tag.check_jacobi() == triples, (d1, d2, n)

    def test_build_tag_runs_the_anticommutativity_gate_only(self, monkeypatch):
        # Jacobi runs in oracle and, as d^2 = 0 or itself, in the homology
        # report; the sl2 gate runs in each chain complex.
        calls = []
        for name in ("check_anticommutativity", "check_jacobi"):
            gate = getattr(TagAlgebra, name)
            monkeypatch.setattr(TagAlgebra, name,
                                lambda tag, *a, _n=name, _g=gate: calls.append(_n) or _g(tag, *a))
        build_tag(build_free_jordan(1, 1, 4), 4)
        assert calls == ["check_anticommutativity"]

    @pytest.mark.parametrize("d1,d2,nkeys", [(1, 1, 276), (0, 2, 176)])
    def test_sl2_gate_catches_each_perturbed_entry(self, d1, d2, nkeys):
        # Every stored bracket with an sl2 (x) J side, doubled, breaks the
        # Schur shape; so does an [e(x)x, e(x)y] or an h(x)J term in a
        # bracket of two Bs classes.  A fault above ``top`` is not seen.
        tag = TagAlgebra(build_free_jordan(d1, d2, 4), 4)
        check_sl2(tag, 4)
        at, deg, par = tag.at, tag.degrees, tag.parities
        is_sl2 = [g < at[n][3] for g, n in enumerate(deg)]
        keys = [key for key in tag.brackets if is_sl2[key[0]] or is_sl2[key[1]]]
        assert len(keys) == nkeys
        for key in keys:
            terms = tag.brackets[key]
            tag.brackets[key] = tuple((k, 2 * c) for k, c in terms)
            with pytest.raises(AssertionError, match="sl2 does not act by derivations"):
                check_sl2(tag, 4)
            if deg[key[0]] + deg[key[1]] == 4:
                check_sl2(tag, 3)
            tag.brackets[key] = terms
        gb, gc = next((gb, gc) for gb in range(len(deg)) for gc in range(len(deg))
                      if not (is_sl2[gb] or is_sl2[gc]) and deg[gb] + deg[gc] <= 4)
        n = deg[gb] + deg[gc]
        gh = next(g for g in range(at[n][1], at[n][2]) if par[g] == par[gb] ^ par[gc])
        planted = {
            (gb, gc): tuple(sorted(tag.brackets.get((gb, gc), ()) + ((gh, 1),))),
            (at[1][0], at[1][0]): ((at[2][0], 1),),
        }
        for key, terms in planted.items():
            saved = tag.brackets.get(key)
            tag.brackets[key] = terms
            with pytest.raises(AssertionError, match="sl2 does not act by derivations"):
                check_sl2(tag, 4)
            if saved is None:
                del tag.brackets[key]
            else:
                tag.brackets[key] = saved
        check_sl2(tag, 4)

    def test_anticommutativity_gate_catches_one_scaled_entry(self):
        # Every entry the gate constrains, on either side of the diagonal:
        # the sorted-pair loop reads the ``below`` entries with gi > gj only
        # as the partner [y,x].  An odd [x,x] is symmetric, so it is left out.
        for d1, d2, below in [(1, 1, 138), (0, 2, 90)]:
            tag = TagAlgebra(build_free_jordan(d1, d2, 4), 4)
            keys = [(gi, gj) for gi, gj in tag.brackets
                    if gi != gj or tag.parities[gi] == 0]
            assert sum(gi > gj for gi, gj in keys) == below, (d1, d2)
            for key in keys:
                terms = tag.brackets[key]
                tag.brackets[key] = tuple((k, 2 * c) for k, c in terms)
                with pytest.raises(AssertionError, match="anticommutativity"):
                    tag.check_anticommutativity()
                tag.brackets[key] = terms
            # An even [x,x] is zero, so it is not in the table; plant one.
            gx = next(g for g, (n, p) in enumerate(zip(tag.degrees, tag.parities))
                      if p == 0 and 2 * n <= tag.max_degree)
            tag.brackets[(gx, gx)] = ((0, Fraction(1)),)
            with pytest.raises(AssertionError, match="anticommutativity"):
                tag.check_anticommutativity()
            del tag.brackets[(gx, gx)]
            # A bracket stored below the diagonal whose partner is zero.
            deg = tag.degrees
            gi, gj = next((gi, gj) for gi in range(len(deg)) for gj in range(gi)
                          if deg[gi] + deg[gj] <= tag.max_degree
                          and (gi, gj) not in tag.brackets and (gj, gi) not in tag.brackets)
            tag.brackets[(gi, gj)] = ((0, 1),)
            with pytest.raises(AssertionError, match="anticommutativity"):
                tag.check_anticommutativity()

    def test_jacobi_gate_catches_a_doubled_antisymmetric_pair(self):
        # Doubling [gi,gj] and [gj,gi] together keeps anticommutativity, so
        # only the Jacobi gate can see it.
        tag = TagAlgebra(build_free_jordan(1, 1, 4), 4)
        gi, gj = next(
            (gi, gj) for gi, gj in tag.brackets
            if gi < gj and tag.degrees[gi] + tag.degrees[gj] < tag.max_degree
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
                 if gi < gj and tag.degrees[gi] + tag.degrees[gj] < tag.max_degree]
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
        (1, 0, 1, 1), (0, 1, 2, 1), (3, 0, 3, 1), (0, 1, 6, 1), (1, 2, 4, 2),
    ])
    def test_bracket_table_is_integral(self, d1, d2, n, scale):
        # The table stores scale * [x, y] with int coefficients, where scale
        # is the least common denominator of the rational brackets, which
        # fraction_brackets sums in Fractions.  At (2|0)@6 and (2|1)@5 both
        # the table scale T and the projection scale P exceed 1.  The edge
        # shapes have no bracket, no Bs-on-Bs bracket (J_2 = 0 for one odd
        # generator) or nothing above degree 3.
        tag = TagAlgebra(build_free_jordan(d1, d2, n), n)
        rational = fraction_brackets(tag)
        assert set(tag.brackets) == set(rational)
        assert len(tag.brackets) == BRACKET_COUNTS[(d1, d2, n)]
        # Canonical form, which the tuple comparison of the anticommutativity
        # gate relies on: strictly increasing indices, nonzero int coefficients.
        for terms in tag.brackets.values():
            assert terms and type(terms) is tuple
            assert all(type(k) is int and type(c) is int and c for k, c in terms)
            assert all(k1 < k2 for (k1, _), (k2, _) in zip(terms, terms[1:]))
        denominators = [c.denominator for terms in rational.values() for _, c in terms]
        assert tag.scale == math.lcm(*denominators) == scale
        for key, terms in rational.items():
            assert bracket(tag, *key) == terms
            assert all(type(c) is Fraction for _, c in bracket(tag, *key))
            assert tag.brackets[key] == tuple((k, int(c * scale)) for k, c in terms)

    @pytest.mark.parametrize("d1,d2,n", [(1, 1, 6), (0, 2, 6), (2, 0, 6), (2, 1, 5)])
    def test_sl2_mirror_is_an_automorphism(self, d1, d2, n):
        # theta: e(x)x <-> f(x)x, h(x)x -> -h(x)x, Bs fixed, maps the table
        # onto itself exactly: [theta x, theta y] = theta [x, y] on every
        # stored pair, and no pair outside the table maps into it.
        tag = TagAlgebra(build_free_jordan(d1, d2, n), n)
        assert theta_table(tag) == tag.brackets

    def test_grading_gate_catches_a_wrong_parity_term(self, monkeypatch):
        # One term of the wrong parity, planted in a product of J and then
        # in a derivation column, is caught while the table is built.
        alg = build_free_jordan(1, 1, 4)
        want = (alg.parities[1][0] + alg.parities[3][0]) % 2
        wrong = alg.parities[4].index(1 - want)
        vec = alg.tables[(1, 3)][0][0]
        alg.tables[(1, 3)][0][0] = linalg.sparse_row({**dict(vec), wrong: 1})
        with pytest.raises(AssertionError, match="bracket violates parity"):
            TagAlgebra(alg, 4)
        alg.tables[(1, 3)][0][0] = vec
        TagAlgebra(alg, 4)

        derivation = GradedJordanAlgebra.derivation
        planted = []

        def plant_once(self, i, u, j, v, m):
            cols = derivation(self, i, u, j, v, m)
            want = (self.parities[i][u] + self.parities[j][v] + self.parities[m][0]) % 2
            wrong = [k for k, p in enumerate(self.parities[i + j + m]) if p != want]
            if not planted and cols and wrong:
                cols[0] = linalg.sparse_row({**dict(cols[0]), wrong[0]: 1})
                planted.append((i, u, j, v, m))
            return cols

        monkeypatch.setattr(GradedJordanAlgebra, "derivation", plant_once)
        with pytest.raises(AssertionError, match="bracket violates parity"):
            TagAlgebra(alg, 4)
        assert len(planted) == 1

    def test_structure_constants_serialize(self):
        import json

        alg = build_free_jordan(0, 1, 3)
        tag = build_tag(alg, 3)
        payload = structure_constants_json(tag)
        text = json.dumps(payload)
        assert json.loads(text) == payload
        assert len(payload["basis"]) == len(tag.degrees)

    def test_bracket_beyond_truncation(self):
        alg = build_free_jordan(1, 1, 3)
        tag = TagAlgebra(alg, 3)
        g = sl2_index(tag, 0, 2, 0)
        with pytest.raises(ValueError):
            bracket(tag, g, g)
