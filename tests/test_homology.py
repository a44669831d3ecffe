import gc

import pytest

from freejordan import cli, homology, linalg
from freejordan.homology import ChainComplex, compute_homology
from freejordan.jordan import build_free_jordan
from freejordan.lambda_ops import PhiKernel
from freejordan.rings import GDim
from freejordan.tag import TagAlgebra, build_tag
from reference import (FullWeightComplex, block_dim, block_key, isotypic_multiplicities,
                       ordered_jacobi_failures, pair_boundaries, q_homology_weights,
                       reference_boundary_monomial, reference_chain_blocks, sl2_index)


def tag_for(d1, d2, n):
    return build_tag(build_free_jordan(d1, d2, n), n)


def stored_boundaries(cc):
    """Each block key and chain with its stored boundary column, read back
    as a combination of chains through the positions of the block below."""
    for key, blk in cc.blocks.items():
        below = list(cc.blocks.get((key[0] - 1, *key[1:]), ()))
        for mon, col in zip(blk, cc.boundaries[key], strict=True):
            yield key, mon, {below[i]: c for i, c in col}


def walked_rows(cc, key):
    """The rows the rank walk passes for a block: its nonzero columns but
    those at the pivots of the block above.  Every row of that block spans
    what its walked rows span, so the full block gives the same pivots."""
    r, d, w, p = key
    above = set(linalg.pivots_mod_p([c for c in cc.boundaries.get((r + 1, d, w, p), ()) if c]))
    return [c for i, c in enumerate(cc.boundaries[key]) if c and i not in above]


def largest_block(cc):
    """The key of the block of weight >= 0 whose boundary has the largest rank."""
    return max((key for key in cc.boundaries if key[2] >= 0),
               key=lambda key: linalg.rank([c for c in cc.boundaries[key] if c] or [()]))


class TestChainComplex:
    def test_h0_is_the_ground_field(self):
        cc = ChainComplex(tag_for(0, 1, 3), 3, 3)
        assert cc.homology_weights(0, 0) == {0: GDim(1, 0)}

    def test_symmetric_square_block(self):
        # For one odd generator: g_odd = sl2 (x) y (3 elements, z-degree 1),
        # g_even = {y(x)y} (z-degree 2).  V_2 at z-degree 2 is S^2 of the
        # odd part: 6 monomials, no exterior contribution.  Counted at every
        # weight; the complex holds the weights w >= 0.
        tag = tag_for(0, 1, 4)
        dims = block_dim(FullWeightComplex(tag, 4, 4), 2, 2)
        assert sum(dims.values()) == 6
        assert all(par == 0 for (_w, par) in dims)
        assert block_dim(ChainComplex(tag, 4, 4), 2, 2) == {k: n for k, n in dims.items() if k[0] >= 0}

    def test_d_squared_gate_runs(self):
        # construction asserts d^2 = 0 on every block
        ChainComplex(tag_for(0, 1, 6), 4, 6)
        ChainComplex(tag_for(1, 1, 4), 4, 4)

    def test_d_squared_gate_catches_one_doubled_entry(self):
        # An entry over a nonzero lower boundary column; doubling an entry
        # over a zero one leaves d^2 = 0.
        cc = ChainComplex(tag_for(1, 1, 4), 4, 4)
        cols, j, i = next(
            (cols, j, i)
            for key, cols in cc.boundaries.items() if key[0] >= 3
            for j, col in enumerate(cols)
            for i, _ in col
            if cc.boundaries[(key[0] - 1,) + key[1:]][i]
        )
        cols[j] = tuple((k, 2 * c if k == i else c) for k, c in cols[j])
        with pytest.raises(AssertionError, match="d\\^2"):
            cc._check_d_squared()

    def test_boundary_preserves_grading(self):
        cc = ChainComplex(tag_for(1, 1, 3), 3, 3)
        for key, mon, terms in stored_boundaries(cc):
            assert block_key(cc, mon) == key
            for m2 in terms:
                assert block_key(cc, m2) == (key[0] - 1,) + key[1:]
        # Columns are held as linalg's sparse rows.
        assert all(col == linalg.sparse_row(dict(col))
                   for cols in cc.boundaries.values() for col in cols)

    @pytest.mark.parametrize("d1,d2", [(1, 1), (0, 2), (2, 0)])
    def test_blocks_match_the_brute_force_enumeration(self, d1, d2):
        # The blocks of weight w >= 0, each numbering its chains in tuple
        # order, and an index of their (weight, parity) by (r, d).
        tag = tag_for(d1, d2, 5)
        cc = ChainComplex(tag, 5, 5)
        ref = reference_chain_blocks(tag, 5, 5)
        assert {key: list(blk) for key, blk in cc.blocks.items()} == {
            key: mons for key, mons in ref.items() if key[2] >= 0}
        assert all(blk == {m: i for i, m in enumerate(ref[key])}
                   for key, blk in cc.blocks.items())
        assert sorted((*rd, *wp) for rd, wps in cc.keys_at.items() for wp in wps) == sorted(cc.blocks)
        # e(x)x <-> f(x)x: the counts at -w are the counts at w.
        assert any(key[2] < 0 for key in ref)
        assert all(len(ref.get((r, d, -w, p), ())) == len(mons) for (r, d, w, p), mons in ref.items())

    @pytest.mark.parametrize("d1,d2,n", [(1, 1, 5), (0, 2, 5), (2, 0, 5), (2, 1, 4), (1, 2, 4)])
    def test_columns_match_the_full_weight_complex(self, d1, d2, n):
        # Built from least-weight heads, each column at w >= 0 equals the
        # one built from smallest-factor heads at every weight, position
        # for position.
        tag = tag_for(d1, d2, n)
        cc, ref = ChainComplex(tag, n, n), FullWeightComplex(tag, n, n)
        assert cc.blocks == {key: blk for key, blk in ref.blocks.items() if key[2] >= 0}
        assert cc.boundaries == {key: ref.boundaries[key] for key in cc.blocks}

    def test_boundary_matches_the_reference_signs(self):
        # (0|2) chains repeat odd heads, the S(g_odd) side; (2|0) has even
        # generators only.  Every column of weight >= 0 is checked: 813 to
        # 976 of them nonzero.
        for d1, d2 in [(1, 1), (0, 2), (2, 0)]:
            tag = tag_for(d1, d2, 5)
            cc = ChainComplex(tag, 5, 5)
            nonzero = 0
            for _key, mon, terms in stored_boundaries(cc):
                assert terms == reference_boundary_monomial(tag, mon), (d1, d2, mon)
                nonzero += bool(terms)
            assert nonzero > 800, (d1, d2)

    def test_boundary_matches_the_pair_formula(self):
        # Built from tails, each column equals the one that brackets every
        # pair of factors, position for position.
        cc = ChainComplex(tag_for(2, 1, 4), 4, 4)
        assert cc.boundaries == pair_boundaries(cc)

    @staticmethod
    def drop_one_factor(monkeypatch, weight, pick):
        """Make the chains lose (b,), b the first or last (``pick``) z-degree-1
        factor of the given weight, and so every chain grown from that tail."""
        fits = ChainComplex._fits

        def lossy(cc, d, w):
            b = pick(g for g, n in enumerate(cc.tag.degrees) if n == 1 and cc.tag.weights[g] == weight)
            return [a for a in fits(cc, d, w) if (d, a) != (0, b)]

        monkeypatch.setattr(ChainComplex, "_fits", lossy)

    def test_missing_tail_is_a_fault(self, monkeypatch):
        # (b,) of weight 0 and the chains grown from it are in no boundary
        # of the rest, and the Euler gate counts them missing.
        self.drop_one_factor(monkeypatch, 0, max)
        cc = ChainComplex(tag_for(1, 1, 3), 3, 3)
        assert sum(map(len, cc.blocks.values())) < sum(
            len(mons) for key, mons in reference_chain_blocks(cc.tag, 3, 3).items() if key[2] >= 0)
        with pytest.raises(AssertionError, match="Euler characteristic mismatch at z-degree 1"):
            cc.euler_check()

    def test_missing_tail_exits_4(self, monkeypatch, capsys):
        self.drop_one_factor(monkeypatch, 0, max)
        code = cli.main(["homology", "--d1", "1", "--d2", "1", "--rmax", "3", "--dmax", "3"])
        assert code == cli.EXIT_INTERNAL == 4
        assert "Euler characteristic mismatch at z-degree 1" in capsys.readouterr().err

    def test_missing_boundary_term_is_a_fault(self, monkeypatch):
        # Chains grown from (e(x)x1,) are terms of boundaries that are
        # built, so construction raises.
        self.drop_one_factor(monkeypatch, 2, min)
        with pytest.raises(AssertionError, match="is no chain of the block below"):
            ChainComplex(tag_for(1, 1, 3), 3, 3)

    def test_block_leak_gate_fires(self):
        # Send one e(x)x term of a bracket to f(x)x: the chain it lands on
        # is a chain, but of weight lower by 4, so in another block.
        # The key has the least-weight factor, the head, first, as the
        # boundary reads it.
        tag = tag_for(1, 1, 3)
        ChainComplex(tag, 3, 3)
        e_to_f = {sl2_index(tag, 0, n, u): sl2_index(tag, 2, n, u)
                  for n in tag.at for u in range(tag.alg.dim(n))}
        head_first = lambda gi, gj: (tag.weights[gi], gi) < (tag.weights[gj], gj)
        key = next(key for key, terms in tag.brackets.items()
                   if head_first(*key) and any(k in e_to_f for k, _ in terms))
        tag.brackets[key] = tuple(sorted((e_to_f.get(k, k), c) for k, c in tag.brackets[key]))
        with pytest.raises(AssertionError, match="boundary leaves its block"):
            ChainComplex(tag, 3, 3)

    def test_completeness_horizon(self):
        cc = ChainComplex(tag_for(0, 1, 5), 3, 5)
        assert cc.is_complete(3, 5)
        assert not cc.is_complete(4, 5)  # r_max cut
        assert cc.is_complete(6, 5)  # empty: every factor has z-degree >= 1
        with pytest.raises(ValueError):
            cc.homology_weights(3, 4)  # incoming V_4 incomplete
        with pytest.raises(ValueError):
            cc.multiplicities(3, 4)

    def test_depth_guard(self):
        with pytest.raises(ValueError):
            ChainComplex(tag_for(0, 1, 3), 2, 4)

    def test_negative_r_max_is_rejected(self):
        # A negative cap would never stop the enumeration.
        with pytest.raises(ValueError):
            ChainComplex(tag_for(0, 1, 5), -1, 5)

    def test_homology_leaves_no_reference_cycles(self):
        # Everything a report run builds is freed by reference counting, so
        # the chain blocks do not wait for the cyclic collector.
        tag = tag_for(0, 2, 5)
        gc.collect()
        gc.disable()
        try:
            compute_homology(tag, 4, 5)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_each_block_is_ranked_once(self, monkeypatch):
        # Certified runs rank each block of weight >= 0 with a nonzero
        # boundary once mod p, on its rows but those at the pivots of the
        # block above, and nothing over Q.
        tag = tag_for(1, 1, 4)
        calls, q_calls = [], []
        pivots_mod_p, rank = linalg.pivots_mod_p, linalg.rank
        monkeypatch.setattr(linalg, "pivots_mod_p", lambda rows: calls.append(rows) or pivots_mod_p(rows))
        monkeypatch.setattr(linalg, "rank", lambda rows: q_calls.append(rows) or rank(rows))
        compute_homology(tag, 4, 4)
        monkeypatch.undo()
        cc = ChainComplex(tag, 4, 4)
        assert len(cc.blocks) == 61 and all(key[2] >= 0 for key in cc.blocks)
        walked = [walked_rows(cc, key) for key, cols in cc.boundaries.items() if any(cols)]
        assert all(walked) and sorted(calls) == sorted(walked)
        # The clearing skips rows.
        assert sum(map(len, calls)) < sum(c != () for cols in cc.boundaries.values() for c in cols)
        assert q_calls == []

    @pytest.mark.parametrize("d1,d2,n", [(1, 1, 6), (0, 2, 6), (2, 0, 6), (2, 1, 5), (1, 2, 5),
                                         (3, 0, 5), (0, 3, 6)])
    def test_clearing_moves_no_rank(self, monkeypatch, d1, d2, n):
        # At every (z-degree, parity, weight) the walk's pivot count on the
        # rows it keeps is the whole block's, and every row it skips sits
        # at a pivot of block r + 1, as that block was ranked.
        cc = ChainComplex(tag_for(d1, d2, n), n, n)
        where = {id(c): (key, i) for key, cols in cc.boundaries.items()
                 for i, c in enumerate(cols) if c}
        walked = {}
        pivots_mod_p = linalg.pivots_mod_p

        def record(rows):
            (key,) = {where[id(c)][0] for c in rows}
            assert key not in walked
            walked[key] = {where[id(c)][1] for c in rows}, set(pivots_mod_p(rows))
            return list(walked[key][1])

        monkeypatch.setattr(linalg, "pivots_mod_p", record)
        for d, p in sorted({key[1::2] for key in cc.boundaries}):
            cc._rank_column(d, p)
        monkeypatch.undo()
        skipped = 0
        for (r, d, w, p), cols in cc.boundaries.items():
            nonzero = {i for i, c in enumerate(cols) if c}
            if not nonzero:
                continue
            kept, pivots = walked[(r, d, w, p)]
            assert len(pivots) == len(linalg.pivots_mod_p([c for c in cols if c])), (r, d, w, p)
            assert nonzero - kept <= walked.get((r + 1, d, w, p), (set(), set()))[1], (r, d, w, p)
            skipped += len(nonzero - kept)
        assert skipped > 0

    @pytest.mark.parametrize("d1,d2", [(1, 1), (0, 2), (2, 0), (2, 1), (1, 2), (3, 0)])
    def test_rank_engine_matches_q_on_every_block(self, d1, d2):
        # The certificate is a lower-bound argument: an engine that
        # overstated a rank would pass it silently.
        cc = ChainComplex(tag_for(d1, d2, 6), 6, 6)
        ranked = 0
        for key, cols in cc.boundaries.items():
            cols = [c for c in cols if c]
            if cols and key[2] >= 0:
                assert len(linalg.pivots_mod_p(cols)) == linalg.rank(cols), key
                ranked += 1
        assert ranked >= 40

    def test_understated_block_falls_back_to_q(self, monkeypatch):
        # One block's rank mod p, on the rows the walk passes, read one
        # short leaves its highest-weight homology bound nonzero: the whole
        # block is ranked over Q, and the report does not move.
        tag = tag_for(1, 1, 6)
        expected = compute_homology(tag, 6, 6).to_json_dict()
        cc = ChainComplex(tag, 6, 6)
        key = largest_block(cc)
        target, whole = walked_rows(cc, key), [c for c in cc.boundaries[key] if c]
        pivots_mod_p, rank = linalg.pivots_mod_p, linalg.rank
        q_calls = []
        monkeypatch.setattr(linalg, "pivots_mod_p",
                            lambda rows: pivots_mod_p(rows)[:-1 if rows == target else None])
        monkeypatch.setattr(linalg, "rank", lambda rows: q_calls.append(rows) or rank(rows))
        assert compute_homology(tag, 6, 6).to_json_dict() == expected
        assert whole in q_calls

    def test_d_squared_gate_is_the_jacobi_gate(self, monkeypatch):
        # At r_max = 3 the d^2 = 0 gate fails on exactly the doubled
        # antisymmetric pairs that some ordered triple's Jacobiator sees.
        # The sl2 gate would see most of them first, so it is held off.
        monkeypatch.setattr(homology, "check_sl2", lambda tag, top: None)
        for d1, d2, npairs in [(1, 1, 47), (0, 2, 35)]:
            tag = tag_for(d1, d2, 4)
            pairs = [(gi, gj) for gi, gj in tag.brackets
                     if gi < gj and tag.degrees[gi] + tag.degrees[gj] < tag.max_degree]
            assert len(pairs) == npairs
            caught = 0
            for gi, gj in pairs:
                saved = {key: tag.brackets[key] for key in ((gi, gj), (gj, gi))}
                for key, terms in saved.items():
                    tag.brackets[key] = tuple((k, 2 * c) for k, c in terms)
                if ordered_jacobi_failures(tag):
                    with pytest.raises(AssertionError, match="d\\^2"):
                        ChainComplex(tag, 3, 4)
                    caught += 1
                else:
                    ChainComplex(tag, 3, 4)
                tag.brackets.update(saved)
            assert caught == npairs, (d1, d2)

    @pytest.mark.parametrize("r_max,jacobi", [(0, 1), (2, 1), (3, 0), (4, 0)])
    def test_jacobi_runs_in_the_report_below_r_3(self, monkeypatch, r_max, jacobi):
        calls = []
        check = TagAlgebra.check_jacobi
        monkeypatch.setattr(TagAlgebra, "check_jacobi", lambda tag: calls.append(1) or check(tag))
        compute_homology(tag_for(1, 1, 4), r_max, 4)
        assert len(calls) == jacobi

    def test_sl2_gate_exits_4(self, monkeypatch, capsys):
        # One [e(x)x, f(x)y] doubled: the table no longer commutes with sl2.
        def broken(alg, n):
            tag = build_tag(alg, n)
            key = next(key for key in tag.brackets if key[0] == tag.at[1][0])
            tag.brackets[key] = tuple((k, 2 * c) for k, c in tag.brackets[key])
            return tag

        monkeypatch.setattr(cli, "build_tag", broken)
        code = cli.main(["homology", "--d1", "1", "--d2", "1", "--rmax", "3", "--dmax", "3"])
        assert code == cli.EXIT_INTERNAL == 4
        assert "sl2 does not act by derivations" in capsys.readouterr().err


    def test_each_homology_block_is_weighed_once(self, monkeypatch):
        calls = []
        weights = ChainComplex.homology_weights
        monkeypatch.setattr(ChainComplex, "homology_weights",
                            lambda cc, r, d: calls.append((r, d)) or weights(cc, r, d))
        compute_homology(tag_for(1, 1, 4), 4, 4)
        assert len(calls) == len(set(calls)) > 0

    def test_rmax_beyond_dmax_weighs_no_more_blocks(self, monkeypatch):
        # No chain of r > d_max factors fits under z-degree d_max, so a larger
        # r_max adds no block: the report is the r_max = d_max one.
        tag = tag_for(1, 0, 2)
        expected = compute_homology(tag, 2, 2).to_json_dict()
        calls = []
        weights = ChainComplex.homology_weights
        monkeypatch.setattr(ChainComplex, "homology_weights",
                            lambda cc, r, d: calls.append((r, d)) or weights(cc, r, d))
        report = compute_homology(tag, 10**4, 2).to_json_dict()
        assert len(calls) == 9
        assert report.pop("r_max") == 10**4
        assert report == {k: v for k, v in expected.items() if k != "r_max"}

    @staticmethod
    def misrank_one_block(monkeypatch, tag):
        """Read the largest block's rank mod p one short, so it falls back to
        Q, and its rank over Q one too many."""
        cc = ChainComplex(tag, 4, 4)
        key = largest_block(cc)
        target, whole = walked_rows(cc, key), [c for c in cc.boundaries[key] if c]
        pivots_mod_p, rank = linalg.pivots_mod_p, linalg.rank
        monkeypatch.setattr(linalg, "pivots_mod_p",
                            lambda rows: pivots_mod_p(rows)[:-1 if rows == target else None])
        monkeypatch.setattr(linalg, "rank", lambda rows: rank(rows) + (rows == whole))

    def test_overstated_q_rank_is_a_negative_multiplicity(self, monkeypatch):
        # The fallback's rank is checked as the mod-p ranks are: on exact
        # ranks the certificate's gap is the multiplicity, never below 0.
        tag = tag_for(1, 1, 4)
        self.misrank_one_block(monkeypatch, tag)
        with pytest.raises(AssertionError, match="negative multiplicity"):
            compute_homology(tag, 4, 4)

    def test_overstated_q_rank_exits_4(self, monkeypatch, capsys):
        self.misrank_one_block(monkeypatch, tag_for(1, 1, 4))
        code = cli.main(["homology", "--d1", "1", "--d2", "1", "--rmax", "4", "--dmax", "4"])
        assert code == cli.EXIT_INTERNAL == 4
        assert "negative multiplicity" in capsys.readouterr().err


class TestHomologyValues:
    def test_one_odd_generator_pattern(self):
        """H_r sits at z-degree r, alternating parity, isotypic of highest
        weight 2r — the hand-checkable case."""
        rep = compute_homology(tag_for(0, 1, 6), 6, 6)
        for r in range(0, 7):
            blocks = {d: ws for (rr, d), ws in rep.weights.items() if rr == r}
            assert list(blocks) == [r]
            mult = rep.multiplicities[(r, r)]
            expect = GDim(1, 0) if r % 2 == 0 else GDim(0, 1)
            assert mult == {2 * r: expect}

    def test_h1_detects_generators(self):
        # H_1 = sl2 (x) (degree-1 part), nothing at higher z-degree.
        rep = compute_homology(tag_for(1, 1, 4), 4, 4)
        assert rep.multiplicities[(1, 1)] == {2: GDim(1, 1)}
        for d in range(2, 5):
            assert (1, d) not in rep.weights

    def test_h2_has_no_trivial_or_adjoint_part(self):
        for d1, d2, n in [(0, 1, 5), (1, 1, 5)]:
            rep = compute_homology(tag_for(d1, d2, n), 5, 5)
            for (r, d), mult in rep.multiplicities.items():
                if r == 2:
                    assert 0 not in mult and 2 not in mult, (d1, d2, r, d)
                    assert set(mult) <= {4}, "L(4)-isotypic"

    @pytest.mark.parametrize("d1,d2", [(1, 1), (0, 2)])
    def test_multiplicities_match_the_q_weights(self, d1, d2):
        # Read off the rank certificate, the multiplicities equal the
        # differences of the per-weight dimensions over Q at every weight,
        # and their suffix sums equal those dimensions.
        tag = tag_for(d1, d2, 6)
        rep = compute_homology(tag, 6, 6)
        ref = FullWeightComplex(tag, 6, 6)
        q = {(r, d): q_homology_weights(ref, r, d)
             for r in range(7) for d in range(7) if (r, d) not in rep.incomplete}
        assert rep.weights == {rd: ws for rd, ws in q.items() if ws}
        assert rep.multiplicities == {rd: isotypic_multiplicities(ws) for rd, ws in q.items() if ws}
        assert len(rep.multiplicities) >= 10

    def test_euler_characteristic(self):
        cc = ChainComplex(tag_for(1, 1, 5), 5, 5)
        assert cc.euler_check() == 6

    def test_euler_gate_fires(self, monkeypatch, capsys):
        # The kernel's P_2 off by one even t^0: the report raises and the
        # CLI exits 4.
        sides = PhiKernel.sides

        def planted(phi, n):
            p, m = sides(phi, n)
            if n == 2:
                p[n] += 1
                m[n] += 1
            return p, m

        monkeypatch.setattr(PhiKernel, "sides", planted)
        match = "Euler characteristic mismatch at z-degree 2"
        with pytest.raises(AssertionError, match=match):
            compute_homology(tag_for(1, 1, 4), 4, 4)
        code = cli.main(["homology", "--d1", "1", "--d2", "1", "--rmax", "4", "--dmax", "4"])
        assert code == cli.EXIT_INTERNAL == 4
        assert match in capsys.readouterr().err

    @pytest.mark.parametrize("d1,d2", [(1, 1), (0, 2)])
    def test_mirrored_chain_character_matches_every_weight(self, d1, d2):
        tag = tag_for(d1, d2, 5)
        cc, ref = ChainComplex(tag, 5, 5), FullWeightComplex(tag, 5, 5)
        assert [cc.chain_character(d) for d in range(6)] == [ref.chain_character(d) for d in range(6)]

    def test_euler_needs_complete_columns(self):
        cc = ChainComplex(tag_for(1, 1, 4), 2, 4)
        with pytest.raises(ValueError):
            cc.chain_character(3)

    def test_report_serializes(self):
        import json

        rep = compute_homology(tag_for(0, 1, 4), 3, 4)
        payload = rep.to_json_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["weights"]["0,0"] == {"0": ["1", "0"]}

    def test_incomplete_blocks_flagged(self):
        rep = compute_homology(tag_for(0, 1, 5), 3, 5)
        assert (3, 4) in rep.incomplete
        assert (3, 5) in rep.incomplete
        assert (3, 3) in rep.weights
