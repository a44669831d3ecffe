"""Graded Chevalley-Eilenberg homology of the TAG algebra, exactly.

Chains with trivial coefficients form the super exterior algebra
Lambda(g_even) (x) S(g_odd); a degree-r monomial is a weakly increasing
tuple of basis indices in which even indices may not repeat.  The boundary
recurses on a chain's head a, its first factor of least h-weight; the
chain is a ^ w up to the sign of moving a to the front, and

    d(a ^ w) = -a ^ dw + sum over t of +- [a, w_t] ^ (w without w_t)

where +- moves w_t to the front through the adjacent swap rule
x ^ y = -(-1)^{|x||y|} y ^ x and re-inserts the bracket in canonical
position with the same rule.  The sign of a ^ dw is -1: a pair of factors
of w passes a twice to the front, at |a|(|w_s| + |w_t|), and their
bracket passes it once back, at 1 + |a||[w_s, w_t]|.  d^2 = 0 is asserted
on every block as the acceptance gate for this sign convention.

Everything splits into finite blocks by (homological degree r, z-degree d,
h-weight w, chain parity): the boundary preserves d, w, and parity.  Each
block numbers its chains, and each boundary term is written straight to
its chain's position in the block one homological degree lower.  A
block at (r, d) is complete once d <= d_max and r <= min(r_max, d) (every
chain factor has z-degree >= 1), which makes truncation artifacts
explicit rather than silent.

The boundary commutes with sl2 once ``sl2.check_sl2`` has passed, and
every chain block is a weight space of a finite-dimensional sl2-module
(Kashuba--Mathieu).  e(x)x <-> f(x)x maps the chains of weight -w onto
those of weight w, keeping degree and parity, so only the blocks of
weight w >= 0 are built; counts and ranks at -w are read at w.  The ranks
are taken mod 13, top down, and certified exact on the highest-weight
spaces by d^2 = 0 (``ChainComplex._rank_column``); a block the
certificate does not cover is ranked over Q.  The ranks mod 13 are
cleared (Chen--Kerber's twist): each weight's blocks are ranked from the
top homological degree down, and a block's rows at the pivots of the
block above are skipped.  Such a pivot is the top chain of a cycle mod
13, as d^2 = 0, gated exactly over Z before any rank is taken, holds mod
13, so its row depends on the rows ahead of it and no rank moves.  On
exact ranks the certificate's gap at weight w is the multiplicity of
V(w) in H_r, and dim H_r at weight w is the sum of the multiplicities at
the highest weights >= |w|.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

from . import linalg
from .lambda_ops import PhiKernel
from .rings import GDIM_ZERO, GDim
from .sl2 import check_sl2
from .tag import TagAlgebra

Monomial = tuple[int, ...]
BlockKey = tuple[int, int, int, int]  # (r, z-degree, weight, parity)


class ChainComplex:
    """CE chains of weight >= 0 of a TAG truncation, r <= r_max, z-degree <= d_max.

    ``blocks[key]`` maps each chain of a block to its position, its rank in
    tuple order.  That position is the chain's column in ``boundaries[key]``
    and its row index in the columns of the block one homological degree
    higher.  A chain's column is its tail's, carried over by a head map,
    plus its r - 1 head brackets, read off the TAG's integer bracket table,
    so ``boundaries`` holds ``tag.scale`` times d, with int coefficients.
    Ranks do not see the scale, and the d^2 = 0 gate sums ``tag.scale**2``
    times d^2 in exact integers.  ``keys_at[(r, d)]`` lists the (weight,
    parity) of each block at (r, d).

    Construction runs three gates, each raising ``AssertionError``: the
    block-leak gate as the boundary is built, then ``sl2.check_sl2``
    through ``d_max``, the premise of the rank certificate, then d^2 = 0
    on every block.  d^2 commutes with sl2 and f^w maps weight w onto -w,
    so that is d^2 = 0 at every weight; on the r = 3 blocks it is the super
    Jacobi identity on every sorted triple of total z-degree <= d_max (a
    repeated even factor, the one triple that is not a chain, is trivial
    once anticommutativity holds).
    """

    def __init__(self, tag: TagAlgebra, r_max: int, d_max: int) -> None:
        if d_max > tag.max_degree:
            raise ValueError("z-degree horizon beyond the TAG truncation")
        if r_max < 0:
            raise ValueError("homological degree cap r_max must be >= 0")
        self.tag = tag
        self.r_max = r_max
        self.d_max = d_max
        self.blocks: dict[BlockKey, dict[Monomial, int]] = {}
        self.keys_at: dict[tuple[int, int], list[tuple[int, int]]] = {}
        # A factor's place in (weight, index) order; a chain's head is its least.
        self._place = [w * len(tag.weights) + g for g, w in enumerate(tag.weights)]
        self.boundaries = self._build()
        check_sl2(tag, d_max)
        self._check_d_squared()
        # (z-degree, parity) -> (r, weight >= 0) -> (rank, multiplicity).
        self._columns: dict[tuple[int, int], dict[tuple[int, int], tuple[int, int]]] = {}

    # -- chains and boundary ---------------------------------------------

    def _fits(self, d: int, w: int) -> list[int]:
        """In (weight, index) order, the factors that may join a chain of
        z-degree d and weight w: under ``d_max``, of weight >= -w."""
        deg, wt = self.tag.degrees, self.tag.weights
        return sorted((a for a in range(len(deg)) if wt[a] >= -w and d + deg[a] <= self.d_max),
                      key=self._place.__getitem__)

    def _build(self) -> dict[BlockKey, list[linalg.SparseRow]]:
        """Every chain of weight >= 0 and tag.scale times its d, level by level.

        Level r joins each chain w of level r - 1, its tail, to each factor
        a that fits and sorts ahead of w's factors in (weight, index) order,
        or equals the first when odd.  So a is the head, each chain is made
        once, and as weights are -2, 0 and 2, a chain of weight >= 0 has a
        tail of weight >= 0.  The chain is e·a^w, e the sign of moving a to
        the front.  Each term of dw joined by a is a chain with head a (a
        bracket has a larger z-degree, and no smaller weight, than a), so
        -a^dw is w's column moved by a's head map, from a position in w's
        boundary block to the position and sign e of a joined to that
        chain.  The [a, w_t] term costs t + |w_t|·(odd factors of w ahead
        of w_t) to move, and pos + |g|·(odd factors ahead of pos) to
        insert its term g at position pos of the rest.  A term with no head
        a, or not in the block below, raises.  Each block is sorted, so a
        chain's position is its rank in tuple order, and the head maps are
        filled as the blocks are numbered.
        """
        tag, place = self.tag, self._place
        deg, wt, par, brackets = tag.degrees, tag.weights, tag.parities, tag.brackets
        blocks, keys_at = self.blocks, self.keys_at
        blocks[(0, 0, 0, 0)], keys_at[(0, 0)] = {(): 0}, [(0, 0)]
        cols: dict[BlockKey, list[linalg.SparseRow]] = {(0, 0, 0, 0): [()]}
        # Each chain of a level: (chain, place bound of its heads, column, head map, i, e).
        level: dict[BlockKey, list[tuple]] = {(0, 0, 0, 0): [((), 3 * len(place), (), {}, 0, 0)]}
        fitting: dict[tuple[int, bool], list[int]] = {}
        # (a, tail block) -> head map, of this level and the one below.
        heads: dict[tuple[int, BlockKey], dict[int, tuple[int, int]]] = {}
        for r in range(1, min(self.r_max, self.d_max) + 1):
            grown: dict[BlockKey, list[tuple]] = {}
            below, heads = heads, {}
            for tkey, tails in level.items():
                _, d, w, p = tkey
                fit = fitting.get((d, w > 0))
                if fit is None:
                    fits = self._fits(d, w)
                    fit = fitting[(d, w > 0)] = fits, [place[a] for a in fits]
                fits, places = fit
                joins = []
                for a in fits[:bisect_left(places, max(rec[1] for rec in tails))]:
                    pa = par[a]
                    key = (r, d + deg[a], w + wt[a], p ^ pa)
                    joins.append((a, pa, place[a] + pa, grown.setdefault(key, []),
                                  blocks.get((r - 1, *key[1:]), {}),
                                  below.get((a, (r - 2, d, w, p)), {}),
                                  heads.setdefault((a, tkey), {})))
                for i, (tail, cut, tail_col, _, _, _) in enumerate(tails):
                    pars = [par[g] for g in tail]
                    before = [0, *accumulate(pars)]
                    for a, pa, bound, grow, target, head, fill in joins[:bisect_left(places, cut)]:
                        h = bisect_left(tail, a)
                        mon, e = tail[:h] + (a,) + tail[h:], (h + pa * before[h]) & 1
                        col = {}
                        try:
                            for k, c in tail_col:
                                jk, ek = head[k]
                                col[jk] = c if e ^ ek else -c
                        except KeyError:
                            raise AssertionError(f"a term of d{tail} has no head {a}") from None
                        for t, b in enumerate(tail):
                            terms = brackets.get((a, b))
                            if not terms:
                                continue
                            pt = pars[t]
                            sign = e + t + pt * before[t]
                            for g, c in terms:
                                # g sorts after w_t, at position at - 1 of the rest.
                                at = bisect_left(tail, g)
                                pg = par[g]
                                if not pg and at < r - 1 and tail[at] == g:
                                    continue  # an even factor squares to zero
                                k = target.get(tail[:t] + tail[t + 1:at] + (g,) + tail[at:])
                                if k is None:
                                    raise AssertionError(f"boundary leaves its block: a term of "
                                                         f"d{mon} is no chain of the block below")
                                term = -c if (sign + at - 1 + pg * (before[at] - pt)) & 1 else c
                                col[k] = col.get(k, 0) + term
                        grow.append((mon, bound, linalg.sparse_row(col), fill, i, e))
            level = {key: sorted(grown[key]) for key in sorted(grown)}
            for key, chains in level.items():
                blocks[key] = blk = {}
                cols[key] = out = []
                for j, (mon, _, col, fill, i, e) in enumerate(chains):
                    blk[mon] = j
                    out.append(col)
                    fill[i] = (j, e)
                keys_at.setdefault(key[:2], []).append(key[2:])
        return cols

    def is_complete(self, r: int, d: int) -> bool:
        """Whether the chain block V_r at z-degree d has every monomial."""
        return d <= self.d_max and (r <= self.r_max or r > d)

    def _check_d_squared(self) -> None:
        for (r, d, w, par), cols in self.boundaries.items():
            if r < 2:
                continue
            below = self.boundaries.get((r - 1, d, w, par), [])
            for col in cols:
                acc: dict[int, int] = {}
                for i, c in col:
                    for k, v in below[i]:
                        acc[k] = acc.get(k, 0) + c * v
                if any(acc.values()):
                    raise AssertionError(f"d^2 != 0 on block r={r} d={d} weight={w} parity={par}")

    # -- ranks and homology ----------------------------------------------

    def rank(self, key: BlockKey) -> int:
        """Rank of the boundary out of a block, at any weight: the image is
        an sl2-module, so the rank at -w is the rank at w."""
        r, d, w, p = key
        return self._rank_column(d, p).get((r, abs(w)), (0, 0))[0]

    def _rank_column(self, d: int, p: int) -> dict[tuple[int, int], tuple[int, int]]:
        """The rank of d out of every block at z-degree d and parity p, and the
        multiplicity of V(w) in H_r, by (r, weight w >= 0); walked once.

        The weights are walked from the top down.  With c_r(w) the chain
        count, the highest-weight vectors of V_r(w) span c_r(w) - c_r(w + 2)
        dimensions, and d, which commutes with sl2, has rank rank_r(w) -
        rank_r(w + 2) on them.  The rank mod p of a block, l_r(w), is at
        most rank_r(w), so rho_r = l_r(w) - rank_r(w + 2) is at most d's
        rank on the highest weights, and

            g_r = c_r(w) - c_r(w + 2) - rho_r - rho_{r+1}

        is at least the highest-weight homology at r, at least 0.  If
        g_r = 0, both rho_r and rho_{r+1} are exact; so block r is exact
        when g_r = 0 or g_{r-1} = 0.  A block that is not is ranked over
        Q, and g is taken again on the exact ranks.  On exact ranks g_r is
        the multiplicity of V(w) in H_r, a negative one raises, and dim H_r
        at weights w and -w is the suffix sum of g_r over the highest
        weights >= w.  The boundary columns go in as rows: rank(A^T) =
        rank(A).

        The ranks mod p are cleared.  At each weight the blocks are ranked
        from the top r down, and block r gets only its rows at positions
        that are not pivots of block r + 1.  A pivot i of block r + 1 is
        the top column of a combination of its rows, so mod p some chain
        tau_i + sum_{j<i} c_j tau_j is a boundary, and as d^2 = 0 (gated
        exactly over Z before any rank) it is a cycle: d(tau_i) lies in the
        span mod p of the rows d(tau_j), j < i, which
        ``linalg.pivots_mod_p`` takes first.  By induction on i the kept
        rows span every row, so l_r(w) and its pivots do not move.  The
        engine divides each row by its gcd, and the dependency carries over
        when p does not divide the cleared row's gcd; either way the rows
        are a subset, so l_r stays at most the rank over Q.  The Q fallback
        ranks the whole block: a dependency mod p is not one over Q.
        """
        if (d, p) in self._columns:
            return self._columns[(d, p)]
        blocks, bounds = self.blocks, self.boundaries
        top_r = min(self.r_max, d)
        top_w = max((w for r in range(top_r + 1) for w, pp in self.keys_at.get((r, d), ())
                     if pp == p), default=-1)
        column: dict[tuple[int, int], tuple[int, int]] = {}
        count_up, rank_up = [0] * (top_r + 1), [0] * (top_r + 2)

        def gaps(ranks: list[int]) -> list[int]:
            rho = [x - y for x, y in zip(ranks, rank_up)]
            return [c - cu - rho[r] - rho[r + 1] for r, (c, cu) in enumerate(zip(count, count_up))]

        for w in range(top_w, -1, -2):
            count = [len(blocks.get((r, d, w, p), ())) for r in range(top_r + 1)]
            cols = [bounds.get((r, d, w, p), ()) for r in range(top_r + 1)]
            ell, pivots = [0] * (top_r + 2), set()
            for r in range(top_r, -1, -1):
                rows = [c for i, c in enumerate(cols[r]) if c and i not in pivots]
                pivots = set(linalg.pivots_mod_p(rows)) if rows else set()
                ell[r] = len(pivots)
            gap = gaps(ell)
            if min(gap) < 0:
                raise AssertionError(f"ranks mod {linalg.PRIME} exceed the highest weights at "
                                     f"r={gap.index(min(gap))} d={d} weight={w} parity={p}")
            ranks = [x if gap[r] == 0 or r > 0 and gap[r - 1] == 0 or not any(c)
                     else linalg.rank([col for col in c if col])
                     for r, (x, c) in enumerate(zip(ell, cols))] + [0]
            if ranks != ell:
                gap = gaps(ranks)
                if min(gap) < 0:
                    raise AssertionError(f"negative multiplicity at weight {w} in "
                                         f"H_{gap.index(min(gap))}, z-degree {d}, parity {p}")
            column.update(((r, w), (x, g)) for r, (x, g) in enumerate(zip(ranks, gap)))
            count_up, rank_up = count, ranks
        self._columns[(d, p)] = column
        return column

    def multiplicities(self, r: int, d: int) -> dict[int, GDim]:
        """Multiplicity of V(w) in H_r at z-degree d, per w >= 0, as an even/odd
        pair.  V_{r+1} must be complete, or the image's rank is a lower bound."""
        if not (self.is_complete(r, d) and self.is_complete(r + 1, d)):
            raise ValueError(f"block r={r}, d={d} is not complete at this truncation")
        pairs: dict[int, list[int]] = {}
        for w, p in self.keys_at.get((r, d), ()):
            pairs.setdefault(w, [0, 0])[p] = self._rank_column(d, p)[(r, w)][1]
        return {w: GDim(*pairs[w]) for w in sorted(pairs) if any(pairs[w])}

    def homology_weights(self, r: int, d: int) -> dict[int, GDim]:
        """dim H_r at z-degree d, per h-weight, as an even/odd pair: at w and
        -w, the sum of the multiplicities at the highest weights >= |w|."""
        mults = self.multiplicities(r, d)
        top = max(mults, default=-2)
        ladder = range(top, -1, -2)
        dims = dict(zip(ladder, accumulate(mults.get(w, GDIM_ZERO) for w in ladder)))
        return {w: dims[abs(w)] for w in range(-top, top + 1, 2)}

    # -- Euler characteristic cross-check --------------------------------

    def chain_character(self, d: int) -> tuple[list[int], list[int]]:
        """sum over r of (-1)^r char V_r at z-degree d, as split sides at t^-d..t^d.

        Weight w sits at t^(w/2), and a signed count c of parity 0 or 1
        adds (c, c) or (c, -c), the split coordinates (even + odd,
        even - odd) of ``PhiKernel.sides``.  The count at -w is that at w.
        """
        if not self.is_complete(d, d):
            raise ValueError("chain column incomplete at this z-degree")
        p, m = [0] * (2 * d + 1), [0] * (2 * d + 1)
        for r in range(d + 1):
            for w, par in self.keys_at.get((r, d), ()):
                c = len(self.blocks[(r, d, w, par)]) * (-1) ** r
                for v in {w, -w}:
                    p[d + v // 2] += c
                    m[d + v // 2] += -c if par else c
        return p, m

    def euler_check(self) -> int:
        """Verify the chain Euler characteristic against the lambda product.

        For each z-degree d <= min(d_max, r_max), where the chain column is
        complete, the alternating sum of chain characters must equal the
        z^d coefficient of the lambda-operation applied to
        [g] = a(z).adjoint + b(z), with a the algebra dimensions and b the
        Bs dimensions, read off ``PhiKernel`` in ints.  Returns the number
        of degrees checked; raises on the first mismatch.
        """
        top = min(self.d_max, self.r_max)
        tag = self.tag
        phi = PhiKernel(top)
        for n in range(1, top + 1):
            phi.add(tag.alg.dims[n], tag.bs[n].dim if n in tag.bs else GDIM_ZERO)
        for d in range(0, top + 1):
            lhs, rhs = self.chain_character(d), phi.sides(d)
            if lhs != rhs:
                raise AssertionError(f"Euler characteristic mismatch at z-degree {d}: "
                                     f"chains give {lhs}, lambda gives {rhs}")
        return top + 1


@dataclass
class HomologyReport:
    """Homology of one TAG truncation: weights and multiplicities."""

    d1: int
    d2: int
    r_max: int
    d_max: int
    # per (r, d) on complete blocks
    weights: dict[tuple[int, int], dict[int, GDim]] = field(default_factory=dict)
    multiplicities: dict[tuple[int, int], dict[int, GDim]] = field(default_factory=dict)
    incomplete: list[tuple[int, int]] = field(default_factory=list)
    euler_checked_through: int = -1

    def to_json_dict(self) -> dict:
        def by_block(table: dict[tuple[int, int], dict[int, GDim]]) -> dict:
            return {f"{r},{d}": {str(w): g.json_form() for w, g in ws.items()}
                    for (r, d), ws in sorted(table.items())}

        return {
            "d1": self.d1,
            "d2": self.d2,
            "r_max": self.r_max,
            "d_max": self.d_max,
            "weights": by_block(self.weights),
            "multiplicities": by_block(self.multiplicities),
            "incomplete": [list(p) for p in sorted(self.incomplete)],
            "euler_checked_through": self.euler_checked_through,
        }


def compute_homology(tag: TagAlgebra, r_max: int, d_max: int) -> HomologyReport:
    """Full report: the Euler gate, then homology on complete (r, d) blocks.

    The chain complex's d^2 = 0 gate, on its w >= 0 blocks, is the Jacobi
    identity in its range once r_max >= 3; below that the Jacobi gate runs
    here.  The Euler gate checks the chain counts of every complete column,
    which the rank certificate reads, so it runs before the ranks: a chain
    missing from its block fails it.
    """
    if r_max < 3:
        tag.check_jacobi()
    cc = ChainComplex(tag, r_max, d_max)
    report = HomologyReport(tag.alg.d1, tag.alg.d2, r_max, d_max)
    report.euler_checked_through = cc.euler_check()
    # A chain of r factors has z-degree >= r, so every block with r > d_max
    # is complete and empty: the walk stops at d_max, however large r_max is.
    for r in range(0, min(r_max, d_max) + 1):
        for d in range(0, d_max + 1):
            if not (cc.is_complete(r, d) and cc.is_complete(r + 1, d)):
                report.incomplete.append((r, d))
                continue
            ws = cc.homology_weights(r, d)
            if ws:
                report.weights[(r, d)] = ws
                report.multiplicities[(r, d)] = cc.multiplicities(r, d)
    return report
