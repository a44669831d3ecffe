"""Graded Chevalley-Eilenberg homology of the TAG algebra, exactly.

Chains with trivial coefficients form the super exterior algebra
Lambda(g_even) (x) S(g_odd); a degree-r monomial is a weakly increasing
tuple of basis indices in which even indices may not repeat.  The boundary
recurses on the smallest factor a of a chain a ^ w:

    d(a ^ w) = -a ^ dw + sum over t of +- [a, w_t] ^ (w without w_t)

where +- moves w_t to the front through the adjacent swap rule
x ^ y = -(-1)^{|x||y|} y ^ x and re-inserts the bracket in canonical
position with the same rule.  The sign of a ^ dw is -1: a pair of factors
of w passes a twice to the front, at |a|(|w_s| + |w_t|), and their
bracket, which sorts after a, passes it once back, at 1 + |a||[w_s, w_t]|.
d^2 = 0 is asserted on every block as the acceptance gate for this sign
convention.

Everything splits into finite blocks by (homological degree r, z-degree d,
h-weight w, chain parity): the boundary preserves d, w, and parity.  Each
block numbers its chains, and each boundary term is written straight to
its chain's position in the block one homological degree lower.  A
block at (r, d) is complete once d <= d_max and r <= min(r_max, d) (every
chain factor has z-degree >= 1), which makes truncation artifacts
explicit rather than silent.

The boundary commutes with sl2 once ``sl2.check_sl2`` has passed, and
every chain block is a weight space of a finite-dimensional sl2-module
(Kashuba--Mathieu).  So the ranks are taken mod 13 on the weights w >= 0
only, top down, and certified exact on the highest-weight spaces by
d^2 = 0 (``ChainComplex._rank_column``); a block the certificate does not
cover is ranked over Q.  The rank at -w is the rank at w.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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
    """CE chains of a TAG truncation through r <= r_max, z-degree <= d_max.

    ``blocks[key]`` maps each chain of a block to its position, in the
    order of enumeration.  That position is the chain's column in
    ``boundaries[key]`` and its row index in the columns of the block one
    homological degree higher.  A chain's column is its tail's, carried
    over by a head map, plus its r - 1 head brackets, read off the TAG's
    integer bracket table, so ``boundaries`` holds ``tag.scale`` times d,
    with int coefficients.  Ranks do not see the scale, and the d^2 = 0
    gate sums ``tag.scale**2`` times d^2 in exact integers.

    Construction runs three gates, each raising ``AssertionError``: the
    block-leak gate as the boundary is built, then ``sl2.check_sl2``
    through ``d_max``, the premise of the rank certificate, then d^2 = 0
    on every block.  On the r = 3 blocks d^2 = 0 is the super Jacobi
    identity on every sorted triple of total z-degree <= d_max (a repeated
    even factor, the one triple that is not a chain, is trivial once
    anticommutativity holds).
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
        self._enumerate()
        self.boundaries = self._boundaries()
        check_sl2(tag, d_max)
        self._check_d_squared()
        # (z-degree, parity) -> (r, weight) -> rank, one column at a time.
        self._ranks: dict[tuple[int, int], dict[tuple[int, int], int]] = {}

    # -- chain enumeration ----------------------------------------------

    def _enumerate(self) -> None:
        """Every chain, depth first; a block numbers its chains in that order.

        The basis is sorted by z-degree, so the factors that still fit under
        ``d_max`` after z-degree d are an initial segment of it, ending at
        ``stop[d]``.  An even factor moves ``start`` past itself, so even
        factors never repeat.  The children of a chain go on the stack in
        reverse, so the first one comes off it first.
        """
        deg, wt, par = self.tag.degrees, self.tag.weights, self.tag.parities
        stop = [bisect_right(deg, self.d_max - d) for d in range(self.d_max + 1)]
        r_max, blocks = self.r_max, self.blocks
        stack: list[tuple[Monomial, int, int, int, int]] = [((), 0, 0, 0, 0)]
        while stack:
            mon, start, d, w, p = stack.pop()
            key = (len(mon), d, w, p)
            blk = blocks.get(key)
            if blk is None:
                blk = blocks[key] = {}
            blk[mon] = len(blk)
            if len(mon) < r_max:
                for g in reversed(range(start, stop[d])):
                    pg = par[g]
                    stack.append((mon + (g,), g + 1 - pg, d + deg[g], w + wt[g], p ^ pg))

    def is_complete(self, r: int, d: int) -> bool:
        """Whether the chain block V_r at z-degree d has every monomial."""
        return d <= self.d_max and (r <= self.r_max or r > d)

    # -- boundary --------------------------------------------------------

    def _boundaries(self) -> dict[BlockKey, list[linalg.SparseRow]]:
        """tag.scale times d of every chain, block by block as r grows.

        -a ^ dw is the tail's column, negated and moved by a head map, which
        sends a chain's position in the tail's block to that of a prefixed
        to it, and fills as each tail is found.  The maps filled at level r
        are read at level r + 1 only, so only those of two levels are kept.
        The [a, w_t] term costs t - 1 + |w_t|·(odd factors of w ahead of
        w_t) to move, and pos + |g|·(odd factors ahead of pos) to insert its
        term g at position pos of the rest.  A tail, or a term of dw,
        missing from the blocks is a fault in them; a bracket term missing
        from the target block has left its block.  Each raises.
        """
        blocks, brackets = self.blocks, self.tag.brackets
        deg, wt, par = self.tag.degrees, self.tag.weights, self.tag.parities
        # The empty chain's block sorts first, and has no boundary.
        cols: dict[BlockKey, list[linalg.SparseRow]] = {(0, 0, 0, 0): [()]}
        # (a, tail block) -> head map, filled at this level and one level down.
        heads: dict[tuple[int, BlockKey], dict[int, int]] = {}
        below: dict[tuple[int, BlockKey], dict[int, int]] = {}
        level = 1
        for key in sorted(blocks)[1:]:
            r, d, w, p = key
            if r != level:
                level, below, heads = r, heads, {}
            target = blocks.get((r - 1, d, w, p), {})
            out = cols[key] = []
            a = None
            for mon, j in blocks[key].items():
                if mon[0] != a:  # the chains of one head come together
                    a, pa = mon[0], par[mon[0]]
                    tail = (r - 1, d - deg[a], w - wt[a], p ^ pa)
                    tails, tail_cols = blocks.get(tail, {}), cols.get(tail)
                    fill = heads.setdefault((a, tail), {})
                    head = below.get((a, (r - 2, *tail[1:])), {})
                i = tails.get(mon[1:])
                if i is None:
                    raise AssertionError(f"the tail of chain {mon} is not in block {tail}")
                fill[i] = j
                try:
                    col = {head[k]: -c for k, c in tail_cols[i]}
                except KeyError:
                    raise AssertionError(f"a term of d{mon[1:]} has no head {a}") from None
                pars = [par[g] for g in mon]
                before = [0, *accumulate(pars)]
                for t in range(1, r):
                    terms = brackets.get((a, mon[t]))
                    if not terms:
                        continue
                    pt = pars[t]
                    sign = t - 1 + pt * (before[t] - pa)
                    for g, c in terms:
                        # g sorts after w_t, at position at - 2 of the rest.
                        at = bisect_left(mon, g)
                        pg = par[g]
                        if not pg and at < r and mon[at] == g:
                            continue  # an even factor squares to zero
                        k = target.get(mon[1:t] + mon[t + 1:at] + (g,) + mon[at:])
                        if k is None:
                            raise AssertionError("boundary leaves its block")
                        odd = before[at] - pa - pt
                        term = -c if (sign + at + pg * odd) & 1 else c
                        col[k] = col.get(k, 0) + term
                out.append(linalg.sparse_row(col))
        return {key: cols[key] for key in blocks}

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
                    raise AssertionError(
                        f"d^2 != 0 on block r={r} d={d} weight={w} parity={par}"
                    )

    # -- ranks and homology ----------------------------------------------

    def rank(self, key: BlockKey) -> int:
        """Rank of the boundary out of a block; each column (d, parity) is ranked once."""
        r, d, w, p = key
        ranks = self._ranks.get((d, p))
        if ranks is None:
            ranks = self._ranks[(d, p)] = self._rank_column(d, p)
        return ranks.get((r, w), 0)

    def _rank_column(self, d: int, p: int) -> dict[tuple[int, int], int]:
        """The rank of d out of every block at z-degree d and parity p, by (r, weight).

        The weights w >= 0 are walked from the top down.  With c_r(w) the
        chain count, the highest-weight vectors of V_r(w) span
        c_r(w) - c_r(w + 2) dimensions, and d, which commutes with sl2,
        has rank rank_r(w) - rank_r(w + 2) on them.  The rank mod p of a
        block, l_r(w), is at most rank_r(w), so rho_r = l_r(w) -
        rank_r(w + 2) is at most d's rank on the highest weights, and

            g_r = c_r(w) - c_r(w + 2) - rho_r - rho_{r+1}

        is at least the highest-weight homology at r, at least 0.  If
        g_r = 0, both rho_r and rho_{r+1} are exact; so block r is exact
        when g_r = 0 or g_{r-1} = 0.  A block that is not is ranked over
        Q.  The boundary columns go in as rows: rank(A^T) = rank(A).  The
        image is an sl2-module, so the rank at -w is the rank at w.
        """
        blocks, bounds = self.blocks, self.boundaries
        top_r = min(self.r_max, d)
        top_w = max((w for (_, dd, w, pp) in blocks if dd == d and pp == p), default=-1)
        ranks: dict[tuple[int, int], int] = {}
        count_up, rank_up = [0] * (top_r + 1), [0] * (top_r + 2)
        for w in range(top_w, -1, -2):
            count = [len(blocks.get((r, d, w, p), ())) for r in range(top_r + 1)]
            cols = [[c for c in bounds.get((r, d, w, p), ()) if c] for r in range(top_r + 1)]
            ell = [linalg.rank_mod_p(c) if c else 0 for c in cols] + [0]
            rho = [x - y for x, y in zip(ell, rank_up)]
            gap = [count[r] - count_up[r] - rho[r] - rho[r + 1] for r in range(top_r + 1)]
            if min(gap) < 0:
                raise AssertionError(
                    f"ranks mod {linalg.PRIME} exceed the highest weights at "
                    f"r={gap.index(min(gap))} d={d} weight={w} parity={p}"
                )
            for r, c in enumerate(cols):
                exact = not c or gap[r] == 0 or r > 0 and gap[r - 1] == 0
                ranks[(r, w)] = ranks[(r, -w)] = ell[r] if exact else linalg.rank(c)
            count_up, rank_up = count, [ranks[(r, w)] for r in range(top_r + 1)] + [0]
        return ranks

    def homology_weights(self, r: int, d: int) -> dict[int, GDim]:
        """dim H_r at z-degree d, per h-weight, as an even/odd pair.

        Requires the incoming boundary block V_{r+1} to be complete;
        otherwise the rank of the image would be a lower bound only.
        """
        if not (self.is_complete(r, d) and self.is_complete(r + 1, d)):
            raise ValueError(f"block r={r}, d={d} is not complete at this truncation")
        out: dict[int, GDim] = {}
        weights = {w for (rr, dd, w, _p) in self.blocks if rr == r and dd == d}
        for w in sorted(weights):
            pair = [0, 0]
            for par in (0, 1):
                key = (r, d, w, par)
                dim = len(self.blocks.get(key, ()))
                if dim == 0:
                    continue
                pair[par] = (
                    dim - self.rank(key) - self.rank((r + 1, d, w, par))
                )
            if pair[0] or pair[1]:
                out[w] = GDim(pair[0], pair[1])
        return out

    # -- Euler characteristic cross-check --------------------------------

    def chain_character(self, d: int) -> tuple[list[int], list[int]]:
        """sum over r of (-1)^r char V_r at z-degree d, as split sides at t^-d..t^d.

        Weight w sits at t^(w/2), and a signed count c of parity 0 or 1
        adds (c, c) or (c, -c), the split coordinates (even + odd,
        even - odd) of ``PhiKernel.sides``.
        """
        if not self.is_complete(d, d):
            raise ValueError("chain column incomplete at this z-degree")
        p, m = [0] * (2 * d + 1), [0] * (2 * d + 1)
        for (r, dd, w, par), mons in self.blocks.items():
            if dd == d:
                c = -len(mons) if r & 1 else len(mons)
                p[d + w // 2] += c
                m[d + w // 2] += -c if par else c
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
                raise AssertionError(
                    f"Euler characteristic mismatch at z-degree {d}: "
                    f"chains give {lhs}, lambda gives {rhs}"
                )
        return top + 1


def isotypic_multiplicities(ws: dict[int, GDim], r: int, d: int) -> dict[int, GDim]:
    """Multiplicity of the irreducible of highest weight 2m in H_r at z-degree d.

    ``ws`` is dim H_r per h-weight, as ``homology_weights`` returns it.
    mult(2m) = dim(weight 2m) - dim(weight 2m + 2); all weights here are
    even, and a negative multiplicity signals a broken weight string,
    which is raised rather than returned.
    """
    if any(w % 2 for w in ws):
        raise AssertionError(f"odd h-weight in H_{r} at z-degree {d}")
    top = max(ws, default=0)
    out: dict[int, GDim] = {}
    for w in range(0, top + 1, 2):
        m = ws.get(w, GDIM_ZERO) - ws.get(w + 2, GDIM_ZERO)
        if m.even < 0 or m.odd < 0:
            raise AssertionError(
                f"negative multiplicity at weight {w} in H_{r}, z-degree {d}"
            )
        if m:
            out[w] = m
    return out


@dataclass
class HomologyReport:
    """Homology of one TAG truncation: weights, multiplicities, flags."""

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
        def gd(g: GDim) -> list[str]:
            return [str(g.even), str(g.odd)]

        return {
            "d1": self.d1,
            "d2": self.d2,
            "r_max": self.r_max,
            "d_max": self.d_max,
            "weights": {
                f"{r},{d}": {str(w): gd(g) for w, g in ws.items()}
                for (r, d), ws in sorted(self.weights.items())
            },
            "multiplicities": {
                f"{r},{d}": {str(w): gd(g) for w, g in ms.items()}
                for (r, d), ms in sorted(self.multiplicities.items())
            },
            "incomplete": [list(p) for p in sorted(self.incomplete)],
            "euler_checked_through": self.euler_checked_through,
        }


def compute_homology(tag: TagAlgebra, r_max: int, d_max: int) -> HomologyReport:
    """Full report: homology on complete (r, d) blocks plus the Euler gate.

    The chain complex's d^2 = 0 gate is the Jacobi identity in its range
    once r_max >= 3; below that the Jacobi gate runs here.
    """
    if r_max < 3:
        tag.check_jacobi()
    cc = ChainComplex(tag, r_max, d_max)
    report = HomologyReport(tag.alg.d1, tag.alg.d2, r_max, d_max)
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
                report.multiplicities[(r, d)] = isotypic_multiplicities(ws, r, d)
    report.euler_checked_through = cc.euler_check()
    return report
