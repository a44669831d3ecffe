"""The sl2 gate: sl2 acts on the TAG bracket table by derivations.

s in sl2 acts on the TAG algebra g = (sl2 (x) J) + Bs(J) by [s, a](x)x on
a(x)x and by 0 on Bs.  The ranks of ``homology`` rest on this action: once
it commutes with the bracket, every CE chain block is a weight space of a
finite-dimensional sl2-module and the boundary commutes with sl2.  By
Schur's lemma an sl2-equivariant table has a fixed shape, since
sl2 (x) sl2 holds sl2 and the trivial module once each; ``check_sl2``
checks that shape on every in-range pair, reading the integer table.
"""

from __future__ import annotations

from .tag import SL2_RULES, TagAlgebra


def check_sl2(tag: TagAlgebra, top: int) -> None:
    """sl2 acts on ``tag.brackets`` by derivations, through z-degree ``top``.

    The table commutes with sl2 exactly when, on every pair of total
    z-degree at most ``top``:

    - [a(x)x, b(x)y] = [a, b](x)P + k(a, b)/4 K for the 7 pairs of
      ``SL2_RULES``, with P in J and K in Bs read off
      [e(x)x, f(x)y] = h(x)P + K, and [e(x)x, e(x)y] = [f(x)x, f(x)y] = 0;
    - [B, a(x)z] = a(x)D(z) with one D for a = e, h, f, and likewise
      [a(x)z, B] = a(x)D'(z);
    - [B, B'] has no sl2 (x) J term.

    The grading gate has put every term of [e(x)x, f(x)y] in h(x)J or Bs
    (weight 0), and every term of [B, e(x)z] in e(x)J (weight 2).  The
    first pair off that shape raises ``AssertionError``.
    """
    at, brackets, labels = tag.at, tag.brackets, tag.labels
    N = min(top, tag.max_degree)
    starts = [at[n][0] for n in at] + [len(tag.degrees)]
    dim = {n: at[n][1] - at[n][0] for n in at}
    bs = {n: range(at[n][3], starts[n]) for n in at}
    rules = {(a, b): rule for a, b, *rule in SL2_RULES}

    def fail(gi, gj):
        raise AssertionError(f"sl2 does not act by derivations on ({labels[gi]}, {labels[gj]})")

    def check(gi, gj, expect):
        if brackets.get((gi, gj), ()) != expect:
            fail(gi, gj)

    for i in range(1, N):
        for j in range(1, N - i + 1):
            o = at[i + j]
            for u in range(dim[i]):
                for v in range(dim[j]):
                    ef = brackets.get((at[i][0] + u, at[j][2] + v), ())
                    p = [(k - o[1], c) for k, c in ef if k < o[3]]
                    kap = [(k, c) for k, c in ef if k >= o[3]]
                    for a in range(3):
                        for b in range(3):
                            c_idx, coeff, half = rules.get((a, b), (0, 0, 0))
                            check(at[i][a] + u, at[j][b] + v, tuple(
                                [(o[c_idx] + k, coeff * c) for k, c in p if coeff]
                                + [(k, half * c) for k, c in kap if half]))
    for n in range(2, N):
        for m in range(1, N - n + 1):
            o, s = at[n + m], at[m]
            for gb in bs[n]:
                for w in range(dim[m]):
                    d = [(k - o[0], c) for k, c in brackets.get((gb, s[0] + w), ())]
                    d2 = [(k - o[0], c) for k, c in brackets.get((s[0] + w, gb), ())]
                    for a in (1, 2):
                        check(gb, s[a] + w, tuple((o[a] + k, c) for k, c in d))
                        check(s[a] + w, gb, tuple((o[a] + k, c) for k, c in d2))
        for m in range(2, N - n + 1):
            for gb in bs[n]:
                for gc in bs[m]:
                    if any(k < at[n + m][3] for k, _ in brackets.get((gb, gc), ())):
                        fail(gb, gc)
