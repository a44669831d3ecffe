import random
from types import MappingProxyType

import pytest

from freejordan.rings import (
    GDIM_ONE,
    GDIM_X,
    GDIM_ZERO,
    GDim,
    L0,
    L2,
    RLAURENT_ONE,
    RLAURENT_ZERO,
    RLaurent,
    TZSeries,
)
from reference import is_t_symmetric, laurent_product, t_free, t_integer, z_monomial


def rand_gdim(rng, lo=-5, hi=5):
    return GDim(rng.randint(lo, hi), rng.randint(lo, hi))


def residue_series(f):
    # Res_{t=0} per z-coefficient: the t^-1 coefficient.
    return [c[-1] for c in f.coeffs]


def t_power(e, order):
    # t^e as a constant series.
    return z_monomial(RLaurent({e: GDIM_ONE}), 0, order)


def l0_l2(f):
    return [L0(c) for c in f.coeffs], [L2(c) for c in f.coeffs]


def paper_psi(d1, d2, order):
    # The paper's residue kernel (d1 z, d2 z) t^-1 + (1 - d1 z, -d2 z) + (-1, 0) t.
    dz = t_free([GDIM_ZERO, GDim(d1, d2)], order)
    return (dz * t_power(-1, order)
            + TZSeries.one(order) - dz
            - t_power(1, order))


def rand_tz(rng, order, bound):
    # Empty z-coefficients, negative t-exponents, nonzero odd parts.
    return TZSeries(order, [
        RLaurent({rng.randint(-4, 3): rand_gdim(rng, -bound, bound)
                  for _ in range(rng.randint(0, 4))})
        for _ in range(order + 1)
    ])


def series_product(f, g):
    """f * g through the reference Laurent product, summed per z-degree."""
    out = [RLAURENT_ZERO] * (f.order + 1)
    for i in range(f.order + 1):
        for j in range(f.order + 1 - i):
            out[i + j] = out[i + j] + laurent_product(f[i], g[j])
    return TZSeries(f.order, out)


def assert_canonical(f):
    # Sorted split terms (e, p, m) with (p, m) != (0, 0) and p = m (mod 2),
    # equal to the RLaurent rebuilt from their GDim values.
    for c in f.coeffs:
        rebuilt = RLaurent([(e, c[e]) for e, _, _ in c.terms])
        assert c == rebuilt
        assert hash(c) == hash(rebuilt)
        assert [e for e, _, _ in c.terms] == sorted({e for e, _, _ in c.terms})
        assert all((p or m) and (p - m) % 2 == 0 for _, p, m in c.terms)


class TestGDim:
    def test_multiplication_rule(self):
        # (a0, a1)(b0, b1) = (a0 b0 + a1 b1, a0 b1 + a1 b0)
        assert GDim(1, 2) * GDim(3, 4) == GDim(11, 10)
        assert GDIM_X * GDIM_X == GDIM_ONE
        for u in (GDIM_ONE, -GDIM_ONE, GDIM_X, -GDIM_X):
            assert u * u == GDIM_ONE

    def test_ring_axioms_random(self):
        rng = random.Random(0)
        for _ in range(200):
            a, b, c = (rand_gdim(rng) for _ in range(3))
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_truthiness_and_neg(self):
        assert not GDIM_ZERO
        assert GDim(0, 1)
        assert -GDim(1, -2) == GDim(-1, 2)

    def test_hash_agrees_with_int_equality(self):
        # GDim(n, 0) == n, so both must land in the same set or dict slot.
        assert GDim(1, 0) == 1 and 1 in {GDim(1, 0)}
        assert GDim(-3, 0) in {-3}
        assert len({GDim(0, 0), 0}) == 1
        assert {GDim(2, 0): "x"}[2] == "x"
        assert GDim(1, 1) not in {1} and len({GDim(0, 1), 0}) == 2


class TestRLaurent:
    def test_t_integer(self):
        # [m]_t = t^{m-1} + t^{m-3} + ... + t^{1-m}
        assert t_integer(1) == RLAURENT_ONE
        assert t_integer(2) == RLaurent({-1: GDIM_ONE, 1: GDIM_ONE})
        assert t_integer(3) == RLaurent({-2: GDIM_ONE, 0: GDIM_ONE, 2: GDIM_ONE})

    def test_t_integer_product_rule(self):
        # [2]_t [m]_t = [m+1]_t + [m-1]_t
        for m in range(2, 8):
            assert t_integer(2) * t_integer(m) == t_integer(m + 1) + t_integer(m - 1)

    def test_residue(self):
        # The residue is the t^-1 coefficient; L0 and L2 are differences of
        # the coefficients at t^0, t^-1 and t^-2.
        f = RLaurent({-1: GDim(3, 1), 0: GDim(9, 9), 2: GDim(1, 0)})
        assert f[-1] == GDim(3, 1)
        assert RLAURENT_ZERO[-1] == GDIM_ZERO
        assert L0(f) == GDim(6, 8)
        assert L2(f) == GDim(3, 1)

    def test_construction_from_pairs_and_mappings(self):
        # Pair lists sum duplicate exponents and drop zeros; any Mapping
        # reads as exponent -> coefficient.
        pairs = [(1, GDim(1, 2)), (0, 3), (1, GDim(-1, -2)), (0, GDim(1, 1))]
        # Terms hold the split coordinates (e + o, e - o) of each GDim.
        assert RLaurent(pairs).terms == ((0, 5, 3),)
        assert RLaurent(pairs)[0] == GDim(4, 1)
        assert RLaurent(MappingProxyType({2: 1, 0: GDIM_ZERO})).terms == ((2, 1, 1),)

    def test_symmetry(self):
        assert is_t_symmetric(t_integer(5))
        assert not is_t_symmetric(RLaurent({1: GDIM_ONE}))


class TestTZSeries:
    def test_from_super_and_residue_series(self):
        f = [GDim(n, 0) for n in range(5)]
        g = t_free(f, 4)
        assert residue_series(g) == [GDIM_ZERO] * 5
        h = g * t_power(-1, 4)
        assert residue_series(h) == f

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError):
            TZSeries.one(2) * TZSeries.one(3)

    def test_product_is_the_laurent_product(self):
        # Coefficients past 2**64 rule out a fixed-width shortcut.
        rng = random.Random(5)
        for bound in (5, 2**70):
            for _ in range(30):
                order = rng.randint(0, 5)
                f, g = rand_tz(rng, order, bound), rand_tz(rng, order, bound)
                h = f * g
                assert h == series_product(f, g)
                assert f[0] * g[0] == laurent_product(f[0], g[0])
                assert_canonical(h)

    def test_product_ring_axioms(self):
        rng = random.Random(6)
        for _ in range(30):
            f, g, h = (rand_tz(rng, 4, 2**70) for _ in range(3))
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h

    def test_product_drops_cancelled_terms(self):
        # (c + (u + r) z)(c - u z) has z-coefficient c r: the c u terms
        # cancel to exactly zero, in full when r = 0.
        rng = random.Random(7)
        for _ in range(30):
            c, u, r = (RLaurent({rng.randint(-3, 3): rand_gdim(rng, -2**70, 2**70)
                                 for _ in range(3)}) for _ in range(3))
            for rest in (r, RLAURENT_ZERO):
                f = TZSeries(2, [c, u + rest])
                g = TZSeries(2, [c, -u])
                h = f * g
                assert h == series_product(f, g)
                assert h[1] == c * rest
                assert h[2] == -(u + rest) * u
                assert_canonical(h)


class TestExtractors:
    def test_on_pure_t_powers(self):
        # L0 pairs against (t^-1 - 1): picks c_0 - c_{-1} per z-coefficient,
        # L2 pairs against (1 - t): picks c_{-1} - c_{-2}.
        f = TZSeries(2, [RLaurent({i: GDim(10 + i, 0) for i in range(-2, 3)})] * 3)
        l0, l2 = l0_l2(f)
        assert l0[0] == GDim(1, 0)
        assert l2[0] == GDim(1, 0)

    def test_on_t_integers(self):
        # L0 = c_0 - c_{-1}; L2 = c_{-1} - c_{-2} per z-coefficient.
        f = TZSeries(1, [t_integer(3), t_integer(2)])
        assert l0_l2(f) == ([GDIM_ONE, -GDIM_ONE], [-GDIM_ONE, GDIM_ONE])

    def test_linear(self):
        rng = random.Random(3)
        for _ in range(50):
            f = TZSeries(3, [
                RLaurent({rng.randint(-3, 3): rand_gdim(rng) for _ in range(3)})
                for _ in range(4)
            ])
            g = TZSeries(3, [
                RLaurent({rng.randint(-3, 3): rand_gdim(rng) for _ in range(3)})
                for _ in range(4)
            ])
            for lf, lg, lfg in zip(l0_l2(f), l0_l2(g), l0_l2(f + g)):
                assert lfg == [x + y for x, y in zip(lf, lg)]

    def test_functionals_are_the_residue_form(self):
        """L0, L2 and the single equation's L2 + D z L0 against the paper's
        residues, read as the t^-1 coefficient of the multiplied series."""
        rng = random.Random(4)
        order = 5
        t_inv_minus_one = t_power(-1, order) - TZSeries.one(order)
        one_minus_t = TZSeries.one(order) - t_power(1, order)
        for _ in range(50):
            f = TZSeries(order, [
                RLaurent({rng.randint(-3, 3): rand_gdim(rng) for _ in range(3)})
                for _ in range(order + 1)
            ])
            d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
            l0, l2 = l0_l2(f)
            assert residue_series(t_inv_minus_one * f) == l0
            assert residue_series(one_minus_t * f) == l2
            single = [l2[0]] + [l2[n] + GDim(d1, d2) * l0[n - 1] for n in range(1, order + 1)]
            assert residue_series(paper_psi(d1, d2, order) * f) == single
