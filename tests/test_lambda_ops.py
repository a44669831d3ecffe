import copy
import random
from itertools import combinations_with_replacement

import pytest

from freejordan import cli, lambda_ops
from freejordan.lambda_ops import (
    PhiKernel,
    lambda_adjoint_series,
    phi_series,
)
from freejordan.rings import GDIM_ONE, GDIM_ZERO, L0, L2, RLAURENT_ONE, GDim, RLaurent, TZSeries
from reference import (
    adjoint_even_line,
    adjoint_odd_line,
    lambda_direct,
    line_product,
    phi_line,
    series_one,
    series_power,
    t_free,
    t_integer,
    z_monomial,
)


def series_from_pieces(pieces, order):
    """The z^1..z^order coefficients of sum g z^m over the pieces (g, m)."""
    coeffs = [GDIM_ZERO] * order
    for g, m in pieces:
        coeffs[m - 1] = coeffs[m - 1] + g
    return tuple(coeffs)


def add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def plain_lambda(c):
    """lambda(c) = Phi(0, c), whose line factors are t-free."""
    return phi_series([GDIM_ZERO] * len(c), c)


def t_component(f: TZSeries, i: int) -> list:
    return [c[i] for c in f.coeffs]


class TestLambdaLine:
    def test_single_even_vector(self):
        # One even vector in degree m: lambda = 1 - z^m.
        f = plain_lambda(series_from_pieces([(GDim(1, 0), 2)], 8))
        assert f == t_free([GDIM_ONE, GDIM_ZERO, -GDIM_ONE], 8)

    def test_single_odd_vector(self):
        # One odd vector: alternating tail 1 - (0,1)z^m + z^{2m} - ...
        f = plain_lambda(series_from_pieces([(GDim(0, 1), 1)], 6))
        expect = [GDIM_ONE, GDim(0, -1), GDIM_ONE, GDim(0, -1),
                  GDIM_ONE, GDim(0, -1), GDIM_ONE]
        assert f == t_free(expect, 6)

    def test_against_direct_enumeration(self):
        """Closed forms agree with brute-force basis enumeration for every
        graded superspace with at most 4 basis vectors in degrees <= 4."""
        order = 8
        slots = [(par, m) for par in (0, 1) for m in range(1, 5)]
        for total in range(1, 5):
            for chosen in combinations_with_replacement(slots, total):
                pieces = {}
                for par, m in chosen:
                    g = pieces.get(m, GDIM_ZERO)
                    pieces[m] = g + (GDim(1, 0) if par == 0 else GDim(0, 1))
                piece_list = [(g, m) for m, g in pieces.items()]
                direct = lambda_direct(piece_list, order)
                closed = plain_lambda(series_from_pieces(piece_list, order))
                assert direct == closed, f"mismatch for pieces {piece_list}"

    def test_homomorphism_random(self):
        """Phi(a + c, b + d) = Phi(a, b) Phi(c, d) on random effective pairs."""
        rng = random.Random(11)
        order = 10

        def rand():
            return tuple(GDim(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(order))

        for _ in range(100):
            a, b, c, d = rand(), rand(), rand(), rand()
            assert phi_series(add(a, c), add(b, d)) == phi_series(a, b) * phi_series(c, d)


def adjoint_even_pow(m: int, k: int, order: int) -> TZSeries:
    """k-th power of the even adjoint line: the reference factor of Phi at (k, 0), (-k, 0)."""
    return phi_line(GDim(k, 0), GDim(-k, 0), m, order)


def adjoint_odd_pow(m: int, k: int, order: int) -> TZSeries:
    """k-th power of the odd adjoint line: the reference factor of Phi at (0, k), (0, -k)."""
    return phi_line(GDim(0, k), GDim(0, -k), m, order)


class TestAdjointLines:
    def test_odd_line_closed_form(self):
        # The explicit t-integer sum equals the four-factor closed form and
        # the kernel's Psi of one odd vector, checked deep (order 30).
        for m in (1, 2, 3):
            assert adjoint_odd_pow(m, 1, 30) == adjoint_odd_line(m, 30)
            one_odd = [GDIM_ZERO] * 30
            one_odd[m - 1] = GDim(0, 1)
            assert lambda_adjoint_series(one_odd) == adjoint_odd_line(m, 30)

    def test_even_line_closed_form(self):
        for m in (1, 2, 3):
            assert adjoint_even_pow(m, 1, 12) == adjoint_even_line(m, 12)

    def test_pow_consistency(self):
        for k in (2, 3, -1, -2):
            direct = adjoint_odd_pow(1, k, 8)
            if k > 0:
                expect = series_one(8)
                for _ in range(k):
                    expect = expect * adjoint_odd_line(1, 8)
            else:
                expect = series_power(adjoint_odd_line(1, 8), k)
            assert direct == expect

    def test_even_times_inverse(self):
        f = adjoint_even_pow(2, 5, 10) * adjoint_even_pow(2, -5, 10)
        assert f == series_one(10)


class TestFactorTable:
    def test_phi_line_is_product_of_reference_lines(self):
        """phi_line(an, bn, n) = even^s_e odd^s_o adj_even^a_e adj_odd^a_o,
        s = an + bn, on a grid of virtual classes; the reference lines come
        from the closed forms and from basis enumeration, not the table."""
        order = 6
        grid = [GDim(e, o) for e in range(-1, 3) for o in range(-1, 3)]
        for n in (1, 2):
            lines = (
                series_one(order) - z_monomial(RLAURENT_ONE, n, order),
                lambda_direct([(GDim(0, 1), n)], order),
                adjoint_even_line(n, order),
                adjoint_odd_line(n, order),
            )
            power = {(i, k): series_power(line, k) for i, line in enumerate(lines) for k in range(-2, 5)}
            for an in grid:
                for bn in grid:
                    s = an + bn
                    expect = (power[0, s.even] * power[1, s.odd]
                              * power[2, an.even] * power[3, an.odd])
                    assert phi_line(an, bn, n, order) == expect, (an, bn, n)


class TestKernel:
    """The plethystic exponential against the closed-form line product."""

    def test_phi_series_is_the_line_product(self):
        # Virtual classes included: negative entries in a and in b, so the
        # generalized binomial series of every line is exercised.
        rng = random.Random(17)
        for _ in range(60):
            order = rng.randint(1, 8)
            a = tuple(GDim(rng.randint(-2, 3), rng.randint(-2, 3)) for _ in range(order))
            b = tuple(GDim(rng.randint(-3, 2), rng.randint(-3, 2)) for _ in range(order))
            assert phi_series(a, b) == line_product(a, b), (a, b)
        with pytest.raises(ValueError, match="mismatched truncation orders 2 != 1"):
            phi_series((GDIM_ONE, GDIM_ZERO), (GDIM_ONE,))

    def test_doubled_log_terms_square_the_line(self, monkeypatch):
        # The solver tests plant a wrong line this way.
        line_log = lambda_ops.line_log
        monkeypatch.setattr(
            lambda_ops, "line_log",
            lambda an, bn, n, order: [(j, e, 2 * p, 2 * m) for j, e, p, m in line_log(an, bn, n, order)],
        )
        for an, bn, n in [(GDim(1, 1), GDim(0, 1), 1), (GDim(2, -1), GDim(-1, 3), 2)]:
            a, b = [GDIM_ZERO] * 6, [GDIM_ZERO] * 6
            a[n - 1], b[n - 1] = an, bn
            assert phi_series(a, b) == series_power(phi_line(an, bn, n, 6), 2)

    def test_stepping_equals_the_whole_series(self):
        # A solver's order of calls: read z^n, then add line n, which
        # completes z^n.
        a = (GDim(1, 2), GDim(-1, 0), GDim(0, 3), GDim(2, -1), GDim(1, 1))
        b = (GDim(0, -1), GDim(2, 2), GDim(-1, 1), GDim(0, 0), GDim(3, 0))
        whole = phi_series(a, b)
        phi = PhiKernel(5)
        for n, (an, bn) in enumerate(zip(a, b), start=1):
            before = line_product(a[:n - 1] + (GDIM_ZERO,) * (6 - n), b[:n - 1] + (GDIM_ZERO,) * (6 - n))
            ahead = copy.deepcopy(phi)  # completes z^n without line n
            ahead.add(GDIM_ZERO, GDIM_ZERO)
            assert ahead[n] == before[n]
            phi.add(an, bn)
            assert phi[n] == whole[n]
        assert phi.series() == whole

    def test_residues_equal_the_line_products(self):
        # The solvers' reads: (L0, L2) of z^n before line n is added, and of
        # z^n once completed, on random virtual classes.
        rng = random.Random(23)
        for _ in range(30):
            order = rng.randint(1, 9)
            a = tuple(GDim(rng.randint(-2, 3), rng.randint(-2, 3)) for _ in range(order))
            b = tuple(GDim(rng.randint(-3, 2), rng.randint(-3, 2)) for _ in range(order))
            phi = PhiKernel(order)
            for n in range(1, order + 1):
                pad = (GDIM_ZERO,) * (order + 1 - n)
                before = line_product(a[:n - 1] + pad, b[:n - 1] + pad)[n]
                assert phi.pending_residues() == (L0(before), L2(before)), (a, b, n)
                phi.add(a[n - 1], b[n - 1])
                after = line_product(a[:n] + pad[1:], b[:n] + pad[1:])[n]
                assert phi.residues(n) == (L0(after), L2(after)), (a, b, n)
            assert phi.residues(0) == (GDIM_ONE, GDIM_ZERO)

    @staticmethod
    def _wide_classes(seed, order):
        # Virtual classes of both signs with entries beyond 2^64: the packed
        # width starts at one word and is widened many times in a run.
        rng = random.Random(seed)

        def big():
            return rng.choice((-1, 1)) * rng.randint(2**64, 2**66)

        a = tuple(GDim(big(), big()) for _ in range(order))
        b = tuple(GDim(big(), big()) for _ in range(order))
        return a, b

    def test_wide_entries_match_the_line_product(self):
        # phi_series, pending_residues and residues against the line product
        # at order 20, through every widening of the packed digits.
        order = 20
        a, b = self._wide_classes(29, order)
        expect = series_one(order)  # lines 1..n-1 at the start of step n
        phi = PhiKernel(order)
        widths = {phi._p.width}
        for n in range(1, order + 1):
            assert phi.pending_residues() == (L0(expect[n]), L2(expect[n])), n
            phi.add(a[n - 1], b[n - 1])
            expect = expect * phi_line(a[n - 1], b[n - 1], n, order)
            widths.add(phi._p.width)
            assert phi[n] == expect[n], n
            assert phi.residues(n) == (L0(expect[n]), L2(expect[n])), n
        assert len(widths) > 3
        assert phi.series() == expect == line_product(a, b) == phi_series(a, b)

    def test_a_copy_taken_before_a_widening_continues(self):
        order = 20
        a, b = self._wide_classes(31, order)
        phi = PhiKernel(order)
        for an, bn in zip(a[:5], b[:5]):
            phi.add(an, bn)
        ahead = copy.deepcopy(phi)
        width = phi._p.width
        for an, bn in zip(a[5:], b[5:]):
            phi.add(an, bn)
        assert phi.series() == line_product(a, b)
        assert phi._p.width > width == ahead._p.width
        for an, bn in zip(a[5:], b[5:]):
            ahead.add(an, bn)
        assert ahead.series() == phi.series()

    def test_non_integral_log_term_raises(self, monkeypatch, capsys):
        # One stray unit in 2 L_2: 2 P_2 is then odd, and the exact division
        # by 2 refuses it instead of truncating.
        line_log = lambda_ops.line_log
        monkeypatch.setattr(
            lambda_ops, "line_log",
            lambda an, bn, n, order: line_log(an, bn, n, order) + ([(2, 0, 1, 1)] if n == 1 < order else []),
        )
        with pytest.raises(AssertionError, match="z\\^2 coefficient of Phi is not integral"):
            phi_series((GDim(1, 0), GDIM_ZERO), (GDIM_ZERO, GDIM_ZERO))
        assert cli.main(["solve", "--d1", "1", "--d2", "1", "--order", "4"]) == cli.EXIT_INTERNAL
        assert "not integral" in capsys.readouterr().err

    def test_asymmetric_log_term_raises(self, monkeypatch):
        # The kernel computes t^-n..t^0 and mirrors it, which is exact only
        # for a t-symmetric log; a stray t^1 term in 2 L_2 is refused, not
        # mirrored.
        line_log = lambda_ops.line_log
        monkeypatch.setattr(
            lambda_ops, "line_log",
            lambda an, bn, n, order: line_log(an, bn, n, order) + ([(2, 1, 2, 2)] if n == 1 < order else []),
        )
        with pytest.raises(AssertionError, match="z\\^2 log term of Phi at t\\^1 is not t-symmetric"):
            phi_series((GDim(1, 0), GDIM_ZERO), (GDIM_ZERO, GDIM_ZERO))


def paper_psi(d1: int, d2: int, order: int) -> TZSeries:
    # The paper's residue kernel (d1 z, d2 z) t^-1 + (1 - d1 z, -d2 z) + (-1, 0) t;
    # the solvers read its residue as L2 + D z L0 instead.
    dz = t_free([GDIM_ZERO, GDim(d1, d2)], order)
    t = z_monomial(RLaurent({1: GDIM_ONE}), 0, order)
    t_inv = z_monomial(RLaurent({-1: GDIM_ONE}), 0, order)
    return dz * t_inv + series_one(order) - dz - t


class TestCharacterProducts:
    def test_residue_kernel_shape(self):
        psi = paper_psi(2, 3, 5)
        assert psi.coeffs[0] == RLaurent({0: GDIM_ONE, 1: GDim(-1, 0)})
        assert psi.coeffs[1] == RLaurent({-1: GDim(2, 3), 0: GDim(-2, -3)})
        assert all(not psi.coeffs[n] for n in range(2, 6))

    def test_phi_factorization(self):
        # Phi = Theta * Psi identically.
        rng = random.Random(13)
        for _ in range(20):
            order = 6
            a = tuple(GDim(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(order))
            b = tuple(GDim(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(order))
            lhs = phi_series(a, b)
            rhs = lambda_adjoint_series(a) * plain_lambda(add(a, b))
            assert lhs == rhs


def poly(order, **terms):
    # poly(4, z0=(1,0), z2=(4,0)) -> 1 + 4z^2
    coeffs = [GDIM_ZERO] * (order + 1)
    for key, val in terms.items():
        coeffs[int(key[1:])] = GDim(*val)
    return coeffs


class TestHandExpansions:
    """t-components of the adjoint character product, against hand values."""

    def test_one_odd_generator(self):
        # a = (0,1)z only: Psi = (sum [2i+1] z^{2i}, -sum [2i+2] z^{2i+1}).
        order = 9
        a = series_from_pieces([(GDim(0, 1), 1)], order)
        psi = lambda_adjoint_series(a)
        for n in range(order + 1):
            expect = t_integer(n + 1) * (GDIM_ONE if n % 2 == 0 else GDim(0, -1))
            assert psi.coeffs[n] == expect
        # t-components: 1/(1-z^2) patterns
        assert t_component(psi, 0) == poly(
            order, z0=(1, 0), z2=(1, 0), z4=(1, 0), z6=(1, 0), z8=(1, 0)
        )
        assert t_component(psi, -1) == poly(
            order, z1=(0, -1), z3=(0, -1), z5=(0, -1), z7=(0, -1), z9=(0, -1)
        )
        assert t_component(psi, -2) == poly(
            order, z2=(1, 0), z4=(1, 0), z6=(1, 0), z8=(1, 0)
        )

    def test_two_odd_generators(self):
        # a = (0,2),(1,0),(0,2),(5,0): hand expansion mod z^5.
        a = (GDim(0, 2), GDim(1, 0), GDim(0, 2), GDim(5, 0))
        psi = lambda_adjoint_series(a)
        assert t_component(psi, 0) == poly(4, z0=(1, 0), z2=(4, 0), z3=(0, 4), z4=(18, 0))
        assert t_component(psi, -1) == poly(4, z1=(0, -2), z2=(-1, 0), z3=(0, -8), z4=(-12, 0))
        assert t_component(psi, -2) == poly(4, z2=(3, 0), z3=(0, 2), z4=(12, 0))

    def test_mixed_generators(self):
        # a = (1,1),(1,1),(2,2),(3,3): hand expansion mod z^5.
        a = (GDim(1, 1), GDim(1, 1), GDim(2, 2), GDim(3, 3))
        psi = lambda_adjoint_series(a)
        assert t_component(psi, 0) == poly(
            4, z0=(1, 0), z2=(2, 2), z3=(4, 4), z4=(12, 12)
        )
        assert t_component(psi, -1) == poly(
            4, z1=(-1, -1), z2=(-1, -1), z3=(-4, -4), z4=(-9, -9)
        )
        assert t_component(psi, -2) == poly(
            4, z2=(1, 1), z3=(2, 2), z4=(7, 7)
        )
