import random
from itertools import combinations_with_replacement

from freejordan.lambda_ops import (
    lambda_adjoint_series,
    phi_line,
    phi_series,
)
from freejordan.rings import GDIM_ONE, GDIM_ZERO, RLAURENT_ONE, GDim, RLaurent, TZSeries
from reference import (
    adjoint_even_line,
    adjoint_odd_line,
    lambda_direct,
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
    """k-th power of the even adjoint line: the factor of Phi at (k, 0), (-k, 0)."""
    return phi_line(GDim(k, 0), GDim(-k, 0), m, order)


def adjoint_odd_pow(m: int, k: int, order: int) -> TZSeries:
    """k-th power of the odd adjoint line: the factor of Phi at (0, k), (0, -k)."""
    return phi_line(GDim(0, k), GDim(0, -k), m, order)


class TestAdjointLines:
    def test_odd_line_closed_form(self):
        # The explicit t-integer sum equals the four-factor closed form,
        # checked deep (order 30).
        for m in (1, 2, 3):
            assert adjoint_odd_pow(m, 1, 30) == adjoint_odd_line(m, 30)

    def test_even_line_closed_form(self):
        for m in (1, 2, 3):
            assert adjoint_even_pow(m, 1, 12) == adjoint_even_line(m, 12)

    def test_pow_consistency(self):
        for k in (2, 3, -1, -2):
            direct = adjoint_odd_pow(1, k, 8)
            if k > 0:
                expect = TZSeries.one(8)
                for _ in range(k):
                    expect = expect * adjoint_odd_line(1, 8)
            else:
                expect = series_power(adjoint_odd_line(1, 8), k)
            assert direct == expect

    def test_even_times_inverse(self):
        f = adjoint_even_pow(2, 5, 10) * adjoint_even_pow(2, -5, 10)
        assert f == TZSeries.one(10)


class TestFactorTable:
    def test_phi_line_is_product_of_reference_lines(self):
        """phi_line(an, bn, n) = even^s_e odd^s_o adj_even^a_e adj_odd^a_o,
        s = an + bn, on a grid of virtual classes; the reference lines come
        from the closed forms and from basis enumeration, not the table."""
        order = 6
        grid = [GDim(e, o) for e in range(-1, 3) for o in range(-1, 3)]
        for n in (1, 2):
            lines = (
                TZSeries.one(order) - z_monomial(RLAURENT_ONE, n, order),
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


def paper_psi(d1: int, d2: int, order: int) -> TZSeries:
    # The paper's residue kernel (d1 z, d2 z) t^-1 + (1 - d1 z, -d2 z) + (-1, 0) t;
    # the solvers read its residue as L2 + D z L0 instead.
    dz = t_free([GDIM_ZERO, GDim(d1, d2)], order)
    t = z_monomial(RLaurent({1: GDIM_ONE}), 0, order)
    t_inv = z_monomial(RLaurent({-1: GDIM_ONE}), 0, order)
    return dz * t_inv + TZSeries.one(order) - dz - t


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
