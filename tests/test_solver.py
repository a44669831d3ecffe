import hashlib
import json
import random

import pytest

from freejordan import cli, lambda_ops
from freejordan.rings import GDIM_ZERO, GDim
from freejordan.solver import (
    SolverStepError,
    residual_series,
    solve_dims,
    solve_dims_pair,
    vanishing_order,
)
from reference import pair_residuals, single_residuals


def doubled_lines(monkeypatch, from_degree):
    """Double the log terms of every line of degree >= from_degree in the
    kernel: that squares the line, series_power(line, 2) in the reference."""
    line_log = lambda_ops.line_log

    def doubled(an, bn, n, order):
        k = 2 if n >= from_degree else 1
        return [(j, e, k * p, k * m) for j, e, p, m in line_log(an, bn, n, order)]

    monkeypatch.setattr(lambda_ops, "line_log", doubled)


class TestSolveDims:
    def test_one_odd_generator(self):
        rep = solve_dims(0, 1, 10)
        assert rep.a[0] == GDim(0, 1)
        assert all(c == GDIM_ZERO for c in rep.a[1:])
        assert rep.residual_order == 11

    def test_two_odd_generators(self):
        rep = solve_dims(0, 2, 4)
        assert rep.a == (GDim(0, 2), GDim(1, 0), GDim(0, 2), GDim(5, 0))

    def test_mixed_generators(self):
        rep = solve_dims(1, 1, 4)
        assert rep.a == (GDim(1, 1), GDim(1, 1), GDim(2, 2), GDim(3, 3))

    def test_one_even_generator(self):
        rep = solve_dims(1, 0, 8)
        assert all(c == GDim(1, 0) for c in rep.a)

    def test_two_even_generators_deep(self):
        # Reproduces the Jordan-algebra benchmark: residue vanishes mod z^16.
        rep = solve_dims(2, 0, 15)
        assert rep.residual_order == 16
        assert rep.a[:8] == (
            GDim(2, 0), GDim(3, 0), GDim(6, 0), GDim(10, 0),
            GDim(20, 0), GDim(36, 0), GDim(72, 0), GDim(136, 0),
        )

    def test_step_matrices_are_minus_identity(self):
        # The linearization at each degree is -I: the residue moves
        # one-for-one against the unknown coefficient.  The solver raises
        # unless the slope it reads off the degree-1 line is that constant.
        rep = solve_dims(1, 2, 6)
        assert rep.residual_order == 7

    def test_bad_args(self):
        with pytest.raises(ValueError):
            solve_dims(0, 0, 3)
        with pytest.raises(ValueError):
            solve_dims(1, 1, 0)
        with pytest.raises(ValueError):
            solve_dims(-1, 2, 3)


class TestResidualSeries:
    def test_vanishes_on_solution(self):
        rep = solve_dims(0, 2, 6)
        res = residual_series(rep.a, 0, 2)
        assert vanishing_order(res) == 7

    def test_nonzero_on_wrong_dims(self):
        wrong = (GDim(0, 2), GDim(2, 0), GDim(0, 2))
        res = residual_series(wrong, 0, 2)
        assert vanishing_order(res) <= 3

    def test_vanishing_order(self):
        f = [GDIM_ZERO] * 3 + [GDim(0, 2)] + [GDIM_ZERO] * 5
        assert vanishing_order(f) == 3
        assert vanishing_order([GDIM_ZERO] * 6) == 6

    def test_solver_output_feeds_the_residuals(self):
        # A report's coefficient tuple is the residuals' input as it stands.
        res = residual_series(solve_dims(0, 2, 6).a, 0, 2)
        assert res == [GDIM_ZERO] * 7
        rep = solve_dims_pair(1, 1, 6)
        assert pair_residuals(rep.a, rep.b, 1, 1) == ([GDIM_ZERO] * 7, [GDIM_ZERO] * 7)

    def test_equals_the_whole_series_route_on_virtual_classes(self):
        rng = random.Random(41)
        for _ in range(40):
            order = rng.randint(1, 12)
            a = [GDim(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(order)]
            d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
            assert residual_series(a, d1, d2) == single_residuals(a, d1, d2), (a, d1, d2)

    def test_equals_the_whole_series_route_on_perturbed_solutions(self):
        for d1, d2, order in [(1, 1, 8), (0, 2, 9), (2, 0, 10), (2, 1, 7)]:
            a = list(solve_dims(d1, d2, order).a)
            for k in range(1, order + 1):
                wrong = a[:k - 1] + [a[k - 1] + GDim(1, -1)] + a[k:]
                res = residual_series(wrong, d1, d2)
                assert res == single_residuals(wrong, d1, d2), (d1, d2, k)
                assert vanishing_order(res) == k

    # sha256 of the residual of a solution with a_k raised by (1, -1), deep
    # enough that the kernel's packed width grows; recorded before the
    # residual was read off the kernel's ints.
    DEEP_RESIDUALS = {
        (2, 1, 30, 10): "c32ed31c812d09b6c6635d48451bb91c9cff048b00b93c70369958826271f2b9",
        (0, 3, 30, 7): "355222d5e1475f735258a954268e51874990277ab65f487cc84bf4ea1152e5e9",
        (3, 0, 40, 12): "7a7595e58945b8b1322d8cae87a6446397fe711cf1e9675b4722cbe8c0215f4b",
        (1, 2, 40, 5): "db83ec08e1568fd7447ce10398ecf35189ebf1ae06f0cba43b509b0b100c589d",
    }

    @pytest.mark.parametrize("shape", sorted(DEEP_RESIDUALS), ids=lambda s: "-".join(map(str, s)))
    def test_deep_residual_is_pinned(self, shape):
        d1, d2, order, k = shape
        a = list(solve_dims(d1, d2, order).a)
        a[k - 1] += GDim(1, -1)
        res = residual_series(a, d1, d2)
        text = json.dumps([[str(g.even), str(g.odd)] for g in res], separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == self.DEEP_RESIDUALS[shape]
        assert vanishing_order(res) == k

    def test_negative_generator_count_is_refused(self):
        a = solve_dims(1, 1, 3).a
        for d1, d2 in [(-1, 2), (1, -1)]:
            with pytest.raises(ValueError, match="generator counts"):
                residual_series(a, d1, d2)
            with pytest.raises(ValueError, match="generator counts"):
                pair_residuals(a, a, d1, d2)


class TestSolveDimsPair:
    def test_one_odd_generator(self):
        rep = solve_dims_pair(0, 1, 8)
        assert rep.a[0] == GDim(0, 1)
        assert all(c == GDIM_ZERO for c in rep.a[1:])
        assert rep.b[1] == GDim(1, 0)
        assert all(c == GDIM_ZERO for i, c in enumerate(rep.b) if i != 1)
        assert rep.residual_order == 9

    def test_agrees_with_single_equation(self):
        # (3|0) at order 25 drives the product coefficients to 48 bits.
        for d1, d2, order in [(1, 1, 8), (0, 2, 8), (2, 0, 8), (2, 1, 8), (3, 0, 25)]:
            pair = solve_dims_pair(d1, d2, order)
            single = solve_dims(d1, d2, order)
            assert pair.a == single.a, (d1, d2, order)

    def test_defects_vanish_on_solution(self):
        rep = solve_dims_pair(1, 1, 6)
        e1, e2 = pair_residuals(rep.a, rep.b, 1, 1)
        assert vanishing_order(e1) == 7
        assert vanishing_order(e2) == 7

    def test_step_matrices_invertible(self):
        # L0 moves against b_n and L2 against a_n, one-for-one and parity
        # by parity: a signed permutation, the same at every degree.  The
        # solver raises unless the slope it reads is that permutation.
        for d1, d2 in [(2, 1), (0, 1), (1, 0), (1, 1), (0, 3)]:
            rep = solve_dims_pair(d1, d2, 5)
            assert rep.residual_order == 6, (d1, d2)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            solve_dims_pair(0, 0, 2)
        with pytest.raises(ValueError):
            solve_dims_pair(1, 0, -1)


class TestStepConstant:
    """A line factor whose slope is not the known constant is refused."""

    def test_wrong_single_slope(self, monkeypatch, capsys):
        doubled_lines(monkeypatch, 1)
        with pytest.raises(SolverStepError, match="step linearization"):
            solve_dims(1, 1, 4)
        assert cli.main(["solve", "--d1", "1", "--d2", "1", "--order", "4"]) == cli.EXIT_DISCREPANCY
        assert "solver step failed" in capsys.readouterr().err

    def test_wrong_pair_slope(self, monkeypatch):
        doubled_lines(monkeypatch, 1)
        with pytest.raises(SolverStepError, match="step linearization"):
            solve_dims_pair(1, 1, 4)


class TestResidualGate:
    """A line that is wrong only above degree 1 passes the slope check; the
    residual read off the final product must still refuse it.  The kernel
    completes each z^n coefficient from the line's own log terms, so a
    solver that completed it from the slope's prediction would pass here."""

    @pytest.fixture(autouse=True)
    def wrong_above_degree_1(self, monkeypatch):
        doubled_lines(monkeypatch, 2)

    def test_single_equation_raises_at_first_nonzero_degree(self):
        with pytest.raises(SolverStepError, match="at z\\^2 is not zero") as exc:
            solve_dims(1, 1, 6)
        assert exc.value.step == 2

    def test_pair_system_raises_at_first_nonzero_degree(self):
        with pytest.raises(SolverStepError, match="at z\\^2 is not zero") as exc:
            solve_dims_pair(1, 1, 6)
        assert exc.value.step == 2

    @pytest.mark.parametrize("command", ["solve", "solve-ab"])
    def test_cli_exits_with_discrepancy(self, command, capsys):
        argv = [command, "--d1", "1", "--d2", "1", "--order", "6"]
        assert cli.main(argv) == cli.EXIT_DISCREPANCY
        captured = capsys.readouterr()
        assert "step 2" in captured.err and captured.out == ""
