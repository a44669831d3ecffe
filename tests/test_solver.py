import pytest

from freejordan import cli, solver
from freejordan.rings import GDIM_ZERO, GDim
from freejordan.solver import (
    SolverStepError,
    residual_series,
    solve_dims,
    solve_dims_pair,
    vanishing_order,
)
from reference import pair_residuals, series_power


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
        # one-for-one against the unknown coefficient.
        rep = solve_dims(1, 2, 6)
        assert rep.step_matrix == ((-1, 0), (0, -1))

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
        # by parity: a signed permutation, the same at every degree.
        perm = ((0, 0, -1, 0), (0, 0, 0, -1), (-1, 0, 0, 0), (0, -1, 0, 0))
        for d1, d2 in [(2, 1), (0, 1), (1, 0), (1, 1), (0, 3)]:
            rep = solve_dims_pair(d1, d2, 5)
            assert rep.step_matrix == perm, (d1, d2)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            solve_dims_pair(0, 0, 2)
        with pytest.raises(ValueError):
            solve_dims_pair(1, 0, -1)


class TestStepConstant:
    """A line factor whose slope is not the known constant is refused."""

    def test_wrong_single_slope(self, monkeypatch, capsys):
        line = solver.phi_line
        monkeypatch.setattr(solver, "phi_line", lambda a, b, m, order: series_power(line(a, b, m, order), 2))
        with pytest.raises(SolverStepError, match="step linearization"):
            solve_dims(1, 1, 4)
        assert cli.main(["solve", "--d1", "1", "--d2", "1", "--order", "4"]) == cli.EXIT_DISCREPANCY
        assert "solver step failed" in capsys.readouterr().err

    def test_wrong_pair_slope(self, monkeypatch):
        line = solver.phi_line
        monkeypatch.setattr(solver, "phi_line", lambda a, b, m, order: series_power(line(a, b, m, order), 2))
        with pytest.raises(SolverStepError, match="step linearization"):
            solve_dims_pair(1, 1, 4)


class TestResidualGate:
    """A line that is wrong only above degree 1 passes the slope check; the
    residual read off the final product must still refuse it."""

    @pytest.fixture(autouse=True)
    def wrong_above_degree_1(self, monkeypatch):
        line = solver.phi_line
        monkeypatch.setattr(
            solver, "phi_line",
            lambda a, b, m, order: series_power(line(a, b, m, order), 2 if m >= 2 else 1),
        )

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
