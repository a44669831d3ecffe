import dataclasses
import json
from fractions import Fraction

import pytest

from freejordan import cli, jordan, tag
from freejordan.jordan import GradedJordanAlgebra
from freejordan.rings import GDim


def _first_entry(payload):
    vec = next(vec for row in payload["tables"]["1,1"] for vec in row if vec)
    return vec[0]


def _wrong_parity_term(payload):
    """Add to x_0.y_0 in the (1, 3) table a term of the other parity."""
    par = payload["parities"]
    vec = payload["tables"]["1,3"][0][0]
    want = par["1"][0] ^ par["3"][0]
    k = next(k for k, q in enumerate(par["4"]) if q != want)
    vec.append([k, "1"])
    vec.sort(key=lambda term: term[0])


def _edit_terms(edit):
    """Apply ``edit`` to the two-term entry x_0.y_2 of the (1, 3) table."""
    return lambda payload: edit(payload["tables"]["1,3"][0][2])


# Edits of a cached (1|1)@4 payload that keep it valid JSON of the right shape
# at the top level; the sha256 is recomputed after each.
MALFORMED = {
    "zero-denominator": lambda p: _first_entry(p).__setitem__(1, "1/0"),
    "index-beyond-dim": lambda p: _first_entry(p).__setitem__(0, 99),
    "short-table": lambda p: p["tables"]["1,2"][0].pop(),
    "missing-table": lambda p: p["tables"].pop("1,3"),
    "missing-labels": lambda p: p["labels"]["3"].pop(),
    "missing-degree": lambda p: p["parities"].pop("4"),
    "format-version": lambda p: p.__setitem__("format_version", 1),
    "parities-not-an-object": lambda p: p.__setitem__("parities", list(p["parities"].values())),
    "parity-out-of-range": lambda p: p["parities"]["2"].__setitem__(0, 2),
    "generator-parities": lambda p: p["parities"].__setitem__("1", [0, 0]),
    "term-parity": _wrong_parity_term,
    # The three breaches of the held Vector form: a repeated index, an
    # explicit zero coefficient (index 4 has the entry's parity), and terms
    # out of order.
    "repeated-index": _edit_terms(lambda vec: vec.append(list(vec[-1]))),
    "zero-coefficient": _edit_terms(lambda vec: vec.insert(1, [4, "0"])),
    "unsorted-terms": _edit_terms(list.reverse),
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSolveCommand:
    def test_golden_table(self, capsys):
        code, out, _ = run(capsys, "solve", "--d1", "0", "--d2", "2", "--order", "4")
        assert code == 0
        assert "(0,2)" in out and "(5,0)" in out
        assert "residual vanishes through z^4" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--d1", "1", "--d2", "1", "--order", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["a"] == [["1", "1"], ["1", "1"], ["2", "2"], ["3", "3"]]
        assert payload["residual_ok_through"] == 5
        assert payload["config"]["command"] == "solve"

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--d1", "1", "--d2", "0", "--order", "3",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,even,odd"
        assert lines[1:] == ["1,1,0", "2,1,0", "3,1,0"]

    def test_zero_generators_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve", "--d1", "0", "--d2", "0", "--order", "3"])
        assert exc.value.code == 2

    def test_bad_order(self, capsys):
        code, _, err = run(capsys, "solve", "--d1", "1", "--d2", "0", "--order", "0")
        assert code == cli.EXIT_USAGE
        assert "usage error" in err


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ["oracle", "--max-degree", "0"],
        ["verify", "--max-degree", "-1"],
        ["homology", "--rmax", "2", "--dmax", "0"],
    ], ids=["oracle-max-degree", "verify-max-degree", "dmax"])
    def test_out_of_range_argument_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv[:1], "--d1", "1", "--d2", "1", *argv[1:])
        assert code == cli.EXIT_USAGE
        assert "usage error" in err

    def test_internal_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        def broken(alg, n):
            raise ValueError("broken")

        monkeypatch.setattr(cli, "build_tag", broken)
        code, _, err = run(capsys, "oracle", "--d1", "0", "--d2", "1", "--max-degree", "3")
        assert code == cli.EXIT_INTERNAL
        assert "usage error" not in err

    @pytest.mark.parametrize("command", ["solve", "solve-ab"])
    @pytest.mark.parametrize("flag", [["--budget", "7"], ["--cache-dir", "cache"]], ids=["budget", "cache-dir"])
    def test_construction_flags_are_refused(self, capsys, command, flag):
        # The solvers construct nothing, so they take neither flag.
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--d1", "1", "--d2", "0", "--order", "3", *flag])
        assert exc.value.code == cli.EXIT_USAGE
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


class TestSolveAbCommand:
    def test_golden(self, capsys):
        code, out, _ = run(
            capsys, "solve-ab", "--d1", "0", "--d2", "1", "--order", "6",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["a"][0] == ["0", "1"]
        assert all(c == ["0", "0"] for c in payload["a"][1:])
        assert payload["b"][1] == ["1", "0"]
        assert all(c == ["0", "0"] for i, c in enumerate(payload["b"]) if i != 1)


class TestOracleCommand:
    def test_report_contents(self, capsys):
        code, out, _ = run(capsys, "oracle", "--d1", "0", "--d2", "1", "--max-degree", "5")
        assert code == 0
        assert "dim J_1 = (0,1)" in out
        assert "dim Bs_2 = (1,0)" in out
        assert "rank Inn_2 >= (0,0)" in out

    def test_cache_determinism(self, capsys, tmp_path):
        args = ["oracle", "--d1", "1", "--d2", "1", "--max-degree", "4",
                "--cache-dir", str(tmp_path), "--format", "json"]
        code1, out1, _ = run(capsys, *args)
        cached = list(tmp_path.glob("oracle-*.json"))
        assert len(cached) == 1
        code2, out2, _ = run(capsys, *args)
        assert (code1, out1) == (code2, out2)

    def test_cache_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path))
        code, _, _ = run(capsys, "oracle", "--d1", "0", "--d2", "2", "--max-degree", "3")
        assert code == 0
        assert list(tmp_path.glob("oracle-*.json"))

    def test_directory_at_the_cache_path_is_a_miss(self, capsys, tmp_path):
        # Neither reading nor replacing a directory works; the answer stands.
        args = ["oracle", "--d1", "1", "--d2", "1", "--max-degree", "4",
                "--cache-dir", str(tmp_path), "--format", "json"]
        code, expected, _ = run(capsys, *args)
        assert code == 0
        (path,) = tmp_path.glob("oracle-*.json")
        path.unlink()
        path.mkdir()
        code, out, err = run(capsys, *args)
        assert (code, out) == (0, expected)
        assert err.count("cache not written: ") == 1 and "Traceback" not in err
        assert path.is_dir()

    def test_cache_dir_under_a_regular_file_is_a_miss(self, capsys, tmp_path):
        plain = tmp_path / "plain"
        plain.write_text("not a directory")
        args = ["oracle", "--d1", "1", "--d2", "1", "--max-degree", "4", "--format", "json"]
        code, expected, _ = run(capsys, *args)
        assert code == 0
        code, out, err = run(capsys, *args, "--cache-dir", str(plain / "cache"))
        assert (code, out) == (0, expected)
        assert err.count("cache not written: ") == 1 and "Traceback" not in err
        assert plain.read_text() == "not a directory"

    def test_budget_exit_code(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--d1", "2", "--d2", "2", "--max-degree", "6",
            "--budget", "100",
        )
        assert code == cli.EXIT_BUDGET
        assert "budget" in err

    def test_edited_table_coefficient_in_cache_is_rebuilt(self, capsys, tmp_path):
        # One altered structure constant, the file's sha256 left as it was:
        # the sha256 check refuses the file, so the cache is rebuilt
        # instead of served.
        args = ["oracle", "--d1", "1", "--d2", "1", "--max-degree", "5",
                "--cache-dir", str(tmp_path), "--format", "json"]
        code, expected, _ = run(capsys, *args)
        assert code == 0
        (path,) = tmp_path.glob("oracle-*.json")
        payload = json.loads(path.read_text())

        def double_first(node):
            # The first nonzero coefficient (a decimal or fraction string).
            for k, item in enumerate(node):
                if isinstance(item, str) and item != "0":
                    node[k] = str(2 * Fraction(item))
                    return True
                if isinstance(item, list) and double_first(item):
                    return True
            return False

        assert double_first(payload["tables"]["1,3"])
        path.write_text(json.dumps(payload))
        assert run(capsys, *args)[:2] == (0, expected)

    def test_jacobi_gate_runs_in_oracle(self, capsys, monkeypatch):
        # build_tag checks anticommutativity only; oracle runs Jacobi on the
        # table itself.  Doubling an antisymmetric pair passes the first.
        def broken(alg, n):
            t = tag.build_tag(alg, n)
            gi, gj = next((gi, gj) for gi, gj in t.brackets
                          if gi < gj and t.degrees[gi] + t.degrees[gj] < n)
            for key in ((gi, gj), (gj, gi)):
                t.brackets[key] = tuple((k, 2 * c) for k, c in t.brackets[key])
            t.check_anticommutativity()
            return t

        monkeypatch.setattr(cli, "build_tag", broken)
        code, _, err = run(capsys, "oracle", "--d1", "1", "--d2", "1", "--max-degree", "4")
        assert code == cli.EXIT_INTERNAL == 4
        assert "Jacobi fails" in err

    def test_each_bs_degree_is_built_once(self, capsys, tmp_path, monkeypatch):
        built = []
        build = tag._build_bs_degree

        def counted(alg, n):
            built.append(n)
            return build(alg, n)

        monkeypatch.setattr(tag, "_build_bs_degree", counted)
        code, _, _ = run(capsys, "oracle", "--d1", "1", "--d2", "1", "--max-degree", "5",
                         "--cache-dir", str(tmp_path))
        assert code == 0
        assert sorted(built) == [2, 3, 4, 5]


class TestVerifyCommand:
    def test_agreement(self, capsys):
        code, out, _ = run(capsys, "verify", "--d1", "0", "--d2", "2", "--max-degree", "4")
        assert code == 0
        assert "agree" in out
        assert "MISMATCH" not in out

    def test_json_fields(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--d1", "1", "--d2", "1", "--max-degree", "4",
            "--format", "json",
        )
        payload = json.loads(out)
        assert payload["agree_degrees"] == [1, 2, 3, 4]
        assert payload["mismatches"] == []

    def test_discrepancy_is_reported_in_every_format(self, capsys, monkeypatch):
        # A solver a_3 one even dimension too high is a conjecture-level
        # discrepancy: exit 5, named on stderr, in the JSON and the table.
        solve_dims = cli.solve_dims

        def planted(d1, d2, order):
            rep = solve_dims(d1, d2, order)
            a = list(rep.a)
            a[2] += GDim(1, 0)
            return dataclasses.replace(rep, a=tuple(a))

        monkeypatch.setattr(cli, "solve_dims", planted)
        args = ["verify", "--d1", "1", "--d2", "1", "--max-degree", "4"]
        code, out, err = run(capsys, *args, "--format", "json")
        assert code == cli.EXIT_DISCREPANCY == 5
        assert "conjecture-level discrepancy at degrees [3]" in err
        payload = json.loads(out)
        assert payload["mismatches"] == [{"degree": 3, "solver": ["3", "2"], "oracle": ["2", "2"]}]
        assert payload["agree_degrees"] == [1, 2, 4]
        code, out, err = run(capsys, *args)
        assert code == cli.EXIT_DISCREPANCY
        assert "conjecture-level discrepancy at degrees [3]" in err
        assert "  n=3: MISMATCH solver=(3,2) constructed=(2,2)" in out.splitlines()

    def _cached(self, capsys, tmp_path):
        args = ["verify", "--d1", "1", "--d2", "1", "--max-degree", "4",
                "--cache-dir", str(tmp_path), "--format", "json"]
        assert run(capsys, *args)[0] == 0
        (path,) = tmp_path.glob("oracle-*.json")
        return args, path

    def test_edited_dims_in_cache_are_ignored(self, capsys, tmp_path):
        # Dims come from the cached basis parities, so a stray "dims" entry
        # cannot turn into a conjecture-level discrepancy.
        args, path = self._cached(capsys, tmp_path)
        payload = json.loads(path.read_text())
        payload["dims"] = {str(n): ["7", "7"] for n in range(1, 5)}
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert json.loads(out)["agree_degrees"] == [1, 2, 3, 4]

    @pytest.mark.parametrize("corrupt", [
        lambda text: text[:100],
        lambda text: "[]",
        lambda text: "[" * 100000 + "]" * 100000,  # json.loads raises RecursionError
    ], ids=["truncated", "not-an-object", "deeply-nested"])
    def test_corrupt_cache_is_rebuilt(self, capsys, tmp_path, corrupt):
        args, path = self._cached(capsys, tmp_path)
        path.write_text(corrupt(path.read_text()))
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert json.loads(out)["agree_degrees"] == [1, 2, 3, 4]
        alg = GradedJordanAlgebra.from_json(path.read_text())
        assert alg.max_degree == 4

    @staticmethod
    def _edit_and_reseal(path, edit):
        """Apply ``edit`` to the cached payload and recompute its sha256."""
        payload = json.loads(path.read_text())
        del payload["sha256"]
        edit(payload)
        payload["sha256"] = jordan._digest(payload)
        path.write_text(json.dumps(payload))

    @pytest.mark.parametrize("edit", sorted(MALFORMED))
    def test_malformed_cache_with_a_valid_sha256_is_rebuilt(self, capsys, tmp_path, edit):
        # The sha256 is recomputed over the edited payload, so only the
        # checks of from_json stand between it and the TAG layer.
        args, path = self._cached(capsys, tmp_path)
        fresh = path.read_text()
        self._edit_and_reseal(path, MALFORMED[edit])
        with pytest.raises(ValueError):
            GradedJordanAlgebra.from_json(path.read_text())
        code, out, err = run(capsys, *args)
        assert code == 0 and "Traceback" not in err
        assert json.loads(out)["agree_degrees"] == [1, 2, 3, 4]
        assert path.read_text() == fresh

    @pytest.mark.parametrize("edit", ["term-parity", "repeated-index", "zero-coefficient", "unsorted-terms"])
    def test_malformed_terms_are_rebuilt_by_oracle(self, capsys, tmp_path, edit):
        # A cache that reached the TAG layer would stop oracle with an
        # internal error: its parity assertion on a term of the wrong
        # parity, its Jacobi gate on a repeated index or a zero coefficient.
        # Unsorted terms passed it silently.
        args, path = self._cached(capsys, tmp_path)
        fresh = path.read_text()
        self._edit_and_reseal(path, MALFORMED[edit])
        code, out, err = run(capsys, "oracle", *args[1:])
        assert code == 0 and "Traceback" not in err
        assert path.read_text() == fresh

    def test_edited_parity_in_cache_is_rebuilt(self, capsys, tmp_path):
        # A flipped basis parity changes the dims read off the cache; it must
        # be rebuilt, not reported as a conjecture-level discrepancy.
        args, path = self._cached(capsys, tmp_path)
        payload = json.loads(path.read_text())
        payload["parities"]["3"][0] ^= 1
        path.write_text(json.dumps(payload))
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert json.loads(out)["agree_degrees"] == [1, 2, 3, 4]
        assert GradedJordanAlgebra.from_json(path.read_text()).parities[3][0] == 0

    def test_cache_of_another_shape_is_rebuilt(self, capsys, tmp_path):
        # A valid (0|2)@4 file under the (1|1)@4 name is a miss.
        args, path = self._cached(capsys, tmp_path)
        other = tmp_path / "other"
        assert run(capsys, "verify", "--d1", "0", "--d2", "2", "--max-degree", "4",
                   "--cache-dir", str(other))[0] == 0
        (other_path,) = other.glob("oracle-*.json")
        path.write_text(other_path.read_text())
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert json.loads(out)["agree_degrees"] == [1, 2, 3, 4]
        alg = GradedJordanAlgebra.from_json(path.read_text())
        assert (alg.d1, alg.d2, alg.max_degree) == (1, 1, 4)

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_is_usage_error(self, capsys, tmp_path, budget):
        # Also when the algebra would come from the cache and never be built.
        args = ["verify", "--d1", "1", "--d2", "0", "--max-degree", "3",
                "--cache-dir", str(tmp_path)]
        assert run(capsys, *args)[0] == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(args + ["--budget", budget])
        assert exc.value.code == cli.EXIT_USAGE
        assert "--budget must be >= 1" in capsys.readouterr().err


class TestHomologyCommand:
    def test_golden_output(self, capsys):
        code, out, _ = run(
            capsys, "homology", "--d1", "0", "--d2", "1",
            "--rmax", "3", "--dmax", "5",
        )
        assert code == 0
        assert "H_0 at z^0" in out
        assert "L(2): (0,1)" in out
        assert "L(4): (1,0)" in out
        assert "Euler characteristic verified" in out

    def test_rmax_zero_checks_the_z0_column(self, capsys):
        # The z^0 chain column is the empty monomial alone, complete at any r_max.
        args = ["homology", "--d1", "1", "--d2", "0", "--rmax", "0", "--dmax", "2"]
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert "Euler characteristic verified through z^0" in out
        code, out, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        assert json.loads(out)["homology"]["euler_checked_through"] == 1

    def test_negative_rmax_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "homology", "--d1", "0", "--d2", "1",
            "--rmax", "-1", "--dmax", "5",
        )
        assert code == cli.EXIT_USAGE
        assert "r_max" in err

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(
            capsys, "homology", "--d1", "0", "--d2", "1",
            "--rmax", "3", "--dmax", "4", "--format", "json",
        )
        payload = json.loads(out)
        hom = payload["homology"]
        assert hom["weights"]["0,0"] == {"0": ["1", "0"]}
        assert hom["multiplicities"]["1,1"] == {"2": ["0", "1"]}
