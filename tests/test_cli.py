import json
from fractions import Fraction

import pytest

from freejordan import cli, tag
from freejordan.jordan import GradedJordanAlgebra


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

    def test_budget_exit_code(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--d1", "2", "--d2", "2", "--max-degree", "6",
            "--budget", "100",
        )
        assert code == cli.EXIT_BUDGET
        assert "budget" in err

    def test_edited_table_coefficient_in_cache_is_rebuilt(self, capsys, tmp_path):
        # One altered structure constant breaks the Jacobi gate (exit 4);
        # the cache must be rebuilt instead of served.
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

    @pytest.mark.parametrize("corrupt", [lambda text: text[:100], lambda text: "[]"],
                             ids=["truncated", "not-an-object"])
    def test_corrupt_cache_is_rebuilt(self, capsys, tmp_path, corrupt):
        args, path = self._cached(capsys, tmp_path)
        path.write_text(corrupt(path.read_text()))
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert json.loads(out)["agree_degrees"] == [1, 2, 3, 4]
        alg = GradedJordanAlgebra.from_json(path.read_text())
        assert alg.max_degree == 4

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
