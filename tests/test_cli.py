"""End-to-end CLI behaviour, exercised in-process."""

import json
import time

import jsonschema
import pytest

from groupgraphs import REPORT_SCHEMA
from groupgraphs.cli import main


def run_cli(*argv):
    return main(list(argv))


class TestInvariants:
    def test_order_sum_z5_is_complete(self, capsys):
        assert run_cli("invariants", "--group", "cyclic:5", "--kind", "ordersum") == 0
        out = capsys.readouterr().out
        assert "kappa = 4" in out
        assert "kappa_edge = 4" in out
        assert "min_degree = 4" in out
        assert "is_complete = True" in out

    def test_disconnected_reports_inf_diameter(self, capsys):
        assert run_cli("invariants", "--group", "ea:2,2", "--kind", "ordersum") == 0
        out = capsys.readouterr().out
        assert "diameter = inf" in out
        assert "edges = 0" in out


class TestMinimality:
    def test_d3_commuting_edge_mode(self, capsys):
        assert (
            run_cli(
                "minimality", "--group", "dihedral:3", "--kind", "commuting",
                "--mode", "edge",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "holds = False" in out
        assert "[1, 2]" in out  # witness edge {r, r^2}

    def test_per_edge_values(self, capsys):
        assert (
            run_cli(
                "minimality", "--group", "cyclic:4", "--kind", "ordersum",
                "--mode", "vertex", "--per-edge",
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "delete [1, 3] -> 2" in out


class TestGraphExport:
    def test_dot_and_csv_files(self, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        csv_path = tmp_path / "g.csv"
        assert (
            run_cli(
                "graph", "--group", "cyclic:4", "--kind", "noninverse",
                "--dot", str(dot), "--csv", str(csv_path),
            )
            == 0
        )
        dot_text = dot.read_text()
        assert dot_text.startswith('graph "noninverse"')
        assert "1 -- 2;" in dot_text
        assert "(o=4)" in dot_text
        csv_text = csv_path.read_text()
        assert csv_text.splitlines()[0] == "u,v"
        assert "1,3" not in csv_text  # {a, a^3} are mutual inverses
        capsys.readouterr()

    def test_defaults_to_stdout_dot(self, capsys):
        assert run_cli("graph", "--group", "cyclic:3", "--kind", "commuting") == 0
        assert capsys.readouterr().out.startswith('graph "commuting"')


class TestVerify:
    def test_json_report(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("# tiny corpus\ncyclic:3\ncyclic:4\ndihedral:3\n")
        out = tmp_path / "report.json"
        assert (
            run_cli("verify", "--corpus", str(corpus), "--out", str(out)) == 0
        )
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, REPORT_SCHEMA)
        assert payload["config"]["corpus"] == ["cyclic:3", "cyclic:4", "dihedral:3"]
        err = capsys.readouterr().err
        assert "inconsistent" in err

    def test_inconsistent_claims_still_exit_zero(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("cyclic:4\n")  # T_OS_VERTEX discrepancy lives here
        assert run_cli("verify", "--corpus", str(corpus)) == 0
        captured = capsys.readouterr()
        assert "T_OS_VERTEX_IFF_PRIME_POWER" in captured.err

    def test_csv_format(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("cyclic:3\n")
        assert (
            run_cli("verify", "--corpus", str(corpus), "--format", "csv") == 0
        )
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "claim,group,kind,lhs,rhs,consistent,skipped"

    def test_deterministic_bytes(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("cyclic:5\ndicyclic:2\n")
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli("verify", "--corpus", str(corpus), "--out", str(out1)) == 0
        assert run_cli("verify", "--corpus", str(corpus), "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_claim_subset(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("cyclic:6\n")
        assert (
            run_cli(
                "verify", "--corpus", str(corpus),
                "--claims", "WHITNEY,L_NI_KAPPA_EQ",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert [c["id"] for c in payload["claims"]] == ["WHITNEY", "L_NI_KAPPA_EQ"]

    def test_unknown_claim_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            run_cli("verify", "--claims", "NOT_A_CLAIM")

    @pytest.mark.parametrize("text", [",", ""])
    def test_empty_claim_list_is_usage_error(self, text):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "--claims", text)
        assert exc.value.code == "--claims names no claim"

    def test_repeated_claim_is_error(self, capsys):
        assert run_cli("verify", "--claims", "WHITNEY,L_NI_KAPPA_EQ,WHITNEY") == 1
        assert capsys.readouterr().err == "error: claims listed more than once: WHITNEY\n"

    def test_empty_corpus_file_rejected(self, tmp_path):
        corpus = tmp_path / "empty.txt"
        corpus.write_text("# nothing here\n")
        with pytest.raises(SystemExit):
            run_cli("verify", "--corpus", str(corpus))


class TestOracle:
    def test_agreement_run(self, capsys):
        assert run_cli("oracle", "--trials", "30", "--seed", "7", "--max-n", "7") == 0
        out = capsys.readouterr().out
        assert "0 disagreements" in out

    def test_stock_invocation(self, capsys):
        assert run_cli("oracle", "--trials", "200", "--seed", "1", "--max-n", "9") == 0
        assert "0 disagreements" in capsys.readouterr().out

    def test_seed_changes_nothing_about_agreement(self, capsys):
        assert run_cli("oracle", "--trials", "15", "--seed", "99", "--max-n", "6") == 0
        capsys.readouterr()

    def test_identical_invocations_identical_output(self, capsys):
        run_cli("oracle", "--trials", "10", "--seed", "3", "--max-n", "6")
        first = capsys.readouterr().out
        run_cli("oracle", "--trials", "10", "--seed", "3", "--max-n", "6")
        second = capsys.readouterr().out
        assert first == second

    def test_max_n_guarded(self):
        for argv in (
            ("--max-n", "13"),
            ("--max-n", "1"),
            ("--trials", "-3", "--max-n", "3"),
        ):
            with pytest.raises(SystemExit) as exc:
                run_cli("oracle", *argv)
            assert isinstance(exc.value.code, str)  # one-line message, exit 1


class TestErrors:
    def test_bad_group_spec(self, capsys):
        assert run_cli("invariants", "--group", "cyclic:zero", "--kind", "commuting") == 1
        assert "error:" in capsys.readouterr().err

    def test_order_cap_exceeded(self, capsys):
        assert run_cli("invariants", "--group", "symmetric:6", "--kind", "commuting") == 1
        assert "exceeds cap" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec, bound",
        [
            ("symmetric:300000", 720),
            ("ea:2,3000000", 256),
            ("ea:1000000000000000003,2", "1000000000000000003"),
        ],
    )
    def test_huge_order_rejected_without_forming_it(self, capsys, spec, bound):
        start = time.perf_counter()
        assert run_cli("invariants", "--group", spec, "--kind", "commuting") == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            f"error: {spec}: order at least {bound} exceeds cap 200\n"
        )

    def test_order_cap_flag(self, capsys):
        assert (
            run_cli(
                "invariants", "--group", "symmetric:4", "--kind", "coprime",
                "--order-cap", "24",
            )
            == 0
        )
        capsys.readouterr()

    def test_order_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("GROUPGRAPHS_ORDER_CAP", "5")
        assert run_cli("invariants", "--group", "cyclic:6", "--kind", "commuting") == 1
        assert "exceeds cap 5" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("frobnicate")
        assert exc.value.code == 2

    def test_not_prime_after_cap(self, capsys):
        assert run_cli("invariants", "--group", "ea:4,1", "--kind", "commuting") == 1
        assert capsys.readouterr().err == "error: ea:4,1: 4 is not prime\n"

    @pytest.mark.parametrize("command", ["invariants", "verify"])
    def test_huge_table_entry_is_one_line_error(self, tmp_path, capsys, command):
        table = tmp_path / "huge.txt"
        table.write_text("2\n0 1\n1 99999999999999999999\n")
        if command == "invariants":
            argv = ("invariants", "--group", f"file:{table}", "--kind", "commuting")
        else:
            corpus = tmp_path / "corpus.txt"
            corpus.write_text(f"file:{table}\n")
            argv = ("verify", "--corpus", str(corpus))
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not a rectangular integer table" in err

    def test_missing_file_group(self, capsys):
        assert (
            run_cli("invariants", "--group", "file:/no/such/table.txt",
                    "--kind", "commuting")
            == 1
        )
        assert "/no/such/table.txt" in capsys.readouterr().err
