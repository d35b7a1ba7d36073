import hashlib
import json
import subprocess
import sys

import pytest

from mirhecke.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestDim:
    def test_rank2(self, capsys):
        code, out = run_cli(capsys, "dim", "--n", "2")
        assert code == 0 and out.strip() == "7"

    def test_rank5(self, capsys):
        code, out = run_cli(capsys, "dim", "--n", "5")
        assert code == 0 and out.strip() == "1546"


class TestTable:
    def test_rank1_csv(self, capsys):
        code, out = run_cli(capsys, "table", "--n", "1", "--format", "csv")
        assert code == 0
        assert out == "lambda\\mu,0,1\n0,1,1\n1,0,1\n"

    def test_byte_stable(self, capsys, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            code = main(["table", "--n", "2", "--format", "csv", "--out", str(p)])
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_json_output(self, capsys):
        code, out = run_cli(capsys, "table", "--n", "2", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["labels"] == ["0", "1", "2", "1.1"]


# sha256 of table output from the box-filter engine that preceded the
# row-by-row strip generator; table bytes change only on purpose
GOLDEN_N9_CSV = "a7b98dbd7c6ce3c5b07755d28bef623cbf38fc12b09b21044e6baf096092c76a"
GOLDEN_ALL_TABLES = "d0313a8e781d9fd0c46088d5bc2fe2fffc58c5595ece92b1db72975cadc258c3"


class TestTableGolden:
    def test_rank9_csv(self, capsys):
        code, out = run_cli(capsys, "table", "--n", "9", "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_N9_CSV

    def test_all_tables_up_to_rank9(self, capsys):
        # stdout concatenated over variant, then n = 1..9, then format
        digest = hashlib.sha256()
        for variant in ("oracle", "paper"):
            for n in range(1, 10):
                for fmt in ("csv", "json"):
                    code, out = run_cli(
                        capsys, "table", "--n", str(n), "--format", fmt, "--g-variant", variant
                    )
                    assert code == 0
                    digest.update(out.encode())
        assert digest.hexdigest() == GOLDEN_ALL_TABLES


class TestClasspoly:
    def test_known_vector(self, capsys):
        code, out = run_cli(
            capsys, "classpoly", "--n", "2", "--index", "A=2;B=1;w=1.2"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["f"]["1"] == {"var": "q", "coeffs": {"1": "1", "0": "-1"}}
        assert obj["f"]["0"] == {"var": "q", "coeffs": {"1": "-1"}}

    def test_default_identity_w(self, capsys):
        code, out = run_cli(capsys, "classpoly", "--n", "2", "--index", "A=2;B=2")
        assert code == 0
        assert json.loads(out)["f"] == {"1": {"var": "q", "coeffs": {"0": "1"}}}

    def test_bad_index_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classpoly", "--n", "2", "--index", "A=9;B=1;w=1.2"])
        assert err.value.code == 2


class TestPieri:
    def test_oracle_variant_passes(self, capsys):
        code, out = run_cli(capsys, "pieri", "--m", "2", "--nu", "0", "--r", "4")
        assert code == 0
        assert json.loads(out)["oracle_match"] is True

    def test_paper_variant_fails_at_m2(self, capsys):
        code, out = run_cli(
            capsys,
            "pieri", "--m", "2", "--nu", "0", "--r", "4", "--g-variant", "paper",
        )
        assert code == 1
        assert json.loads(out)["oracle_match"] is False

    def test_bad_partition_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["pieri", "--m", "1", "--nu", "1.2"])
        assert err.value.code == 2


# sha256 of verify stdout from the per-suite functions that preceded the
# check registry; verify bytes change only on purpose
GOLDEN_VERIFY = "c69a853b5eb1a37bbf742f12f3f04afebb3c44a90c77254de1a2d1793b92e1c2"


class TestVerify:
    def test_golden_stdout_up_to_rank3(self, capsys):
        # stdout concatenated over variant, then n = 1..3, then suite
        digest = hashlib.sha256()
        for variant in ("oracle", "paper"):
            for n in range(1, 4):
                for suite in ("relations", "oracle", "frobenius", "pieri"):
                    _, out = run_cli(
                        capsys, "verify", "--n", str(n), "--suite", suite, "--g-variant", variant
                    )
                    digest.update(out.encode())
        assert digest.hexdigest() == GOLDEN_VERIFY

    def test_rank2_all_suites(self, capsys):
        code, out = run_cli(capsys, "verify", "--n", "2", "--r", "2", "--suite", "all")
        assert code == 0
        assert "checks passed" in out
        assert "[FAIL]" not in out

    def test_paper_variant_fails_pieri(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "--n", "2", "--suite", "pieri", "--g-variant", "paper",
        )
        assert code == 1
        assert "[FAIL]" in out

    def test_r_mode_plus_one(self, capsys):
        code, out = run_cli(
            capsys,
            "verify", "--n", "2", "--suite", "frobenius", "--r-mode", "n-plus-1",
        )
        assert code == 0
        assert "r=3" in out

    def test_skip_is_not_a_failure(self, capsys):
        # rank 5 skips multiplicativity without --slow; everything else passes
        code, out = run_cli(capsys, "verify", "--n", "5", "--suite", "oracle")
        assert code == 3
        assert "[SKIP]" in out and "1 skipped" in out
        assert '"fail"' not in out and "[FAIL]" not in out

    def test_failure_survives_optimized_mode(self):
        # python -O strips assert statements; the checks must not rely on them
        argv = ["verify", "--n", "2", "--suite", "pieri", "--g-variant", "paper"]
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "mirhecke.cli", *argv], capture_output=True, text=True
        )
        assert proc.returncode == 1
        assert "[FAIL]" in proc.stdout

    def test_too_few_variables_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--n", "3", "--r", "2", "--suite", "oracle"])
        assert err.value.code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mirhecke.cli", "dim", "--n", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "34"

    def test_missing_subcommand_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mirhecke.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 2
