import hashlib
import json
import subprocess
import sys
from collections import Counter

import pytest

from mirhecke import characters, checks, cli, tensorrep
from mirhecke.characters import character_table
from mirhecke.cli import main
from mirhecke.combinatorics import iter_standard_basis
from mirhecke.tensorrep import char_oracle, trace_sums


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
# sha256 of `table --n N --format csv` from the (lam, mu)-memoized recursion on
# LaurentScalar that preceded the packed columns
GOLDEN_LARGE_CSV = {
    10: "00e7b4a5a5cdf2723e0f26c92d6847679d8081a8cad28a90dae7ab73fa99a611",
    11: "bc8d56f760427fe8da6b086a8b4bb0c22320ec8a1ee1ebe24df4778391074be2",
    12: "a072936b4bfc483074f900b0ed96b6a4164541c6bc4f318563551b52e6448ee5",
}


class TestTableGolden:
    def test_rank9_csv(self, capsys):
        code, out = run_cli(capsys, "table", "--n", "9", "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_N9_CSV

    @pytest.mark.parametrize("n", sorted(GOLDEN_LARGE_CSV))
    def test_large_rank_csv(self, capsys, n):
        code, out = run_cli(capsys, "table", "--n", str(n), "--format", "csv")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_LARGE_CSV[n]

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


# sha256 of classpoly stdout from the solve over the fraction field that
# preceded the fraction-free back substitution
GOLDEN_CLASSPOLY = {
    1: "61bad7cb82ee467f4cce904ffcb32b3543ef4fc0c40004f80c102fd639d89fba",
    2: "9e0cf01ae70e922746753bdc9d6bb70955415752fb19c9dae68e6a9fae9f5a65",
    3: "d86277e810cf2841f33ecb9158c9fedae0f9988f255872765d7f77af62107067",
    4: "1687975d8db2a5a5cb948765b3fc474e7be4c864003d5139001a05a360a7c121",
    5: "faf676dc94e7b56bce3f16350e034f4f62d219a9d9c09166b9c60366d5f7031a",
}


def index_arg(idx) -> str:
    """The --index text of a basis index, e.g. "A=2;B=1;w=1.2"."""

    def dotted(seq):
        return ".".join(str(a) for a in seq) or "0"

    return f"A={dotted(idx.A)};B={dotted(idx.B)};w={dotted(idx.w)}"


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

    def test_unknown_index_key_is_usage_error(self, capsys):
        # lower-case keys once fell through to the identity element
        with pytest.raises(SystemExit) as err:
            main(["classpoly", "--n", "2", "--index", "a=2;b=1"])
        assert err.value.code == 2
        assert "unknown index key 'a'" in capsys.readouterr().err

    def test_repeated_index_key_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["classpoly", "--n", "2", "--index", "A=2;A=1;B=1"])
        assert err.value.code == 2
        assert "repeated index key 'A'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n", [pytest.param(n, marks=pytest.mark.slow) if n >= 5 else n for n in GOLDEN_CLASSPOLY]
    )
    def test_golden_stdout_whole_basis(self, capsys, n):
        # stdout concatenated over every basis index in iter_standard_basis order
        digest = hashlib.sha256()
        for idx in iter_standard_basis(n):
            code, out = run_cli(capsys, "classpoly", "--n", str(n), "--index", index_arg(idx))
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == GOLDEN_CLASSPOLY[n]


class TestClasspolyFailure:
    ERROR = "non-polynomial coefficient at (): (q) / (q+1)"

    @pytest.fixture(autouse=True)
    def defect(self, monkeypatch):
        def raising(n, idx, table=None):
            raise characters.ClassPolynomialDefect(self.ERROR)

        monkeypatch.setattr(characters, "class_polynomials", raising)

    def test_report_on_stdout(self, capsys):
        code, out = run_cli(capsys, "classpoly", "--n", "2", "--index", "A=2;B=1;w=1.2")
        assert code == 1
        assert out == json.dumps({"status": "fail", "error": self.ERROR}) + "\n"

    def test_report_honours_out(self, capsys, tmp_path):
        path = tmp_path / "cp.json"
        argv = ["classpoly", "--n", "2", "--index", "A=2;B=1;w=1.2", "--out", str(path)]
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert json.loads(path.read_text()) == {"status": "fail", "error": self.ERROR}


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

    @pytest.mark.parametrize("r", ["-1", "0"])
    def test_nonpositive_r_is_usage_error(self, r):
        with pytest.raises(SystemExit) as err:
            main(["pieri", "--m", "1", "--r", r])
        assert err.value.code == 2


# sha256 of verify stdout; verify bytes change only on purpose.  The last
# change: the tensor half of the relations suite checks the same table as the
# engine half, under the same names plus " on tensor space", T0 relations
# included (219770dc... before); the other suites' bytes did not change
GOLDEN_VERIFY = "b1aa419c09cfedb004e5773348178e2cffe0f3d86135d6a7415a63b76dc443d2"


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
        code, out = run_cli(capsys, "verify", "--n", "2", "--suite", "frobenius", "--r", "3")
        assert code == 0
        assert "r=3" in out

    def test_skip_is_not_a_failure(self, capsys, monkeypatch):
        # multiplicativity has no pairs at rank >= 6 without --slow and is skipped;
        # rank 5 runs its 10 pairs by default.  A skip is not a failure
        assert len(checks.basis_pairs(5)) == 10 and checks.basis_pairs(6) is None
        assert len(checks.basis_pairs(6, slow=True)) == 10
        monkeypatch.setattr(checks, "basis_pairs", lambda n, slow=False: None)
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

    def test_class_polynomials_reconstruct_at_suite_r(self, capsys, monkeypatch):
        code, out = run_cli(capsys, "verify", "--n", "2", "--r", "4", "--suite", "oracle")
        assert code == 0
        assert "[PASS] oracle: class polynomials reconstruct all oracle traces" in out
        # class_polynomials solves against trace sums at r = n; the check compares
        # against oracle traces at r, whose basis_trace reads trace sums at r too
        sums, oracles = [], []

        def recording_sums(r, idx, bits):
            sums.append(r)
            return trace_sums(r, idx, bits)

        def recording_oracle(element, r):
            oracles.append(r)
            return char_oracle(element, r=r)

        monkeypatch.setattr(tensorrep, "trace_sums", recording_sums)
        monkeypatch.setattr(tensorrep, "char_oracle", recording_oracle)
        tensorrep.basis_trace.cache_clear()
        assert checks.class_polynomials_reconstruct(character_table(2), 4) is None
        assert Counter(sums) == {2: 7, 4: 7}
        assert Counter(oracles) == {4: 7}

    def test_too_few_variables_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--n", "3", "--r", "2", "--suite", "oracle"])
        assert err.value.code == 2


class TestParserReuse:
    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        real = cli._build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "_build_parser", counting)
        cli._parser.cache_clear()
        try:
            for argv in (["dim", "--n", "2"], ["table", "--n", "1"], ["dim", "--n", "3"]):
                assert main(argv) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    # "{out}" stands for a path in a directory of the run's own; an option
    # given to one call must not reach the next
    SEQUENCE = [
        ["table", "--n", "2", "--format", "csv", "--g-variant", "paper", "--out", "{out}"],
        ["table", "--n", "2", "--format", "csv"],
        ["classpoly", "--n", "2", "--index", "A=2;B=1;w=1.2", "--out", "{out}"],
        ["classpoly", "--n", "9"],
        ["classpoly", "--n", "2", "--index", "A=2;B=1;w=1.2"],
        ["pieri", "--m", "2", "--r", "4", "--g-variant", "paper"],
        ["pieri", "--m", "2", "--r", "4"],
        ["verify", "--n", "1", "--suite", "pieri"],
    ]

    def test_in_process_runs_match_fresh_processes(self, capsys, tmp_path):
        codes = set()
        for i, argv in enumerate(self.SEQUENCE):
            outs = []
            for where in ("in-process", "fresh"):
                path = tmp_path / where / f"{i}.out"
                path.parent.mkdir(exist_ok=True)
                args = [str(path) if a == "{out}" else a for a in argv]
                if where == "fresh":
                    proc = subprocess.run(
                        [sys.executable, "-m", "mirhecke.cli", *args],
                        capture_output=True,
                        text=True,
                    )
                    code, out = proc.returncode, proc.stdout
                else:
                    try:
                        code, out = run_cli(capsys, *args)
                    except SystemExit as exc:
                        code, out = exc.code, capsys.readouterr().out
                written = path.read_bytes() if path.exists() else None
                outs.append((code, out, written))
            assert outs[0] == outs[1], argv
            codes.add(outs[0][0])
        assert codes == {0, 1, 2}


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
