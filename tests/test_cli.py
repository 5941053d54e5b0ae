"""End-to-end tests for the command-line interface."""

import argparse

import pytest

from repro.cli import _byte_size, main


class TestGen:
    def test_gen_and_extract_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "mult.eqn"
        assert main(
            ["gen", "--p", "x^8+x^4+x^3+x+1", "-o", str(path)]
        ) == 0
        assert path.exists()
        assert main(["extract", str(path)]) == 0
        out = capsys.readouterr().out
        assert "P(x) = x^8 + x^4 + x^3 + x + 1" in out

    @pytest.mark.parametrize("algo", ["mastrovito", "montgomery", "schoolbook"])
    def test_all_algorithms(self, tmp_path, algo, capsys):
        path = tmp_path / f"{algo}.eqn"
        assert main(
            ["gen", "--p", "x^4+x+1", "--algorithm", algo, "-o", str(path)]
        ) == 0
        assert main(["extract", str(path)]) == 0
        assert "x^4 + x + 1" in capsys.readouterr().out

    def test_gen_blif_format(self, tmp_path, capsys):
        path = tmp_path / "mult.blif"
        assert main(["gen", "--p", "x^4+x+1", "-o", str(path)]) == 0
        assert main(["extract", str(path)]) == 0

    def test_gen_verilog_format(self, tmp_path, capsys):
        path = tmp_path / "mult.v"
        assert main(["gen", "--p", "x^4+x+1", "-o", str(path)]) == 0
        assert main(["extract", str(path)]) == 0

    def test_reducible_warning(self, tmp_path, capsys):
        path = tmp_path / "bad.eqn"
        main(["gen", "--p", "x^4+x^2+1", "-o", str(path)])
        assert "reducible" in capsys.readouterr().err

    def test_synthesized_output(self, tmp_path, capsys):
        path = tmp_path / "syn.eqn"
        assert main(
            ["gen", "--p", "x^4+x+1", "--synthesize", "-o", str(path)]
        ) == 0
        assert main(["extract", str(path)]) == 0


class TestAudit:
    def test_audit_report(self, tmp_path, capsys):
        path = tmp_path / "mult.eqn"
        main(["gen", "--p", "x^4+x^3+1", "-o", str(path)])
        assert main(["audit", str(path)]) == 0
        out = capsys.readouterr().out
        assert "reverse engineering report" in out
        assert "x^4 + x^3 + 1" in out
        assert "EQUIVALENT" in out

    def test_audit_jobs_flag(self, tmp_path, capsys):
        """The per-bit pool is retired: ``--jobs`` no longer parses."""
        path = tmp_path / "mult.eqn"
        main(["gen", "--p", "x^4+x+1", "-o", str(path)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as caught:
            main(["audit", str(path), "--jobs", "2"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["extract", "m.eqn"],
        ["audit", "m.eqn"],
        ["eco", "base.eqn", "edit.eqn"],
        ["diagnose", "m.eqn"],
        ["batch", "designs"],
        ["serve"],
    ],
    ids=lambda argv: argv[0],
)
def test_jobs_flag_is_an_argparse_error(argv, capsys):
    with pytest.raises(SystemExit) as caught:
        main(argv + ["--jobs", "2"])
    assert caught.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestSynth:
    def test_synth_command(self, tmp_path, capsys):
        src = tmp_path / "flat.eqn"
        dst = tmp_path / "opt.eqn"
        main(["gen", "--p", "x^4+x+1", "-o", str(src)])
        assert main(["synth", str(src), "-o", str(dst)]) == 0
        assert dst.exists()
        assert main(["extract", str(dst)]) == 0

    def test_synth_then_extract_with_aig(self, tmp_path, capsys):
        src = tmp_path / "flat.eqn"
        dst = tmp_path / "opt.eqn"
        main(["gen", "--p", "x^4+x+1", "-o", str(src)])
        assert main(["synth", str(src), "-o", str(dst)]) == 0
        assert main(["extract", str(dst), "--engine", "vector"]) == 0
        out = capsys.readouterr().out
        assert "x^4 + x + 1" in out

    def test_ir_flag_rejected(self, capsys):
        """The AIG passes are the only synthesis flow."""
        with pytest.raises(SystemExit) as exit_info:
            main(["synth", "m.eqn", "-o", "out.eqn", "--ir", "netlist"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestByteSize:
    """``--max-rss`` sizes: K/M/G/T suffixes, optional B/iB."""

    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("65536", 65536),
            ("1K", 1 << 10),
            ("1k", 1 << 10),
            ("256M", 256 << 20),
            ("1g", 1 << 30),
            ("2T", 2 << 40),
            ("2GiB", 2 << 30),
            ("16KB", 16 << 10),
            ("1.5k", 1536),
            (" 512m ", 512 << 20),
        ],
    )
    def test_valid(self, text, expected):
        assert _byte_size(text) == expected

    @pytest.mark.parametrize(
        "text", ["banana", "", "-3", "0", "12X", "K", "1.2.3M"]
    )
    def test_invalid(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            _byte_size(text)


class TestInfoCommands:
    def test_reduction_tables(self, capsys):
        assert main(
            ["reduction", "--p", "x^4+x^3+1", "--p", "x^4+x+1"]
        ) == 0
        out = capsys.readouterr().out
        assert "reduction XOR count: 9" in out
        assert "reduction XOR count: 6" in out

    def test_search(self, capsys):
        assert main(["search", "--m", "8"]) == 0
        out = capsys.readouterr().out
        assert "no irreducible trinomials" in out
        assert "x^8 + x^4 + x^3 + x + 1" in out

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["extract", str(tmp_path / "file.xyz")])


class TestBadInput:
    """Unparseable or non-multiplier netlists are one stderr line and
    exit code 2 (1 stays "reducible / not equivalent"), not a
    traceback."""

    @staticmethod
    def _expect_error(capsys, argv, kind):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kind}: ")
        assert "Traceback" not in err

    def test_extract_non_utf8_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.eqn"
        bad.write_bytes(b"INORDER = a0 \xff;\n")
        self._expect_error(capsys, ["extract", str(bad)], "EqnFormatError")

    @pytest.mark.parametrize(
        "instance", ["and g0 (y, a);", "not g0 (y, a, a);"]
    )
    def test_extract_wrong_arity_verilog(self, tmp_path, capsys, instance):
        bad = tmp_path / "bad.v"
        bad.write_text(
            f"module bad (a, y);\n  input a;\n  output y;\n"
            f"  {instance}\nendmodule\n"
        )
        self._expect_error(capsys, ["extract", str(bad)], "VerilogFormatError")

    def test_extract_misnamed_outputs(self, tmp_path, capsys):
        from repro.gen.mastrovito import generate_mastrovito
        from repro.netlist.eqn_io import format_eqn

        text = format_eqn(generate_mastrovito(0b10011))
        for bit in range(4):
            text = text.replace(f"z{bit}", f"y{bit}")
        path = tmp_path / "ports.eqn"
        path.write_text(text)
        self._expect_error(capsys, ["extract", str(path)], "ExtractionError")

    def test_eco_bad_edited_file(self, tmp_path, capsys):
        base = tmp_path / "base.eqn"
        assert main(["gen", "--p", "x^4+x+1", "-o", str(base)]) == 0
        capsys.readouterr()
        bad = tmp_path / "edit.eqn"
        bad.write_bytes(b"INORDER = a0 \xff;\n")
        self._expect_error(
            capsys,
            ["eco", str(base), str(bad), "--cache-dir", str(tmp_path / "c")],
            "EqnFormatError",
        )
