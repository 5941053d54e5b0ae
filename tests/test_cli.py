"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main


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
        path = tmp_path / "mult.eqn"
        main(["gen", "--p", "x^4+x+1", "-o", str(path)])
        assert main(["audit", str(path), "--jobs", "2"]) == 0


class TestSynth:
    def test_synth_command(self, tmp_path, capsys):
        src = tmp_path / "flat.eqn"
        dst = tmp_path / "opt.eqn"
        main(["gen", "--p", "x^4+x+1", "-o", str(src)])
        assert main(["synth", str(src), "-o", str(dst)]) == 0
        assert dst.exists()
        assert main(["extract", str(dst)]) == 0

    @pytest.mark.parametrize("ir", ["aig", "netlist"])
    def test_synth_ir_flag(self, tmp_path, capsys, ir):
        src = tmp_path / "flat.eqn"
        dst = tmp_path / f"opt_{ir}.eqn"
        main(["gen", "--p", "x^4+x+1", "-o", str(src)])
        assert main(["synth", str(src), "--ir", ir, "-o", str(dst)]) == 0
        assert main(["extract", str(dst), "--engine", "aig"]) == 0
        out = capsys.readouterr().out
        assert "x^4 + x + 1" in out


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
