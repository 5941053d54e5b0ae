"""Round-trip tests for the EQN, BLIF and Verilog netlist formats."""

import io

import pytest

from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.paper_examples import paper_figure2_multiplier
from repro.netlist.blif_io import (
    BlifFormatError,
    format_blif,
    parse_blif,
    read_blif,
    write_blif,
)
from repro.netlist.eqn_io import (
    EqnFormatError,
    format_eqn,
    parse_eqn,
    read_eqn,
    write_eqn,
)
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist
from repro.netlist.verilog_io import (
    VerilogFormatError,
    format_verilog,
    parse_verilog,
    read_verilog,
    write_verilog,
)
from tests.conftest import bit_assignment


def _sample_netlists():
    yield paper_figure2_multiplier()
    yield generate_mastrovito(0b10011)
    yield generate_montgomery(0b1011)
    complex_net = Netlist("cells", inputs=["a", "b", "c", "d"], outputs=["y"])
    complex_net.add_gate(Gate("t1", GateType.AOI22, ("a", "b", "c", "d")))
    complex_net.add_gate(Gate("t2", GateType.OAI21, ("a", "b", "t1")))
    complex_net.add_gate(Gate("y", GateType.MUX2, ("t2", "c", "d")))
    yield complex_net


def _equivalent(lhs: Netlist, rhs: Netlist, samples: int = 64) -> bool:
    import random

    rng = random.Random(7)
    for _ in range(samples):
        assignment = {net: rng.randint(0, 1) for net in lhs.inputs}
        if lhs.simulate(assignment) != rhs.simulate(assignment):
            return False
    return True


class TestEqnRoundtrip:
    @pytest.mark.parametrize(
        "netlist", list(_sample_netlists()), ids=lambda n: n.name
    )
    def test_roundtrip_preserves_function(self, netlist):
        text = format_eqn(netlist)
        parsed = parse_eqn(text, name=netlist.name)
        assert parsed.inputs == netlist.inputs
        assert parsed.outputs == netlist.outputs
        assert len(parsed) == len(netlist)
        assert _equivalent(netlist, parsed)

    def test_file_roundtrip(self, tmp_path):
        netlist = generate_mastrovito(0b1011)
        path = tmp_path / "mult.eqn"
        write_eqn(netlist, path)
        loaded = read_eqn(path)
        assert loaded.name == "mult"
        assert _equivalent(netlist, loaded)

    def test_comments_and_blank_lines_ignored(self):
        net = parse_eqn(
            """
            # a comment
            INPUT a b   // another
            OUTPUT z

            z = XOR(a, b)  # trailing
            """
        )
        assert net.simulate({"a": 1, "b": 1}) == {"z": 0}

    def test_unknown_gate_rejected(self):
        with pytest.raises(EqnFormatError):
            parse_eqn("INPUT a\nOUTPUT z\nz = FROB(a, a)")

    def test_missing_equals_rejected(self):
        with pytest.raises(EqnFormatError):
            parse_eqn("INPUT a\nOUTPUT z\nz XOR(a, a)")


class TestBlifRoundtrip:
    @pytest.mark.parametrize(
        "netlist", list(_sample_netlists()), ids=lambda n: n.name
    )
    def test_roundtrip_preserves_function(self, netlist):
        parsed = parse_blif(format_blif(netlist))
        assert parsed.inputs == netlist.inputs
        assert parsed.outputs == netlist.outputs
        assert _equivalent(netlist, parsed)

    def test_file_roundtrip(self, tmp_path):
        netlist = generate_mastrovito(0b111)
        path = tmp_path / "mult.blif"
        write_blif(netlist, path)
        assert _equivalent(netlist, read_blif(path))

    def test_model_name_preserved(self):
        netlist = paper_figure2_multiplier()
        assert parse_blif(format_blif(netlist)).name == "paper_figure2"

    def test_unclassifiable_cover_rejected(self):
        text = """
.model weird
.inputs a b c
.outputs y
.names a b c y
110 1
001 1
.end
"""
        with pytest.raises(BlifFormatError):
            parse_blif(text)

    def test_continuation_lines(self):
        text = (
            ".model cont\n.inputs a \\\nb\n.outputs y\n"
            ".names a b y\n11 1\n.end\n"
        )
        net = parse_blif(text)
        assert net.simulate({"a": 1, "b": 1}) == {"y": 1}


class TestVerilogRoundtrip:
    @pytest.mark.parametrize(
        "netlist", list(_sample_netlists()), ids=lambda n: n.name
    )
    def test_roundtrip_preserves_function(self, netlist):
        parsed = parse_verilog(format_verilog(netlist))
        assert parsed.inputs == netlist.inputs
        assert parsed.outputs == netlist.outputs
        assert _equivalent(netlist, parsed)

    def test_escaped_identifiers(self):
        net = Netlist("esc", inputs=["a.1"], outputs=["z"])
        net.add_gate(Gate("z", GateType.INV, ("a.1",)))
        parsed = parse_verilog(format_verilog(net))
        assert parsed.simulate({"a.1": 0}) == {"z": 1}

    def test_comments_stripped(self):
        text = """
// line comment
module t (a, z); /* block
   comment */
  input a;
  output z;
  not g0 (z, a);
endmodule
"""
        assert parse_verilog(text).simulate({"a": 1}) == {"z": 0}

    def test_missing_endmodule_rejected(self):
        with pytest.raises(VerilogFormatError):
            parse_verilog("module t (a); input a;")

    def test_multiplier_extraction_after_roundtrip(self):
        """A netlist that went through Verilog still extracts."""
        from repro.extract.extractor import extract_irreducible_polynomial

        netlist = generate_mastrovito(0b10011)
        parsed = parse_verilog(format_verilog(netlist))
        assert extract_irreducible_polynomial(parsed).modulus == 0b10011


@pytest.mark.parametrize(
    "suffix, write, read, error",
    [
        ("eqn", write_eqn, read_eqn, EqnFormatError),
        ("blif", write_blif, read_blif, BlifFormatError),
        ("v", write_verilog, read_verilog, VerilogFormatError),
    ],
)
def test_non_utf8_file_raises_the_format_error(
    tmp_path, suffix, write, read, error
):
    """A stray non-UTF-8 byte is the reader's own format error (a
    NetlistError) naming the byte offset, not a UnicodeDecodeError;
    CRLF files still read like LF files."""
    path = tmp_path / f"m3.{suffix}"
    write(generate_mastrovito(0b1011), path)
    data = path.read_bytes()
    path.write_bytes(data.replace(b"\n", b"\r\n"))
    assert read(path).simulate(bit_assignment(3, 5, 6)) == read(
        io.StringIO(data.decode("utf-8"))
    ).simulate(bit_assignment(3, 5, 6))
    offset = data.index(b"\n") + 1
    path.write_bytes(data[:offset] + b"\xff" + data[offset:])
    with pytest.raises(error, match=f"byte 0xff at byte offset {offset}"):
        read(path)
