"""Differential test: the EQN reader against the line-by-line reader.

``SeedNetlist``, ``seed_parse_eqn`` and ``_seed_parse_gate_line`` below
are verbatim copies of the original reader: per-gate dataclass
construction, list-backed port checks, a separate ``validate()`` scan
and a string-keyed Kahn sort.  The one-pass reader must produce the
same inputs, outputs, gates and topological order, or raise the same
exception type with the same message, on every input: the generator
zoo as written by ``format_eqn``, the same files with their gate lines
shuffled (non-topological), hostile lines in the writer's canonical
spacing, and Hypothesis-built hostile text.  ``SEED_GATE_LINE`` is the
regex that chose the reader's fast path before lines were split: every
gate line the split path reads must match it.
"""

import random
import re
from collections import deque
from typing import Dict, List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.fieldmath.irreducible import default_irreducible
from repro.gen.digit_serial import generate_digit_serial
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.random_logic import generate_random_netlist
from repro.gen.schoolbook import generate_schoolbook
from repro.gen.squarer import generate_squarer
from repro.netlist.eqn_io import EqnFormatError, format_eqn, parse_eqn
from repro.netlist.gate import Gate, GateType, gate_arity
from repro.netlist.netlist import NetlistError
from repro.synth.pipeline import synthesize


class SeedNetlist:
    """The original ``Netlist`` construction, validation and ordering."""

    def __init__(self, name, inputs=(), outputs=()):
        self.name = name
        self.inputs: List[str] = list(inputs)
        self.outputs: List[str] = list(outputs)
        self._gates: List[Gate] = []
        self._driver: Dict[str, Gate] = {}
        self._topo_cache = None

    def add_gate(self, gate: Gate) -> None:
        """Append a gate; rejects double-driven nets immediately."""
        if gate.output in self._driver:
            raise NetlistError(f"net {gate.output!r} has multiple drivers")
        if gate.output in self.inputs:
            raise NetlistError(f"primary input {gate.output!r} cannot be driven")
        self._driver[gate.output] = gate
        self._gates.append(gate)
        self._topo_cache = None

    def add_input(self, name: str) -> None:
        if name in self._driver:
            raise NetlistError(f"net {name!r} is already driven by a gate")
        if name not in self.inputs:
            self.inputs.append(name)

    def add_output(self, name: str) -> None:
        if name not in self.outputs:
            self.outputs.append(name)

    @property
    def gates(self) -> List[Gate]:
        return list(self._gates)

    def fanout_map(self) -> Dict[str, List[Gate]]:
        """Map net -> gates that read it."""
        fanout: Dict[str, List[Gate]] = {}
        for gate in self._gates:
            for net in gate.inputs:
                fanout.setdefault(net, []).append(gate)
        return fanout

    def validate(self) -> None:
        """Raise :class:`NetlistError` on any structural defect."""
        driven = set(self._driver)
        available = driven | set(self.inputs)
        for gate in self._gates:
            for net in gate.inputs:
                if net not in available:
                    raise NetlistError(
                        f"gate {gate.output!r} reads undriven net {net!r}"
                    )
        for net in self.outputs:
            if net not in available:
                raise NetlistError(f"primary output {net!r} is undriven")
        self.topological_order()  # raises on cycles

    def topological_order(self) -> List[Gate]:
        if self._topo_cache is not None:
            return self._topo_cache
        indegree: Dict[str, int] = {}
        for gate in self._gates:
            indegree[gate.output] = sum(
                1 for net in gate.inputs if net in self._driver
            )
        ready = deque(
            gate for gate in self._gates if indegree[gate.output] == 0
        )
        fanout = self.fanout_map()
        order: List[Gate] = []
        while ready:
            gate = ready.popleft()
            order.append(gate)
            for consumer in fanout.get(gate.output, ()):
                indegree[consumer.output] -= 1
                if indegree[consumer.output] == 0:
                    ready.append(consumer)
        if len(order) != len(self._gates):
            stuck = sorted(
                out for out, deg in indegree.items() if deg > 0
            )
            raise NetlistError(
                f"combinational cycle involving nets {stuck[:5]}"
            )
        self._topo_cache = order
        return order


def seed_parse_eqn(text: str, name: str = "netlist") -> SeedNetlist:
    netlist = SeedNetlist(name)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split("//", 1)[0].strip()
        if not line:
            continue
        upper = line.split(None, 1)
        keyword = upper[0].upper()
        if keyword == "INPUT":
            for net in (upper[1].replace(",", " ").split() if len(upper) > 1 else []):
                netlist.add_input(net)
            continue
        if keyword == "OUTPUT":
            for net in (upper[1].replace(",", " ").split() if len(upper) > 1 else []):
                netlist.add_output(net)
            continue
        netlist.add_gate(_seed_parse_gate_line(line, lineno))
    netlist.validate()
    return netlist


def _seed_parse_gate_line(line: str, lineno: int) -> Gate:
    if "=" not in line:
        raise EqnFormatError(f"line {lineno}: expected '=' in {line!r}")
    lhs, rhs = (part.strip() for part in line.split("=", 1))
    if not lhs or " " in lhs:
        raise EqnFormatError(f"line {lineno}: bad output net {lhs!r}")
    open_paren = rhs.find("(")
    if open_paren < 0 or not rhs.endswith(")"):
        raise EqnFormatError(f"line {lineno}: expected GATE(...) in {rhs!r}")
    type_name = rhs[:open_paren].strip().upper()
    try:
        gtype = GateType(type_name)
    except ValueError:
        raise EqnFormatError(
            f"line {lineno}: unknown gate type {type_name!r}"
        ) from None
    arg_text = rhs[open_paren + 1 : -1].strip()
    args = tuple(
        arg.strip() for arg in arg_text.split(",") if arg.strip()
    ) if arg_text else ()
    try:
        return Gate(lhs, gtype, args)
    except ValueError as exc:
        raise EqnFormatError(f"line {lineno}: {exc}") from exc


def outcome(parse, text):
    """Everything a reader exposes: the netlist or the error."""
    try:
        net = parse(text)
    except Exception as error:  # noqa: BLE001 - compared by type and text
        return ("error", type(error).__name__, str(error))
    return (
        net.name,
        net.inputs,
        net.outputs,
        [(g.output, g.gtype, g.inputs) for g in net.gates],
        [g.output for g in net.topological_order()],
    )


def assert_same(text):
    expected = outcome(seed_parse_eqn, text)
    assert outcome(parse_eqn, text) == expected
    return expected


MODULUS = default_irreducible(5)

ZOO = {
    "mastrovito": lambda: generate_mastrovito(MODULUS),
    "schoolbook": lambda: generate_schoolbook(MODULUS),
    "montgomery": lambda: generate_montgomery(MODULUS),
    "karatsuba": lambda: generate_karatsuba(MODULUS),
    "interleaved": lambda: generate_interleaved(MODULUS),
    "digit-serial": lambda: generate_digit_serial(MODULUS),
    "squarer": lambda: generate_squarer(MODULUS),
    "synthesized": lambda: synthesize(generate_mastrovito(MODULUS)),
    "nand-mapped": lambda: synthesize(
        generate_montgomery(MODULUS), use_xor_cells=False
    ),
    "random-logic": lambda: generate_random_netlist(11, 6, 60),
}


def shuffled_gate_lines(text, seed):
    """The same file with its gate lines in a random order."""
    lines = text.splitlines()
    header = [line for line in lines if "=" not in line]
    gates = [line for line in lines if "=" in line]
    random.Random(seed).shuffle(gates)
    return "\n".join(header + gates) + "\n"


@pytest.mark.parametrize("name", sorted(ZOO))
def test_generator_zoo_reads_identically(name):
    text = format_eqn(ZOO[name]())
    assert assert_same(text)[0] != "error"


@pytest.mark.parametrize("name", sorted(ZOO))
@pytest.mark.parametrize("seed", [1, 2])
def test_shuffled_gate_lines_read_identically(name, seed):
    text = shuffled_gate_lines(format_eqn(ZOO[name]()), seed)
    assert assert_same(text)[0] != "error"


@pytest.mark.parametrize(
    "text",
    [
        "INPUT a\nOUTPUT z\nz = CONST0()\n",
        "INPUT a\nOUTPUT z\nz = const1( )\n",
        "INPUT a b\nOUTPUT z\nz = and(a,,b)\n",
        "INPUT a b c\nOUTPUT z\nz = AND(a b, c)\n",
        "INPUT a b\nOUTPUT z\nz = AND(a, b\n",
        "INPUT a b\nOUTPUT z\nz = AND(a, (b))\n",
        "INPUT a b\nOUTPUT z\nz = AND(a, b) # tail\n",
        "INPUT a b\nOUTPUT z\nz = AND(a, b) // tail\n",
        "INPUT a b\nOUTPUT z\nz = AND(a, b)\nINPUT z\n",
        "INPUT a b\nOUTPUT z\nz = AND(a, b)\nz = OR(a, b)\n",
        "INPUT a b\nOUTPUT z\na = INV(b)\nz = BUF(a)\n",
        "INPUT a\nOUTPUT z\nx = AND(a, z)\nz = INV(x)\n",
        "INPUT a\nOUTPUT z\nz = AND(a, ghost)\n",
        "INPUT a\nOUTPUT z y\nz = INV(a)\n",
        "INPUT a\nOUTPUT z\nz = AND(a, ghost)\nx = INV(y)\ny = INV(x)\n",
        "INPUT a\nOUTPUT z\nz = INV(a, a)\n",
        "INPUT a\nOUTPUT z\nz = AND(a)\n",
        "INPUT a\nOUTPUT z\nz = FROB(a, a)\n",
        "INPUT a b\nOUTPUT z\ninput = AND(a, b)\nz = BUF(a)\n",
        "INPUT a b\nOUTPUT z\nOutput=AND(a, b)\nz = BUF(Output)\n",
        "INPUT a b\nOUTPUT z\nz = AND(a, b)\n",
        "INPUT a b\nOUTPUT z\nz = AND(a,\x0cb)\n",
        "INPUT a b\nOUTPUT z\nz = AND(a,\u2028b)\n",
        "INPUT a b\nOUTPUT z\nz = AND(a, b)\u2028\n",
        "INPUT a b\nOUTPUT z\nz\t=\tXOR(a,\tb)\n",
        "INPUT a b\nOUTPUT z\nz = XOR(a,\xa0b)\n",
        "INPUT a b\nOUTPUT z\nz = XOR(a, a, b)\n",
        "INPUT a b\nOUTPUT z\nz y = XOR(a, b)\n",
        "INPUT a b\nOUTPUT z\n = XOR(a, b)\n",
        "INPUT a b\nOUTPUT z\nz XOR(a, b)\n",
        "INPUT a b\nOUTPUT z\nz = XOR(a=b, b)\n",
    ],
)
def test_hostile_lines(text):
    assert_same(text)


#: Lines in the writer's canonical spacing, ``out = TYPE(a, b)``, that
#: the split fast path must leave to the general parser (or read the
#: same way it would).
CANONICAL_SPACING = {
    "hash in an operand": "INPUT a b\nOUTPUT z\nz = AND(a#b, b)\n",
    "hash in the output": "INPUT a b\nOUTPUT z\nz#1 = AND(a, b)\n",
    "slashes in an operand": "INPUT a b\nOUTPUT z\nz = AND(a//b, b)\n",
    "slashes in the output": "INPUT a b\nOUTPUT z\nz//1 = AND(a, b)\n",
    "equals in an operand": "INPUT a b\nOUTPUT z\nz = AND(a=b, b)\n",
    "equals in the output": "INPUT a b\nOUTPUT z\nz=1 = AND(a, b)\n",
    "open paren in an operand": "INPUT a b\nOUTPUT z\nz = AND(a(b, b)\n",
    "close paren in an operand": "INPUT a b\nOUTPUT z\nz = AND(a)b, b)\n",
    "parens in the output": "INPUT a b\nOUTPUT z\nz(1) = AND(a, b)\n",
    "comma in an operand": "INPUT a b\nOUTPUT z\nz = AND(a,b, b)\n",
    "comma in the output": "INPUT a b\nOUTPUT z\nz,1 = AND(a, b)\n",
    "declared odd names": (
        "INPUT a(b a,b\nOUTPUT z\nz = AND(a(b, b)\n"
    ),
    "empty last operand": "INPUT a b\nOUTPUT z\nz = AND(a, )\n",
    "empty first operand": "INPUT a b\nOUTPUT z\nz = AND(, a)\n",
    "empty middle operand": "INPUT a b\nOUTPUT z\nz = AND(a, , b)\n",
    "empty output": "INPUT a b\nOUTPUT z\n = AND(a, b)\n",
    "tab in the operands": "INPUT a b\nOUTPUT z\nz = AND(a,\tb)\n",
    "tab indent": "INPUT a b\nOUTPUT z\n\tz = AND(a, b)\n",
    "tab after the line": "INPUT a b\nOUTPUT z\nz = AND(a, b)\t\n",
    "tab in a name": "INPUT a b\nOUTPUT z\nz = AND(a\tb, b)\n",
    "INPUT as the output": (
        "INPUT a b\nOUTPUT z\nINPUT = AND(a, b)\nz = BUF(a)\n"
    ),
    "input as the output": (
        "INPUT a b\nOUTPUT z\ninput = AND(a, b)\nz = BUF(a)\n"
    ),
    "OutPut as the output": (
        "INPUT a b\nOUTPUT z\nOutPut = AND(a, b)\nz = BUF(a)\n"
    ),
    "inputs as the output": (
        "INPUT a b\nOUTPUT z\ninputs = AND(a, b)\nz = BUF(inputs)\n"
    ),
    "lowercase type": "INPUT a b\nOUTPUT z\nz = nand(a, b)\n",
    "mixed-case type": "INPUT a b\nOUTPUT z\nz = Aoi21(a, b, a)\n",
    "non-ASCII type": "INPUT a\nOUTPUT z\nz = \u0131nv(a)\n",
    "unknown type": "INPUT a b\nOUTPUT z\nz = FROB(a, b)\n",
    "empty type": "INPUT a b\nOUTPUT z\nz = (a, b)\n",
    "too few operands": "INPUT a b\nOUTPUT z\nz = AND(a)\n",
    "too many operands": "INPUT a b\nOUTPUT z\nz = INV(a, b)\n",
    "operands for a constant": "INPUT a\nOUTPUT z\nz = CONST1(a)\n",
    "constant": "INPUT a\nOUTPUT z y\nz = CONST0()\ny = const1()\n",
    "redriven net": (
        "INPUT a b\nOUTPUT z\nz = AND(a, b)\nz = OR(a, b)\n"
    ),
    "driven primary input": "INPUT a b\nOUTPUT z\na = INV(b)\nz = BUF(a)\n",
    "input declared after its driver": (
        "INPUT a b\nOUTPUT z\nz = AND(a, b)\nINPUT z\n"
    ),
    "non-ASCII names": "INPUT \xe9 b\nOUTPUT z\nz = AND(\xe9, b)\n",
    "digit-first names": "INPUT 1a b\nOUTPUT 2z\n2z = AND(1a, b)\n",
    "bus and dotted names": (
        "INPUT a[0] b.c\nOUTPUT z$1\nz$1 = AND(a[0], b.c)\n"
    ),
    "trailing comment": "INPUT a b\nOUTPUT z\nz = AND(a, b) # (note)\n",
    "trailing close paren": "INPUT a b\nOUTPUT z\nz = AND(a, b))\n",
    "second equals": "INPUT a b\nOUTPUT y z\ny = z = AND(a, b)\n",
}


@pytest.mark.parametrize("case", sorted(CANONICAL_SPACING))
def test_canonical_spacing_lines(case):
    assert_same(CANONICAL_SPACING[case])


#: The regex that chose the fast path before the split reader: a
#: plain gate line with no comment and no declaration keyword first.
SEED_NET = r"[\w.\[\]$:<>-]+"
SEED_GATE_LINE = re.compile(
    rf"\s*(?!(?i:input|output)\s)({SEED_NET})\s*=\s*(\w+)\s*"
    rf"\(\s*({SEED_NET}(?: *, *{SEED_NET})*)?\s*\)\s*",
    re.ASCII,
)


def split_path_lines(text, monkeypatch):
    """The gate lines of a file that parses that the split path read:
    every gate line the general line parser did not see."""
    from repro.netlist import eqn_io

    general = []
    parse_line = eqn_io._parse_gate_line

    def spy(line, lineno):
        general.append(lineno)
        return parse_line(line, lineno)

    monkeypatch.setattr(eqn_io, "_parse_gate_line", spy)
    parse_eqn(text)
    gate_lines = {
        lineno: raw
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.split("#", 1)[0].split("//", 1)[0].strip())
        and line.split(None, 1)[0].upper() not in ("INPUT", "OUTPUT")
    }
    return [raw for lineno, raw in gate_lines.items() if lineno not in general]


@pytest.mark.parametrize(
    "case",
    sorted(
        case for case, text in CANONICAL_SPACING.items()
        if outcome(parse_eqn, text)[0] != "error"
    ),
)
def test_split_path_reads_only_lines_the_regex_read(case, monkeypatch):
    for raw in split_path_lines(CANONICAL_SPACING[case], monkeypatch):
        assert SEED_GATE_LINE.fullmatch(raw), raw


NAMES = ["a", "b", "c", "n1", "n2", "n3", "n4", "z", "input", "Output",
         "x.y", "q[0]"]
#: Names no ``INPUT a b c`` line declares.
INTERNAL = NAMES[3:]
TYPES = [t.value for t in GateType] + ["and", "Xor", "mux2", "FROB", ""]
JUNK = [" ", "\x0c", "\t", "\x1c", "\x85", "\xa0", " ", "#", "//", ",",
        "(", ")", "="]

gate_lines = st.builds(
    lambda lhs, gtype, args, sep, pad, tail: (
        f"{pad}{lhs}{pad}={pad}{gtype}({sep.join(args)}){pad}{tail}"
    ),
    st.sampled_from(NAMES),
    st.sampled_from(TYPES),
    st.lists(st.sampled_from(NAMES + [""]), max_size=5),
    st.sampled_from([", ", ",", " , ", ",,", " ", ",\t"]),
    st.sampled_from(["", " ", "  ", "\t"]),
    st.sampled_from(["", " # note", "// note", "#", " "]),
)

well_formed = st.sampled_from(list(GateType)).flatmap(
    lambda gtype: st.builds(
        lambda lhs, args, case: (
            f"{lhs} = {case(gtype.value)}({', '.join(args)})"
        ),
        st.sampled_from(INTERNAL),
        st.lists(
            st.sampled_from(NAMES),
            min_size=2 if gate_arity(gtype) is None else gate_arity(gtype),
            max_size=4 if gate_arity(gtype) is None else gate_arity(gtype),
        ),
        st.sampled_from([str, str.lower]),
    )
)

#: Names with the characters the grammar gives meaning to, empty and
#: non-ASCII names and declaration keywords, for lines in the writer's
#: canonical spacing that the split fast path must not misread.
ODD_NAMES = NAMES + ["", "a#b", "a//b", "a=b", "a(b", "b)", "a,b", "a\tb",
                     "a b", "\xe9", "1n", "INPUT", "OUTPUT"]

canonical_lines = st.builds(
    lambda lhs, gtype, args: f"{lhs} = {gtype}({', '.join(args)})",
    st.sampled_from(ODD_NAMES),
    st.sampled_from(TYPES + ["\u0131nv", "x = AND"]),
    st.lists(st.sampled_from(ODD_NAMES), max_size=5),
)

declarations = st.builds(
    lambda keyword, nets, sep: f"{keyword} {sep.join(nets)}".rstrip(),
    st.sampled_from(["INPUT", "OUTPUT", "input", "Output"]),
    st.lists(st.sampled_from(NAMES), max_size=4),
    st.sampled_from([" ", ", ", ","]),
)

soup = st.lists(
    st.sampled_from(NAMES + TYPES + JUNK + ["INPUT", "OUTPUT"]), max_size=8
).map("".join)


def with_junk(line_strategy):
    """Insert one junk character at a random position of a line."""
    return st.builds(
        lambda line, at, junk: line[:at] + junk + line[at:],
        line_strategy,
        st.integers(min_value=0, max_value=40),
        st.sampled_from(JUNK),
    )


hostile_text = st.lists(
    st.one_of(
        well_formed, well_formed, well_formed, gate_lines, declarations,
        canonical_lines, canonical_lines, soup, with_junk(well_formed),
        st.just(""), st.just("# comment"),
    ),
    max_size=14,
).map(lambda lines: "\n".join(["INPUT a b c"] + lines))


#: Well-formed lines only: the structural checks (duplicate drivers,
#: driven inputs, undriven nets and outputs, cycles) decide.
structural_text = st.lists(
    st.one_of(well_formed, well_formed, declarations), max_size=14
).map(lambda lines: "\n".join(["INPUT a b c"] + lines))


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(hostile_text, structural_text))
def test_hostile_text_reads_identically(text):
    assert_same(text)


@pytest.mark.parametrize("name", sorted(ZOO))
def test_written_files_take_the_split_path(name, monkeypatch):
    """Every gate line :func:`format_eqn` writes is read without the
    general line parser."""
    text = format_eqn(ZOO[name]())
    gate_lines = [line for line in text.splitlines() if " = " in line]
    assert split_path_lines(text, monkeypatch) == gate_lines
