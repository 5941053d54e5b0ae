"""BLIF (Berkeley Logic Interchange Format) subset.

Covers the combinational core of BLIF: ``.model``, ``.inputs``,
``.outputs``, ``.names`` with single-output covers, ``.end``.  This is
the interchange format ABC uses, so the synthesized-multiplier
experiments (Table III) can export/import circuits the same way the
paper's flow did.

Writing maps each gate to a canonical SOP cover.  Reading recognises
any single-output cover and classifies it back onto the cell library by
truth-table matching (covers up to 6 inputs); unrecognised functions
are rejected rather than silently mangled.
"""

from __future__ import annotations

import os
from itertools import product as _iter_product
from typing import Dict, List, Sequence, TextIO, Tuple, Union

from repro.ioutil import atomic_write_text, read_utf8
from repro.netlist.gate import Gate, GateType, evaluate_gate, gate_arity
from repro.netlist.netlist import GC_PAUSE, Netlist, NetlistError

PathOrFile = Union[str, os.PathLike, TextIO]


class BlifFormatError(NetlistError):
    """Malformed BLIF input or unsupported construct."""


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------

def _gate_cover(gate: Gate) -> List[str]:
    """SOP cover lines (inputs pattern + ' 1') for one gate."""
    n = len(gate.inputs)
    gtype = gate.gtype
    if gtype is GateType.CONST0:
        return []
    if gtype is GateType.CONST1:
        return ["1"]
    if gtype is GateType.BUF:
        return ["1 1"]
    if gtype is GateType.INV:
        return ["0 1"]
    if gtype is GateType.AND:
        return ["1" * n + " 1"]
    if gtype is GateType.NAND:
        return ["".join("0" if j == i else "-" for j in range(n)) + " 1"
                for i in range(n)]
    if gtype is GateType.OR:
        return ["".join("1" if j == i else "-" for j in range(n)) + " 1"
                for i in range(n)]
    if gtype is GateType.NOR:
        return ["0" * n + " 1"]
    # XOR/XNOR/AOI/OAI/MUX: enumerate minterms (arity is small).
    lines = []
    for bits in _iter_product((0, 1), repeat=n):
        value = evaluate_gate(gtype, list(bits), mask=1)
        if value:
            lines.append("".join(str(b) for b in bits) + " 1")
    return lines


def format_blif(netlist: Netlist) -> str:
    """Render a netlist as BLIF text."""
    lines = [f".model {netlist.name}"]
    lines.append(".inputs " + " ".join(netlist.inputs))
    lines.append(".outputs " + " ".join(netlist.outputs))
    for gate in netlist.topological_order():
        signals = " ".join(list(gate.inputs) + [gate.output])
        lines.append(f".names {signals}")
        lines.extend(_gate_cover(gate))
    lines.append(".end")
    return "\n".join(lines) + "\n"


def write_blif(netlist: Netlist, target: PathOrFile) -> None:
    """Write BLIF to a path (atomically) or open file."""
    text = format_blif(netlist)
    if hasattr(target, "write"):
        target.write(text)
    else:
        atomic_write_text(target, text)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------

def _truth_table_from_cover(
    cover: Sequence[str], num_inputs: int
) -> Tuple[int, ...]:
    """Evaluate an SOP cover into a dense truth table."""
    table = []
    for bits in _iter_product((0, 1), repeat=num_inputs):
        value = 0
        for line in cover:
            pattern, out = line.rsplit(None, 1) if " " in line else ("", line)
            if out != "1":
                raise BlifFormatError("only on-set covers are supported")
            pattern = pattern.replace(" ", "")
            if len(pattern) != num_inputs:
                raise BlifFormatError(
                    f"cover row {line!r} does not match {num_inputs} inputs"
                )
            if all(p == "-" or int(p) == b for p, b in zip(pattern, bits)):
                value = 1
                break
        table.append(value)
    return tuple(table)


def _classify_gate(
    inputs: Tuple[str, ...], cover: Sequence[str]
) -> Tuple[GateType, Tuple[str, ...]]:
    """Match a cover against the cell library by truth table."""
    n = len(inputs)
    if n == 0:
        if not cover:
            return GateType.CONST0, ()
        if all(line.strip() == "1" for line in cover):
            return GateType.CONST1, ()
        raise BlifFormatError(f"unrecognised constant cover {cover!r}")
    if n > 6:
        raise BlifFormatError(f"cover with {n} inputs is not classifiable")
    table = _truth_table_from_cover(cover, n)
    for gtype in GateType:
        fixed = gate_arity(gtype)
        if fixed is not None and fixed != n:
            continue
        if fixed is None and n < 2:
            continue
        expected = tuple(
            evaluate_gate(gtype, list(bits), mask=1)
            for bits in _iter_product((0, 1), repeat=n)
        )
        if expected == table:
            return gtype, inputs
    raise BlifFormatError(
        f"cover over {inputs} does not match any library cell"
    )


def parse_blif(text: str) -> Netlist:
    """Parse BLIF text into a :class:`Netlist`."""
    with GC_PAUSE:
        return _parse_blif(text)


def _parse_blif(text: str) -> Netlist:
    # Join continuation lines first.
    logical: List[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if logical and logical[-1].endswith("\\"):
            logical[-1] = logical[-1][:-1] + " " + line.strip()
        else:
            logical.append(line)
    while logical and logical[-1].endswith("\\"):
        logical[-1] = logical[-1][:-1]

    netlist = Netlist("blif")
    pending: Tuple[Tuple[str, ...], str] | None = None
    cover: List[str] = []

    def flush() -> None:
        nonlocal pending, cover
        if pending is None:
            return
        inputs, output = pending
        gtype, ordered = _classify_gate(inputs, cover)
        netlist.add_gate(Gate(output, gtype, ordered))
        pending, cover = None, []

    for line in logical:
        stripped = line.strip()
        if stripped.startswith("."):
            parts = stripped.split()
            directive = parts[0]
            if directive == ".model":
                flush()
                netlist.name = parts[1] if len(parts) > 1 else "blif"
            elif directive == ".inputs":
                flush()
                for net in parts[1:]:
                    netlist.add_input(net)
            elif directive == ".outputs":
                flush()
                for net in parts[1:]:
                    netlist.add_output(net)
            elif directive == ".names":
                flush()
                if len(parts) < 2:
                    raise BlifFormatError(f"bad .names line {line!r}")
                pending = (tuple(parts[1:-1]), parts[-1])
            elif directive == ".end":
                flush()
            else:
                raise BlifFormatError(f"unsupported directive {directive!r}")
        else:
            if pending is None:
                raise BlifFormatError(f"cover row outside .names: {line!r}")
            cover.append(stripped)
    flush()
    netlist.validate()
    return netlist


def read_blif(source: PathOrFile) -> Netlist:
    """Read BLIF from a path or open file."""
    if hasattr(source, "read"):
        return parse_blif(source.read())
    return parse_blif(read_utf8(source, BlifFormatError))
