"""Structural Verilog writer and reader (gate-primitive subset).

The writer emits one module using Verilog's built-in gate primitives
(``and``, ``or``, ``xor``, ``nand``, ``nor``, ``xnor``, ``not``,
``buf``) plus ``assign`` statements for the complex cells (AOI/OAI/MUX)
— the dialect any EDA tool accepts.

The reader parses the same subset back: module header, ``input`` /
``output`` / ``wire`` declarations, primitive instantiations, and the
specific ``assign`` shapes the writer produces.  It is not a general
Verilog front end; anything else raises :class:`VerilogFormatError`.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, TextIO, Tuple, Union

from repro.ioutil import atomic_write_text, read_utf8
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import GC_PAUSE, Netlist, NetlistError

PathOrFile = Union[str, os.PathLike, TextIO]


class VerilogFormatError(NetlistError):
    """Malformed or unsupported Verilog input."""


_PRIMITIVE_OF = {
    GateType.AND: "and",
    GateType.OR: "or",
    GateType.XOR: "xor",
    GateType.NAND: "nand",
    GateType.NOR: "nor",
    GateType.XNOR: "xnor",
    GateType.INV: "not",
    GateType.BUF: "buf",
}

_TYPE_OF_PRIMITIVE = {v: k for k, v in _PRIMITIVE_OF.items()}


def _escape(net: str) -> str:
    """Escape net names that are not plain Verilog identifiers."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$]*", net):
        return net
    return f"\\{net} "


def format_verilog(netlist: Netlist) -> str:
    """Render a netlist as a structural Verilog module."""
    ports = netlist.inputs + netlist.outputs
    lines = [f"module {netlist.name} ({', '.join(_escape(p) for p in ports)});"]
    for net in netlist.inputs:
        lines.append(f"  input {_escape(net)};")
    for net in netlist.outputs:
        lines.append(f"  output {_escape(net)};")
    port_set = set(ports)
    wires = sorted(
        gate.output for gate in netlist.gates if gate.output not in port_set
    )
    for net in wires:
        lines.append(f"  wire {_escape(net)};")
    for idx, gate in enumerate(netlist.topological_order()):
        out = _escape(gate.output)
        ins = [_escape(net) for net in gate.inputs]
        primitive = _PRIMITIVE_OF.get(gate.gtype)
        if primitive is not None:
            args = ", ".join([out] + ins)
            lines.append(f"  {primitive} g{idx} ({args});")
        elif gate.gtype is GateType.CONST0:
            lines.append(f"  assign {out} = 1'b0;")
        elif gate.gtype is GateType.CONST1:
            lines.append(f"  assign {out} = 1'b1;")
        elif gate.gtype is GateType.AOI21:
            a, b, c = ins
            lines.append(f"  assign {out} = ~(({a} & {b}) | {c});")
        elif gate.gtype is GateType.AOI22:
            a, b, c, d = ins
            lines.append(f"  assign {out} = ~(({a} & {b}) | ({c} & {d}));")
        elif gate.gtype is GateType.OAI21:
            a, b, c = ins
            lines.append(f"  assign {out} = ~(({a} | {b}) & {c});")
        elif gate.gtype is GateType.OAI22:
            a, b, c, d = ins
            lines.append(f"  assign {out} = ~(({a} | {b}) & ({c} | {d}));")
        elif gate.gtype is GateType.MUX2:
            s, d1, d0 = ins
            lines.append(f"  assign {out} = {s} ? {d1} : {d0};")
        else:
            raise VerilogFormatError(f"cannot emit gate type {gate.gtype}")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def write_verilog(netlist: Netlist, target: PathOrFile) -> None:
    """Write structural Verilog to a path (atomically) or open file."""
    text = format_verilog(netlist)
    if hasattr(target, "write"):
        target.write(text)
    else:
        atomic_write_text(target, text)


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------

_ASSIGN_PATTERNS: List[Tuple[GateType, re.Pattern]] = [
    (GateType.AOI22,
     re.compile(r"~\(\((\S+) & (\S+)\) \| \((\S+) & (\S+)\)\)")),
    (GateType.AOI21, re.compile(r"~\(\((\S+) & (\S+)\) \| (\S+)\)")),
    (GateType.OAI22,
     re.compile(r"~\(\((\S+) \| (\S+)\) & \((\S+) \| (\S+)\)\)")),
    (GateType.OAI21, re.compile(r"~\(\((\S+) \| (\S+)\) & (\S+)\)")),
    (GateType.MUX2, re.compile(r"(\S+) \? (\S+) : (\S+)")),
]


def _unescape(token: str) -> str:
    token = token.strip()
    if token.startswith("\\"):
        return token[1:].strip()
    return token


def parse_verilog(text: str) -> Netlist:
    """Parse the writer's structural-Verilog subset."""
    with GC_PAUSE:
        return _parse_verilog(text)


def _parse_verilog(text: str) -> Netlist:
    # Strip comments, join into statements on ';'.
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    header = re.search(r"module\s+(\S+)\s*\((.*?)\)\s*;", text, flags=re.S)
    if not header:
        raise VerilogFormatError("no module header found")
    netlist = Netlist(header.group(1))
    body = text[header.end():]
    end = body.find("endmodule")
    if end < 0:
        raise VerilogFormatError("missing endmodule")
    body = body[:end]
    for statement in (s.strip() for s in body.split(";")):
        if not statement:
            continue
        keyword = statement.split(None, 1)[0]
        if keyword in ("input", "output", "wire"):
            decl = statement[len(keyword):]
            for token in decl.split(","):
                net = _unescape(token)
                if not net:
                    continue
                if keyword == "input":
                    netlist.add_input(net)
                elif keyword == "output":
                    netlist.add_output(net)
        elif keyword in _TYPE_OF_PRIMITIVE:
            inst = re.match(r"\S+\s+\S+\s*\((.*)\)", statement, flags=re.S)
            if not inst:
                raise VerilogFormatError(f"bad instantiation: {statement!r}")
            args = [_unescape(a) for a in inst.group(1).split(",")]
            gtype = _TYPE_OF_PRIMITIVE[keyword]
            netlist.add_gate(_gate(args[0], gtype, tuple(args[1:]), statement))
        elif keyword == "assign":
            match = re.match(r"assign\s+(\S+)\s*=\s*(.*)", statement, flags=re.S)
            if not match:
                raise VerilogFormatError(f"bad assign: {statement!r}")
            target = _unescape(match.group(1))
            rhs = match.group(2).strip()
            netlist.add_gate(_parse_assign(target, rhs, statement))
        else:
            raise VerilogFormatError(f"unsupported statement: {statement!r}")
    netlist.validate()
    return netlist


def _gate(
    output: str, gtype: GateType, inputs: Tuple[str, ...], statement: str
) -> Gate:
    """A gate; a wrong input count is a :class:`VerilogFormatError`."""
    try:
        return Gate(output, gtype, inputs)
    except ValueError as exc:
        raise VerilogFormatError(f"{exc} in {statement!r}") from exc


def _parse_assign(target: str, rhs: str, statement: str) -> Gate:
    if rhs == "1'b0":
        return _gate(target, GateType.CONST0, (), statement)
    if rhs == "1'b1":
        return _gate(target, GateType.CONST1, (), statement)
    for gtype, pattern in _ASSIGN_PATTERNS:
        match = pattern.fullmatch(rhs)
        if match:
            inputs = tuple(_unescape(g) for g in match.groups())
            return _gate(target, gtype, inputs, statement)
    raise VerilogFormatError(f"unsupported assign expression: {rhs!r}")


def read_verilog(source: PathOrFile) -> Netlist:
    """Read structural Verilog from a path or open file."""
    if hasattr(source, "read"):
        return parse_verilog(source.read())
    return parse_verilog(read_utf8(source, VerilogFormatError))
