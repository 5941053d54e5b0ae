"""The equations netlist format (``.eqn``).

This is the working format of the reproduction — one gate equation per
line, in exactly the granularity the paper counts in its "# eqns"
columns.  It is trivially diffable and easy to generate from other
tools.

Grammar::

    # comment                          (also //)
    INPUT  a0 a1 b0 b1
    OUTPUT z0 z1
    n1 = AND(a0, b0)
    n2 = XOR(n1, n3)
    z0 = INV(n2)

Gate names are the :class:`~repro.netlist.gate.GateType` values;
declarations may repeat and may appear anywhere before use.
"""

from __future__ import annotations

import io
import os
import re
import sys
from typing import Iterable, List, TextIO, Union

from repro.ioutil import atomic_write_text, read_utf8
from repro.netlist.gate import GATE_CODE, Gate, GateType, gate_arity
from repro.netlist.netlist import GC_PAUSE, Netlist, NetlistError

PathOrFile = Union[str, os.PathLike, TextIO]


class EqnFormatError(NetlistError):
    """Malformed ``.eqn`` input."""


def format_eqn(netlist: Netlist) -> str:
    """Render a netlist to the equations format.

    Gates are written in topological order, so the output doubles as a
    valid evaluation schedule.
    """
    out = io.StringIO()
    out.write(f"# netlist {netlist.name}\n")
    out.write(f"# gates {len(netlist)}\n")
    _write_decl(out, "INPUT", netlist.inputs)
    _write_decl(out, "OUTPUT", netlist.outputs)
    for gate in netlist.topological_order():
        args = ", ".join(gate.inputs)
        out.write(f"{gate.output} = {gate.gtype.value}({args})\n")
    return out.getvalue()


def _write_decl(out: TextIO, keyword: str, names: List[str]) -> None:
    """Write INPUT/OUTPUT declarations, wrapped to readable width."""
    for start in range(0, len(names), 16):
        chunk = " ".join(names[start : start + 16])
        if chunk:
            out.write(f"{keyword} {chunk}\n")


#: A net name on the fast path: ASCII, no whitespace and none of the
#: characters the grammar gives meaning to (``=(),#/``).
_NET = r"[\w.\[\]$:<>-]+"

#: A plain gate line ``lhs = TYPE(arg, ...)`` with no comment.  Any line
#: that does not match takes the general path below, which also writes
#: every parse error.  The lookahead leaves ``INPUT = ...``-style lines
#: (a declaration keyword as the first word) to the general path.
_GATE_LINE = re.compile(
    rf"\s*(?!(?i:input|output)\s)({_NET})\s*=\s*(\w+)\s*"
    rf"\(\s*({_NET}(?: *, *{_NET})*)?\s*\)\s*",
    re.ASCII,
)

#: Gate type name -> (type code, least and most inputs): the arity rule
#: that ``Gate.__post_init__`` enforces.
_GATE_TYPES = {
    gtype.value: (GATE_CODE[gtype], 2, sys.maxsize)
    if gate_arity(gtype) is None
    else (GATE_CODE[gtype], gate_arity(gtype), gate_arity(gtype))
    for gtype in GateType
}


def parse_eqn(text: str, name: str = "netlist") -> Netlist:
    """Parse equations-format text into a :class:`Netlist`.

    One pass over the lines builds and checks the netlist: plain gate
    lines go through one precompiled regex and are appended straight
    to the netlist's integer core (net ids, type code, fan-in ids; the
    arity and the driver checks are inline), every other line through
    the general line parser.  A plain line that fails a check takes
    the general path too, which raises the error.  The closing
    :meth:`~Netlist.validate` is the single topological sort, so the
    netlist, its gate order and every error (type, message and which
    comes first) are those of a line-by-line parse.

    >>> net = parse_eqn('''
    ... INPUT a b
    ... OUTPUT z
    ... z = XOR(a, b)
    ... ''')
    >>> net.simulate({"a": 1, "b": 0})
    {'z': 1}
    """
    match_gate = _GATE_LINE.fullmatch
    types = _GATE_TYPES
    with GC_PAUSE:
        netlist = Netlist(name)
        # The core of the netlist, appended to in place as add_gate
        # would (see repro.netlist.netlist).
        nets = netlist._nets
        intern = nets.__getitem__
        lookup = nets.get
        names = nets.names
        driver = nets.driver
        inputs = netlist._input_set
        codes = netlist._codes
        outs = netlist._outs
        fanins = netlist._fanins
        for lineno, raw in enumerate(text.splitlines(), start=1):
            match = match_gate(raw)
            if match is not None:
                output, type_name, arg_text = match.groups()
                kind = types.get(type_name) or types.get(type_name.upper())
                # Names hold no spaces and separators are " *, *".
                args = arg_text.replace(" ", "").split(",") if arg_text else ()
                if kind is not None and kind[1] <= len(args) <= kind[2]:
                    out = lookup(output)
                    if out is None:  # a new net, interned inline
                        out = nets[output] = len(names)
                        names.append(output)
                        driver.append(len(codes))
                    elif driver[out] is None and output not in inputs:
                        driver[out] = len(codes)
                    else:
                        # Already driven, or a primary input: the
                        # general path raises add_gate's error.
                        out = None
                    if out is not None:
                        codes.append(kind[0])
                        outs.append(out)
                        fanins.append(tuple(map(intern, args)))
                        continue
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
            netlist.add_gate(_parse_gate_line(line, lineno))
        netlist.validate()
    return netlist


def _parse_gate_line(line: str, lineno: int) -> Gate:
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


def write_eqn(netlist: Netlist, target: PathOrFile) -> None:
    """Write the equations format to a path (atomically) or open file."""
    text = format_eqn(netlist)
    if hasattr(target, "write"):
        target.write(text)
    else:
        atomic_write_text(target, text)


def read_eqn(source: PathOrFile, name: str | None = None) -> Netlist:
    """Read the equations format from a path or open file."""
    if hasattr(source, "read"):
        text = source.read()
        return parse_eqn(text, name or "netlist")
    text = read_utf8(source, EqnFormatError)
    default = os.path.splitext(os.path.basename(os.fspath(source)))[0]
    return parse_eqn(text, name or default)
