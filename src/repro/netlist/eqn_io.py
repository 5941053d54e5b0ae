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
import itertools
import os
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


#: First words that make a line a declaration, in every letter case
#: (the general path upper-cases the first word).  A gate line whose
#: output net is one of them takes the general path.
_KEYWORDS = frozenset(
    "".join(letters)
    for word in ("input", "output")
    for letters in itertools.product(*zip(word, word.upper()))
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

    One pass over the lines builds and checks the netlist.  A gate line
    in the form :func:`format_eqn` writes, ``out = TYPE(a, b)``, is
    split at ``" = "``, the first ``"("`` and ``", "`` and appended
    straight to the netlist's integer core (net ids, type code, fan-in
    ids; the arity and the driver checks are inline).  It takes this
    path only when every net name is an ASCII identifier, the type name
    is ASCII and known in some letter case, and the output net is not a
    declaration keyword.  Every other line (other spacing, a comment,
    other name characters, a declaration) goes through the general line
    parser, which reads it the same way, only more slowly.  A split
    line that fails a check takes the general path too, which raises
    the error.
    The closing :meth:`~Netlist.validate` is the single topological
    sort, so the netlist, its gate order and every error (type, message
    and which comes first) are those of a line-by-line parse.

    >>> net = parse_eqn('''
    ... INPUT a b
    ... OUTPUT z
    ... z = XOR(a, b)
    ... ''')
    >>> net.simulate({"a": 1, "b": 0})
    {'z': 1}
    """
    types = _GATE_TYPES
    keywords = _KEYWORDS
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
            output, _, rhs = raw.partition(" = ")
            type_name, _, rest = rhs.partition("(")
            kind = types.get(type_name)
            if kind is None and type_name.isascii():
                kind = types.get(type_name.upper())
            if kind is not None and rest[-1:] == ")":
                args = rest[:-1].split(", ") if len(rest) > 1 else ()
                arity = len(args)
                # One identifier test covers every name: ASCII
                # identifier characters hold no space, separator,
                # comment or paren, and no name may be empty.
                probe = output + "".join(args)
                if (
                    output
                    and "" not in args
                    and kind[1] <= arity <= kind[2]
                    and probe.isascii()
                    and probe.isidentifier()
                    and output not in keywords
                ):
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
                        # Two operands, the common cell, are interned by
                        # subscript (as intern does), without a map.
                        fanins.append(
                            (nets[args[0]], nets[args[1]]) if arity == 2
                            else tuple(map(intern, args))
                        )
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
