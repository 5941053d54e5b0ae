"""Gate-level netlist substrate.

The paper's tool consumes flattened gate-level netlists ("# eqns" in
Tables I-III is the number of gate equations).  This package provides
the equivalent substrate:

``gate``
    the cell library — basic gates (INV/BUF/AND/OR/XOR/NAND/NOR/XNOR,
    n-ary where it makes sense) plus the complex standard cells
    (AOI21/AOI22/OAI21/OAI22, MUX2) produced by technology mapping;
``netlist``
    the :class:`Netlist` container — an integer-indexed core (net-name
    table, gate type codes, fan-in ids, cached Kahn order) with
    :class:`Gate` views built on demand — with topological sorting,
    per-output logic-cone extraction (Theorem 2 works cone-by-cone),
    bit-parallel simulation and statistics;
``build``
    :class:`NetlistBuilder` — the convenience layer the multiplier
    generators and the synthesizer use to emit gates, with optional
    structural hashing;
``eqn_io`` / ``blif_io`` / ``verilog_io``
    file formats (a functional equations format, a BLIF subset, and
    structural Verilog).
"""

from repro.netlist.gate import Gate, GateType, evaluate_gate, gate_arity
from repro.netlist.netlist import Netlist, NetlistError
from repro.netlist.build import NetlistBuilder
from repro.netlist.eqn_io import read_eqn, write_eqn, parse_eqn, format_eqn
from repro.netlist.blif_io import read_blif, write_blif
from repro.netlist.verilog_io import read_verilog, write_verilog

__all__ = [
    "Gate",
    "GateType",
    "evaluate_gate",
    "gate_arity",
    "Netlist",
    "NetlistError",
    "NetlistBuilder",
    "read_eqn",
    "write_eqn",
    "parse_eqn",
    "format_eqn",
    "read_blif",
    "write_blif",
    "read_verilog",
    "write_verilog",
]
