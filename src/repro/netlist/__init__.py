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

from repro._lazy import lazy_exports

_EXPORTS = {
    "Gate": "repro.netlist.gate",
    "GateType": "repro.netlist.gate",
    "evaluate_gate": "repro.netlist.gate",
    "gate_arity": "repro.netlist.gate",
    "Netlist": "repro.netlist.netlist",
    "NetlistError": "repro.netlist.netlist",
    "NetlistBuilder": "repro.netlist.build",
    "read_eqn": "repro.netlist.eqn_io",
    "write_eqn": "repro.netlist.eqn_io",
    "parse_eqn": "repro.netlist.eqn_io",
    "format_eqn": "repro.netlist.eqn_io",
    "read_blif": "repro.netlist.blif_io",
    "parse_blif": "repro.netlist.blif_io",
    "write_blif": "repro.netlist.blif_io",
    "read_verilog": "repro.netlist.verilog_io",
    "parse_verilog": "repro.netlist.verilog_io",
    "write_verilog": "repro.netlist.verilog_io",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
