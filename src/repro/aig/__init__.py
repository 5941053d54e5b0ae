"""repro.aig — the hash-consed And-Inverter Graph IR.

Why a subsystem
---------------
Before this package, every layer that cared about netlist *structure*
reinvented its own canonical form: the synthesis pipeline rebuilt
string-named :class:`~repro.netlist.netlist.Netlist`\\ s pass by pass,
the service fingerprint re-ran strash plus a separate Merkle labelling
on every cache lookup, and the rewriting engines walked gate-by-gate
over named nets.  ABC's productivity comes from the opposite
arrangement: *one* hash-consed And-Inverter Graph that synthesis,
equivalence checking and technology mapping all share.  This package
is that shared representation.

The representation
------------------
* A **node** is an integer id into parallel arrays.  Node ``0`` is the
  constant-0 node; the others are primary inputs (leaves), two-input
  ANDs, or two-input XORs (XOR is first-class — GF(2^m) datapaths are
  XOR-dominated, and lowering XOR to three ANDs would hide exactly the
  structure the synthesis and extraction layers exploit).
* A **literal** is ``2 * node + complement``: inversion is a bit flip
  on the edge, never a gate.  ``CONST0 = 0`` and ``CONST1 = 1``.
* Construction is **hash-consed**: :meth:`Aig.aig_and` /
  :meth:`Aig.aig_xor` normalise their operands (constant folding,
  idempotence/cancellation, commutative ordering, complements pulled
  out of XOR fanins) and consult a structural table, so common
  subexpressions, inverter pairs and dead constants are eliminated *by
  construction* — strash is not a pass here, it is the data structure.
* Node ids are created fanin-first, so ascending id order **is** a
  topological order; :meth:`Aig.live_nodes` gives the dead-node sweep
  for free, and :func:`live_aig` memoizes a netlist's swept graph so
  every layer that needs it shares one strash.

Round-trip and passes
---------------------
:meth:`Aig.from_netlist` lowers every
:class:`~repro.netlist.gate.GateType` (including the mapped AOI/OAI/
MUX cells) onto the AND/XOR/complement core;
:meth:`Aig.to_netlist` re-emits a plain ``AND``/``XOR``/``INV``
netlist with the original port names.  :mod:`repro.aig.balance`
rebalances XOR and AND trees AIG→AIG.

Shared by
---------
* ``repro.synth`` — :func:`~repro.synth.pipeline.synthesize` builds
  the AIG once (constant propagation, strash and the dead-node sweep
  fall out of construction),
  balances it, and hands the result to technology mapping; and
  :func:`~repro.synth.strash.structural_hash` uses AIG literal
  identity as its one and only equivalence oracle;
* ``repro.service`` — the content fingerprint derives its Merkle
  labels directly from the hash-consed node table in one traversal;
* ``repro.engine`` — the ``bitpack`` backend compiles the memoized
  live graph into one program and backward-rewrites it node by node
  through direct-fanin models, over packed leaf-space polynomials.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Aig": "repro.aig.aig",
    "AigError": "repro.aig.aig",
    "CONST0": "repro.aig.aig",
    "CONST1": "repro.aig.aig",
    "balance_and_trees": "repro.aig.balance",
    "balance_xor_trees": "repro.aig.balance",
    "lit_complement": "repro.aig.aig",
    "lit_is_complemented": "repro.aig.aig",
    "lit_node": "repro.aig.aig",
    "live_aig": "repro.aig.aig",
    "make_lit": "repro.aig.aig",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
