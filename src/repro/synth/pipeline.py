"""The full synthesis pipeline — our stand-in for ``abc`` (Table III).

Since the AIG refactor the technology-independent half of the flow is
a composition of passes over the hash-consed IR (:mod:`repro.aig`):

1. :meth:`~repro.aig.Aig.from_netlist` — constant propagation,
   structural hashing, inverter-pair removal and the dead-node sweep
   all happen *by construction* while the graph is built;
2. :func:`~repro.aig.balance_xor_trees` then
   :func:`~repro.aig.balance_and_trees` — AIG→AIG: XOR trees are
   collected, duplicate leaves cancelled mod 2, and re-emitted
   balanced; AND chains are deduplicated and rebalanced the same way;
3. :meth:`~repro.aig.Aig.to_netlist` — AIG→Netlist: only live nodes
   are emitted, with the original port names;
4. :func:`~repro.synth.mapping.technology_map` (optional) — onto the
   standard-cell library, including the inverted/complex forms.

The result is the kind of netlist the paper's Table III extracts from:
functionally identical, structurally reshaped, expressed in mapped
cells rather than plain AND/XOR.
"""

from __future__ import annotations

from repro.aig import Aig, balance_and_trees, balance_xor_trees
from repro.netlist.netlist import Netlist
from repro.synth.mapping import technology_map


def synthesize(
    netlist: Netlist,
    map_cells: bool = True,
    use_xor_cells: bool = True,
) -> Netlist:
    """Optimize and (optionally) technology-map a netlist.

    ``map_cells=False`` stops after the technology-independent passes
    (AIG construction + XOR rebalancing).  ``use_xor_cells=False``
    additionally lowers XORs to NAND networks — the harshest mapped
    form for the extraction engine.

    >>> from repro.gen.mastrovito import generate_mastrovito
    >>> flat = generate_mastrovito(0b10011, balanced=False)
    >>> opt = synthesize(flat)
    >>> opt.name.endswith("_syn")
    True
    """
    staged = balance_and_trees(
        balance_xor_trees(Aig.from_netlist(netlist))
    ).to_netlist()
    if map_cells:
        staged = technology_map(staged, use_xor_cells=use_xor_cells)
    staged.name = f"{netlist.name}_syn"
    staged.validate()
    return staged
