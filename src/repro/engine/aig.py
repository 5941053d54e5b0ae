"""Cut-based backward rewriting over the hash-consed AIG.

The ``bitpack`` engine (:mod:`repro.engine.bitpack`) compiles the
netlist's memoized live AIG (:func:`repro.aig.live_aig`) into packed
flat polynomials plus one **direct-fanin model** per remaining node.
This backend is that program and that rewriting loop with two
cut-based additions (:mod:`repro.aig.cuts`):

* **flattening** — an AND node whose direct product is too expensive
  or too large tries its all-flat **k-feasible cuts**: the cut cone's
  exact ANF, computed from a truth table, can avoid the product
  entirely (a technology-mapped XOR cluster is a symmetric difference
  over the right cut).  Every node, shared or not, flattens up to one
  bound;
* **models** — a node above the bound is substituted through the best
  cut's ANF, expanded into leaf space, instead of its two fanins, so a
  mapped cluster inside the cut collapses to its polynomial *before*
  backward rewriting sees it, cut by cut instead of node by node.

Cut models are built lazily, one per node the rewriting reaches, and
the program is re-stored after rewriting when it grew
(:meth:`AigEngine._program_marker`), so the next cold process inherits
them.  The loop, the flat fast path, the residue check and the trace
format are bitpack's.  Results are bit-identical to the reference
backend (differential-tested); statistics and the memory-out point are
backend-specific, as the engine contract allows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.aig import cut_truth_table, enumerate_cuts, truth_table_to_anf
from repro.aig.cuts import iter_cuts
from repro.engine.bitpack import (
    _PAIR_BUDGET,
    BitpackEngine,
    _CompiledProgram,
    _flat_product,
    _Model,
)
from repro.netlist.netlist import Netlist

#: Largest packed leaf-space polynomial a node may flatten to.
_FLAT_BOUND = 64
#: Abort threshold for expanding flat cut leaves inside one monomial.
_EXPAND_BOUND = 2048
#: Cut enumeration parameters: leaf limit and cuts tried per node.
_CUT_K = 4
_CUT_LIMIT = 16


class _CompiledAig(_CompiledProgram):
    """The bitpack program with cut flattening and cut models.

    Same layout (and pickled state) as the bitpack program; only the
    flattening fallback, the bounds and the models differ.  Cut models
    are built lazily during rewriting and travel with the program when
    :meth:`AigEngine.finalize` re-stores it.
    """

    __slots__ = ()

    def _flat_bounds(self) -> Tuple[int, int]:
        return _FLAT_BOUND, _FLAT_BOUND

    def _complete(self) -> None:
        """Cut models are built on demand (see :meth:`model_of`)."""

    def _flatten_fallback(
        self, node: int, flats: Dict[int, Set[int]]
    ) -> Optional[Set[int]]:
        """Flat polynomial through the cheapest all-flat cut, if any.

        The ANF over a well-chosen cut sidesteps the pairwise product:
        a technology-mapped XOR cluster whose direct product would cost
        |p|·|q| is, over the cut at its true fanins, the linear
        ``1 + l0 + l1`` — the structural reason this backend does not
        pay the mapped-netlist blowup.
        """
        # Nearest all-flat cut that fits wins: deeper cuts are only
        # reached when the nearer frontier still contains non-flat
        # leaves (exactly the mapped-cluster case), so the expensive
        # part (truth table + expansion) runs at most a couple of
        # times per node.
        for cut in iter_cuts(self.aig, node, k=_CUT_K, limit=_CUT_LIMIT):
            if cut == (node,):
                continue
            polys = []
            estimate = 1
            for leaf in cut:
                poly = flats.get(leaf)
                if poly is None:
                    polys = None
                    break
                polys.append(poly)
                estimate *= 1 + len(poly)
            if polys is None or estimate > 4 * _PAIR_BUDGET:
                continue
            anf = truth_table_to_anf(
                cut_truth_table(self.aig, node, cut), len(cut)
            )
            total: Optional[Set[int]] = set()
            for mono_mask in anf:
                selected = [
                    polys[position]
                    for position in range(len(cut))
                    if (mono_mask >> position) & 1
                ]
                product = _flat_product(selected, _FLAT_BOUND)
                if product is None:
                    total = None
                    break
                total.symmetric_difference_update(product)
                if len(total) > _FLAT_BOUND:
                    total = None
                    break
            if total is not None and len(total) <= _FLAT_BOUND:
                return total
        return None

    # -- cut models ------------------------------------------------------

    def _build_model(self, node: int) -> _Model:
        best: Optional[_Model] = None
        best_score = None
        for cut in enumerate_cuts(self.aig, node, k=_CUT_K, limit=_CUT_LIMIT):
            if cut == (node,):
                continue  # a model must reference strictly earlier nodes
            model = self._cut_model(node, cut)
            if model is None:
                continue
            opaque_entries = sum(1 for _, opaque in model if opaque)
            score = (opaque_entries, len(model))
            if best_score is None or score < best_score:
                best, best_score = model, score
                if score == (0, 1):
                    break
        if best is None:
            # Guaranteed fallback: the direct-fanin cut with every
            # non-trivial leaf kept as a variable never explodes.
            f0, f1 = self.aig.fanins(node)
            best = self._cut_model(
                node, tuple(sorted({f0 >> 1, f1 >> 1})), max_leaf_flat=1
            )
            assert best is not None
        return best

    def _cut_model(
        self,
        node: int,
        cut: Tuple[int, ...],
        max_leaf_flat: int = _FLAT_BOUND,
    ) -> Optional[_Model]:
        """The cut cone's exact ANF, expanded into PI space.

        Flat leaves whose polynomial has at most ``max_leaf_flat``
        monomials are multiplied out; the rest stay opaque variables.
        Returns ``None`` when an expansion outgrows the bound.
        """
        table = cut_truth_table(self.aig, node, cut)
        anf = truth_table_to_anf(table, len(cut))
        flats = self.flats
        estimate = 0
        for mono_mask in anf:
            cost = 1
            remaining = mono_mask
            position = 0
            while remaining:
                if remaining & 1:
                    poly = flats.get(cut[position])
                    if poly is not None and len(poly) <= max_leaf_flat:
                        cost *= len(poly)
                remaining >>= 1
                position += 1
            estimate += cost
        if estimate > 4 * _EXPAND_BOUND:
            return None
        counts: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        for mono_mask in anf:
            flat_polys: List[Set[int]] = []
            opaque: List[int] = []
            remaining = mono_mask
            position = 0
            while remaining:
                if remaining & 1:
                    leaf = cut[position]
                    poly = flats.get(leaf)
                    if poly is not None and len(poly) <= max_leaf_flat:
                        flat_polys.append(poly)
                    else:
                        opaque.append(leaf)
                remaining >>= 1
                position += 1
            product = _flat_product(flat_polys, _EXPAND_BOUND)
            if product is None:
                return None
            key_nodes = tuple(sorted(opaque))
            for mask in product:
                key = (mask, key_nodes)
                counts[key] = counts.get(key, 0) ^ 1
        return tuple(key for key, parity in counts.items() if parity)


class AigEngine(BitpackEngine):
    """Backward rewriting cut-by-cut over the strashed AIG."""

    name = "aig"
    #: Bump on any change to :class:`_CompiledAig`'s layout.  The
    #: ``vector`` backend compiles the very same program, so both
    #: share the ``aig`` key in the compiled-program cache.
    compile_schema = 1
    compile_key = "aig"

    def _compile(self, netlist: Netlist) -> _CompiledAig:
        return _CompiledAig(netlist)

    def _program_marker(self, compiled: _CompiledAig) -> int:
        # Cut models accrete lazily during rewriting; a changed count
        # makes finalize() re-store the program so the next cold
        # process inherits them.
        return len(compiled._models)
