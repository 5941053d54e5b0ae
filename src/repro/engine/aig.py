"""Cut-based backward rewriting over the hash-consed AIG.

Motivation
----------
The ``bitpack`` engine rewrites *gate by gate*: every cell of the cone
contributes its own algebraic model, so on technology-mapped netlists —
where a single XOR became four NANDs and inverter ladders thread every
cell — the intermediate expression churns through thousands of
``1 + x``-shaped monomials that only cancel several substitutions
later.  This backend removes that blowup structurally:

* the netlist is first **strashed into the AIG**
  (:meth:`repro.aig.Aig.from_netlist`) — inverter pairs vanish into
  complement edges and duplicated mapped structure is shared by
  construction — and swept to the outputs' live fan-in
  (:func:`repro.aig.live_aig`: the strash the content fingerprint
  already paid for, and without the dead inner NANDs of every
  recognised XOR cluster);
* a forward pass **flattens** each live node into a packed PI-space
  polynomial while it stays below a size bound; complements cost one
  constant-monomial toggle instead of a model substitution, so
  flattening reaches much further than the netlist-level pass;
* nodes above the bound get their substitution model from the best
  **k-feasible cut** (:mod:`repro.aig.cuts`): the cut cone's exact ANF
  is computed from a truth table, so a four-NAND XOR — or any other
  mapped cluster inside the cut — collapses to its two-term polynomial
  *before* backward rewriting ever sees it, cut by cut instead of gate
  by gate.

The rewriting loop itself reuses the bitpack machinery — interned
bitmask monomials (:mod:`repro.engine.interning`), the occurrence
index and the reverse-topological worklist — with AIG node ids taking
the place of topological gate positions (ascending node id *is* the
topological order).  Results are bit-identical to the reference
backend (differential-tested); statistics and the memory-out point are
backend-specific, as the engine contract allows.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.aig import (
    Aig,
    cut_truth_table,
    enumerate_cuts,
    live_aig,
    truth_table_to_anf,
)
from repro.aig.cuts import iter_cuts
from repro.engine.base import CompilingEngine, cone_span
from repro.engine.bitpack import PackedExpression, _flat_product
from repro.engine.interning import SignalInterner
from repro.gf2.polynomial import Gf2Poly
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import (
    BackwardRewriteError,
    RewriteStats,
    TermLimitExceeded,
    TraceStep,
)

#: Largest packed PI-space polynomial a node may flatten to.
_FLAT_BOUND = 64
#: Abort threshold for expanding flat cut leaves inside one monomial.
_EXPAND_BOUND = 2048
#: Largest pairwise product cost (|p|·|q|) attempted directly; above
#: it the cut route decides (its ANF may avoid the product entirely —
#: a mapped XOR cluster is a symmetric difference over the right cut).
_PAIR_BUDGET = 1024
#: Cut enumeration parameters: leaf limit and cuts tried per node.
_CUT_K = 4
_CUT_LIMIT = 16

#: A substitution model: mod-2 monomials as (pi_mask, opaque node ids).
_Model = Tuple[Tuple[int, Tuple[int, ...]], ...]


class _CompiledAig:
    """One netlist strashed, flattened and cut-modelled for rewriting."""

    __slots__ = (
        "aig",
        "net_literal",
        "leaf_index",
        "leaf_names",
        "leaf_bits",
        "undeclared_bits",
        "flats",
        "n_gates",
        "_models",
        # The vector engine's fused sweep caches per-program state
        # (packed model tables) in a weak-keyed map; see VectorEngine.
        "__weakref__",
    )

    def __init__(self, netlist: Netlist):
        aig = live_aig(netlist)
        self.aig = aig
        self.net_literal = aig.net_literal
        self.n_gates = len(netlist)

        #: Leaves occupy the low bit indices, shared by every cone.
        self.leaf_names: List[str] = []
        self.leaf_index: Dict[str, int] = {}
        self.leaf_bits: Dict[int, int] = {}
        declared = set(netlist.inputs)
        undeclared = 0
        for node in range(1, len(aig)):
            if not aig.is_leaf(node):
                continue
            bit = len(self.leaf_names)
            name = aig.pi_name[node]
            self.leaf_index[name] = bit
            self.leaf_names.append(name)
            self.leaf_bits[node] = bit
            if name not in declared:
                undeclared |= 1 << bit
        self.undeclared_bits = undeclared

        self.flats: Dict[int, Set[int]] = self._flatten()
        self._models: Dict[int, _Model] = {}

    # -- forward flattening ---------------------------------------------

    def _flatten(self) -> Dict[int, Set[int]]:
        """Packed PI-space polynomial of every node below the bound.

        Exact mod-2 algebra: XOR nodes are symmetric differences,
        complement edges toggle the constant monomial, AND nodes
        multiply with cancellation — so flattening performs the same
        cancellations backward rewriting would, just once per node
        instead of once per cone.
        """
        aig = self.aig
        flats: Dict[int, Set[int]] = {0: set()}
        for node, bit in self.leaf_bits.items():
            flats[node] = {1 << bit}
        for node in range(1, len(aig)):
            if aig.is_leaf(node):
                continue
            f0, f1 = aig.fanins(node)
            p0 = flats.get(f0 >> 1)
            p1 = flats.get(f1 >> 1)
            poly: Optional[Set[int]] = None
            if p0 is not None and p1 is not None:
                if f0 & 1:
                    p0 = p0.symmetric_difference((0,))
                if f1 & 1:
                    p1 = p1.symmetric_difference((0,))
                if aig.is_xor(node):
                    poly = p0.symmetric_difference(p1)
                elif len(p0) * len(p1) <= _PAIR_BUDGET:
                    poly = _flat_product([p0, p1], _FLAT_BOUND)
            if poly is None and aig.is_and(node):
                poly = self._flatten_via_cuts(node, flats)
            if poly is not None and len(poly) <= _FLAT_BOUND:
                flats[node] = poly
        return flats

    # -- serialization ---------------------------------------------------
    #
    # Compiled programs travel through the fingerprint-keyed cache
    # (:mod:`repro.service.cache`), and a warm load must be a small
    # fraction of a recompile.  The default pickle of the embedded
    # :class:`~repro.aig.Aig` spends most of its bytes on the strash
    # table — pure construction state a finished program never touches
    # — so the custom state drops it and packs the node arrays as raw
    # ``array('q')`` bytes (memcpy-speed on load).  Lazily built cut
    # models are included: a program re-stored after rewriting
    # (:meth:`AigEngine.finalize` via the program marker) hands the
    # next cold process its models for free.  The deserialized graph
    # is read-only — growing it would bypass hash-consing.

    def __getstate__(self):
        aig = self.aig
        return {
            "name": aig.name,
            "kinds": bytes(aig.kinds),
            "fanin0": array("q", aig.fanin0).tobytes(),
            "fanin1": array("q", aig.fanin1).tobytes(),
            "pi_name": aig.pi_name,
            "inputs": aig.inputs,
            "outputs": aig.outputs,
            "net_literal": aig.net_literal,
            "leaf_index": self.leaf_index,
            "leaf_names": self.leaf_names,
            "leaf_bits": self.leaf_bits,
            "undeclared_bits": self.undeclared_bits,
            # Tuples load ~3x faster than sets and every post-compile
            # consumer only iterates/len()s/copies flat polynomials.
            "flats": {
                node: tuple(poly) for node, poly in self.flats.items()
            },
            "n_gates": self.n_gates,
            "models": self._models,
        }

    def __setstate__(self, state):
        aig = Aig(state["name"])
        aig.kinds = list(state["kinds"])
        fanin0 = array("q")
        fanin0.frombytes(state["fanin0"])
        fanin1 = array("q")
        fanin1.frombytes(state["fanin1"])
        aig.fanin0 = list(fanin0)
        aig.fanin1 = list(fanin1)
        aig.pi_name = state["pi_name"]
        aig.inputs = state["inputs"]
        aig.outputs = state["outputs"]
        aig.net_literal = state["net_literal"]
        aig._leaf_lit = {
            name: node << 1 for node, name in aig.pi_name.items()
        }
        self.aig = aig
        self.net_literal = aig.net_literal
        self.leaf_index = state["leaf_index"]
        self.leaf_names = state["leaf_names"]
        self.leaf_bits = state["leaf_bits"]
        self.undeclared_bits = state["undeclared_bits"]
        self.flats = state["flats"]
        self.n_gates = state["n_gates"]
        self._models = state["models"]

    def _flatten_via_cuts(
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

    def model_of(self, node: int) -> _Model:
        """Substitution model of an AND/XOR node (lazy, memoized)."""
        model = self._models.get(node)
        if model is None:
            model = self._build_model(node)
            self._models[node] = model
        return model

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


class AigEngine(CompilingEngine):
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

    def _check_residue(
        self,
        compiled: _CompiledAig,
        netlist: Netlist,
        output: str,
        masks: Set[int],
    ) -> None:
        """Leaves the netlist never declared must not survive rewriting."""
        residue = 0
        for mask in masks:
            residue |= mask
        residue &= compiled.undeclared_bits
        if not residue:
            return
        declared_now = set(netlist.inputs)
        leftovers = []
        while residue:
            low = residue & -residue
            name = compiled.leaf_names[low.bit_length() - 1]
            if name not in declared_now:
                leftovers.append(name)
            residue ^= low
        if leftovers:
            raise BackwardRewriteError(
                f"rewriting {output!r} left non-input variables "
                f"{sorted(leftovers)[:5]} — netlist is not a complete "
                "combinational cone"
            )

    def _describe_node(self, compiled: _CompiledAig, node: int) -> str:
        aig = compiled.aig
        f0, f1 = aig.fanins(node)
        op = "XOR" if aig.is_xor(node) else "AND"
        operands = ", ".join(
            ("!" if lit & 1 else "") + (
                aig.pi_name.get(lit >> 1, f"n{lit >> 1}")
            )
            for lit in (f0, f1)
        )
        return f"n{node} = {op}({operands})"

    def rewrite_cone(
        self,
        netlist: Netlist,
        output: str,
        trace: bool = False,
        term_limit: Optional[int] = None,
        compile_cache: Optional[Any] = None,
    ) -> Tuple[PackedExpression, RewriteStats]:
        with cone_span(self, output) as span:
            expression, stats = self._rewrite_cone_impl(
                netlist, output, trace, term_limit, compile_cache
            )
            span.annotate(
                iterations=stats.iterations, peak_terms=stats.peak_terms
            )
            stats.runtime_s = span.elapsed()
            return expression, stats

    def _rewrite_cone_impl(
        self,
        netlist: Netlist,
        output: str,
        trace: bool,
        term_limit: Optional[int],
        compile_cache: Optional[Any],
    ) -> Tuple[PackedExpression, RewriteStats]:
        stats = RewriteStats(output=output)

        compiled = self._compiled_for(netlist, compile_cache)
        literal = compiled.net_literal.get(output)
        if literal is None:
            if netlist.driver_of(output) is None:
                # A net the netlist never mentions: the same failure
                # the other backends report for a dangling variable.
                raise BackwardRewriteError(
                    f"rewriting {output!r} left non-input variables "
                    f"[{output!r}] — netlist is not a complete "
                    "combinational cone"
                )
            # The program holds the outputs' live graph only; a net no
            # output reads is rewritten over its own cone.
            return self._rewrite_cone_impl(
                netlist.cone(output), output, trace, term_limit, None
            )
        node = literal >> 1
        complemented = literal & 1

        flat = compiled.flats.get(node)
        if flat is not None:
            masks = set(flat)
            if complemented:
                masks.symmetric_difference_update((0,))
            self._check_residue(compiled, netlist, output, masks)
            interner = SignalInterner.adopt(
                dict(compiled.leaf_index), list(compiled.leaf_names)
            )
            stats.final_terms = len(masks)
            stats.peak_terms = max(1, len(masks))
            if term_limit is not None and stats.peak_terms > term_limit:
                raise TermLimitExceeded(output, stats.peak_terms, term_limit)
            return PackedExpression(masks, interner), stats

        # Cone-local interning: the shared leaf region plus one slot per
        # opaque node, allocated on first sight (bits stay compact).
        sig_index: Dict[str, int] = dict(compiled.leaf_index)
        sig_names: List[str] = list(compiled.leaf_names)
        index_of_node: Dict[int, int] = {}

        occurs: Dict[int, Set[int]] = {}
        pending: List[Tuple[int, int]] = []
        tracked_mask = 0

        def intern_node(opaque: int) -> int:
            index = index_of_node.get(opaque)
            if index is None:
                index = len(sig_names)
                index_of_node[opaque] = index
                sig_index[f"__aig{opaque}"] = index
                sig_names.append(f"__aig{opaque}")
            return index

        out_index = intern_node(node)
        out_mask = 1 << out_index
        current: Set[int] = {out_mask}
        if complemented:
            current.add(0)
        tracked_mask = out_mask
        occurs[out_index] = {out_mask}
        heappush(pending, (-node, out_index))

        iterations = 0
        touched = 0
        eliminated_total = 0
        peak_terms = max(1, len(current))

        current_add = current.add
        current_remove = current.remove
        current_intersection = current.intersection
        occurs_pop = occurs.pop
        model_of = compiled.model_of
        index_get = index_of_node.get
        leaf_bits = compiled.leaf_bits

        while pending:
            neg_node, var_index = heappop(pending)
            touched += 1
            affected = current_intersection(occurs_pop(var_index))
            if not affected:
                # The variable cancelled away before its node was
                # reached (Algorithm 1 line 4 skip).
                continue
            keep = ~(1 << var_index)

            # Pack the cut model: the flat part is a ready bitmask,
            # opaque nodes intern into cone-local bits (newly tracked
            # variables enter the worklist).
            model: List[int] = []
            for pi_mask, opaque_nodes in model_of(-neg_node):
                mask = pi_mask
                for opaque in opaque_nodes:
                    leaf_bit = leaf_bits.get(opaque)
                    if leaf_bit is not None:
                        mask |= 1 << leaf_bit
                        continue
                    index = index_get(opaque)
                    if index is None:
                        index = intern_node(opaque)
                        tracked_mask |= 1 << index
                        occurs[index] = set()
                        heappush(pending, (-opaque, index))
                    mask |= 1 << index
                model.append(mask)

            eliminated = 0
            for mono in affected:
                current_remove(mono)
                stripped = mono & keep
                for replacement in model:
                    product = stripped | replacement
                    if product in current:
                        current_remove(product)
                        eliminated += 2  # both copies cancelled mod 2
                    else:
                        current_add(product)
                        rest = product & tracked_mask
                        while rest:
                            low = rest & -rest
                            occurs[low.bit_length() - 1].add(product)
                            rest ^= low
            iterations += 1
            eliminated_total += eliminated
            if len(current) > peak_terms:
                peak_terms = len(current)
                if term_limit is not None and peak_terms > term_limit:
                    stats.iterations = iterations
                    stats.cone_gates = touched
                    stats.eliminated_monomials = eliminated_total
                    stats.peak_terms = peak_terms
                    raise TermLimitExceeded(output, peak_terms, term_limit)
            if trace:
                interner = SignalInterner(list(sig_names))
                decoded = Gf2Poly.from_monomials(
                    {interner.unpack(mono) for mono in current}
                )
                stats.trace.append(
                    TraceStep(
                        gate=self._describe_node(compiled, -neg_node),
                        expression=str(decoded),
                        eliminated=f"{eliminated} monomials cancelled",
                    )
                )

        self._check_residue(compiled, netlist, output, current)
        interner = SignalInterner.adopt(sig_index, sig_names)

        stats.iterations = iterations
        stats.cone_gates = touched
        stats.eliminated_monomials = eliminated_total
        stats.peak_terms = peak_terms
        stats.final_terms = len(current)
        return PackedExpression(current, interner), stats
