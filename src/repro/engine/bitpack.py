"""Bit-packed backward rewriting over the netlist's live AIG.

The hot loop of Algorithm 1 is "strip the gate-output variable from a
monomial, union in a model monomial, toggle the result mod 2".  With
the signals of one output cone interned to bit indices
(:mod:`repro.engine.interning`) those operations become single int
instructions::

    stripped = mono & ~var_bit          # strip the rewritten variable
    product  = stripped | model_mask    # monomial multiplication
    set.add/discard(product)            # mod-2 cancellation

A polynomial is a ``set[int]``; hashing an ``int`` is word-sized work
instead of the per-element string hashing of ``frozenset[str]``, and no
container is allocated per monomial.

The program (compiled once per netlist)
---------------------------------------
The program is built from the netlist's memoized live AIG
(:func:`repro.aig.live_aig`), the strash the content fingerprint has
already paid for: NAND-lowered XORs are XOR nodes there, inverter
pairs are complement edges and dead structure is swept away.  Leaves
(primary inputs, plus nets read but never driven) take the *global*
low bit indices, so a fully-rewritten monomial is a small integer
whose packing every cone shares.  One forward pass over the node ids
(ascending id is a topological order) then **flattens** each node into
a packed leaf-space polynomial while it stays below a size bound: an
XOR node is a symmetric difference, a complement edge toggles the
constant monomial and an AND node is a bounded product.  A node read
by more than one consumer keeps a smaller bound.  Every other node
gets its **direct-fanin model** — the AND/XOR of its two fanin
literals, with small flat fanins multiplied out and the rest kept as
node variables — and a flat node read as such a variable substitutes
its flat polynomial.  The models are built at compile time, so the
program is complete before the first cone.

Rewriting (per output bit)
--------------------------
Node variables are interned per cone *above* the leaf region —
cone-local indices keep masks narrow (a global numbering would turn
every int operation into a kilobyte memcpy).  Two structures remove
the reference path's per-gate linear scans:

* a **worklist** (max-heap of node ids) visits only nodes whose
  variable is *live* in the expression;
* a lazy **occurrence index** (``variable bit → monomials that gained
  it``) yields each node's affected monomials via one C-level set
  intersection.

An output whose node flattened is answered from its flat polynomial
without a loop (unless a trace is requested, which substitutes it as
one step).  The registry name ``vector`` resolves to this engine.

The engine produces bit-identical *results* (canonical expressions,
P(x), member bits, failure modes) to the reference backend — enforced
by the differential test suite — but takes algebraically equivalent
shortcuts, so the statistics (iterations, peak terms, eliminated
monomials, cone gate counts), the trace step text and the
``term_limit`` memory-out point are this engine's own.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro import telemetry as _telemetry
from repro.aig import live_aig
from repro.engine.base import CompilingEngine, ConeExpression
from repro.engine.interning import SignalInterner
from repro.gf2.monomial import Monomial
from repro.gf2.polynomial import Gf2Poly
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import (
    BackwardRewriteError,
    RewriteStats,
    TermLimitExceeded,
    TraceStep,
)

#: Largest packed polynomial a single-consumer node may flatten to.
_FLAT_BOUND = 256
#: Largest packed polynomial a *shared* node (read by more than one
#: consumer) may flatten to.
_FLAT_SHARED_BOUND = 64
#: Largest flat fanin a direct-fanin model multiplies out; bigger ones
#: stay node variables, so a model never outgrows a few monomials.
_FANIN_BOUND = 4
#: Largest pairwise product cost (|p|·|q|) the flattening attempts.
_PAIR_BUDGET = 1024

#: A substitution model: mod-2 monomials as (leaf_mask, node variables).
_Model = Tuple[Tuple[int, Tuple[int, ...]], ...]


class PackedExpression(ConeExpression):
    """A canonical expression as a set of interned bitmasks."""

    __slots__ = ("masks", "interner")

    def __init__(self, masks: Set[int], interner: SignalInterner):
        self.masks = masks
        self.interner = interner

    def decode(self) -> Gf2Poly:
        unpack = self.interner.unpack
        return Gf2Poly.from_monomials({unpack(mask) for mask in self.masks})

    def _encode(self) -> List[List[str]]:
        names_of = self.interner.names_of
        return sorted(sorted(names_of(mask)) for mask in self.masks)

    def term_count(self) -> int:
        return len(self.masks)

    def contains_products(self, products: Iterable[Monomial]) -> bool:
        """Out-field membership directly on the packed set.

        A product mentioning a signal this cone never saw cannot occur
        in the expression, so an un-packable monomial is simply absent.
        """
        try_pack = self.interner.try_pack
        masks = self.masks
        for mono in products:
            mask = try_pack(mono)
            if mask is None or mask not in masks:
                return False
        return True

    def equals_poly(self, poly: Gf2Poly) -> bool:
        """Equality against a reference polynomial, without decoding."""
        monomials = poly.monomials
        if len(self.masks) != len(monomials):
            return False
        try_pack = self.interner.try_pack
        masks = self.masks
        for mono in monomials:
            mask = try_pack(mono)
            if mask is None or mask not in masks:
                return False
        return True


def _flat_product(
    polys: List[Set[int]], bound: int
) -> Optional[Set[int]]:
    """Mod-2 product of packed polynomials; ``None`` past ``bound``."""
    if not polys:
        return {0}
    acc = polys[0]
    for poly in polys[1:]:
        counts: Dict[int, int] = {}
        for lhs in acc:
            for rhs in poly:
                mask = lhs | rhs
                counts[mask] = counts.get(mask, 0) ^ 1
        acc = {mask for mask, parity in counts.items() if parity}
        if len(acc) > bound:
            return None
    return acc


class _CompiledProgram:
    """One netlist's live AIG, flattened and modelled for rewriting."""

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
        for node in sorted(aig.pi_name):
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
        self._complete()

    # -- forward flattening ---------------------------------------------

    def _flatten(self) -> Dict[int, Set[int]]:
        """Packed leaf-space polynomial of every node below its bound.

        Exact mod-2 algebra: XOR nodes are symmetric differences,
        complement edges toggle the constant monomial, AND nodes
        multiply with cancellation — so flattening performs the same
        cancellations backward rewriting would, just once per node
        instead of once per cone.
        """
        aig = self.aig
        # Read at call time, so a patched bound reaches a fresh compile.
        bound, shared_bound = _FLAT_BOUND, _FLAT_SHARED_BOUND
        fanin0, fanin1 = aig.fanin0, aig.fanin1
        is_xor = aig.is_xor
        gates = [
            node for node in range(1, len(aig)) if node not in aig.pi_name
        ]
        readers = [0] * len(aig)
        if shared_bound < bound:
            for node in gates:
                readers[fanin0[node] >> 1] += 1
                readers[fanin1[node] >> 1] += 1
            for _, lit in aig.outputs:
                readers[lit >> 1] += 1
        flats: Dict[int, Set[int]] = {0: set()}
        for node, bit in self.leaf_bits.items():
            flats[node] = {1 << bit}
        flats_get = flats.get
        for node in gates:
            limit = shared_bound if readers[node] > 1 else bound
            f0, f1 = fanin0[node], fanin1[node]
            p0 = flats_get(f0 >> 1)
            p1 = flats_get(f1 >> 1)
            xor = is_xor(node)
            poly: Optional[Set[int]] = None
            if p0 is not None and p1 is not None:
                if xor:
                    poly = p0.symmetric_difference(p1)
                    if (f0 ^ f1) & 1:
                        poly.symmetric_difference_update((0,))
                elif len(p0) * len(p1) <= _PAIR_BUDGET:
                    if f0 & 1:
                        p0 = p0.symmetric_difference((0,))
                    if f1 & 1:
                        p1 = p1.symmetric_difference((0,))
                    poly = _flat_product([p0, p1], limit)
            if poly is not None and len(poly) <= limit:
                flats[node] = poly
        return flats

    # -- substitution models ---------------------------------------------

    def _complete(self) -> None:
        """Build every model a rewrite can ask for, at compile time."""
        flats = self.flats
        leaves = self.aig.pi_name
        model_of = self.model_of
        for node in range(1, len(self.aig)):
            if node not in flats and node not in leaves:
                for _, variables in model_of(node):
                    for variable in variables:
                        model_of(variable)

    def model_of(self, node: int) -> _Model:
        """Substitution model of an AND/XOR node (memoized)."""
        model = self._models.get(node)
        if model is None:
            model = self._build_model(node)
            self._models[node] = model
        return model

    def _build_model(self, node: int) -> _Model:
        """A flat node's polynomial, else its direct-fanin model."""
        flat = self.flats.get(node)
        if flat is not None:
            return tuple((mask, ()) for mask in flat)
        aig = self.aig
        operands = []
        for lit in aig.fanins(node):
            child = lit >> 1
            poly = self.flats.get(child)
            if poly is not None and len(poly) <= _FANIN_BOUND:
                terms = {(mask, ()) for mask in poly}
            else:
                terms = {(0, (child,))}
            if lit & 1:
                terms.symmetric_difference_update({(0, ())})
            operands.append(terms)
        lhs, rhs = operands
        if aig.is_xor(node):
            return tuple(lhs.symmetric_difference(rhs))
        counts: Dict[Tuple[int, Tuple[int, ...]], int] = {}
        for mask0, vars0 in lhs:
            for mask1, vars1 in rhs:
                key = (mask0 | mask1, vars0 + vars1)
                counts[key] = counts.get(key, 0) ^ 1
        return tuple(key for key, parity in counts.items() if parity)


class BitpackEngine(CompilingEngine):
    """Backward rewriting over interned bitmask monomials."""

    name = "bitpack"
    #: Recorded in cone entries as provenance.
    compile_schema = 2

    def _compile(self, netlist: Netlist) -> _CompiledProgram:
        return _CompiledProgram(netlist)

    def _check_residue(
        self,
        compiled: _CompiledProgram,
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
        # Inputs declared after compilation still count as inputs.
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

    def _describe_node(self, compiled: _CompiledProgram, node: int) -> str:
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
    ) -> Tuple[PackedExpression, RewriteStats]:
        with _telemetry.current().span(
            "cone", engine=self.name, output=output
        ) as span:
            expression, stats = self._rewrite_cone_impl(
                netlist, output, trace, term_limit
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
    ) -> Tuple[PackedExpression, RewriteStats]:
        stats = RewriteStats(output=output)

        compiled = self._compiled_for(netlist)
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
                netlist.cone(output), output, trace, term_limit
            )
        node = literal >> 1
        complemented = literal & 1

        flat = compiled.flats.get(node)
        traced_gate = trace and node and node not in compiled.leaf_bits
        if flat is not None and not traced_gate:
            # The node flattened: its packed leaf-space polynomial is
            # already the canonical answer.  A traced run substitutes
            # it instead, as one recorded step.
            current = set(flat)
            if complemented:
                current.symmetric_difference_update((0,))
            self._check_residue(compiled, netlist, output, current)
            stats.peak_terms = max(1, len(current))
            if term_limit is not None and stats.peak_terms > term_limit:
                raise TermLimitExceeded(output, stats.peak_terms, term_limit)
        else:
            current = self._substitute(
                compiled, node, complemented, stats, trace, term_limit
            )
            self._check_residue(compiled, netlist, output, current)
        stats.final_terms = len(current)
        # Every node variable is substituted away: the result lives in
        # the leaf region alone.
        interner = SignalInterner.adopt(
            dict(compiled.leaf_index), list(compiled.leaf_names)
        )
        return PackedExpression(current, interner), stats

    def _substitute(
        self,
        compiled: _CompiledProgram,
        node: int,
        complemented: int,
        stats: RewriteStats,
        trace: bool,
        term_limit: Optional[int],
    ) -> Set[int]:
        """Algorithm 1's loop from one node down to the leaves."""
        output = stats.output
        # Cone-local interning: the shared leaf region, then one bit
        # per node variable in first-seen order (bits stay compact).
        leaf_count = len(compiled.leaf_names)
        index_of_node: Dict[int, int] = {node: leaf_count}
        interned: List[int] = [node]

        # occurs[i]: monomials that contain live tracked variable i.
        # The index is *lazy*: entries are added when a monomial gains
        # bit i but never removed when one is cancelled — at pop time a
        # C-level set intersection against `current` filters the stale
        # entries, which is far cheaper than eager maintenance on every
        # cancellation.  pending: max-heap (negated node ids) of
        # tracked variables awaiting substitution; each variable is
        # pushed exactly once, when interned, and ids pop in strictly
        # decreasing order (a model only mentions older nodes), so no
        # variable re-occurs after its substitution.
        out_mask = 1 << leaf_count
        current: Set[int] = {out_mask}
        if complemented:
            current.add(0)
        occurs: Dict[int, Set[int]] = {leaf_count: {out_mask}}
        pending: List[Tuple[int, int]] = [(-node, leaf_count)]
        tracked_mask = out_mask

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

            # Pack the model: the leaf part is a ready bitmask, node
            # variables intern into cone-local bits (newly tracked
            # variables enter the worklist).
            model: List[int] = []
            for leaf_mask, variables in model_of(-neg_node):
                mask = leaf_mask
                for variable in variables:
                    leaf_bit = leaf_bits.get(variable)
                    if leaf_bit is not None:
                        mask |= 1 << leaf_bit
                        continue
                    index = index_get(variable)
                    if index is None:
                        index = leaf_count + len(interned)
                        index_of_node[variable] = index
                        interned.append(variable)
                        tracked_mask |= 1 << index
                        occurs[index] = set()
                        heappush(pending, (-variable, index))
                    mask |= 1 << index
                model.append(mask)

            # Substitute.  Products never contain the variable being
            # eliminated while every affected monomial does, so removal
            # and product toggling cannot collide and run in one pass.
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
                interner = SignalInterner(
                    compiled.leaf_names
                    + [f"__aig{variable}" for variable in interned]
                )
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

        stats.iterations = iterations
        stats.cone_gates = touched
        stats.eliminated_monomials = eliminated_total
        stats.peak_terms = peak_terms
        return current
