"""The :class:`Aig` container — hash-consed AND/XOR nodes, literal edges.

See the package docstring (:mod:`repro.aig`) for the design note.  The
operations the rest of the system relies on:

* **construction** — :meth:`Aig.aig_and` / :meth:`Aig.aig_xor` with
  structural hashing, so CSE / inverter-pair removal / constant
  folding happen by construction;
* **round-trip** — :meth:`Aig.from_netlist` lowers every
  :class:`~repro.netlist.gate.GateType`; :meth:`Aig.to_netlist`
  re-emits an equivalent AND/XOR/INV netlist with the original ports;
* **topological iteration** — ascending node id is a topological
  order (fanins are always created first);
* **liveness** — :meth:`Aig.live_nodes` marks the transitive fan-in
  of the outputs (the dead-node sweep);
* **simulation** — :meth:`Aig.simulate` mirrors the bit-parallel
  netlist semantics, the ground truth for the round-trip tests.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.netlist.gate import GATE_TYPES, Gate, GateType
from repro.netlist.netlist import Netlist

#: Literal of the constant-0 function (node 0, uncomplemented).
CONST0 = 0
#: Literal of the constant-1 function (node 0, complemented).
CONST1 = 1

#: Node kinds (stored per node id).
KIND_CONST = 0
KIND_PI = 1
KIND_AND = 2
KIND_XOR = 3


class AigError(ValueError):
    """Structural problem while building or converting an AIG."""


def make_lit(node: int, complemented: bool = False) -> int:
    """Pack a node id and a complement flag into a literal."""
    return (node << 1) | int(complemented)


def lit_node(lit: int) -> int:
    """Node id of a literal."""
    return lit >> 1


def lit_is_complemented(lit: int) -> bool:
    """Whether the literal carries the complement attribute."""
    return bool(lit & 1)


def lit_complement(lit: int) -> int:
    """The inverted literal (edge complement — never a gate)."""
    return lit ^ 1


class Aig:
    """A hash-consed And-Inverter(-Xor) graph.

    >>> aig = Aig()
    >>> a, b = aig.add_input("a"), aig.add_input("b")
    >>> aig.aig_and(a, b) == aig.aig_and(b, a)       # CSE by construction
    True
    >>> aig.aig_xor(a, a)                            # cancellation
    0
    >>> aig.aig_and(a, lit_complement(a))            # a AND NOT a
    0
    """

    __slots__ = (
        "kinds",
        "fanin0",
        "fanin1",
        "pi_name",
        "inputs",
        "outputs",
        "name",
        "_leaf_lit",
        "_strash",
        "net_literal",
    )

    def __init__(self, name: str = "aig"):
        self.name = name
        #: Parallel node arrays; node 0 is the constant-0 node.
        self.kinds: List[int] = [KIND_CONST]
        self.fanin0: List[int] = [0]
        self.fanin1: List[int] = [0]
        #: node id -> primary-input name (leaves only).
        self.pi_name: Dict[int, str] = {}
        #: Declared input names in declaration order (see from_netlist).
        self.inputs: List[str] = []
        #: (name, literal) pairs in output declaration order.
        self.outputs: List[Tuple[str, int]] = []
        self._leaf_lit: Dict[str, int] = {}
        self._strash: Dict[Tuple[int, int, int], int] = {}
        #: net name -> literal for every net of the source netlist
        #: (populated by from_netlist; empty for hand-built graphs).
        self.net_literal: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of nodes, constant node included."""
        return len(self.kinds)

    def _new_node(self, kind: int, f0: int, f1: int) -> int:
        node = len(self.kinds)
        self.kinds.append(kind)
        self.fanin0.append(f0)
        self.fanin1.append(f1)
        return node

    def add_input(self, name: str, declare: bool = True) -> int:
        """Literal of the named leaf, creating it on first sight.

        ``declare=False`` creates the leaf without listing it in
        :attr:`inputs` — how :meth:`from_netlist` represents nets a
        netlist reads but neither drives nor declares.
        """
        lit = self._leaf_lit.get(name)
        if lit is None:
            node = self._new_node(KIND_PI, 0, 0)
            self.pi_name[node] = name
            lit = make_lit(node)
            self._leaf_lit[name] = lit
            if declare:
                self.inputs.append(name)
        return lit

    def aig_and(self, a: int, b: int) -> int:
        """Hash-consed AND of two literals.

        Beyond the local normalisations, the constructor recognises the
        3-AND NAND/AOI decompositions of XOR, XNOR and MUX (see
        :meth:`_detect_xor_mux`), so NAND-lowered netlists strash back
        to first-class XOR nodes instead of opaque AND clusters.
        """
        if a == CONST0 or b == CONST0 or a == lit_complement(b):
            return CONST0
        if a == CONST1 or a == b:
            return b
        if b == CONST1:
            return a
        if a & 1 and b & 1:
            detected = self._detect_xor_mux(a, b)
            if detected is not None:
                return detected
        if a > b:
            a, b = b, a
        key = (KIND_AND, a, b)
        node = self._strash.get(key)
        if node is None:
            node = self._new_node(KIND_AND, a, b)
            self._strash[key] = node
        return make_lit(node)

    def _detect_xor_mux(self, a: int, b: int) -> Optional[int]:
        """Structural XOR/XNOR/MUX recovery for ``AND(!X, !Y)`` shapes.

        Both operands are complemented edges; when both point at AND
        nodes the product is an OR of two product terms — exactly how
        technology mapping encodes XOR/XNOR/MUX in NAND/AOI logic:

        * ``!(p·q) · !(!p·!q)  =  p ⊕ q``  (the AOI22 / 5-NAND form);
        * ``!(p·w) · !(q·w)`` with ``w = !(p·q)``  =  ``¬(p ⊕ q)``
          (the shared-inner-NAND 4-NAND XOR the mapper emits);
        * ``!(d1·s) · !(d0·!s)  =  ¬MUX(s, d1, d0)`` (NAND-mapped mux;
          rebuilt through :meth:`aig_mux`, i.e. XOR/AND nodes).

        Rebuilding references strictly older nodes, so the recursion
        through :meth:`aig_xor`/:meth:`aig_mux` terminates; the old AND
        cluster simply goes dead unless shared elsewhere.  Returns the
        equivalent literal, or ``None`` when no shape matches.
        """
        na, nb = a >> 1, b >> 1
        if self.kinds[na] != KIND_AND or self.kinds[nb] != KIND_AND:
            return None
        p, q = self.fanin0[na], self.fanin1[na]
        r, s = self.fanin0[nb], self.fanin1[nb]
        # XOR: the two product terms cover complementary minterm pairs.
        if (r == lit_complement(p) and s == lit_complement(q)) or (
            r == lit_complement(q) and s == lit_complement(p)
        ):
            return self.aig_xor(p, q)
        # XNOR: both terms share w = !(p·q); !(p·w)·!(q·w) = ¬(p ⊕ q).
        for w in (r, s):
            if w not in (p, q) or not (w & 1):
                continue
            m = w >> 1
            if self.kinds[m] != KIND_AND:
                continue
            other_a = q if w == p else p
            other_b = s if w == r else r
            g0, g1 = self.fanin0[m], self.fanin1[m]
            if {g0, g1} == {other_a, other_b}:
                return lit_complement(self.aig_xor(other_a, other_b))
        # MUX: exactly one complementary literal across the two terms
        # is the select; !(d1·s)·!(d0·!s) = s·!d1 + !s·!d0.
        for sel, d1 in ((p, q), (q, p)):
            for v, d0 in ((r, s), (s, r)):
                if v == lit_complement(sel):
                    return self.aig_mux(
                        sel, lit_complement(d1), lit_complement(d0)
                    )
        return None

    def aig_xor(self, a: int, b: int) -> int:
        """Hash-consed XOR; fanin complements are pulled to the output."""
        out = (a & 1) ^ (b & 1)
        a &= ~1
        b &= ~1
        if a == b:
            return out
        if a == CONST0:
            return b ^ out
        if b == CONST0:
            return a ^ out
        if a > b:
            a, b = b, a
        key = (KIND_XOR, a, b)
        node = self._strash.get(key)
        if node is None:
            node = self._new_node(KIND_XOR, a, b)
            self._strash[key] = node
        return make_lit(node) ^ out

    def aig_not(self, a: int) -> int:
        """Edge complement (free — no node is ever created)."""
        return lit_complement(a)

    def aig_or(self, a: int, b: int) -> int:
        """OR via De Morgan on the AND core."""
        return lit_complement(
            self.aig_and(lit_complement(a), lit_complement(b))
        )

    def aig_mux(self, sel: int, d1: int, d0: int) -> int:
        """2:1 multiplexer: ``d0 XOR (sel AND (d0 XOR d1))``."""
        return self.aig_xor(d0, self.aig_and(sel, self.aig_xor(d0, d1)))

    def aig_and_all(self, lits: Sequence[int]) -> int:
        """Balanced AND tree over any number of literals."""
        return self._balanced(list(lits), self.aig_and, CONST1)

    def aig_xor_all(self, lits: Sequence[int]) -> int:
        """Balanced XOR tree over any number of literals."""
        return self._balanced(list(lits), self.aig_xor, CONST0)

    def aig_or_all(self, lits: Sequence[int]) -> int:
        """Balanced OR tree over any number of literals."""
        return self._balanced(list(lits), self.aig_or, CONST0)

    @staticmethod
    def _balanced(layer: List[int], op, empty: int) -> int:
        if not layer:
            return empty
        while len(layer) > 1:
            paired = [
                op(layer[idx], layer[idx + 1])
                for idx in range(0, len(layer) - 1, 2)
            ]
            if len(layer) % 2:
                paired.append(layer[-1])
            layer = paired
        return layer[0]

    def add_output(self, name: str, lit: int) -> None:
        self.outputs.append((name, lit))

    # ------------------------------------------------------------------
    # Gate lowering and the netlist round-trip
    # ------------------------------------------------------------------

    def gate_literal(self, gtype: GateType, operands: Sequence[int]) -> int:
        """Lower one netlist cell onto the AND/XOR/complement core.

        A lookup in :data:`_LOWERING`, the one per-type table that
        :meth:`from_netlist` also calls directly.  It covers every
        :class:`~repro.netlist.gate.GateType`, including the mapped
        AOI/OAI/MUX complex cells; ``operands`` must have the cell's
        arity (n-ary cells take two or more).  Each entry adds the
        nodes of the balanced-tree lowering in the same order, so the
        graph stays node-for-node stable (see :meth:`from_netlist`).
        """
        try:
            lower = _LOWERING[gtype]
        except KeyError:
            raise AigError(f"no AIG lowering for gate type {gtype}") from None
        return lower(self, *operands)

    @classmethod
    def from_netlist(cls, netlist: Netlist) -> "Aig":
        """Build the hash-consed AIG of a netlist.

        Constant propagation, structural hashing and inverter-pair
        removal happen by construction; nets the netlist reads without
        driving (and without declaring) become extra leaves, so an
        incomplete cone stays representable — and detectable.

        One loop over the netlist's integer core, in topological order,
        keeps a literal per net id and calls each gate's
        :data:`_LOWERING` entry (through a list indexed by type code)
        with its operand literals; two-operand cells reach
        :meth:`aig_and`/:meth:`aig_xor` without an operand list.  The
        graph is node-for-node the one the balanced-tree lowering
        builds (same node ids, fanins, leaves and leaf order, outputs
        and :attr:`net_literal`), which the fingerprint schema and every
        cached cone digest rely on.

        >>> from repro.gen.mastrovito import generate_mastrovito
        >>> aig = Aig.from_netlist(generate_mastrovito(0b10011))
        >>> sorted(name for name, _ in aig.outputs)
        ['z0', 'z1', 'z2', 'z3']
        """
        aig = cls(netlist.name)
        names = netlist.net_names
        net_id = netlist.net_id
        # Literal per net id; ``None`` until the net is computed.
        literal: List[Optional[int]] = [None] * len(names)
        for name in netlist.inputs:
            literal[net_id(name)] = aig.add_input(name)
        leaf = aig.add_input
        lowering = [_LOWERING[gtype] for gtype in GATE_TYPES]
        codes = netlist.gate_codes
        outs = netlist.gate_outputs
        fanins = netlist.gate_fanins
        # Operands are looked up left to right before the entry runs; a
        # net nothing computes becomes an undeclared leaf on its first
        # read, so those leaves are created in the order gates read them.
        for index in netlist.gate_order():
            fanin = fanins[index]
            lower = lowering[codes[index]]
            if len(fanin) == 2:
                a, b = fanin
                lit_a = literal[a]
                if lit_a is None:
                    lit_a = literal[a] = leaf(names[a], False)
                lit_b = literal[b]
                if lit_b is None:
                    lit_b = literal[b] = leaf(names[b], False)
                literal[outs[index]] = lower(aig, lit_a, lit_b)
                continue
            operands = []
            for net in fanin:
                lit = literal[net]
                if lit is None:
                    lit = literal[net] = leaf(names[net], False)
                operands.append(lit)
            literal[outs[index]] = lower(aig, *operands)
        for name in netlist.outputs:
            # An undriven primary output surfaces as a leaf, like any
            # other undriven net, rather than failing here.
            lit = literal[net_id(name)]
            if lit is None:
                lit = literal[net_id(name)] = leaf(name, False)
            aig.add_output(name, lit)
        aig.net_literal = {
            name: lit
            for name, lit in zip(names, literal)
            if lit is not None
        }
        return aig

    def to_netlist(self, name: Optional[str] = None) -> Netlist:
        """Emit an equivalent AND/XOR/INV netlist.

        Ports keep their names; internal nodes receive fresh
        collision-free names; only live nodes are emitted (the
        dead-node sweep is implicit).

        >>> from repro.gen.mastrovito import generate_mastrovito
        >>> net = generate_mastrovito(0b10011)
        >>> back = Aig.from_netlist(net).to_netlist()
        >>> back.simulate({n: 1 for n in net.inputs}) == \\
        ...     net.simulate({n: 1 for n in net.inputs})
        True
        """
        result = Netlist(name or self.name, inputs=list(self.inputs))
        live = self.live_nodes()

        taken = set(self.pi_name.values()) | {n for n, _ in self.outputs}
        prefix = "__aig"
        while any(net.startswith(prefix) for net in taken):
            prefix += "_"

        # Primary outputs claim their driving node's net name when they
        # can (uncomplemented, non-leaf, first claimant) — mirroring the
        # named-PO-driver convention of the netlist-level passes.
        claimed: Dict[int, str] = {}
        for po_name, lit in self.outputs:
            node = lit_node(lit)
            if (
                not lit_is_complemented(lit)
                and self.kinds[node] in (KIND_AND, KIND_XOR)
                and node not in claimed
            ):
                claimed[node] = po_name

        node_net: Dict[int, str] = {}
        inv_net: Dict[int, str] = {}

        def net_of(lit: int) -> str:
            """Result-netlist net carrying this literal's function."""
            node = lit_node(lit)
            if lit_is_complemented(lit):
                net = inv_net.get(node)
                if net is None:
                    net = f"{prefix}n{node}"
                    result.add_gate(Gate(net, GateType.INV, (node_net[node],)))
                    inv_net[node] = net
                return net
            return node_net[node]

        for node in live:
            kind = self.kinds[node]
            if kind == KIND_CONST:
                # Constants fold during construction, so node 0 can only
                # be reached by an output edge — handled below.
                continue
            elif kind == KIND_PI:
                node_net[node] = self.pi_name[node]
            else:
                operands = (net_of(self.fanin0[node]), net_of(self.fanin1[node]))
                gtype = GateType.AND if kind == KIND_AND else GateType.XOR
                net = claimed.get(node, f"{prefix}{node}")
                result.add_gate(Gate(net, gtype, operands))
                node_net[node] = net

        for po_name, lit in self.outputs:
            node = lit_node(lit)
            if lit == CONST0:
                result.add_gate(Gate(po_name, GateType.CONST0, ()))
            elif lit == CONST1:
                result.add_gate(Gate(po_name, GateType.CONST1, ()))
            elif claimed.get(node) == po_name and not lit_is_complemented(lit):
                pass  # the node was emitted under the PO's own name
            elif lit_is_complemented(lit):
                result.add_gate(Gate(po_name, GateType.INV, (node_net[node],)))
            else:
                result.add_gate(Gate(po_name, GateType.BUF, (node_net[node],)))
            result.add_output(po_name)
        return result

    # ------------------------------------------------------------------
    # Iteration / liveness / simulation
    # ------------------------------------------------------------------

    def fanins(self, node: int) -> Tuple[int, int]:
        """The two fanin literals of an AND/XOR node."""
        return self.fanin0[node], self.fanin1[node]

    def is_leaf(self, node: int) -> bool:
        return self.kinds[node] == KIND_PI

    def is_and(self, node: int) -> bool:
        return self.kinds[node] == KIND_AND

    def is_xor(self, node: int) -> bool:
        return self.kinds[node] == KIND_XOR

    def live_nodes(self, roots: Optional[Iterable[int]] = None) -> List[int]:
        """Node ids in the transitive fan-in of ``roots``, ascending.

        ``roots`` defaults to the registered outputs; ascending id
        order is a topological order, so the result can be evaluated
        front to back.
        """
        if roots is None:
            roots = [lit_node(lit) for _, lit in self.outputs]
        marks = self._live_marks(roots)
        return [node for node, live in enumerate(marks) if live]

    def _live_marks(self, roots: Iterable[int]) -> bytearray:
        """Per node id, 1 if it is in the transitive fan-in of ``roots``."""
        kinds = self.kinds
        fanin0 = self.fanin0
        fanin1 = self.fanin1
        marks = bytearray(len(kinds))
        stack = list(roots)
        while stack:
            node = stack.pop()
            if marks[node]:
                continue
            marks[node] = 1
            if kinds[node] in (KIND_AND, KIND_XOR):
                stack.append(fanin0[node] >> 1)
                stack.append(fanin1[node] >> 1)
        return marks

    def swept(self) -> "Aig":
        """A read-only copy without the nodes the outputs never reach.

        Strash leaves dead AND nodes behind: recognising a four-NAND
        XOR cluster creates one XOR node, and the cluster's inner ANDs
        stay in the table (about two thirds of a NAND-mapped
        multiplier's nodes).  The copy keeps every leaf and the
        outputs' transitive fan-in, renumbered in ascending order, so
        ascending id is still a topological order and every relative
        node order (the rewriting worklists) is unchanged.
        :attr:`net_literal` keeps the nets whose node survives.  The
        strash table is not carried over: adding nodes to the copy
        would bypass hash-consing.

        >>> from repro.gen.mastrovito import generate_mastrovito
        >>> from repro.synth.pipeline import synthesize
        >>> net = synthesize(generate_mastrovito(0b10011),
        ...                  use_xor_cells=False)
        >>> full = Aig.from_netlist(net)
        >>> live = full.swept()
        >>> len(live) < len(full)
        True
        >>> live.simulate({n: 1 for n in net.inputs}) == \\
        ...     net.simulate({n: 1 for n in net.inputs})
        True
        """
        marks = self._live_marks(lit_node(lit) for _, lit in self.outputs)
        for node in self.pi_name:
            marks[node] = 1
        marks[0] = 1
        order = [node for node, kept in enumerate(marks) if kept]
        # Node id -> its uncomplemented literal in the copy (-1: dropped).
        new_lit = [-1] * len(marks)
        for index, node in enumerate(order):
            new_lit[node] = index << 1

        swept = Aig(self.name)
        swept.kinds = [self.kinds[node] for node in order]
        swept.fanin0 = [
            new_lit[lit >> 1] | (lit & 1)
            for lit in map(self.fanin0.__getitem__, order)
        ]
        swept.fanin1 = [
            new_lit[lit >> 1] | (lit & 1)
            for lit in map(self.fanin1.__getitem__, order)
        ]
        swept.pi_name = {
            new_lit[node] >> 1: name for node, name in self.pi_name.items()
        }
        swept.inputs = list(self.inputs)
        swept.outputs = [
            (name, new_lit[lit >> 1] | (lit & 1)) for name, lit in self.outputs
        ]
        swept._leaf_lit = {
            name: new_lit[lit >> 1] | (lit & 1)
            for name, lit in self._leaf_lit.items()
        }
        swept.net_literal = {
            net: new_lit[lit >> 1] | (lit & 1)
            for net, lit in self.net_literal.items()
            if new_lit[lit >> 1] >= 0
        }
        return swept

    def simulate(
        self, assignment: Mapping[str, int], width: int = 1
    ) -> Dict[str, int]:
        """Bit-parallel simulation, mirroring ``Netlist.simulate``."""
        mask = (1 << width) - 1
        values: List[int] = [0] * len(self.kinds)
        for node, name in self.pi_name.items():
            try:
                values[node] = assignment[name] & mask
            except KeyError:
                raise AigError(f"missing value for input {name!r}") from None
        for node in range(1, len(self.kinds)):
            kind = self.kinds[node]
            if kind == KIND_PI:
                continue
            f0, f1 = self.fanin0[node], self.fanin1[node]
            v0 = values[lit_node(f0)] ^ (mask if f0 & 1 else 0)
            v1 = values[lit_node(f1)] ^ (mask if f1 & 1 else 0)
            values[node] = (v0 & v1) if kind == KIND_AND else (v0 ^ v1)
        out: Dict[str, int] = {}
        for name, lit in self.outputs:
            value = values[lit_node(lit)]
            out[name] = (value ^ mask if lit & 1 else value) & mask
        return out

    def lit_value(self, lit: int, values: Sequence[int], mask: int = 1) -> int:
        """Value of a literal given per-node values (simulation helper)."""
        value = values[lit_node(lit)]
        return (value ^ mask if lit & 1 else value) & mask

    def __repr__(self) -> str:
        ands = sum(1 for kind in self.kinds if kind == KIND_AND)
        xors = sum(1 for kind in self.kinds if kind == KIND_XOR)
        return (
            f"Aig({self.name!r}, {len(self.pi_name)} leaves, "
            f"{ands} and, {xors} xor, {len(self.outputs)} outputs)"
        )


# Lowering entries: ``entry(aig, *operand_literals) -> literal``.  One-
# and two-operand cells call aig_and/aig_xor once (``^ 1`` is the edge
# complement); wider n-ary cells go through the balanced trees, whose
# first pair is the same call.  An entry must create exactly the nodes
# of the balanced-tree lowering, in the same order: node ids are part
# of what fingerprints and cached cone digests were computed from.


def _lower_and(aig: Aig, a: int, b: int, *more: int) -> int:
    if more:
        return aig.aig_and_all((a, b, *more))
    return aig.aig_and(a, b)


def _lower_nand(aig: Aig, a: int, b: int, *more: int) -> int:
    if more:
        return aig.aig_and_all((a, b, *more)) ^ 1
    return aig.aig_and(a, b) ^ 1


def _lower_or(aig: Aig, a: int, b: int, *more: int) -> int:
    if more:
        return aig.aig_or_all((a, b, *more))
    return aig.aig_and(a ^ 1, b ^ 1) ^ 1


def _lower_nor(aig: Aig, a: int, b: int, *more: int) -> int:
    if more:
        return aig.aig_or_all((a, b, *more)) ^ 1
    return aig.aig_and(a ^ 1, b ^ 1)


def _lower_xor(aig: Aig, a: int, b: int, *more: int) -> int:
    if more:
        return aig.aig_xor_all((a, b, *more))
    return aig.aig_xor(a, b)


def _lower_xnor(aig: Aig, a: int, b: int, *more: int) -> int:
    if more:
        return aig.aig_xor_all((a, b, *more)) ^ 1
    return aig.aig_xor(a, b) ^ 1


#: The AIG lowering of every gate type (see :meth:`Aig.gate_literal`).
_LOWERING: Dict[GateType, Callable[..., int]] = {
    GateType.CONST0: lambda aig: CONST0,
    GateType.CONST1: lambda aig: CONST1,
    GateType.BUF: lambda aig, a: a,
    GateType.INV: lambda aig, a: a ^ 1,
    GateType.AND: _lower_and,
    GateType.NAND: _lower_nand,
    GateType.OR: _lower_or,
    GateType.NOR: _lower_nor,
    GateType.XOR: _lower_xor,
    GateType.XNOR: _lower_xnor,
    GateType.AOI21: lambda aig, a, b, c: aig.aig_and(
        aig.aig_and(a, b) ^ 1, c ^ 1
    ),
    GateType.AOI22: lambda aig, a, b, c, d: aig.aig_and(
        aig.aig_and(a, b) ^ 1, aig.aig_and(c, d) ^ 1
    ),
    GateType.OAI21: lambda aig, a, b, c: aig.aig_and(
        aig.aig_or(a, b), c
    ) ^ 1,
    GateType.OAI22: lambda aig, a, b, c, d: aig.aig_and(
        aig.aig_or(a, b), aig.aig_or(c, d)
    ) ^ 1,
    GateType.MUX2: lambda aig, sel, d1, d0: aig.aig_mux(sel, d1, d0),
}


def live_aig(netlist: Netlist) -> Aig:
    """The netlist's strashed live graph, derived once per netlist.

    :meth:`Aig.from_netlist` followed by :meth:`Aig.swept`, memoized in
    :meth:`Netlist.memo <repro.netlist.netlist.Netlist.memo>` so the
    fingerprint, the cone digests and the bitpack compile of one
    netlist share a single strash.  The graph is read-only; a mutation
    of the netlist clears the memo and the next call re-derives it.

    >>> from repro.gen.mastrovito import generate_mastrovito
    >>> net = generate_mastrovito(0b10011)
    >>> live_aig(net) is live_aig(net)
    True
    """
    memo = netlist.memo()
    aig = memo.get("aig")
    if aig is None:
        aig = memo["aig"] = Aig.from_netlist(netlist).swept()
    return aig
