"""Differential test: the per-type gate tables against the if-chains.

``seed_gate_literal``/``seed_from_netlist`` and ``seed_evaluate_gate``/
``seed_simulate``/``seed_simulate_all_nets`` below are verbatim copies
of the original per-gate dispatch (``self`` renamed to ``aig`` or
``netlist``): a 15-branch ``if`` chain per gate, an operand list per
gate and balanced trees for every n-ary cell.  The table-driven
:meth:`Aig.from_netlist` must build a node-for-node identical AIG (the
fingerprint schema and every cached cone digest depend on it), and the
table-driven simulation must return equal values at every width, on
every gate type at every arity, on hand-made corner cases and on the
generator zoo with its synthesized, NAND-mapped and fault-mutant forms.
The last tests break one table entry at a time and check that the
comparison notices.  ``SeedAig`` keeps the constructor as it was before
node creation was inlined into :meth:`Aig.aig_and`/:meth:`Aig.aig_xor`
(one ``_new_node``, ``make_lit`` and ``lit_complement`` call each), so
the seed side of every comparison builds its graph through it; two
broken constructors check that node identity is what gets compared.
"""

import random
from typing import Dict, List

import pytest

from repro.aig import aig as aig_module
from repro.aig.aig import (
    CONST0,
    CONST1,
    KIND_AND,
    KIND_XOR,
    Aig,
    AigError,
    lit_complement,
    make_lit,
)
from repro.fieldmath.irreducible import default_irreducible
from repro.gen.digit_serial import generate_digit_serial
from repro.gen.faults import random_fault
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.random_logic import generate_random_netlist
from repro.gen.schoolbook import generate_schoolbook
from repro.gen.squarer import generate_squarer
from repro.netlist import gate as gate_module
from repro.netlist.gate import Gate, GateType, evaluate_gate, gate_arity
from repro.netlist.netlist import Netlist, NetlistError
from repro.synth.pipeline import synthesize


class SeedAig(Aig):
    """:class:`Aig` with the seed's hash-consing constructor."""

    __slots__ = ()

    def aig_and(self, a, b):
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

    def _detect_xor_mux(self, a, b):
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

    def aig_xor(self, a, b):
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


def seed_gate_literal(aig, gtype, operands):
    """Lower one netlist cell onto the AND/XOR/complement core.

    Covers every :class:`~repro.netlist.gate.GateType`, including
    the mapped AOI/OAI/MUX complex cells.
    """
    if gtype is GateType.CONST0:
        return CONST0
    if gtype is GateType.CONST1:
        return CONST1
    if gtype is GateType.BUF:
        return operands[0]
    if gtype is GateType.INV:
        return lit_complement(operands[0])
    if gtype is GateType.AND:
        return aig.aig_and_all(operands)
    if gtype is GateType.NAND:
        return lit_complement(aig.aig_and_all(operands))
    if gtype is GateType.OR:
        return aig.aig_or_all(operands)
    if gtype is GateType.NOR:
        return lit_complement(aig.aig_or_all(operands))
    if gtype is GateType.XOR:
        return aig.aig_xor_all(operands)
    if gtype is GateType.XNOR:
        return lit_complement(aig.aig_xor_all(operands))
    if gtype is GateType.AOI21:
        a, b, c = operands
        return aig.aig_and(
            lit_complement(aig.aig_and(a, b)), lit_complement(c)
        )
    if gtype is GateType.AOI22:
        a, b, c, d = operands
        return aig.aig_and(
            lit_complement(aig.aig_and(a, b)),
            lit_complement(aig.aig_and(c, d)),
        )
    if gtype is GateType.OAI21:
        a, b, c = operands
        return lit_complement(aig.aig_and(aig.aig_or(a, b), c))
    if gtype is GateType.OAI22:
        a, b, c, d = operands
        return lit_complement(
            aig.aig_and(aig.aig_or(a, b), aig.aig_or(c, d))
        )
    if gtype is GateType.MUX2:
        sel, d1, d0 = operands
        return aig.aig_mux(sel, d1, d0)
    raise AigError(f"no AIG lowering for gate type {gtype}")


def seed_from_netlist(netlist):
    """Build the hash-consed AIG of a netlist."""
    aig = SeedAig(netlist.name)
    literal: Dict[str, int] = {}
    for name in netlist.inputs:
        literal[name] = aig.add_input(name)
    for gate in netlist.topological_order():
        operands = [
            literal[net]
            if net in literal
            else literal.setdefault(
                net, aig.add_input(net, declare=False)
            )
            for net in gate.inputs
        ]
        literal[gate.output] = seed_gate_literal(aig, gate.gtype, operands)
    for net in netlist.outputs:
        if net not in literal:
            # Undriven primary output: surface it as a leaf, like
            # any other undriven net, rather than failing here.
            literal[net] = aig.add_input(net, declare=False)
        aig.add_output(net, literal[net])
    aig.net_literal = literal
    return aig


def seed_evaluate_gate(gtype, values, mask=1):
    """Bit-parallel evaluation of one gate."""
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return mask
    if gtype is GateType.BUF:
        return values[0] & mask
    if gtype is GateType.INV:
        return ~values[0] & mask
    if gtype is GateType.AND:
        acc = mask
        for value in values:
            acc &= value
        return acc
    if gtype is GateType.NAND:
        acc = mask
        for value in values:
            acc &= value
        return ~acc & mask
    if gtype is GateType.OR:
        acc = 0
        for value in values:
            acc |= value
        return acc & mask
    if gtype is GateType.NOR:
        acc = 0
        for value in values:
            acc |= value
        return ~acc & mask
    if gtype is GateType.XOR:
        acc = 0
        for value in values:
            acc ^= value
        return acc & mask
    if gtype is GateType.XNOR:
        acc = 0
        for value in values:
            acc ^= value
        return ~acc & mask
    if gtype is GateType.AOI21:
        a, b, c = values
        return ~((a & b) | c) & mask
    if gtype is GateType.AOI22:
        a, b, c, d = values
        return ~((a & b) | (c & d)) & mask
    if gtype is GateType.OAI21:
        a, b, c = values
        return ~((a | b) & c) & mask
    if gtype is GateType.OAI22:
        a, b, c, d = values
        return ~((a | b) & (c | d)) & mask
    if gtype is GateType.MUX2:
        sel, d1, d0 = values
        return ((sel & d1) | (~sel & d0)) & mask
    raise ValueError(f"unknown gate type {gtype}")


def seed_simulate(netlist, assignment, width=1):
    """Bit-parallel simulation."""
    mask = (1 << width) - 1
    values: Dict[str, int] = {}
    for net in netlist.inputs:
        try:
            values[net] = assignment[net] & mask
        except KeyError:
            raise NetlistError(f"missing value for input {net!r}") from None
    for gate in netlist.topological_order():
        operands = [values[net] for net in gate.inputs]
        values[gate.output] = seed_evaluate_gate(gate.gtype, operands, mask)
    missing = [net for net in netlist.outputs if net not in values]
    if missing:
        raise NetlistError(f"outputs {missing} were never computed")
    return {net: values[net] for net in netlist.outputs}


def seed_simulate_all_nets(netlist, assignment, width=1):
    """Like :meth:`simulate` but returns every internal net too."""
    mask = (1 << width) - 1
    values: Dict[str, int] = {
        net: assignment[net] & mask for net in netlist.inputs
    }
    for gate in netlist.topological_order():
        operands = [values[net] for net in gate.inputs]
        values[gate.output] = seed_evaluate_gate(gate.gtype, operands, mask)
    return values


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------

AIG_FIELDS = (
    "name", "kinds", "fanin0", "fanin1", "pi_name", "inputs", "outputs",
    "net_literal", "_leaf_lit", "_strash",
)

WIDTHS = (1, 64, 516)


def outcome(function, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return "ok", function(*args)
    except Exception as error:  # noqa: BLE001 - compared, not hidden
        return type(error).__name__, str(error)


def assert_same_aig(netlist):
    expected = seed_from_netlist(netlist)
    actual = Aig.from_netlist(netlist)
    for field in AIG_FIELDS:
        assert getattr(actual, field) == getattr(expected, field), field
    assert type(actual.net_literal) is dict


def assert_same_simulation(netlist, seed=0):
    """Equal values at every width, with bits above the mask set."""
    rng = random.Random(seed)
    for width in WIDTHS:
        assignment = {
            net: rng.getrandbits(width + 40) for net in netlist.inputs
        }
        assert outcome(netlist.simulate, assignment, width) == outcome(
            seed_simulate, netlist, assignment, width
        ), width
        assert outcome(
            netlist.simulate_all_nets, assignment, width
        ) == outcome(seed_simulate_all_nets, netlist, assignment, width), width


def assert_same(netlist):
    assert_same_aig(netlist)
    assert_same_simulation(netlist)


# ----------------------------------------------------------------------
# Corpus
# ----------------------------------------------------------------------


def legal_arities(gtype) -> List[int]:
    fixed = gate_arity(gtype)
    return [fixed] if fixed is not None else [2, 3, 4, 5]


def single_cell(gtype, arity) -> Netlist:
    """One cell over fresh inputs, driving the only output."""
    names = tuple(f"x{k}" for k in range(arity))
    net = Netlist(f"{gtype.value}{arity}", names, ["y"])
    net.add_gate(Gate("y", gtype, names))
    return net


def cell_over_shared_logic(gtype, arity) -> Netlist:
    """The cell reading complemented, shared and constant nets, so its
    lowering meets hash-consing, folding and the XOR/MUX recognition."""
    net = Netlist(f"{gtype.value}{arity}_shared", ["a", "b", "c"], ["y", "p"])
    net.add_gate(Gate("na", GateType.INV, ("a",)))
    net.add_gate(Gate("p", GateType.NAND, ("a", "b")))
    net.add_gate(Gate("q", GateType.NAND, ("na", "c")))
    net.add_gate(Gate("one", GateType.CONST1, ()))
    pool = ["p", "q", "na", "b", "one", "a", "c"]
    net.add_gate(Gate("y", gtype, tuple(pool[k % len(pool)]
                                        for k in range(arity))))
    return net


EVERY_CELL = [
    (gtype, arity) for gtype in GateType for arity in legal_arities(gtype)
]


def corner_cases() -> Netlist:
    """Repeated operands, constants, undeclared reads, PI as output."""
    net = Netlist("corners", ["a", "b"], ["a", "nn", "x", "ghost_out"])
    net.add_gate(Gate("zero", GateType.CONST0, ()))
    net.add_gate(Gate("one", GateType.CONST1, ()))
    net.add_gate(Gate("nn", GateType.NAND, ("a", "a")))
    net.add_gate(Gate("x", GateType.XOR, ("a", "a", "b")))
    net.add_gate(Gate("k0", GateType.AND, ("zero", "b")))
    net.add_gate(Gate("k1", GateType.OR, ("one", "nn", "x")))
    net.add_gate(Gate("g1", GateType.AND, ("ghost2", "a")))
    net.add_gate(Gate("g2", GateType.OR, ("ghost1", "ghost2")))
    net.add_gate(Gate("g3", GateType.MUX2, ("ghost3", "g1", "g2")))
    return net


def without_undriven(net: Netlist) -> Netlist:
    """The corner cases with every undriven read declared an input."""
    dup = Netlist(net.name, net.inputs, net.outputs)
    for gate in net.gates:
        dup.add_gate(gate)
    for name in sorted(net.nets()):
        if dup.driver_of(name) is None:
            dup.add_input(name)
    return dup


MODULUS = default_irreducible(5)

ZOO = {
    "mastrovito": lambda: generate_mastrovito(MODULUS),
    "schoolbook": lambda: generate_schoolbook(MODULUS),
    "montgomery": lambda: generate_montgomery(MODULUS),
    "karatsuba": lambda: generate_karatsuba(MODULUS),
    "interleaved": lambda: generate_interleaved(MODULUS),
    "digit-serial": lambda: generate_digit_serial(MODULUS),
    "squarer": lambda: generate_squarer(MODULUS),
    "synthesized": lambda: synthesize(generate_montgomery(MODULUS)),
    "synthesized-karatsuba": lambda: synthesize(generate_karatsuba(MODULUS)),
    "nand-mapped": lambda: synthesize(
        generate_mastrovito(MODULUS), use_xor_cells=False
    ),
    "random-logic": lambda: generate_random_netlist(11, 6, 80),
    "random-logic-wide": lambda: generate_random_netlist(3, 9, 120),
}


def fault_mutant(seed: int) -> Netlist:
    base = synthesize(generate_mastrovito(MODULUS), use_xor_cells=False)
    mutant, _ = random_fault(base, seed=seed)
    return mutant


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------


@pytest.mark.parametrize("gtype, arity", EVERY_CELL)
def test_every_cell_at_every_arity(gtype, arity):
    assert_same(single_cell(gtype, arity))
    assert_same(cell_over_shared_logic(gtype, arity))


@pytest.mark.parametrize("gtype, arity", EVERY_CELL)
def test_gate_literal_and_evaluate_gate(gtype, arity):
    """The public per-gate entry points, on random operands: literals
    with complements, constants and repeats; lane ints wider than the
    mask."""
    rng = random.Random(f"{gtype.value}{arity}")
    expected, actual = Aig(), Aig()
    for aig in (expected, actual):
        leaves = [aig.add_input(f"i{k}") for k in range(4)]
    pool = leaves + [lit_complement(lit) for lit in leaves] + [CONST0, CONST1]
    for _ in range(40):
        operands = [rng.choice(pool) for _ in range(arity)]
        assert actual.gate_literal(gtype, operands) == seed_gate_literal(
            expected, gtype, operands
        )
    for field in AIG_FIELDS:
        assert getattr(actual, field) == getattr(expected, field), field
    for width in WIDTHS:
        mask = (1 << width) - 1
        for _ in range(20):
            values = [rng.getrandbits(width + 40) for _ in range(arity)]
            assert evaluate_gate(gtype, values, mask) == seed_evaluate_gate(
                gtype, values, mask
            )


def test_unknown_gate_type_keeps_its_errors():
    with pytest.raises(AigError, match="no AIG lowering"):
        Aig().gate_literal("NAND", [CONST0, CONST1])
    with pytest.raises(ValueError, match="unknown gate type"):
        evaluate_gate("NAND", [0, 1])


def test_corner_cases():
    net = corner_cases()
    assert_same_aig(net)
    aig = Aig.from_netlist(net)
    undeclared = [aig.pi_name[lit >> 1] for lit in aig._leaf_lit.values()]
    assert undeclared == ["a", "b", "ghost2", "ghost1", "ghost3", "ghost_out"]
    # Undriven reads fail simulation the same way in both.
    assert_same_simulation(net)
    assert outcome(net.simulate, {"a": 1, "b": 0})[0] == "KeyError"
    assert_same(without_undriven(net))


@pytest.mark.parametrize("name", sorted(ZOO))
def test_generator_zoo(name):
    assert_same(ZOO[name]())


@pytest.mark.parametrize("seed", range(6))
def test_fault_mutants(seed):
    assert_same(fault_mutant(seed))


# Deliberately broken table entries: each must fail the comparison.
def _nand_no_complement_lowering(aig, a, b, *more):
    return aig.aig_and_all((a, b, *more))


def _nand_no_complement_evaluation(mask, a, b, *more):
    acc = a & b
    for value in more:
        acc &= value
    return acc & mask


MUTANTS = {
    "lowering NAND2 without complement": (
        aig_module._LOWERING, GateType.NAND, _nand_no_complement_lowering
    ),
    "evaluation NAND2 without complement": (
        gate_module.EVALUATION, GateType.NAND, _nand_no_complement_evaluation
    ),
    "evaluation INV without mask": (
        gate_module.EVALUATION, GateType.INV, lambda mask, a: ~a
    ),
    "lowering MUX2 with d0/d1 swapped": (
        aig_module._LOWERING, GateType.MUX2,
        lambda aig, sel, d1, d0: aig.aig_mux(sel, d0, d1),
    ),
    # Same function, other node order: only node identity tells.
    "lowering AOI22 with its products built the other way round": (
        aig_module._LOWERING, GateType.AOI22,
        lambda aig, a, b, c, d: aig.aig_and(
            *reversed((aig.aig_and(c, d) ^ 1, aig.aig_and(a, b) ^ 1))
        ),
    ),
    "evaluation MUX2 with d0/d1 swapped": (
        gate_module.EVALUATION, GateType.MUX2,
        lambda mask, sel, d1, d0: ((sel & d0) | (~sel & d1)) & mask,
    ),
}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_comparison_catches_a_broken_entry(mutant, monkeypatch):
    table, gtype, broken = MUTANTS[mutant]
    monkeypatch.setitem(table, gtype, broken)
    with pytest.raises(AssertionError):
        for cell in EVERY_CELL:
            assert_same(single_cell(*cell))


def broken_aig_and(order=True, lookup=True):
    """:meth:`Aig.aig_and` without its operand ordering or without its
    strash lookup: the same functions, other node identities."""

    def aig_and(aig, a, b):
        if a == CONST0 or b == CONST0 or a == b ^ 1:
            return CONST0
        if a == CONST1 or a == b:
            return b
        if b == CONST1:
            return a
        if a & 1 and b & 1:
            detected = aig._detect_xor_mux(a, b)
            if detected is not None:
                return detected
        if order and a > b:
            a, b = b, a
        key = (KIND_AND, a, b)
        node = aig._strash.get(key) if lookup else None
        if node is None:
            node = aig._strash[key] = len(aig.kinds)
            aig.kinds.append(KIND_AND)
            aig.fanin0.append(a)
            aig.fanin1.append(b)
        return node << 1

    return aig_and


CONSTRUCTOR_MUTANTS = {
    "aig_and without operand ordering": broken_aig_and(order=False),
    "aig_and without the strash lookup": broken_aig_and(lookup=False),
}


@pytest.mark.parametrize("mutant", sorted(CONSTRUCTOR_MUTANTS))
def test_comparison_catches_a_broken_constructor(mutant, monkeypatch):
    monkeypatch.setattr(Aig, "aig_and", CONSTRUCTOR_MUTANTS[mutant])
    with pytest.raises(AssertionError):
        for name in sorted(ZOO):
            assert_same_aig(ZOO[name]())
