"""Tests for the synthesis passes (strash, technology mapping) and the
full pipeline.

Constant propagation and XOR rebalancing run on the hash-consed AIG
inside :func:`synthesize`, so their cases go through
``synthesize(..., map_cells=False)`` — the technology-independent
half of the flow."""

import pytest

from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.redundancy import decorate_with_redundancy
from repro.netlist.build import NetlistBuilder
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist
from repro.synth.mapping import technology_map
from repro.synth.pipeline import synthesize
from repro.synth.strash import structural_hash
from tests.conftest import bit_assignment, exhaustive_pairs


def _equivalent(lhs: Netlist, rhs: Netlist, m: int) -> bool:
    for a_value, b_value in exhaustive_pairs(m):
        assignment = bit_assignment(m, a_value, b_value)
        if lhs.simulate(assignment) != rhs.simulate(assignment):
            return False
    return True


def _optimize(netlist: Netlist) -> Netlist:
    """The AIG passes alone: constprop, strash, XOR/AND balancing."""
    return synthesize(netlist, map_cells=False)


class TestConstProp:
    def test_and_with_zero_folds(self):
        builder = NetlistBuilder("t", inputs=["a"])
        out = builder.and2("a", builder.const0())
        builder.set_outputs([out])
        folded = _optimize(builder.finish())
        assert [g.gtype for g in folded.gates] == [GateType.CONST0]

    def test_xor_with_zero_aliases(self):
        builder = NetlistBuilder("t", inputs=["a"])
        out = builder.xor2("a", builder.const0())
        builder.set_outputs([out])
        folded = _optimize(builder.finish())
        assert folded.simulate({"a": 1})[out] == 1
        assert len(folded) == 1  # a single BUF/driver for the PO

    def test_inv_of_constant(self):
        builder = NetlistBuilder("t", inputs=["a"])
        out = builder.inv(builder.const1())
        builder.set_outputs([out])
        folded = _optimize(builder.finish())
        assert folded.simulate({"a": 0})[out] == 0

    def test_mux_constant_select(self):
        net = Netlist("m", inputs=["d1", "d0"], outputs=["y"])
        net.add_gate(Gate("sel", GateType.CONST1, ()))
        net.add_gate(Gate("y", GateType.MUX2, ("sel", "d1", "d0")))
        folded = _optimize(net)
        assert folded.simulate({"d1": 1, "d0": 0})["y"] == 1

    def test_dead_logic_swept(self):
        builder = NetlistBuilder("t", inputs=["a", "b"])
        builder.and2("a", "b")  # dead
        out = builder.xor2("a", "b")
        builder.set_outputs([out])
        folded = _optimize(builder.finish())
        assert len(folded) == 1

    def test_multiplier_unchanged_functionally(self):
        netlist = generate_montgomery(0b1011)
        folded = _optimize(netlist)
        assert _equivalent(netlist, folded, 3)


class TestStrash:
    def test_common_subexpression_merged(self):
        builder = NetlistBuilder("t", inputs=["a", "b"])
        x = builder.and2("a", "b")
        y = builder.and2("b", "a")
        out = builder.xor2(x, y)
        builder.set_outputs([out])
        hashed = structural_hash(builder.finish())
        # AND dedups; XOR(x, x) remains (function: always 0).
        assert sum(
            1 for g in hashed.gates if g.gtype is GateType.AND
        ) == 1

    def test_double_inverter_removed(self):
        builder = NetlistBuilder("t", inputs=["a"])
        x = builder.inv("a")
        y = builder.inv(x)
        out = builder.and2(y, "a")
        builder.set_outputs([out])
        hashed = structural_hash(builder.finish())
        # INV(INV(a)) aliases back to a; the sweep then removes both
        # inverters, which are dead once nothing reads them.
        assert sum(
            1 for g in hashed.gates if g.gtype is GateType.INV
        ) == 0
        assert hashed.simulate({"a": 1})[out] == 1

    def test_po_keeps_named_driver(self):
        netlist = generate_mastrovito(0b10011)
        hashed = structural_hash(netlist)
        for output in netlist.outputs:
            assert hashed.driver_of(output) is not None

    def test_redundant_decoration_removed(self):
        lean = generate_mastrovito(0b1011)
        fat = decorate_with_redundancy(lean)
        slim = structural_hash(fat)
        assert len(slim) <= len(lean) + len(lean.outputs)
        assert _equivalent(lean, slim, 3)

    def test_function_preserved_on_multiplier(self):
        netlist = generate_montgomery(0b10011)
        assert _equivalent(netlist, structural_hash(netlist), 4)


class TestXorRebalance:
    def test_chain_becomes_log_depth(self):
        builder = NetlistBuilder(
            "t", inputs=[f"i{k}" for k in range(16)], balanced_trees=False
        )
        out = builder.xor_tree([f"i{k}" for k in range(16)])
        builder.set_outputs([out])
        chain = builder.finish()
        balanced = _optimize(chain)
        assert balanced.stats().depth <= 4 < chain.stats().depth

    def test_duplicate_leaves_cancel(self):
        builder = NetlistBuilder(
            "t", inputs=["a", "b"], balanced_trees=False
        )
        out = builder.xor_tree(["a", "b", "a"])
        builder.set_outputs([out])
        optimized = _optimize(builder.finish())
        assert optimized.simulate({"a": 1, "b": 0})[out] == 0
        assert optimized.simulate({"a": 0, "b": 1})[out] == 1
        assert [g.gtype for g in optimized.gates] == [GateType.BUF]

    def test_all_leaves_cancel_to_const0(self):
        builder = NetlistBuilder(
            "t", inputs=["a"], balanced_trees=False
        )
        out = builder.xor_tree(["a", "a"])
        builder.set_outputs([out])
        optimized = _optimize(builder.finish())
        assert optimized.simulate({"a": 1})[out] == 0
        assert [g.gtype for g in optimized.gates] == [GateType.CONST0]

    def test_multi_fanout_xor_not_dissolved(self):
        builder = NetlistBuilder("t", inputs=["a", "b", "c"])
        shared = builder.xor2("a", "b")
        out1 = builder.xor2(shared, "c")
        out2 = builder.and2(shared, "c")
        builder.set_outputs([out1, out2])
        optimized = _optimize(builder.finish())
        for bits in range(8):
            env = {"a": bits & 1, "b": (bits >> 1) & 1, "c": (bits >> 2) & 1}
            assert optimized.simulate(env) == builder.netlist.simulate(env)

    def test_multiplier_function_preserved(self):
        netlist = generate_mastrovito(0b10011, balanced=False)
        assert _equivalent(netlist, _optimize(netlist), 4)


class TestTechnologyMap:
    def test_no_raw_and_or_left(self):
        mapped = technology_map(generate_mastrovito(0b10011))
        types = {g.gtype for g in mapped.gates}
        assert GateType.AND not in types
        assert GateType.OR not in types

    def test_nand_only_mode(self):
        mapped = technology_map(
            generate_mastrovito(0b1011), use_xor_cells=False
        )
        types = {g.gtype for g in mapped.gates}
        assert GateType.XOR not in types

    def test_function_preserved(self):
        netlist = generate_montgomery(0b10011)
        assert _equivalent(netlist, technology_map(netlist), 4)
        assert _equivalent(
            netlist, technology_map(netlist, use_xor_cells=False), 4
        )

    def test_aoi_extraction(self):
        """INV(OR(AND(a,b), c)) with single-fanout internals fuses to
        one AOI21 cell."""
        net = Netlist("aoi", inputs=["a", "b", "c"], outputs=["y"])
        net.add_gate(Gate("t1", GateType.AND, ("a", "b")))
        net.add_gate(Gate("t2", GateType.OR, ("t1", "c")))
        net.add_gate(Gate("y", GateType.INV, ("t2",)))
        mapped = technology_map(net)
        assert [g.gtype for g in mapped.gates] == [GateType.AOI21]
        for bits in range(8):
            env = {"a": bits & 1, "b": (bits >> 1) & 1, "c": (bits >> 2) & 1}
            assert mapped.simulate(env) == net.simulate(env)

    def test_oai22_extraction(self):
        net = Netlist("oai", inputs=["a", "b", "c", "d"], outputs=["y"])
        net.add_gate(Gate("t1", GateType.OR, ("a", "b")))
        net.add_gate(Gate("t2", GateType.OR, ("c", "d")))
        net.add_gate(Gate("t3", GateType.AND, ("t1", "t2")))
        net.add_gate(Gate("y", GateType.INV, ("t3",)))
        mapped = technology_map(net)
        assert [g.gtype for g in mapped.gates] == [GateType.OAI22]

    def test_nary_gate_decomposed(self):
        net = Netlist("wide", inputs=["a", "b", "c", "d"], outputs=["y"])
        net.add_gate(Gate("y", GateType.XOR, ("a", "b", "c", "d")))
        mapped = technology_map(net)
        assert all(len(g.inputs) <= 2 for g in mapped.gates)
        for bits in range(16):
            env = {
                name: (bits >> i) & 1
                for i, name in enumerate(["a", "b", "c", "d"])
            }
            assert mapped.simulate(env) == net.simulate(env)


class TestPipeline:
    @pytest.mark.parametrize(
        "generator, modulus, m",
        [
            (generate_mastrovito, 0b10011, 4),
            (generate_montgomery, 0b1011, 3),
        ],
        ids=["mastrovito", "montgomery"],
    )
    def test_synthesize_preserves_function(self, generator, modulus, m):
        flat = decorate_with_redundancy(generator(modulus))
        optimized = synthesize(flat)
        assert _equivalent(flat, optimized, m)

    def test_synthesize_shrinks_redundant_netlists(self):
        flat = decorate_with_redundancy(generate_mastrovito(0b10011))
        optimized = synthesize(flat)
        assert len(optimized) < len(flat)

    def test_nand_only_synthesis(self):
        flat = generate_mastrovito(0b1011)
        mapped = synthesize(flat, use_xor_cells=False)
        assert GateType.XOR not in {g.gtype for g in mapped.gates}
        assert _equivalent(flat, mapped, 3)

    def test_name_suffix(self):
        optimized = synthesize(generate_mastrovito(0b111))
        assert optimized.name.endswith("_syn")

    def test_no_map_mode_keeps_and_xor(self):
        optimized = synthesize(generate_mastrovito(0b10011), map_cells=False)
        types = {g.gtype for g in optimized.gates}
        assert types <= {
            GateType.AND, GateType.XOR, GateType.BUF, GateType.CONST0,
        }


class TestStrashName:
    def test_name_preserved(self):
        netlist = generate_mastrovito(0b1011)
        netlist.name = "my_special_name"
        assert structural_hash(netlist).name == "my_special_name"

    def test_stronger_aliasing_through_complements(self):
        """AIG literal identity catches INV(NAND) == AND — beyond the
        old name-keyed strash."""
        builder = NetlistBuilder("t", inputs=["a", "b"])
        x = builder.and2("a", "b")
        builder.netlist.add_gate(Gate("n", GateType.NAND, ("a", "b")))
        builder.netlist.add_gate(Gate("y", GateType.INV, ("n",)))
        out = builder.xor2(x, "y")          # XOR(x, x) functionally
        builder.set_outputs([out])
        hashed = structural_hash(builder.finish())
        assert sum(
            1 for g in hashed.gates if g.gtype is GateType.AND
        ) == 1
        assert sum(1 for g in hashed.gates if g.gtype is GateType.INV) == 0
