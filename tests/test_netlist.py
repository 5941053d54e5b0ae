"""Unit tests for the Netlist container."""

import pytest

from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist, NetlistError


def half_adder() -> Netlist:
    net = Netlist("ha", inputs=["a", "b"], outputs=["s", "c"])
    net.add_gate(Gate("s", GateType.XOR, ("a", "b")))
    net.add_gate(Gate("c", GateType.AND, ("a", "b")))
    return net


class TestStructure:
    def test_multiple_drivers_rejected(self):
        net = half_adder()
        with pytest.raises(NetlistError):
            net.add_gate(Gate("s", GateType.OR, ("a", "b")))

    def test_driving_primary_input_rejected(self):
        net = half_adder()
        with pytest.raises(NetlistError):
            net.add_gate(Gate("a", GateType.INV, ("b",)))

    def test_undriven_input_detected(self):
        net = Netlist("bad", inputs=["a"], outputs=["y"])
        net.add_gate(Gate("y", GateType.AND, ("a", "ghost")))
        with pytest.raises(NetlistError):
            net.validate()

    def test_undriven_output_detected(self):
        net = Netlist("bad", inputs=["a"], outputs=["y"])
        with pytest.raises(NetlistError):
            net.validate()

    def test_cycle_detected(self):
        net = Netlist("loop", inputs=["a"], outputs=["y"])
        net.add_gate(Gate("x", GateType.AND, ("a", "y")))
        net.add_gate(Gate("y", GateType.INV, ("x",)))
        with pytest.raises(NetlistError):
            net.topological_order()

    def test_driving_declared_input_rejected(self):
        net = half_adder()
        net.add_input("d")
        with pytest.raises(NetlistError, match="primary input 'd' cannot be driven"):
            net.add_gate(Gate("d", GateType.INV, ("a",)))

    def test_undriven_read_reported_before_cycle(self):
        net = Netlist("both", inputs=["a"], outputs=["y"])
        net.add_gate(Gate("x", GateType.AND, ("a", "y")))
        net.add_gate(Gate("y", GateType.INV, ("x",)))
        net.add_gate(Gate("w", GateType.AND, ("a", "ghost")))
        with pytest.raises(NetlistError, match="reads undriven net 'ghost'"):
            net.validate()

    def test_undriven_output_reported_before_cycle(self):
        net = Netlist("both", inputs=["a"], outputs=["y", "v"])
        net.add_gate(Gate("x", GateType.AND, ("a", "y")))
        net.add_gate(Gate("y", GateType.INV, ("x",)))
        with pytest.raises(NetlistError, match="primary output 'v' is undriven"):
            net.validate()

    def test_order_ignores_undriven_reads(self):
        net = Netlist("open", inputs=["a"], outputs=["y"])
        net.add_gate(Gate("y", GateType.INV, ("t",)))
        net.add_gate(Gate("t", GateType.AND, ("a", "ghost")))
        assert [g.output for g in net.topological_order()] == ["t", "y"]
        with pytest.raises(NetlistError, match="undriven"):
            net.validate()

    def test_driver_lookup(self):
        net = half_adder()
        assert net.driver_of("s").gtype is GateType.XOR
        assert net.driver_of("a") is None

    def test_nets_enumeration(self):
        assert half_adder().nets() == {"a", "b", "s", "c"}


class TestTopologicalOrder:
    def test_respects_dependencies(self):
        net = Netlist("chain", inputs=["a"], outputs=["y"])
        net.add_gate(Gate("y", GateType.INV, ("x2",)))
        net.add_gate(Gate("x2", GateType.INV, ("x1",)))
        net.add_gate(Gate("x1", GateType.INV, ("a",)))
        order = [g.output for g in net.topological_order()]
        assert order == ["x1", "x2", "y"]

    def test_cache_invalidation(self):
        net = Netlist("grow", inputs=["a"], outputs=["y"])
        net.add_gate(Gate("y", GateType.INV, ("a",)))
        assert len(net.topological_order()) == 1
        net.add_gate(Gate("extra", GateType.INV, ("y",)))
        assert len(net.topological_order()) == 2


class TestCones:
    def test_cone_isolates_output(self):
        net = half_adder()
        cone = net.cone("s")
        assert cone.outputs == ["s"]
        assert len(cone) == 1
        assert cone.inputs == ["a", "b"]

    def test_cone_gates_topological(self):
        net = Netlist("deep", inputs=["a", "b"], outputs=["y", "w"])
        net.add_gate(Gate("t", GateType.AND, ("a", "b")))
        net.add_gate(Gate("y", GateType.INV, ("t",)))
        net.add_gate(Gate("w", GateType.XOR, ("a", "b")))  # outside cone
        gates = net.cone_gates("y")
        assert [g.output for g in gates] == ["t", "y"]

    def test_unknown_net_rejected(self):
        with pytest.raises(NetlistError):
            half_adder().cone("ghost")

    def test_shared_logic_appears_in_both_cones(self):
        net = Netlist("share", inputs=["a", "b"], outputs=["y1", "y2"])
        net.add_gate(Gate("t", GateType.AND, ("a", "b")))
        net.add_gate(Gate("y1", GateType.INV, ("t",)))
        net.add_gate(Gate("y2", GateType.BUF, ("t",)))
        assert "t" in {g.output for g in net.cone_gates("y1")}
        assert "t" in {g.output for g in net.cone_gates("y2")}


class TestSimulation:
    def test_half_adder_truth_table(self):
        net = half_adder()
        assert net.simulate({"a": 0, "b": 0}) == {"s": 0, "c": 0}
        assert net.simulate({"a": 1, "b": 0}) == {"s": 1, "c": 0}
        assert net.simulate({"a": 1, "b": 1}) == {"s": 0, "c": 1}

    def test_bit_parallel_simulation(self):
        net = half_adder()
        # Lanes: (a,b) = (0,0), (1,0), (0,1), (1,1)
        outputs = net.simulate({"a": 0b1010, "b": 0b1100}, width=4)
        assert outputs["s"] == 0b0110
        assert outputs["c"] == 0b1000

    def test_missing_input_rejected(self):
        with pytest.raises(NetlistError):
            half_adder().simulate({"a": 1})

    def test_simulate_all_nets(self):
        net = half_adder()
        values = net.simulate_all_nets({"a": 1, "b": 1})
        assert values["a"] == 1 and values["s"] == 0 and values["c"] == 1

    def test_simulate_all_nets_missing_input_rejected(self):
        # Both simulations name the missing input the same way.
        for simulate in (
            half_adder().simulate,
            half_adder().simulate_all_nets,
        ):
            with pytest.raises(
                NetlistError, match="missing value for input 'b'"
            ):
                simulate({"a": 1})


class TestStats:
    def test_counts(self):
        stats = half_adder().stats()
        assert stats.num_gates == 2
        assert stats.num_equations == 2
        assert stats.gate_counts == {"XOR": 1, "AND": 1}
        assert stats.depth == 1

    def test_depth_of_chain(self):
        net = Netlist("chain", inputs=["a"], outputs=["y"])
        net.add_gate(Gate("x1", GateType.INV, ("a",)))
        net.add_gate(Gate("x2", GateType.INV, ("x1",)))
        net.add_gate(Gate("y", GateType.INV, ("x2",)))
        assert net.stats().depth == 3

    def test_copy_is_independent(self):
        net = half_adder()
        dup = net.copy("ha2")
        dup.add_gate(Gate("extra", GateType.INV, ("s",)))
        assert len(net) == 2 and len(dup) == 3
