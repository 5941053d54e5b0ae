"""The hash-consed AIG IR: construction invariants, netlist round-trip
property tests and XOR balancing."""

import random

import pytest

from repro.aig import (
    CONST0,
    CONST1,
    Aig,
    balance_and_trees,
    balance_xor_trees,
    lit_complement,
    lit_node,
)
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.normal_basis import generate_massey_omura
from repro.gen.random_logic import generate_random_netlist
from repro.gen.redundancy import decorate_with_redundancy
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist


def simulation_equivalent(lhs, rhs, trials=32, width=64, seed=0):
    """Random bit-parallel vectors agree on every output."""
    rng = random.Random(seed)
    for _ in range(trials):
        assignment = {
            name: rng.getrandbits(width) for name in lhs.inputs
        }
        if lhs.simulate(assignment, width=width) != rhs.simulate(
            assignment, width=width
        ):
            return False
    return True


class TestHashConsing:
    def test_commutative_and_shared(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        assert aig.aig_and(a, b) == aig.aig_and(b, a)

    def test_xor_self_cancels(self):
        aig = Aig()
        a = aig.add_input("a")
        assert aig.aig_xor(a, a) == CONST0
        assert aig.aig_xor(a, lit_complement(a)) == CONST1

    def test_and_absorbs_constants(self):
        aig = Aig()
        a = aig.add_input("a")
        assert aig.aig_and(a, CONST0) == CONST0
        assert aig.aig_and(a, CONST1) == a
        assert aig.aig_and(a, lit_complement(a)) == CONST0
        assert aig.aig_and(a, a) == a

    def test_xor_complements_pull_to_output(self):
        """XNOR-shaped constructions share the XOR node."""
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        x = aig.aig_xor(a, b)
        assert aig.aig_xor(lit_complement(a), b) == lit_complement(x)
        assert aig.aig_xor(a, lit_complement(b)) == lit_complement(x)
        assert aig.aig_xor(lit_complement(a), lit_complement(b)) == x

    def test_inverter_pairs_are_free(self):
        aig = Aig()
        a = aig.add_input("a")
        assert lit_complement(lit_complement(a)) == a
        assert len(aig) == 2  # const + the input; no INV nodes exist

    def test_de_morgan_shares_structure(self):
        """OR(a,b) and NAND(!a,!b) are the same literal."""
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        by_or = aig.aig_or(a, b)
        by_nand = lit_complement(
            aig.aig_and(lit_complement(a), lit_complement(b))
        )
        assert by_or == by_nand

    def test_node_ids_are_topological(self):
        aig = Aig.from_netlist(generate_mastrovito(0b10011))
        for node in range(1, len(aig)):
            if aig.is_and(node) or aig.is_xor(node):
                f0, f1 = aig.fanins(node)
                assert lit_node(f0) < node
                assert lit_node(f1) < node


class TestRoundTrip:
    @pytest.mark.parametrize(
        "generator, modulus",
        [
            (generate_mastrovito, 0b10011),
            (generate_montgomery, 0b1011),
            (generate_massey_omura, 0b1011),
        ],
        ids=["mastrovito", "montgomery", "massey-omura"],
    )
    def test_generators_round_trip(self, generator, modulus):
        netlist = generator(modulus)
        back = Aig.from_netlist(netlist).to_netlist()
        back.validate()
        assert back.inputs == netlist.inputs
        assert back.outputs == netlist.outputs
        assert simulation_equivalent(netlist, back)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_netlists_round_trip(self, seed):
        """Property: to_netlist(from_netlist(n)) is simulation-equal
        on random vectors, across the full cell library."""
        netlist = generate_random_netlist(seed)
        back = Aig.from_netlist(netlist).to_netlist()
        back.validate()
        assert simulation_equivalent(netlist, back, seed=seed)

    def test_round_trip_emits_only_core_cells(self):
        netlist = generate_random_netlist(3)
        back = Aig.from_netlist(netlist).to_netlist()
        assert {gate.gtype for gate in back.gates} <= {
            GateType.AND,
            GateType.XOR,
            GateType.INV,
            GateType.BUF,
            GateType.CONST0,
            GateType.CONST1,
        }

    def test_redundancy_collapses_by_construction(self):
        lean = generate_mastrovito(0b10011)
        fat = decorate_with_redundancy(lean)
        slim = Aig.from_netlist(fat).to_netlist()
        assert len(slim) < len(fat)
        assert simulation_equivalent(fat, slim)

    def test_po_aliased_to_input_gets_buf(self):
        netlist = Netlist("t", inputs=["a"], outputs=["z"])
        netlist.add_gate(Gate("n", GateType.INV, ("a",)))
        netlist.add_gate(Gate("z", GateType.INV, ("n",)))
        back = Aig.from_netlist(netlist).to_netlist()
        back.validate()
        assert back.simulate({"a": 1})["z"] == 1

    def test_constant_output(self):
        netlist = Netlist("t", inputs=["a"], outputs=["z"])
        netlist.add_gate(Gate("z", GateType.XOR, ("a", "a")))
        back = Aig.from_netlist(netlist).to_netlist()
        assert back.simulate({"a": 1})["z"] == 0
        assert [gate.gtype for gate in back.gates] == [GateType.CONST0]

    def test_dead_logic_swept_by_construction(self):
        netlist = Netlist("t", inputs=["a", "b"], outputs=["z"])
        netlist.add_gate(Gate("z", GateType.AND, ("a", "b")))
        netlist.add_gate(Gate("dead", GateType.XOR, ("a", "b")))
        back = Aig.from_netlist(netlist).to_netlist()
        assert len(back) == 1

    def test_unused_inputs_survive(self):
        netlist = Netlist("t", inputs=["a", "b"], outputs=["z"])
        netlist.add_gate(Gate("z", GateType.BUF, ("a",)))
        back = Aig.from_netlist(netlist).to_netlist()
        assert back.inputs == ["a", "b"]


class TestBalance:
    def test_chain_becomes_log_depth(self):
        aig = Aig()
        lits = [aig.add_input(f"i{k}") for k in range(16)]
        acc = lits[0]
        for lit in lits[1:]:
            acc = aig.aig_xor(acc, lit)
        aig.add_output("y", acc)
        chain = aig.to_netlist()
        balanced = balance_xor_trees(aig).to_netlist()
        assert balanced.stats().depth <= 4 < chain.stats().depth
        assert simulation_equivalent(chain, balanced)

    def test_duplicate_leaves_cancel(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        shared = aig.aig_xor(a, b)
        aig.add_output("y", aig.aig_xor(shared, a))  # a⊕b⊕a = b
        balanced = balance_xor_trees(aig)
        assert balanced.simulate({"a": 1, "b": 0})["y"] == 0
        assert balanced.simulate({"a": 0, "b": 1})["y"] == 1

    def test_multi_fanout_xor_not_dissolved(self):
        aig = Aig()
        a, b, c = (aig.add_input(n) for n in "abc")
        shared = aig.aig_xor(a, b)
        aig.add_output("y1", aig.aig_xor(shared, c))
        aig.add_output("y2", aig.aig_and(shared, c))
        balanced = balance_xor_trees(aig)
        for bits in range(8):
            env = {"a": bits & 1, "b": (bits >> 1) & 1, "c": (bits >> 2) & 1}
            assert balanced.simulate(env) == aig.simulate(env)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_netlists_function_preserved(self, seed):
        netlist = generate_random_netlist(seed, n_gates=30)
        aig = Aig.from_netlist(netlist)
        balanced = balance_xor_trees(aig).to_netlist()
        balanced.validate()
        assert simulation_equivalent(netlist, balanced, seed=seed)


class TestAndBalance:
    def test_chain_becomes_log_depth(self):
        aig = Aig()
        lits = [aig.add_input(f"i{k}") for k in range(16)]
        acc = lits[0]
        for lit in lits[1:]:
            acc = aig.aig_and(acc, lit)
        aig.add_output("y", acc)
        chain = aig.to_netlist()
        balanced = balance_and_trees(aig).to_netlist()
        assert balanced.stats().depth <= 4 < chain.stats().depth
        assert simulation_equivalent(chain, balanced)

    def test_duplicate_leaves_dedupe(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        tree = aig.aig_and(aig.aig_and(a, b), a)  # a·b·a = a·b
        aig.add_output("y", tree)
        balanced = balance_and_trees(aig)
        # One AND node: const + 2 leaves + 1 AND.
        assert len(balanced) == 4
        assert balanced.simulate({"a": 1, "b": 1})["y"] == 1
        assert balanced.simulate({"a": 1, "b": 0})["y"] == 0

    def test_complemented_edge_breaks_the_tree(self):
        """!(b·c) feeds the outer AND through a complement — that AND
        is a different factor, never dissolved into the product."""
        aig = Aig()
        a, b, c = (aig.add_input(n) for n in "abc")
        inner = aig.aig_and(b, c)
        aig.add_output("y", aig.aig_and(a, lit_complement(inner)))
        balanced = balance_and_trees(aig)
        for bits in range(8):
            env = {"a": bits & 1, "b": (bits >> 1) & 1, "c": (bits >> 2) & 1}
            assert balanced.simulate(env) == aig.simulate(env)

    def test_complementary_factors_collapse_to_const0(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        tree = aig.aig_and(aig.aig_and(a, b), lit_complement(a))
        aig.add_output("y", tree)
        balanced = balance_and_trees(aig)
        assert balanced.simulate({"a": 1, "b": 1})["y"] == 0
        assert balanced.simulate({"a": 0, "b": 1})["y"] == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_random_netlists_function_preserved(self, seed):
        netlist = generate_random_netlist(seed, n_gates=30)
        aig = Aig.from_netlist(netlist)
        balanced = balance_and_trees(aig).to_netlist()
        balanced.validate()
        assert simulation_equivalent(netlist, balanced, seed=seed)

    @pytest.mark.parametrize("seed", range(10))
    def test_composes_with_xor_balancing(self, seed):
        """The synthesize() pipeline order: XOR then AND balancing."""
        netlist = generate_random_netlist(seed, n_gates=40)
        staged = balance_and_trees(
            balance_xor_trees(Aig.from_netlist(netlist))
        ).to_netlist()
        staged.validate()
        assert simulation_equivalent(netlist, staged, seed=seed)


class TestStructuralDetection:
    """aig_and recognises the NAND/AOI decompositions of XOR/MUX."""

    def test_four_nand_xor_strashes_to_xor(self):
        """The mapper's shared-inner-NAND form (use_xor_cells=False)."""
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        nab = lit_complement(aig.aig_and(a, b))
        z = lit_complement(
            aig.aig_and(
                lit_complement(aig.aig_and(a, nab)),
                lit_complement(aig.aig_and(b, nab)),
            )
        )
        assert z == aig.aig_xor(a, b)

    def test_aoi_xor_strashes_to_xor(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        direct = aig.aig_and(
            lit_complement(aig.aig_and(a, b)),
            lit_complement(
                aig.aig_and(lit_complement(a), lit_complement(b))
            ),
        )
        assert direct == aig.aig_xor(a, b)

    def test_nand_mux_strashes_to_mux(self):
        aig = Aig()
        s, d1, d0 = (aig.add_input(n) for n in ("s", "d1", "d0"))
        nand_form = lit_complement(
            aig.aig_and(
                lit_complement(aig.aig_and(s, d1)),
                lit_complement(aig.aig_and(lit_complement(s), d0)),
            )
        )
        assert nand_form == aig.aig_mux(s, d1, d0)

    def test_nand_lowered_netlist_recovers_xor_nodes(self):
        from repro.synth.pipeline import synthesize

        nand = synthesize(generate_mastrovito(0b10011), use_xor_cells=False)
        aig = Aig.from_netlist(nand)
        assert any(aig.is_xor(node) for node in range(len(aig)))
        flat_aig = Aig.from_netlist(generate_mastrovito(0b10011))
        rng = random.Random(7)
        for _ in range(32):
            env = {name: rng.getrandbits(16) for name in nand.inputs}
            assert aig.simulate(env, width=16) == flat_aig.simulate(
                env, width=16
            )

    def test_mapped_forms_share_fingerprints_with_recodings(self):
        """An XNOR cell and its 4-NAND lowering strash identically."""
        from repro.netlist.gate import Gate as _Gate

        lhs = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
        lhs.add_gate(_Gate("z0", GateType.XNOR, ("a0", "b0")))
        rhs = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
        rhs.add_gate(_Gate("nab", GateType.NAND, ("a0", "b0")))
        rhs.add_gate(_Gate("na", GateType.NAND, ("a0", "nab")))
        rhs.add_gate(_Gate("nb", GateType.NAND, ("b0", "nab")))
        rhs.add_gate(_Gate("z0", GateType.NAND, ("na", "nb")))
        from repro.service.fingerprint import fingerprint_netlist

        # rhs's outer NAND is !XNOR = XOR... and z0 = NAND(na, nb)
        # computes XOR(a0,b0)?  No: the 4-NAND network computes XOR,
        # so compare against the XOR cell.
        xor_net = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
        xor_net.add_gate(_Gate("z0", GateType.XOR, ("a0", "b0")))
        assert fingerprint_netlist(rhs) == fingerprint_netlist(xor_net)
        assert fingerprint_netlist(rhs) != fingerprint_netlist(lhs)


class TestDeepChains:
    def test_linear_xor_chain_does_not_recurse_out(self):
        """balance_xor_trees's motivating input — a linear-depth XOR
        chain — must not hit the Python recursion limit."""
        depth = 3000
        netlist = Netlist("chain", inputs=[f"i{k}" for k in range(depth)])
        previous = "i0"
        for k in range(1, depth):
            net = f"x{k}"
            netlist.add_gate(Gate(net, GateType.XOR, (previous, f"i{k}")))
            previous = net
        netlist.add_output(previous)
        balanced = balance_xor_trees(Aig.from_netlist(netlist)).to_netlist()
        assert balanced.stats().depth <= 13
