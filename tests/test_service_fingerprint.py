"""Fingerprint invariance: the service cache key must identify netlist
*structure*, not its serialization accidents."""

import hashlib
import random

import pytest

from repro.aig import Aig, live_aig
from repro.gen.digit_serial import generate_digit_serial
from repro.gen.faults import random_fault
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.schoolbook import generate_schoolbook
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist
from repro.service.fingerprint import (
    FINGERPRINT_SCHEMA,
    cone_fingerprints,
    fingerprint_netlist,
    fingerprint_with_cones,
    remember_fingerprint,
)
from repro.synth.pipeline import synthesize
from repro.synth.strash import structural_hash


def reorder(netlist: Netlist, seed: int = 7) -> Netlist:
    gates = netlist.gates
    random.Random(seed).shuffle(gates)
    out = Netlist(netlist.name, netlist.inputs, netlist.outputs)
    for gate in gates:
        out.add_gate(gate)
    return out


def rename_internal(netlist: Netlist) -> Netlist:
    """Rename every internal net; ports keep their contract names."""
    ports = set(netlist.inputs) | set(netlist.outputs)
    mapping = {}
    for idx, gate in enumerate(netlist.gates):
        if gate.output not in ports:
            mapping[gate.output] = f"renamed_{idx}"
    out = Netlist(netlist.name, netlist.inputs, netlist.outputs)
    for gate in netlist.gates:
        out.add_gate(
            Gate(
                mapping.get(gate.output, gate.output),
                gate.gtype,
                tuple(mapping.get(net, net) for net in gate.inputs),
            )
        )
    return out


class TestInvariance:
    def test_deterministic_across_regeneration(self):
        assert fingerprint_netlist(
            generate_mastrovito(0b10011)
        ) == fingerprint_netlist(generate_mastrovito(0b10011))

    def test_gate_reordering(self):
        net = generate_mastrovito(0b100011011)
        assert fingerprint_netlist(reorder(net)) == fingerprint_netlist(net)

    def test_internal_net_renaming(self):
        net = generate_montgomery(0b1011)
        assert fingerprint_netlist(
            rename_internal(net)
        ) == fingerprint_netlist(net)

    def test_strash_fixpoint(self):
        net = generate_mastrovito(0b10011)
        assert fingerprint_netlist(
            structural_hash(net)
        ) == fingerprint_netlist(net)

    def test_buf_chain_and_duplicate_logic_collapse(self):
        base = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
        base.add_gate(Gate("z0", GateType.AND, ("a0", "b0")))

        decorated = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
        decorated.add_gate(Gate("n1", GateType.AND, ("a0", "b0")))
        decorated.add_gate(Gate("n2", GateType.AND, ("b0", "a0")))  # dup
        decorated.add_gate(Gate("n3", GateType.BUF, ("n1",)))
        decorated.add_gate(Gate("z0", GateType.BUF, ("n3",)))
        # n2 is dead after CSE; BUF chain aliases through.
        assert fingerprint_netlist(decorated) == fingerprint_netlist(base)

    def test_commutative_input_order(self):
        lhs = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
        lhs.add_gate(Gate("z0", GateType.XOR, ("a0", "b0")))
        rhs = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
        rhs.add_gate(Gate("z0", GateType.XOR, ("b0", "a0")))
        assert fingerprint_netlist(lhs) == fingerprint_netlist(rhs)


class TestDiscrimination:
    def test_different_modulus_differs(self):
        assert fingerprint_netlist(
            generate_mastrovito(0b10011)
        ) != fingerprint_netlist(generate_mastrovito(0b11001))

    def test_different_architecture_differs(self):
        assert fingerprint_netlist(
            generate_mastrovito(0b1011)
        ) != fingerprint_netlist(generate_montgomery(0b1011))

    def test_noncommutative_input_order_differs(self):
        lhs = Netlist("t", inputs=["a0", "b0", "c0"], outputs=["z0"])
        lhs.add_gate(Gate("z0", GateType.MUX2, ("a0", "b0", "c0")))
        rhs = Netlist("t", inputs=["a0", "b0", "c0"], outputs=["z0"])
        rhs.add_gate(Gate("z0", GateType.MUX2, ("c0", "b0", "a0")))
        assert fingerprint_netlist(lhs) != fingerprint_netlist(rhs)

    def test_output_order_is_part_of_the_key(self):
        lhs = Netlist("t", inputs=["a0", "b0"], outputs=["z0", "z1"])
        lhs.add_gate(Gate("z0", GateType.AND, ("a0", "b0")))
        lhs.add_gate(Gate("z1", GateType.XOR, ("a0", "b0")))
        rhs = Netlist("t", inputs=["a0", "b0"], outputs=["z1", "z0"])
        rhs.add_gate(Gate("z0", GateType.AND, ("a0", "b0")))
        rhs.add_gate(Gate("z1", GateType.XOR, ("a0", "b0")))
        assert fingerprint_netlist(lhs) != fingerprint_netlist(rhs)


def test_format_is_versioned_hex():
    fingerprint = fingerprint_netlist(generate_mastrovito(0b111))
    prefix, digest = fingerprint.split("-")
    assert prefix == f"v{FINGERPRINT_SCHEMA}"
    assert len(digest) == 64
    int(digest, 16)  # hex or raise


class TestAigSchema:
    """Schema 3: AIG labels with structural XOR/MUX recovery."""

    def test_schema_is_bumped(self):
        assert FINGERPRINT_SCHEMA == 3
        assert fingerprint_netlist(
            generate_mastrovito(0b111)
        ).startswith("v3-")

    def test_xnor_equals_inverted_xor(self):
        """Complement pulling: XNOR(a,b) and INV(XOR(a,b)) share the
        XOR node, so they must share the fingerprint."""
        lhs = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
        lhs.add_gate(Gate("z0", GateType.XNOR, ("a0", "b0")))
        rhs = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
        rhs.add_gate(Gate("x", GateType.XOR, ("a0", "b0")))
        rhs.add_gate(Gate("z0", GateType.INV, ("x",)))
        assert fingerprint_netlist(lhs) == fingerprint_netlist(rhs)

    def test_de_morgan_recodings_collapse(self):
        """OR(a,b) and NAND(INV(a), INV(b)) are one AIG structure."""
        lhs = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
        lhs.add_gate(Gate("z0", GateType.OR, ("a0", "b0")))
        rhs = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
        rhs.add_gate(Gate("na", GateType.INV, ("a0",)))
        rhs.add_gate(Gate("nb", GateType.INV, ("b0",)))
        rhs.add_gate(Gate("z0", GateType.NAND, ("na", "nb")))
        assert fingerprint_netlist(lhs) == fingerprint_netlist(rhs)

    def test_complemented_output_is_part_of_the_key(self):
        lhs = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
        lhs.add_gate(Gate("z0", GateType.AND, ("a0", "b0")))
        rhs = Netlist("t", inputs=["a0", "b0"], outputs=["z0"])
        rhs.add_gate(Gate("z0", GateType.NAND, ("a0", "b0")))
        assert fingerprint_netlist(lhs) != fingerprint_netlist(rhs)

    def test_synthesized_form_keeps_its_own_key(self):
        """Synthesis reshapes the AIG (mapping introduces real
        structure), so mapped and flat forms key separately while
        each stays deterministic."""
        flat = generate_mastrovito(0b10011)
        from repro.synth.pipeline import synthesize

        mapped = synthesize(flat, use_xor_cells=False)
        assert fingerprint_netlist(mapped) == fingerprint_netlist(mapped)


def fresh_derivation(netlist: Netlist):
    """Fingerprint and cone digests from a fresh, unswept
    ``Aig.from_netlist``, labelling the outputs' fan-in only — the
    derivation the memoized live graph must reproduce."""

    def digest(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    aig = Aig.from_netlist(netlist)
    labels = {0: digest("const0")}

    def edge(lit):
        label = labels[lit >> 1]
        return "!" + label if lit & 1 else label

    for node in aig.live_nodes():
        if node == 0:
            continue
        if aig.is_leaf(node):
            labels[node] = digest(f"pi:{aig.pi_name[node]}")
            continue
        kind = "and" if aig.is_and(node) else "xor"
        operands = sorted(edge(lit) for lit in aig.fanins(node))
        labels[node] = digest(kind + ":" + ",".join(operands))
    ports = [
        "in:" + ",".join(sorted(netlist.inputs)),
        "out:" + ",".join(f"{name}={edge(lit)}" for name, lit in aig.outputs),
    ]
    nodes = sorted(
        label
        for node, label in labels.items()
        if node != 0 and not aig.is_leaf(node)
    )
    payload = "\n".join([f"schema:{FINGERPRINT_SCHEMA}"] + ports + nodes)
    cones = {
        name: digest(f"cone:{FINGERPRINT_SCHEMA}:{name}={edge(lit)}")
        for name, lit in aig.outputs
    }
    return f"v{FINGERPRINT_SCHEMA}-{digest(payload)}", cones


GENERATORS = {
    "mastrovito": generate_mastrovito,
    "schoolbook": generate_schoolbook,
    "montgomery": generate_montgomery,
    "karatsuba": generate_karatsuba,
    "interleaved": generate_interleaved,
    "digit-serial": generate_digit_serial,
}

FORMS = {
    "flat": lambda netlist: netlist,
    "synthesized": synthesize,
    "nand-mapped": lambda netlist: synthesize(netlist, use_xor_cells=False),
}


class TestMemoizedDerivation:
    """One strash per netlist: the fingerprint and cone digests are
    derived from the memoized live graph and kept on the netlist."""

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_equals_fresh_derivation_across_the_zoo(self, name, form):
        netlist = FORMS[form](GENERATORS[name](0b1011011))
        expected = fresh_derivation(netlist)
        assert fingerprint_with_cones(netlist) == expected
        # Served from the memo now, and still the same.
        assert fingerprint_netlist(netlist) == expected[0]
        assert cone_fingerprints(netlist) == expected[1]

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_fresh_derivation_on_fault_mutants(self, seed):
        base = synthesize(generate_mastrovito(0b100101), use_xor_cells=False)
        mutant, _ = random_fault(base, seed=seed)
        assert fingerprint_with_cones(mutant) == fresh_derivation(mutant)

    def test_derived_once_per_netlist(self, monkeypatch):
        netlist = generate_montgomery(0b1011)
        calls = []
        original = Aig.from_netlist.__func__

        def counting(cls, source):
            calls.append(source)
            return original(cls, source)

        monkeypatch.setattr(Aig, "from_netlist", classmethod(counting))
        fingerprint_netlist(netlist)
        cone_fingerprints(netlist)
        fingerprint_with_cones(netlist)
        live_aig(netlist)
        assert calls == [netlist]

    def test_returned_digests_are_copies(self):
        netlist = generate_mastrovito(0b10011)
        cone_fingerprints(netlist).clear()
        fingerprint_with_cones(netlist)[1].clear()
        assert sorted(cone_fingerprints(netlist)) == sorted(netlist.outputs)

    def test_add_gate_then_add_output_refingerprints(self):
        netlist = generate_mastrovito(0b10011)
        before, before_cones = fingerprint_with_cones(netlist)
        netlist.add_gate(Gate("extra", GateType.XOR, ("a0", "b1")))
        after_gate = fingerprint_with_cones(netlist)
        # A gate no output reads is swept: same function, same key.
        assert after_gate == (before, before_cones)
        netlist.add_output("extra")
        after, after_cones = fingerprint_with_cones(netlist)
        assert after != before
        assert (after, after_cones) == fresh_derivation(netlist)
        assert set(after_cones) == set(before_cones) | {"extra"}

    def test_add_gate_on_an_output_refingerprints(self):
        netlist = Netlist("t", inputs=["a0", "b0"], outputs=["z0", "z1"])
        netlist.add_gate(Gate("z0", GateType.AND, ("a0", "b0")))
        before, before_cones = fingerprint_with_cones(netlist)
        netlist.add_gate(Gate("z1", GateType.XOR, ("a0", "b0")))
        after, after_cones = fingerprint_with_cones(netlist)
        assert after != before
        assert after_cones["z0"] == before_cones["z0"]
        assert after_cones["z1"] != before_cones["z1"]
        assert (after, after_cones) == fresh_derivation(netlist)

    def test_add_input_refingerprints(self):
        netlist = generate_mastrovito(0b10011)
        before = fingerprint_netlist(netlist)
        netlist.add_input("spare")
        assert fingerprint_netlist(netlist) != before
        assert fingerprint_netlist(netlist) == fresh_derivation(netlist)[0]

    def test_remembered_fingerprint_is_served(self):
        netlist = generate_mastrovito(0b10011)
        expected = fresh_derivation(netlist)
        seeded = generate_mastrovito(0b10011)
        remember_fingerprint(seeded, *expected)
        assert fingerprint_with_cones(seeded) == expected
        assert "aig" not in seeded.memo()  # never strashed


# Fingerprints and cone digests of four deterministic netlists, computed
# once and committed: a strash change that renumbers or reshapes nodes
# changes them and orphans every existing cache entry.
P8 = 0b100011011  # x^8 + x^4 + x^3 + x + 1

PINNED = {
    "flat Mastrovito": (
        lambda: generate_mastrovito(P8),
        "v3-4399775c5591e1b0ee8cfcc4478bf10e56b69"
        "1bf596010b9abc522e0d4aec200",
        (
            "075b1b38a8edb95c588c0923f83afbaec45d2768cbb7320aaa7122adf97bed89",
            "aa99cff5e5b223a6a7488d945f37845191c9db95a7dc25bdb1c631dd82d8ebb1",
            "d4ddd95e353b4fa1a1b3980e5b0d5b4e196386bbfb7b290ffb480ea1ad90641d",
            "b96a8a4f35a35746bac3701d6eca4f969d88c5e6a755bec7c028071a2bdc98dc",
            "dd1c657ec94b57e8fc872cd6068ffc426b59459ce0ba08f3bcec980774f67201",
            "574a7d0439df7ce5ec5d4b31784d6ef6ebcf25daeed6f6b1c31b5003e2b67806",
            "f7ba46b5743cb04cca1f04f91a731990370c49ef6bc5ebdea9c5e1d56d2871bd",
            "af8547384b70f91b86cf351a0e10770f7426b95b8341b28624fe728a6e771d7a",
        ),
    ),
    "NAND-mapped Mastrovito": (
        lambda: synthesize(
            generate_mastrovito(P8), use_xor_cells=False
        ),
        "v3-665edf0f297e29054bcf28a7b0902eb673bbc"
        "5858b7e9361ad7c95b6bcbc4c81",
        (
            "15c8cc624eda4f83ff2afce35510adb436d1f650244a713f0dfa0e2447535f63",
            "b67acab7ce66f6f5e1ab74a1b4c280b603dfe482285e4aaac9e54bec0d6038f2",
            "a516bd6514dc74ca1e12c411e47b3e4c40125819000aa340014fd09fdbe54b4e",
            "7db33c727e2acb73a9ad99296d8032600756e6c25a7d49f47bedadb9f8e72520",
            "cd06d5e8a492c35f6fad971cc2ec6e3899d4cd848a2546fb3a184288f8390518",
            "6f2e1b44f7a3d93e4bec5df5a23ee8dd0ed0d6442c4290419895160a23da91ca",
            "23c9f7f7cdfe74ca8901af6fb4b5488ccaa82eef6c495045c3e18349f9723313",
            "af8547384b70f91b86cf351a0e10770f7426b95b8341b28624fe728a6e771d7a",
        ),
    ),
    "synthesized Montgomery": (
        lambda: synthesize(generate_montgomery(P8)),
        "v3-34d229dd8704f7933ad00f943b983a51120f8"
        "b11abfdbe824f96496ed195f2f6",
        (
            "d6f793a5f1d118d69a58dd136cb6df34a439168da6ff18120e3d1dd8fda2d25e",
            "b0a8dbe980e347f071f28e30e8c46b4c3cf163a9afcdf12c2c20b0cb145489d8",
            "c1104e09a23fb4a615780057e625c4d2e01b540ee81eb3709ae8a77dcff95897",
            "415f9313ae5af9a2317f1534f9715c8f173b69cfe29580e99647aa37590b2345",
            "6fe8e38b3ad1fb5ed5cb05721668bf977a53076cb2f4fe8e099dc682e56774c0",
            "1ccbf26a30126d406f01ef363bd2529e222b03743fa4b4d6f72a2cabec256ae6",
            "c617c0a4f2f3289e9580d568906f46853d43a23319f00216ff1cdb298837ba3b",
            "9a4143b34a4ef0bd4ea5c3808e5748eeedec4db7fbf1782060639c4406807985",
        ),
    ),
    "NAND-mapped Mastrovito, fault seed 5": (
        lambda: random_fault(
            synthesize(generate_mastrovito(P8), use_xor_cells=False),
            seed=5,
        )[0],
        "v3-4a3963525442a3095c965fd63dfbbb26b7a8d"
        "4c8efdbd29a345adedf1ee23dce",
        (
            "2dd5b0d9b4837f3bd1c0fa2f3ab77b823f8f568325882411712365c11737bf4f",
            "b67acab7ce66f6f5e1ab74a1b4c280b603dfe482285e4aaac9e54bec0d6038f2",
            "a516bd6514dc74ca1e12c411e47b3e4c40125819000aa340014fd09fdbe54b4e",
            "7db33c727e2acb73a9ad99296d8032600756e6c25a7d49f47bedadb9f8e72520",
            "cd06d5e8a492c35f6fad971cc2ec6e3899d4cd848a2546fb3a184288f8390518",
            "6f2e1b44f7a3d93e4bec5df5a23ee8dd0ed0d6442c4290419895160a23da91ca",
            "23c9f7f7cdfe74ca8901af6fb4b5488ccaa82eef6c495045c3e18349f9723313",
            "af8547384b70f91b86cf351a0e10770f7426b95b8341b28624fe728a6e771d7a",
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_fingerprint_and_cone_digests(name):
    build, fingerprint, cones = PINNED[name]
    assert fingerprint_with_cones(build()) == (
        fingerprint,
        {f"z{i}": digest for i, digest in enumerate(cones)},
    )
