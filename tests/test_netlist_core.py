"""The integer-indexed netlist core.

A netlist stores net ids, type codes and fan-in ids only; ``Gate``
objects are views built on demand.  These tests pin the properties
that follow: both ways of building a netlist (``add_gate`` and the EQN
reader, which fills the core directly) reach the same core, the audit
path builds no ``Gate``, and the exact-content token encodes the core
unambiguously.
"""

import gc

import pytest

from repro.aig import Aig
from repro.engine.base import netlist_token
from repro.extract.extractor import extract_irreducible_polynomial
from repro.extract.verify import verify_multiplier
from repro.fieldmath.irreducible import default_irreducible
from repro.gen.digit_serial import generate_digit_serial
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.random_logic import generate_random_netlist
from repro.gen.schoolbook import generate_schoolbook
from repro.gen.squarer import generate_squarer
from repro.netlist.eqn_io import format_eqn, parse_eqn
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist
from repro.service.fingerprint import fingerprint_with_cones
from repro.synth.pipeline import synthesize

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
    "nand-mapped": lambda: synthesize(
        generate_mastrovito(MODULUS), use_xor_cells=False
    ),
    "random-logic": lambda: generate_random_netlist(11, 6, 60),
}

AIG_TABLES = ("kinds", "fanin0", "fanin1", "pi_name", "outputs", "net_literal")


@pytest.mark.parametrize("name", sorted(ZOO))
def test_add_gate_and_the_reader_reach_the_same_core(name):
    built = ZOO[name]()
    parsed = parse_eqn(format_eqn(built), built.name)
    assert parsed.topological_order() == built.topological_order()
    expected, actual = Aig.from_netlist(built), Aig.from_netlist(parsed)
    for table in AIG_TABLES:
        assert getattr(actual, table) == getattr(expected, table), table
    assert fingerprint_with_cones(parsed) == fingerprint_with_cones(built)
    assert netlist_token(parsed) == netlist_token(built)


def _gates_alive():
    return [obj for obj in gc.get_objects() if isinstance(obj, Gate)]


def test_the_audit_path_builds_no_gate():
    text = format_eqn(
        synthesize(generate_mastrovito(0b100011011), use_xor_cells=False)
    )
    gc.collect()
    before = {id(gate) for gate in _gates_alive()}
    netlist = parse_eqn(text, "m8")
    cones = fingerprint_with_cones(netlist)
    result = extract_irreducible_polynomial(netlist, engine="bitpack")
    report = verify_multiplier(netlist, result)
    assert result.modulus == 0b100011011 and report.equivalent
    assert sorted(cones[1]) == sorted(netlist.outputs)
    assert [g for g in _gates_alive() if id(g) not in before] == []


def test_restrict_builds_the_cone_union_core_to_core():
    netlist = generate_mastrovito(MODULUS)
    sub = netlist.restrict(["z0", "z3"])
    assert sub.name == netlist.name and sub.outputs == ["z0", "z3"]
    kept = {g.output for g in netlist.cone_gates("z0")} | {
        g.output for g in netlist.cone_gates("z3")
    }
    assert [g.output for g in sub.gates] == [
        g.output for g in netlist.gates if g.output in kept
    ]
    assert sub.inputs == [
        net for net in netlist.inputs if net in sub.nets()
    ]
    assignment = {net: (7 * k) & 1 for k, net in enumerate(netlist.inputs)}
    full = netlist.simulate(assignment)
    part = sub.simulate({net: assignment[net] for net in sub.inputs})
    assert part == {"z0": full["z0"], "z3": full["z3"]}
    cone = set(netlist.cone_gates("z0"))
    assert netlist.cone("z0").gates == [g for g in netlist.gates if g in cone]


def _one_gate(output, inputs, gtype=GateType.AND, name="t"):
    net = Netlist(name, [n for n in inputs if n], [output])
    net.add_gate(Gate(output, gtype, tuple(inputs)))
    return net


class TestToken:
    def test_equal_content_equal_token(self):
        assert netlist_token(_one_gate("z", ["a", "b"])) == netlist_token(
            _one_gate("z", ["a", "b"], name="other")
        )

    @pytest.mark.parametrize(
        "other",
        [
            lambda: _one_gate("z", ["b", "a"]),
            lambda: _one_gate("z", ["a", "b"], GateType.XOR),
            lambda: _one_gate("y", ["a", "b"]),
            lambda: _one_gate("z", ["a", "b", "c"]),
        ],
    )
    def test_any_change_changes_the_token(self, other):
        assert netlist_token(other()) != netlist_token(_one_gate("z", ["a", "b"]))

    def test_names_holding_separators_stay_distinct(self):
        """``a\\0b`` + ``c`` and ``a`` + ``b\\0c`` would join alike."""
        first = _one_gate("z", ["a\x00b", "c"])
        second = _one_gate("z", ["a", "b\x00c"])
        assert netlist_token(first) != netlist_token(second)

    def test_a_new_port_changes_the_memoized_token(self):
        netlist = generate_mastrovito(MODULUS)
        token = netlist_token(netlist)
        netlist.add_output("a0")
        assert netlist_token(netlist) != token
