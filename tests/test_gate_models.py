"""Tests for the Eq. (1) algebraic gate models.

The key property: for every gate type and every Boolean input
combination, the polynomial model must evaluate to exactly the value
the gate simulation produces.  This pins the entire rewriting engine
to the Boolean semantics.
"""

import itertools
from functools import lru_cache

import pytest

from repro.gf2.parse import parse_poly
from repro.gf2.polynomial import Gf2Poly
from repro.netlist.gate import Gate, GateType, evaluate_gate, gate_arity
from repro.netlist.netlist import Netlist
from repro.rewrite import gate_models
from repro.rewrite.backward import backward_rewrite
from repro.rewrite.gate_models import gate_model, gate_model_poly

_NARY_TYPES = [
    GateType.AND,
    GateType.OR,
    GateType.XOR,
    GateType.NAND,
    GateType.NOR,
    GateType.XNOR,
]


def _input_names(count):
    return tuple(f"x{i}" for i in range(count))


class TestEquationOne:
    """The four basic models exactly as printed in the paper."""

    def test_not(self):
        assert gate_model_poly(GateType.INV, ("a",)) == parse_poly("1 + a")

    def test_and(self):
        assert gate_model_poly(GateType.AND, ("a", "b")) == parse_poly("a*b")

    def test_or(self):
        assert gate_model_poly(GateType.OR, ("a", "b")) == parse_poly(
            "a + b + a*b"
        )

    def test_xor(self):
        assert gate_model_poly(GateType.XOR, ("a", "b")) == parse_poly(
            "a + b"
        )


class TestModelMatchesSimulation:
    @pytest.mark.parametrize("gtype", list(GateType))
    def test_every_type_every_input(self, gtype):
        fixed = gate_arity(gtype)
        arities = [fixed] if fixed is not None else [2, 3, 4]
        for arity in arities:
            names = _input_names(arity)
            poly = gate_model_poly(gtype, names)
            for bits in itertools.product((0, 1), repeat=arity):
                env = dict(zip(names, bits))
                assert poly.evaluate(env) == evaluate_gate(
                    gtype, list(bits)
                ), (gtype, bits)

    def test_repeated_inputs_simplify_consistently(self):
        """XOR(a, a) = 0 and AND(a, a) = a, both as polynomials and in
        simulation."""
        xor_poly = gate_model_poly(GateType.XOR, ("a", "a"))
        assert xor_poly.is_zero()
        and_poly = gate_model_poly(GateType.AND, ("a", "a"))
        assert and_poly == Gf2Poly.variable("a")
        or_poly = gate_model_poly(GateType.OR, ("a", "a"))
        assert or_poly == Gf2Poly.variable("a")


class TestComplexCells:
    def test_aoi21_expansion(self):
        assert gate_model_poly(GateType.AOI21, ("a", "b", "c")) == parse_poly(
            "1 + a*b + c + a*b*c"
        )

    def test_oai21_expansion(self):
        assert gate_model_poly(GateType.OAI21, ("a", "b", "c")) == parse_poly(
            "1 + a*c + b*c + a*b*c"
        )

    def test_mux_expansion(self):
        assert gate_model_poly(
            GateType.MUX2, ("s", "d1", "d0")
        ) == parse_poly("s*d1 + d0 + s*d0")


class TestCaching:
    def test_gate_model_is_cached(self):
        gate = Gate("y", GateType.AND, ("a", "b"))
        assert gate_model(gate) is gate_model(
            Gate("other", GateType.AND, ("a", "b"))
        )

    def test_cache_is_bounded(self):
        info = gate_models._cached_model.cache_info()
        assert info.maxsize == gate_models.MODEL_CACHE_SIZE >= 1 << 17

    def test_compiling_past_the_bound_keeps_the_cache_bounded(
        self, monkeypatch
    ):
        """Rewriting netlists with more distinct gates than the bound
        evicts instead of growing (a small bound stands in for 2^17).
        The reference engine reads gate models; the packed engines
        work on the strashed graph instead."""
        small = lru_cache(maxsize=8)(gate_models._cached_model.__wrapped__)
        monkeypatch.setattr(gate_models, "_cached_model", small)
        for k in range(6):
            net = Netlist(f"n{k}", [f"a{k}", f"b{k}"], [f"y{k}"])
            net.add_gate(Gate(f"t{k}", GateType.NAND, (f"a{k}", f"b{k}")))
            net.add_gate(Gate(f"u{k}", GateType.XOR, (f"t{k}", f"b{k}")))
            net.add_gate(Gate(f"y{k}", GateType.OR, (f"t{k}", f"u{k}")))
            backward_rewrite(net, f"y{k}")
        info = small.cache_info()
        assert info.misses == 18
        assert info.currsize <= info.maxsize == 8

    def test_cache_distinguishes_input_order(self):
        mux_a = gate_model(Gate("y", GateType.MUX2, ("s", "a", "b")))
        mux_b = gate_model(Gate("y", GateType.MUX2, ("s", "b", "a")))
        assert mux_a != mux_b
