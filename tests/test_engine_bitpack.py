"""Unit tests of the ``repro.engine`` subsystem.

Covers the interner, the packed expression type, the registry, engine
selection through the public APIs, and the failure-mode contract
(term limit, incomplete cones) of the bitpack backend.  The
cross-backend equivalence properties live in
``test_engine_differential.py``.
"""

import pytest

from repro.engine import (
    DEFAULT_ENGINE,
    BitpackEngine,
    ConeExpression,
    Engine,
    EngineError,
    PackedExpression,
    ReferenceEngine,
    SignalInterner,
    engine_name,
    get_engine,
    register_engine,
    registered_engines,
)
from repro.engine.registry import _FACTORIES, _INSTANCES
from repro.extract.extractor import extract_irreducible_polynomial
from repro.gen.mastrovito import generate_mastrovito
from repro.gf2.polynomial import Gf2Poly
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import (
    BackwardRewriteError,
    TermLimitExceeded,
    backward_rewrite,
)


class TestSignalInterner:
    def test_first_seen_order(self):
        interner = SignalInterner()
        assert interner.index("a") == 0
        assert interner.index("b") == 1
        assert interner.index("a") == 0
        assert len(interner) == 2
        assert "a" in interner and "c" not in interner

    def test_pack_unpack_roundtrip(self):
        interner = SignalInterner()
        mono = frozenset({"x", "y", "z"})
        mask = interner.pack(mono)
        assert bin(mask).count("1") == 3
        assert interner.unpack(mask) == mono

    def test_constant_monomial_is_zero_mask(self):
        interner = SignalInterner()
        assert interner.pack(frozenset()) == 0
        assert interner.unpack(0) == frozenset()

    def test_try_pack_unknown_name(self):
        interner = SignalInterner(["a"])
        assert interner.try_pack(frozenset({"a"})) == 1
        assert interner.try_pack(frozenset({"a", "mystery"})) is None

    def test_names_of(self):
        interner = SignalInterner(["a", "b", "c"])
        assert interner.names_of(0b101) == ["a", "c"]

    def test_adopt_shares_tables(self):
        index = {"a": 0, "b": 1}
        names = ["a", "b"]
        interner = SignalInterner.adopt(index, names)
        assert interner.index_of("b") == 1
        assert interner.unpack(0b11) == frozenset({"a", "b"})


class TestRegistry:
    def test_builtins_available(self):
        assert "reference" in registered_engines()
        assert "bitpack" in registered_engines()

    def test_get_engine_is_singleton(self):
        assert get_engine("bitpack") is get_engine("bitpack")

    def test_get_engine_default(self):
        assert DEFAULT_ENGINE == "bitpack"
        assert get_engine(None).name == "bitpack"

    def test_unknown_engine_raises(self):
        with pytest.raises(EngineError, match="unknown engine"):
            get_engine("quantum")

    def test_instance_passthrough(self):
        engine = BitpackEngine()
        assert get_engine(engine) is engine

    def test_engine_name_resolution(self):
        assert engine_name(None) == "bitpack"
        assert engine_name("bitpack") == "bitpack"
        assert engine_name(ReferenceEngine()) == "reference"

    def test_register_rejects_duplicates(self):
        with pytest.raises(EngineError, match="already registered"):
            register_engine("bitpack", BitpackEngine)

    def test_register_custom_engine(self):
        class Custom(ReferenceEngine):
            name = "custom-test"

        register_engine("custom-test", Custom)
        try:
            assert isinstance(get_engine("custom-test"), Custom)
            assert "custom-test" in registered_engines()
        finally:
            _FACTORIES.pop("custom-test", None)
            _INSTANCES.pop("custom-test", None)


class TestPackedExpression:
    def _expression(self):
        engine = get_engine("bitpack")
        netlist = generate_mastrovito(0b10011)
        return engine.rewrite_cone(netlist, "z1")[0]

    def test_is_cone_expression(self):
        expression = self._expression()
        assert isinstance(expression, PackedExpression)
        assert isinstance(expression, ConeExpression)

    def test_decode_matches_reference(self):
        netlist = generate_mastrovito(0b10011)
        expected, _ = backward_rewrite(netlist, "z1")
        assert self._expression().decode() == expected

    def test_term_count(self):
        expression = self._expression()
        assert expression.term_count() == len(expression.decode())

    def test_contains_products(self):
        expression = self._expression()
        poly = expression.decode()
        monos = list(poly.monomials)
        assert expression.contains_products(monos)
        assert not expression.contains_products(
            monos + [frozenset({"a0", "never_seen"})]
        )

    def test_equals_poly(self):
        expression = self._expression()
        poly = expression.decode()
        assert expression.equals_poly(poly)
        assert not expression.equals_poly(poly + Gf2Poly.one())
        assert not expression.equals_poly(
            Gf2Poly.from_monomials(
                frozenset({frozenset({"ghost"})})
            )
        )


class TestBitpackRewriting:
    def test_figure2_expression(self, figure2_netlist):
        poly, stats = backward_rewrite(
            figure2_netlist, "z0", engine="bitpack"
        )
        expected, _ = backward_rewrite(figure2_netlist, "z0")
        assert poly == expected
        assert stats.final_terms == len(expected)
        assert stats.runtime_s >= 0.0

    def test_trace_records_steps(self, figure2_netlist):
        _, stats = backward_rewrite(
            figure2_netlist, "z0", trace=True, engine="bitpack"
        )
        assert stats.trace, "bitpack tracing must record steps"
        # The last trace row shows the final expression.
        final, _ = backward_rewrite(figure2_netlist, "z0")
        assert stats.trace[-1].expression == str(final)

    def test_term_limit_raises(self):
        netlist = generate_mastrovito(0b1011011)
        with pytest.raises(TermLimitExceeded):
            backward_rewrite(netlist, "z5", term_limit=2, engine="bitpack")

    def test_incomplete_cone_raises(self):
        netlist = Netlist("broken", inputs=["a"], outputs=["y"])
        netlist.add_gate(Gate("y", GateType.AND, ("a", "phantom")))
        with pytest.raises(BackwardRewriteError, match="phantom"):
            backward_rewrite(netlist, "y", engine="bitpack")

    def test_output_is_primary_input(self):
        netlist = Netlist("wire", inputs=["a"], outputs=["a"])
        poly, _ = backward_rewrite(netlist, "a", engine="bitpack")
        assert poly == Gf2Poly.variable("a")

    def test_constant_output(self):
        netlist = Netlist("const", inputs=["a"], outputs=["y"])
        netlist.add_gate(Gate("y", GateType.CONST1, ()))
        poly, _ = backward_rewrite(netlist, "y", engine="bitpack")
        assert poly == Gf2Poly.one()

    def test_flattened_internal_net_matches_reference(self):
        """Rewriting an internal net the compiler flattened must not
        differ from the reference engine (regression: the compiled
        model table has no entry for flattened gates)."""
        netlist = generate_mastrovito(0b10011)
        # Force compilation, then rewrite every internal net.
        backward_rewrite(netlist, "z0", engine="bitpack")
        for gate in netlist.gates:
            expected, _ = backward_rewrite(netlist, gate.output)
            actual, _ = backward_rewrite(
                netlist, gate.output, engine="bitpack"
            )
            assert actual == expected, f"net {gate.output} diverged"

    def test_output_promoted_after_compilation(self):
        """add_output() after a cached compilation still extracts the
        promoted net correctly (the stale cache may have flattened
        it)."""
        netlist = Netlist("promote", inputs=["a", "b"], outputs=["y"])
        netlist.add_gate(Gate("t", GateType.AND, ("a", "b")))
        netlist.add_gate(Gate("y", GateType.XOR, ("t", "a")))
        backward_rewrite(netlist, "y", engine="bitpack")  # compile
        netlist.add_output("t")
        poly, _ = backward_rewrite(netlist, "t", engine="bitpack")
        assert poly == Gf2Poly.variable("a") * Gf2Poly.variable("b")

    def test_netlist_mutation_invalidates_compile_cache(self):
        netlist = Netlist("grow", inputs=["a", "b"], outputs=["y"])
        netlist.add_gate(Gate("y", GateType.XOR, ("a", "b")))
        first, _ = backward_rewrite(netlist, "y", engine="bitpack")
        netlist.add_gate(Gate("w", GateType.AND, ("a", "b")))
        netlist.add_output("w")
        second, _ = backward_rewrite(netlist, "w", engine="bitpack")
        assert first == Gf2Poly.variable("a") + Gf2Poly.variable("b")
        assert second == Gf2Poly.variable("a") * Gf2Poly.variable("b")


class TestEngineSelectionAPIs:
    def test_extractor_engine_recorded(self):
        netlist = generate_mastrovito(0b10011)
        result = extract_irreducible_polynomial(netlist, engine="bitpack")
        assert result.run.engine == "bitpack"
        assert result.modulus == 0b10011

    def test_extractor_unknown_engine(self):
        netlist = generate_mastrovito(0b111)
        with pytest.raises(EngineError):
            extract_irreducible_polynomial(netlist, engine="warp")

    def test_cli_engine_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.netlist.eqn_io import write_eqn

        path = tmp_path / "mult.eqn"
        write_eqn(generate_mastrovito(0b10011), str(path))
        assert main(["extract", str(path), "--engine", "bitpack"]) == 0
        out = capsys.readouterr().out
        assert "x^4 + x + 1" in out

    def test_cli_rejects_unknown_engine(self, tmp_path):
        from repro.cli import main
        from repro.netlist.eqn_io import write_eqn

        path = tmp_path / "mult.eqn"
        write_eqn(generate_mastrovito(0b111), str(path))
        with pytest.raises(SystemExit):
            main(["extract", str(path), "--engine", "nope"])

    def test_custom_engine_instance_accepted(self):
        netlist = generate_mastrovito(0b1011)
        engine = BitpackEngine()
        poly, _ = backward_rewrite(netlist, "z0", engine=engine)
        assert poly == backward_rewrite(netlist, "z0")[0]

    def test_verify_multiplier_validates_engine(self):
        from repro.extract.verify import verify_multiplier

        netlist = generate_mastrovito(0b1011)
        result = extract_irreducible_polynomial(netlist, engine="bitpack")
        assert verify_multiplier(
            netlist, result, engine="reference"
        ).equivalent
        with pytest.raises(EngineError, match="unknown engine"):
            verify_multiplier(netlist, result, engine="refrence")

    def test_engine_abc_cannot_instantiate(self):
        with pytest.raises(TypeError):
            Engine()
