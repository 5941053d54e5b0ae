"""Differential tests: the bitpack engine against the reference oracle.

``vector`` is another name for bitpack; it is driven as one more
engine name so the alias stays covered wherever bitpack is.

The contract of :mod:`repro.engine` is that every backend produces
*bit-identical results* — canonical expressions, extracted P(x),
member bits, verification verdicts, and failure modes — even though
backends may take algebraically equivalent shortcuts internally.
Hypothesis drives every engine over random netlists (the full cell
library, including AOI/OAI/MUX complex cells and constants), the whole
generator zoo, synthesized/technology-mapped variants, and faulty
netlists.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.extract.diagnose import diagnose
from repro.extract.extractor import extract_irreducible_polynomial
from repro.extract.verify import verify_multiplier
from repro.fieldmath.irreducible import default_irreducible
from repro.gen.digit_serial import generate_digit_serial
from repro.gen.faults import random_fault
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.random_logic import generate_random_netlist
from repro.gen.schoolbook import generate_schoolbook
from repro.rewrite.backward import BackwardRewriteError, backward_rewrite
from repro.rewrite.parallel import extract_expressions
from repro.synth.pipeline import synthesize

GENERATORS = {
    "mastrovito": generate_mastrovito,
    "schoolbook": generate_schoolbook,
    "montgomery": generate_montgomery,
    "karatsuba": generate_karatsuba,
    "interleaved": generate_interleaved,
    "interleaved-lsb": lambda modulus: generate_interleaved(
        modulus, msb_first=False
    ),
    "digit-serial": generate_digit_serial,
}

#: Every fast engine name checked against the reference oracle.
FAST_ENGINES = ("bitpack", "vector")


def assert_extractions_identical(netlist):
    """Every engine must agree on every observable extraction result."""
    reference = extract_irreducible_polynomial(netlist, engine="reference")
    ref_verify = verify_multiplier(netlist, reference, simulate=False)
    for engine in FAST_ENGINES:
        fast = extract_irreducible_polynomial(netlist, engine=engine)
        assert fast.modulus == reference.modulus
        assert fast.member_bits == reference.member_bits
        assert fast.irreducible == reference.irreducible
        assert fast.run.expressions == reference.run.expressions
        fast_verify = verify_multiplier(netlist, fast, simulate=False)
        assert fast_verify.algebraic == ref_verify.algebraic
    return reference


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generator_zoo_identical(name):
    """generate(P) extracts identically under every engine."""
    modulus = default_irreducible(5)
    reference = assert_extractions_identical(GENERATORS[name](modulus))
    assert reference.modulus == modulus


@pytest.mark.parametrize("name", ["mastrovito", "montgomery"])
def test_synthesized_netlists_identical(name):
    """Technology-mapped cells (AOI/OAI/MUX/NAND) agree too."""
    netlist = synthesize(GENERATORS[name](0b100101))
    assert_extractions_identical(netlist)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 2**20),
    n_inputs=st.integers(1, 6),
    n_gates=st.integers(1, 60),
)
def test_random_netlists_identical(seed, n_inputs, n_gates):
    """Per-output expressions and stats-free results match on random
    combinational DAGs over the full cell library."""
    netlist = generate_random_netlist(
        seed, n_inputs=n_inputs, n_gates=n_gates
    )
    # Primary outputs and internal nets alike: flattened gates must
    # answer identically when rewritten directly.
    targets = list(netlist.outputs)
    targets += [gate.output for gate in netlist.gates[:10]]
    for output in targets:
        expected, _ = backward_rewrite(netlist, output, engine="reference")
        for engine in FAST_ENGINES:
            actual, _ = backward_rewrite(netlist, output, engine=engine)
            assert actual == expected, f"output {output} diverged on {engine}"


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    m=st.integers(2, 6),
    generator=st.sampled_from(sorted(GENERATORS)),
)
def test_property_generator_sizes(m, generator):
    """Any field size, any construction: identical P(x) and bits."""
    netlist = GENERATORS[generator](default_irreducible(m))
    assert_extractions_identical(netlist)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(m=st.integers(3, 5), seed=st.integers(0, 2**16))
def test_faulty_netlists_identical(m, seed):
    """Single-fault mutants (gate flips, rewires, stuck-ats) must not
    open any gap between the engines — including reducible masks and
    failing verification bits."""
    buggy, _ = random_fault(
        generate_mastrovito(default_irreducible(m)), seed=seed
    )
    assert_extractions_identical(buggy)
    ref_diag = diagnose(buggy, find_counterexample=False)
    for engine in FAST_ENGINES:
        fast_diag = diagnose(buggy, find_counterexample=False, engine=engine)
        assert fast_diag.verdict == ref_diag.verdict


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(m=st.integers(2, 5), data=st.data())
def test_parallel_bitpack_identical(m, data):
    """Theorem 2 holds per backend: each bit is independent (so the
    bits could run in parallel), so any subset of outputs in any order
    gives each bit the expression of the full run."""
    netlist = generate_mastrovito(default_irreducible(m))
    full = extract_irreducible_polynomial(netlist, engine="bitpack")
    assert full.modulus == default_irreducible(m)
    assert full.run.engine == "bitpack"
    outputs = data.draw(
        st.lists(
            st.sampled_from(list(netlist.outputs)), min_size=1, unique=True
        )
    )
    part = extract_expressions(netlist, outputs=outputs, engine="bitpack")
    assert list(part.expressions) == outputs
    for output in outputs:
        assert part.expressions[output] == full.run.expressions[output]


def test_incomplete_cone_fails_identically():
    """Every engine rejects undriven non-input nets the same way."""
    from repro.netlist.gate import Gate, GateType
    from repro.netlist.netlist import Netlist

    netlist = Netlist("broken", inputs=["a"], outputs=["y"])
    netlist.add_gate(Gate("t", GateType.AND, ("a", "ghost")))
    netlist.add_gate(Gate("y", GateType.XOR, ("t", "a")))
    for engine in ("reference",) + FAST_ENGINES:
        with pytest.raises(BackwardRewriteError, match="ghost"):
            backward_rewrite(netlist, "y", engine=engine)
