"""Property-based end-to-end tests of the whole extraction flow.

Hypothesis drives the pipeline with random field sizes, random
irreducible polynomials, random generator choices and random
function-preserving transformations; extraction must always recover
exactly the construction polynomial and verification must pass.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.extract.diagnose import diagnose
from repro.extract.extractor import (
    extract_irreducible_polynomial,
    result_from_run,
)
from repro.extract.verify import verify_multiplier
from repro.fieldmath.irreducible import is_irreducible
from repro.gen.faults import random_fault
from repro.gen.interleaved import generate_interleaved
from repro.gen.karatsuba import generate_karatsuba
from repro.gen.mastrovito import generate_mastrovito
from repro.gen.montgomery import generate_montgomery
from repro.gen.naming import value_assignment
from repro.gen.redundancy import decorate_with_redundancy
from repro.gen.schoolbook import generate_schoolbook
from repro.rewrite.parallel import extract_expressions
from repro.synth.pipeline import synthesize

GENERATORS = [
    generate_mastrovito,
    generate_schoolbook,
    generate_montgomery,
    generate_karatsuba,
    generate_interleaved,
    lambda modulus: generate_interleaved(modulus, msb_first=False),
]


@st.composite
def random_irreducible(draw, min_m=2, max_m=9):
    """A random irreducible polynomial of random small degree."""
    m = draw(st.integers(min_m, max_m))
    tail = draw(st.integers(1, (1 << m) - 1))
    candidate = (1 << m) | tail
    if not is_irreducible(candidate):
        # Walk forward to the next irreducible of this degree; wrap
        # within the degree's tail space.
        for offset in range(1, 1 << m):
            probe = (1 << m) | ((tail + offset) % (1 << m))
            if probe != (1 << m) and is_irreducible(probe):
                return probe
        raise AssertionError("no irreducible of degree found")
    return candidate


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    modulus=random_irreducible(),
    generator_index=st.integers(0, len(GENERATORS) - 1),
)
def test_extraction_roundtrip(modulus, generator_index):
    """generate(P) |> extract == P, for random P and any algorithm."""
    netlist = GENERATORS[generator_index](modulus)
    result = extract_irreducible_polynomial(netlist)
    assert result.modulus == modulus
    assert result.irreducible


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    modulus=random_irreducible(max_m=6),
    generator_index=st.integers(0, len(GENERATORS) - 1),
    use_xor_cells=st.booleans(),
)
def test_extraction_survives_synthesis(
    modulus, generator_index, use_xor_cells
):
    """Synthesis/mapping must not change the verdict (Table III)."""
    netlist = GENERATORS[generator_index](modulus)
    mapped = synthesize(netlist, use_xor_cells=use_xor_cells)
    result = extract_irreducible_polynomial(mapped)
    assert result.modulus == modulus


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    modulus=random_irreducible(max_m=6),
    fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_extraction_survives_redundancy(modulus, fraction, seed):
    """Unoptimized, redundant netlists extract identically."""
    netlist = decorate_with_redundancy(
        generate_mastrovito(modulus), inv_pair_fraction=fraction, seed=seed
    )
    assert extract_irreducible_polynomial(netlist).modulus == modulus


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(modulus=random_irreducible(max_m=6))
def test_verification_always_passes_for_honest_circuits(modulus):
    netlist = generate_schoolbook(modulus)
    result = extract_irreducible_polynomial(netlist)
    report = verify_multiplier(netlist, result, random_vectors=32)
    assert report.equivalent


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(modulus=random_irreducible(min_m=2, max_m=7), data=st.data())
def test_parallelism_does_not_change_result(modulus, data):
    """Theorem 2 in practice: the bits are independent, so the order
    they are rewritten in does not change the answer."""
    netlist = generate_mastrovito(modulus)
    order = data.draw(st.permutations(list(netlist.outputs)))
    run = extract_expressions(netlist, outputs=order)
    result = result_from_run(run, len(order))
    assert result.modulus == modulus
    assert result.modulus == extract_irreducible_polynomial(netlist).modulus


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    modulus=random_irreducible(min_m=3, max_m=6),
    seed=st.integers(0, 2**16),
)
def test_observable_faults_never_verify(modulus, seed):
    """Soundness of the closing check: any single fault that changes
    the function is rejected by the diagnosis decision tree."""
    clean = generate_mastrovito(modulus)
    buggy, _ = random_fault(clean, seed=seed)
    m = len(clean.outputs)
    a_nets = [f"a{i}" for i in range(m)]
    b_nets = [f"b{i}" for i in range(m)]
    observable = False
    for a_value in range(1 << m):
        for b_value in range(1 << m):
            assignment = dict(value_assignment(a_nets, a_value))
            assignment.update(value_assignment(b_nets, b_value))
            if clean.simulate(assignment) != buggy.simulate(assignment):
                observable = True
                break
        if observable:
            break
    if not observable:
        return  # functionally benign mutation; nothing to detect
    assert not diagnose(buggy, find_counterexample=False).is_clean


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    modulus=random_irreducible(min_m=2, max_m=8),
    threshold=st.integers(1, 5),
)
def test_karatsuba_threshold_is_functionally_invisible(modulus, threshold):
    """The recursion cutoff reshapes the netlist, never the answer."""
    netlist = generate_karatsuba(modulus, base_threshold=threshold)
    assert extract_irreducible_polynomial(netlist).modulus == modulus
