"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import itertools
from typing import Dict, Iterable

import pytest

from repro.netlist.netlist import Netlist


def bit_assignment(m: int, a_value: int, b_value: int) -> Dict[str, int]:
    """Spread integer operands over the standard a/b port bits."""
    assignment = {f"a{i}": (a_value >> i) & 1 for i in range(m)}
    assignment.update({f"b{i}": (b_value >> i) & 1 for i in range(m)})
    return assignment


def output_value(outputs: Dict[str, int], m: int) -> int:
    """Pack z0..z{m-1} back into an integer."""
    value = 0
    for idx in range(m):
        if outputs[f"z{idx}"] & 1:
            value |= 1 << idx
    return value


def exhaustive_pairs(m: int) -> Iterable:
    """All (a, b) operand pairs for a small field."""
    return itertools.product(range(1 << m), repeat=2)


def netlists_equivalent(
    lhs: Netlist, rhs: Netlist, m: int, stride: int = 1
) -> bool:
    """Compare two multiplier netlists by exhaustive simulation."""
    for a_value, b_value in exhaustive_pairs(m):
        if (a_value + b_value) % stride:
            continue
        assignment = bit_assignment(m, a_value, b_value)
        if lhs.simulate(assignment) != rhs.simulate(assignment):
            return False
    return True


#: The engine the ``unusable_engine`` fixture registers, and the
#: message of the ``EngineError`` its every rewrite raises.
UNUSABLE_ENGINE = "unusable-test"
UNUSABLE_REASON = "the flux capacitor is not installed"


@pytest.fixture
def unusable_engine():
    """Register an engine that fails at run time.

    It is a :class:`BitpackEngine` whose ``rewrite_cone`` raises
    ``EngineError(UNUSABLE_REASON)``, as a backend that breaks
    mid-job; every entry point reports that error and tries no other
    engine.  Yields its name and unregisters it afterwards.
    """
    from repro.engine import BitpackEngine, EngineError, register_engine
    from repro.engine import registry

    class Unusable(BitpackEngine):
        name = UNUSABLE_ENGINE

        def rewrite_cone(self, *args, **kwargs):
            raise EngineError(UNUSABLE_REASON)

    register_engine(UNUSABLE_ENGINE, Unusable)
    yield UNUSABLE_ENGINE
    for table in (registry._FACTORIES, registry._INSTANCES):
        table.pop(UNUSABLE_ENGINE, None)


@pytest.fixture
def gf4_polys():
    """The two GF(2^4) polynomials of Figure 1: (P1, P2)."""
    return 0b11001, 0b10011  # x^4+x^3+1, x^4+x+1


@pytest.fixture
def figure2_netlist():
    from repro.gen.paper_examples import paper_figure2_multiplier

    return paper_figure2_multiplier()
