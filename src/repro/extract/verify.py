"""Verification against the golden model built from the extracted P(x).

The paper's flow "automatically checks the equivalence between the
implementation with a golden implementation constructed using the
extracted irreducible polynomial P(x)".  Because backward rewriting
already produced the *canonical* expression of every output bit, the
equivalence check is a per-bit comparison against the specification
expressions of ``A·B mod P(x)`` (the golden Mastrovito implementation's
canonical form) — no additional rewriting needed.

An independent bit-parallel simulation cross-check (exhaustive for
small m, randomised otherwise) guards the verifier itself against
modelling bugs: algebraic equivalence and simulation must agree.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import get_engine
from repro.extract.extractor import ExtractionResult
from repro.fieldmath.bitpoly import bitpoly_str
from repro.fieldmath.gf2m import GF2m
from repro.gen.naming import input_nets, output_nets
from repro.netlist.netlist import Netlist
from repro.rewrite.signature import spec_expressions

#: Operand pairs simulated per bit-parallel pass.
LANE_WIDTH = 1 << 12


@dataclass
class VerificationReport:
    """Outcome of the golden-model equivalence check."""

    #: P(x) the golden model was built from.
    modulus: int
    #: Per-bit algebraic equivalence verdicts (bit -> equal?).
    algebraic: Dict[int, bool]
    #: Whether the extracted P(x) is irreducible (a field at all).
    irreducible: bool
    #: Simulation cross-check verdict (None when skipped).
    simulation_ok: Optional[bool]
    #: Number of simulation vectors compared.
    simulation_vectors: int
    runtime_s: float = 0.0

    @property
    def equivalent(self) -> bool:
        """True when every output bit matches the golden model."""
        return all(self.algebraic.values()) and self.simulation_ok is not False

    @property
    def failing_bits(self) -> List[int]:
        return sorted(bit for bit, ok in self.algebraic.items() if not ok)

    def __str__(self) -> str:
        verdict = "EQUIVALENT" if self.equivalent else "NOT EQUIVALENT"
        detail = ""
        if not self.equivalent and self.failing_bits:
            detail = f" (bits {self.failing_bits[:8]} differ)"
        return (
            f"{verdict}: implementation vs golden A*B mod "
            f"{bitpoly_str(self.modulus)}{detail}"
        )


def verify_multiplier(
    netlist: Netlist,
    result: ExtractionResult,
    simulate: bool = True,
    max_exhaustive_m: int = 6,
    random_vectors: int = 512,
    seed: int = 2017,
    engine: Optional[str] = None,
) -> VerificationReport:
    """Check the implementation against ``A·B mod P(x)`` for the
    extracted P(x).

    Algebraic check: the canonical per-bit expressions from backward
    rewriting must equal the specification expressions derived from
    P(x).  Simulation check: exhaustive for ``m <= max_exhaustive_m``,
    otherwise ``random_vectors`` random operand pairs, compared against
    the word-level :class:`~repro.fieldmath.gf2m.GF2m` reference.

    ``engine`` selects the representation of the algebraic comparison:
    ``None`` (default) keeps the backend of the extraction run — for a
    ``bitpack`` run the spec monomials are packed through each cone's
    interner and compared against the packed sets, never decoding the
    implementation expressions; ``"reference"`` forces the decoded
    :class:`~repro.gf2.polynomial.Gf2Poly` comparison.  The verdict is
    backend-independent.

    >>> from repro.gen.montgomery import generate_montgomery
    >>> from repro.extract.extractor import extract_irreducible_polynomial
    >>> net = generate_montgomery(0b1011)         # GF(2^3), x^3+x+1
    >>> res = extract_irreducible_polynomial(net)
    >>> verify_multiplier(net, res).equivalent
    True
    """
    started = time.perf_counter()
    if engine is not None:
        engine = get_engine(engine).name  # validate the selector
    m = result.m
    spec = spec_expressions(result.modulus)
    cones = result.run.cones
    if cones and engine != "reference":
        algebraic = {
            bit: cones[f"z{bit}"].equals_poly(spec[bit])
            for bit in range(m)
        }
    else:
        algebraic = {
            bit: result.run.expressions[f"z{bit}"] == spec[bit]
            for bit in range(m)
        }

    simulation_ok: Optional[bool] = None
    vectors = 0
    if simulate:
        simulation_ok, vectors = _simulation_check(
            netlist,
            result.modulus,
            m,
            max_exhaustive_m=max_exhaustive_m,
            random_vectors=random_vectors,
            seed=seed,
        )

    return VerificationReport(
        modulus=result.modulus,
        algebraic=algebraic,
        irreducible=result.irreducible,
        simulation_ok=simulation_ok,
        simulation_vectors=vectors,
        runtime_s=time.perf_counter() - started,
    )


def _simulation_check(
    netlist: Netlist,
    modulus: int,
    m: int,
    max_exhaustive_m: int,
    random_vectors: int,
    seed: int,
) -> tuple:
    """Compare the netlist against GF2m.mul on concrete operands.

    Uses bit-parallel simulation: many operand pairs are packed into
    the lanes of each net value, so even the exhaustive m=6 check
    (4096 pairs) is a handful of netlist traversals.
    """
    field = GF2m(modulus, check_irreducible=False)
    if m <= max_exhaustive_m:
        pairs = [
            (a, b) for a in range(1 << m) for b in range(1 << m)
        ]
    else:
        rng = random.Random(seed)
        top = (1 << m) - 1
        pairs = [
            (rng.randint(0, top), rng.randint(0, top))
            for _ in range(random_vectors)
        ]
        # Always include the classic corner operands.
        pairs.extend([(0, 0), (1, 1), (top, top), (1, top)])

    for start in range(0, len(pairs), LANE_WIDTH):
        chunk = pairs[start : start + LANE_WIDTH]
        lane = first_mismatch(netlist, field, m, chunk)
        if lane is not None:
            return False, start + lane + 1
    return True, len(pairs)


def pack_lanes(nets: Sequence[str], values: Sequence[int]) -> Dict[str, int]:
    """Bit-parallel net values: lane ``i`` of ``nets[j]`` carries bit
    ``j`` of ``values[i]`` (every value must fit in ``len(nets)`` bits).

    >>> pack_lanes(["a0", "a1"], [0b01, 0b10, 0b11])
    {'a0': 5, 'a1': 6}
    """
    if not values:
        return {net: 0 for net in nets}
    # One binary string per lane, highest lane first: column c of the
    # transposed rows is bit len(nets)-1-c of every lane, and reads as
    # a binary number with lane 0 in its least significant bit.
    rows = [format(value, f"0{len(nets)}b") for value in reversed(values)]
    columns = list(zip(*rows))[::-1]
    return {
        net: int("".join(column), 2) for net, column in zip(nets, columns)
    }


def first_mismatch(
    netlist: Netlist,
    field: GF2m,
    m: int,
    pairs: Sequence[Tuple[int, int]],
) -> Optional[int]:
    """Index of the first operand pair ``(a, b)`` on which the
    netlist's ``z`` outputs differ from ``field.mul(a, b)``, or
    ``None``.  All pairs are simulated in one bit-parallel pass."""
    assignment = pack_lanes(input_nets(m, "a"), [a for a, _ in pairs])
    assignment.update(pack_lanes(input_nets(m, "b"), [b for _, b in pairs]))
    outputs = netlist.simulate(assignment, width=len(pairs))
    z_nets = output_nets(m)
    expected = pack_lanes(z_nets, [field.mul(a, b) for a, b in pairs])
    diff = 0
    for net in z_nets:
        diff |= outputs[net] ^ expected[net]
    if not diff:
        return None
    return (diff & -diff).bit_length() - 1
