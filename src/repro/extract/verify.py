"""Verification against the golden model built from the extracted P(x).

The paper's flow "automatically checks the equivalence between the
implementation with a golden implementation constructed using the
extracted irreducible polynomial P(x)".  Because backward rewriting
already produced the *canonical* expression of every output bit, the
equivalence check is a per-bit comparison against the canonical form
of ``A·B mod P(x)`` — no additional rewriting needed.  That form is
read off P(x)'s reduction rows ``x^d mod P(x)``
(:class:`~repro.rewrite.signature.ProductSpec`): a cone is output bit
``z_i`` of the golden model exactly when it has as many monomials as
the rows covering ``i`` hold partial products, and each is one
``a_j·b_k`` whose row ``j + k`` covers ``i``.  Each cone answers that
in its own representation, so no specification polynomial is built;
``engine="reference"`` still compares against
:func:`~repro.rewrite.signature.spec_expressions`, the oracle.

An independent simulation cross-check (exhaustive for small m,
randomised otherwise) guards the verifier itself against modelling
bugs: algebraic equivalence and simulation must agree.  Both of its
sides are bit-parallel over up to :data:`LANE_WIDTH` operand pairs: the
netlist is simulated once per window, and the golden model computes
``A·B mod P(x)`` bit-sliced on the same lane ints
(:func:`golden_lanes`) instead of one pair at a time.  A grid of pairs
gets its operand lanes in closed form (:func:`grid_lanes`), random
pairs are packed from a per-pair draw (:func:`pack_lanes`).
:func:`first_mismatch` is the shared pass, also behind the triage
counterexample search of :mod:`repro.extract.diagnose`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine import get_engine
from repro.extract.extractor import ExtractionResult
from repro.fieldmath.bitpoly import bitpoly_str
from repro.gen.naming import input_nets, output_nets
from repro.netlist.netlist import Netlist
from repro.rewrite.signature import ProductSpec

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
    rewriting must equal the canonical form of ``A·B mod P(x)``.
    Simulation check: exhaustive for ``m <= max_exhaustive_m``,
    otherwise ``random_vectors`` random operand pairs plus four corner
    pairs, compared against the bit-sliced golden model (the same
    products :class:`~repro.fieldmath.gf2m.GF2m` computes per pair).

    ``engine`` selects the representation of the algebraic comparison:
    ``None`` (default) keeps the backend of the extraction run — each
    cone (a packed set for a ``bitpack`` run, a decoded polynomial for
    a cone-cache hit) is checked against P(x)'s reduction rows
    (:meth:`~repro.engine.base.ConeExpression.equals_product`) with
    no specification polynomial built; ``"reference"`` compares the
    decoded :class:`~repro.gf2.polynomial.Gf2Poly` expressions against
    :func:`~repro.rewrite.signature.spec_expressions`.  The verdict is
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
    cones = result.run.cones
    if cones and engine != "reference":
        spec = ProductSpec(result.modulus)
        algebraic = {
            bit: cones[f"z{bit}"].equals_product(spec, bit)
            for bit in range(m)
        }
    else:
        from repro.rewrite.signature import spec_expressions

        spec = spec_expressions(result.modulus)
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
    """Compare the netlist against ``A·B mod modulus`` on concrete
    operands.

    Both sides are bit-parallel: many operand pairs ride in the lanes
    of each net value, the netlist is simulated once per
    :data:`LANE_WIDTH` window, and the golden products of the whole
    window come from :func:`golden_lanes` on the same operand lanes.
    The exhaustive grid (``m <= max_exhaustive_m``) gets its operand
    lanes in closed form from :func:`grid_lanes`; random pairs come
    drawn and packed from :func:`_random_windows`.
    Returns ``(ok, vectors)``: on a mismatch, ``vectors`` counts the
    pairs up to and including the first failing one.
    """
    if m <= max_exhaustive_m:
        side = 1 << m
        count = side * side
        grid_a, grid_b = grid_lanes(m, side)

        def window(start: int, width: int):
            mask = (1 << width) - 1
            return (
                [lane >> start & mask for lane in grid_a],
                [lane >> start & mask for lane in grid_b],
            )
    else:
        windows = _random_windows(m, seed, random_vectors)
        count = max(random_vectors, 0) + 4  # the draws, then 4 corners

        def window(start: int, width: int):
            return windows[start // LANE_WIDTH]

    for start in range(0, count, LANE_WIDTH):
        width = min(LANE_WIDTH, count - start)
        a_lanes, b_lanes = window(start, width)
        lane = first_mismatch(netlist, modulus, a_lanes, b_lanes, width)
        if lane is not None:
            return False, start + lane + 1
    return True, count


@lru_cache(maxsize=16)
def _random_windows(
    m: int, seed: int, random_vectors: int
) -> Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]:
    """The random operand lanes of :func:`_simulation_check`, one
    ``(a_lanes, b_lanes)`` pair per :data:`LANE_WIDTH` window.

    ``random_vectors`` pairs drawn from ``seed``, then the four corner
    pairs ``(0, 0)``, ``(1, 1)``, ``(top, top)``, ``(1, top)``.  A pure
    function of its arguments, so the lanes are drawn and packed once
    per ``(m, seed, random_vectors)`` and shared as tuples.
    """
    rng = random.Random(seed)
    top = (1 << m) - 1
    pairs = [
        (rng.randint(0, top), rng.randint(0, top))
        for _ in range(random_vectors)
    ]
    # Always include the classic corner operands.
    pairs.extend([(0, 0), (1, 1), (top, top), (1, top)])
    windows = []
    for start in range(0, len(pairs), LANE_WIDTH):
        chunk = pairs[start : start + LANE_WIDTH]
        windows.append((
            tuple(pack_lanes([a for a, _ in chunk], m)),
            tuple(pack_lanes([b for _, b in chunk], m)),
        ))
    return tuple(windows)


def pack_lanes(values: Sequence[int], bits: int) -> List[int]:
    """Bit-parallel operand lanes: entry ``j`` holds bit ``j`` of
    ``values[i]`` in lane ``i`` (every value must fit in ``bits``).

    >>> pack_lanes([0b01, 0b10, 0b11], 2)
    [5, 6]
    """
    if not values:
        return [0] * bits
    # One binary string per lane, highest lane first: column c of the
    # transposed rows is bit bits-1-c of every lane, and reads as a
    # binary number with lane 0 in its least significant bit.
    rows = [format(value, f"0{bits}b") for value in reversed(values)]
    return [int("".join(column), 2) for column in zip(*rows)][::-1]


def grid_lanes(m: int, bound: int) -> Tuple[List[int], List[int]]:
    """Operand lanes of the row-major ``bound x bound`` grid: lane
    ``a * bound + b`` carries the pair ``(a, b)`` for ``0 <= a, b <
    bound <= 2**m``, so a lane index maps back with ``divmod(lane,
    bound)``.

    Equal to :func:`pack_lanes` of the enumerated grid, but built in
    closed form by block replication: no per-pair list is made.

    >>> grid_lanes(2, 2)
    ([12, 0], [10, 0])
    """
    width = bound * bound
    rows = _counting_lanes(m, bound, width)  # bits of a = lane // bound
    column = _counting_lanes(m, 1, bound)  # bits of b within one row
    # One set bit at the start of every row: multiplying a row's
    # pattern by it copies the pattern into all ``bound`` rows.
    every_row = ((1 << width) - 1) // ((1 << bound) - 1)
    return rows, [lane * every_row for lane in column]


def _counting_lanes(bits: int, stride: int, width: int) -> List[int]:
    """Entry ``j`` has lane ``i`` set when bit ``j`` of ``i // stride``
    is, over ``width`` lanes: a period of ``2 * stride << j`` lanes
    whose upper half is set, replicated by a repunit multiply."""
    everything = (1 << width) - 1
    lanes = []
    for j in range(bits):
        half = stride << j
        if half >= width:  # i // stride < 2**j in every lane
            lanes.append(0)
            continue
        period = half << 1
        span = -(-width // period) * period
        repunit = ((1 << span) - 1) // ((1 << period) - 1)
        lanes.append((((1 << half) - 1) << half) * repunit & everything)
    return lanes


def golden_lanes(
    modulus: int, a_lanes: Sequence[int], b_lanes: Sequence[int]
) -> List[int]:
    """Bit-sliced golden model: the lanes of ``z = A·B mod modulus``.

    ``a_lanes[i]`` / ``b_lanes[j]`` hold operand bit ``i`` / ``j`` of
    every lane, and entry ``k`` of the result holds product bit ``k``
    of every lane.  The schoolbook partial products ``c[i+j] ^= a_i &
    b_j`` and the reduction (``c[k]`` for ``k = 2m-2 .. m`` folded into
    ``c[k-m+t]`` for each tap ``t`` of the modulus below ``x^m``) are
    plain ``&``/``^`` on the lane ints, so one pass costs about m²
    big-int operations whatever the lane count.  Any modulus of degree
    m works, reducible or not: the result is the polynomial remainder,
    exactly what :meth:`~repro.fieldmath.gf2m.GF2m.mul` computes per
    pair.

    Lane 0 below is ``x · x^2 = x + 1`` and lane 1 is ``(x+1)^2 =
    x^2 + 1``, modulo ``x^3 + x + 1``:

    >>> golden_lanes(0b1011, [0b10, 0b11, 0], [0b10, 0b10, 0b01])
    [3, 1, 2]
    """
    m = modulus.bit_length() - 1
    partial = [0] * (2 * m - 1)
    rhs = [(j, lane) for j, lane in enumerate(b_lanes) if lane]
    for i, lhs in enumerate(a_lanes):
        if lhs:
            for j, lane in rhs:
                partial[i + j] ^= lhs & lane
    taps = [t for t in range(m) if modulus >> t & 1]
    for k in range(2 * m - 2, m - 1, -1):
        high = partial[k]
        if high:
            for t in taps:
                partial[k - m + t] ^= high
    return partial[:m]


def first_mismatch(
    netlist: Netlist,
    modulus: int,
    a_lanes: Sequence[int],
    b_lanes: Sequence[int],
    width: int,
) -> Optional[int]:
    """Lowest of ``width`` lanes on which the netlist's ``z`` outputs
    differ from ``A·B mod modulus``, or ``None``.

    ``a_lanes`` / ``b_lanes`` are the operand lanes (see
    :func:`pack_lanes` and :func:`grid_lanes`); the netlist is
    simulated and the golden products computed (:func:`golden_lanes`)
    in one bit-parallel pass each.
    """
    m = modulus.bit_length() - 1
    assignment = dict(zip(input_nets(m, "a"), a_lanes))
    assignment.update(zip(input_nets(m, "b"), b_lanes))
    outputs = netlist.simulate(assignment, width=width)
    diff = 0
    for net, expected in zip(
        output_nets(m), golden_lanes(modulus, a_lanes, b_lanes)
    ):
        diff |= outputs[net] ^ expected
    if not diff:
        return None
    return (diff & -diff).bit_length() - 1
