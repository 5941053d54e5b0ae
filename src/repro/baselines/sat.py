"""SAT-based equivalence checking: Tseitin encoding + DPLL solver.

The paper's background (Section I-II) notes that SAT "cannot
efficiently solve the verification problem of large arithmetic
circuits".  This module makes that claim measurable: a from-scratch
CNF encoder and DPLL solver (unit propagation, counter-based watching,
most-occurring-literal decisions, chronological backtracking) plus a
miter construction for combinational equivalence.

GF multipliers are XOR-dominated, the classic worst case for
resolution-based solvers, so the miter runtime grows steeply with m —
which is exactly the point of the baseline benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry as _telemetry
from repro.netlist.gate import Gate, GateType
from repro.netlist.netlist import Netlist


@dataclass
class SatResult:
    """Outcome of one SAT solver run."""

    satisfiable: bool
    assignment: Optional[Dict[int, bool]]
    decisions: int
    propagations: int
    conflicts: int
    runtime_s: float


# ----------------------------------------------------------------------
# Lowering complex cells to basic gates (for CNF clause templates)
# ----------------------------------------------------------------------

def _lower_complex(netlist: Netlist) -> Netlist:
    """Rewrite AOI/OAI/MUX cells into basic gates for encoding."""
    result = Netlist(netlist.name, inputs=netlist.inputs)
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return f"__sat{counter}"

    for gate in netlist.topological_order():
        gtype, ins, out = gate.gtype, gate.inputs, gate.output
        if gtype is GateType.AOI21:
            a, b, c = ins
            t1 = fresh()
            t2 = fresh()
            result.add_gate(Gate(t1, GateType.AND, (a, b)))
            result.add_gate(Gate(t2, GateType.OR, (t1, c)))
            result.add_gate(Gate(out, GateType.INV, (t2,)))
        elif gtype is GateType.AOI22:
            a, b, c, d = ins
            t1, t2, t3 = fresh(), fresh(), fresh()
            result.add_gate(Gate(t1, GateType.AND, (a, b)))
            result.add_gate(Gate(t2, GateType.AND, (c, d)))
            result.add_gate(Gate(t3, GateType.OR, (t1, t2)))
            result.add_gate(Gate(out, GateType.INV, (t3,)))
        elif gtype is GateType.OAI21:
            a, b, c = ins
            t1, t2 = fresh(), fresh()
            result.add_gate(Gate(t1, GateType.OR, (a, b)))
            result.add_gate(Gate(t2, GateType.AND, (t1, c)))
            result.add_gate(Gate(out, GateType.INV, (t2,)))
        elif gtype is GateType.OAI22:
            a, b, c, d = ins
            t1, t2, t3 = fresh(), fresh(), fresh()
            result.add_gate(Gate(t1, GateType.OR, (a, b)))
            result.add_gate(Gate(t2, GateType.OR, (c, d)))
            result.add_gate(Gate(t3, GateType.AND, (t1, t2)))
            result.add_gate(Gate(out, GateType.INV, (t3,)))
        elif gtype is GateType.MUX2:
            sel, d1, d0 = ins
            t1, t2, t3 = fresh(), fresh(), fresh()
            result.add_gate(Gate(t1, GateType.AND, (sel, d1)))
            result.add_gate(Gate(t2, GateType.INV, (sel,)))
            result.add_gate(Gate(t3, GateType.AND, (t2, d0)))
            result.add_gate(Gate(out, GateType.OR, (t1, t3)))
        else:
            result.add_gate(gate)
    for net in netlist.outputs:
        result.add_output(net)
    return result


# ----------------------------------------------------------------------
# Tseitin encoding
# ----------------------------------------------------------------------

def tseitin_encode(
    netlist: Netlist,
    varmap: Optional[Dict[str, int]] = None,
    next_var: int = 1,
) -> Tuple[List[List[int]], Dict[str, int], int]:
    """CNF-encode a netlist.

    Returns ``(clauses, varmap, next_free_var)``.  An existing
    ``varmap`` lets two netlists share primary-input variables (the
    miter construction).
    """
    lowered = _lower_complex(netlist)
    varmap = dict(varmap) if varmap else {}
    clauses: List[List[int]] = []

    def var_of(net: str) -> int:
        nonlocal next_var
        if net not in varmap:
            varmap[net] = next_var
            next_var += 1
        return varmap[net]

    for net in lowered.inputs:
        var_of(net)

    for gate in lowered.topological_order():
        out = var_of(gate.output)
        ins = [var_of(net) for net in gate.inputs]
        clauses.extend(_gate_clauses(gate.gtype, out, ins))
    return clauses, varmap, next_var


def _gate_clauses(
    gtype: GateType, out: int, ins: List[int]
) -> List[List[int]]:
    """Tseitin clause template for one (basic) gate."""
    if gtype is GateType.CONST0:
        return [[-out]]
    if gtype is GateType.CONST1:
        return [[out]]
    if gtype is GateType.BUF:
        return [[-out, ins[0]], [out, -ins[0]]]
    if gtype is GateType.INV:
        return [[-out, -ins[0]], [out, ins[0]]]
    if gtype in (GateType.AND, GateType.NAND):
        lit = out if gtype is GateType.AND else -out
        clauses = [[lit] + [-v for v in ins]]
        for v in ins:
            clauses.append([-lit, v])
        return clauses
    if gtype in (GateType.OR, GateType.NOR):
        lit = out if gtype is GateType.OR else -out
        clauses = [[-lit] + [v for v in ins]]
        for v in ins:
            clauses.append([lit, -v])
        return clauses
    if gtype in (GateType.XOR, GateType.XNOR):
        # Chain wide XORs would need aux vars; gate arities here are
        # small (generators emit 2-input XORs), so enumerate directly.
        if len(ins) > 3:
            raise ValueError("XOR gates wider than 3 are not encodable")
        target_parity = 1 if gtype is GateType.XOR else 0
        clauses = []
        for bits in range(1 << len(ins)):
            parity = bin(bits).count("1") & 1
            out_value = 1 if parity == target_parity else 0
            # clause: NOT(inputs == bits AND out != out_value)
            clause = []
            for idx, v in enumerate(ins):
                clause.append(-v if (bits >> idx) & 1 else v)
            clause.append(out if out_value else -out)
            clauses.append(clause)
        return clauses
    raise ValueError(f"no clause template for {gtype}")


# ----------------------------------------------------------------------
# DPLL solver
# ----------------------------------------------------------------------

class DpllSolver:
    """A compact DPLL solver with unit propagation.

    Not competitive with CDCL solvers — deliberately so; it represents
    the "plain SAT" baseline the paper's background refers to.  Good
    for miters of GF multipliers up to m≈5-6.
    """

    def __init__(self, clauses: Sequence[Sequence[int]], num_vars: int):
        self.clauses = [list(c) for c in clauses]
        self.num_vars = num_vars
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0

    def solve(self, time_limit_s: Optional[float] = None) -> SatResult:
        """Run the search; raises TimeoutError past ``time_limit_s``."""
        started = time.perf_counter()

        # Literal occurrence index for the decision heuristic.
        occurrence: Dict[int, int] = {}
        for clause in self.clauses:
            for lit in clause:
                occurrence[lit] = occurrence.get(lit, 0) + 1

        def value(assignment: Dict[int, bool], lit: int) -> Optional[bool]:
            var = abs(lit)
            if var not in assignment:
                return None
            val = assignment[var]
            return val if lit > 0 else not val

        def propagate(assignment: Dict[int, bool]) -> bool:
            """Exhaustive unit propagation in place; False on conflict."""
            changed = True
            while changed:
                changed = False
                if time_limit_s is not None and (
                    time.perf_counter() - started > time_limit_s
                ):
                    raise TimeoutError("SAT time limit exceeded")
                for clause in self.clauses:
                    unassigned = None
                    satisfied = False
                    unknown = 0
                    for lit in clause:
                        val = value(assignment, lit)
                        if val is True:
                            satisfied = True
                            break
                        if val is None:
                            unassigned = lit
                            unknown += 1
                            if unknown > 1:
                                break
                    if satisfied or unknown > 1:
                        continue
                    if unknown == 0:
                        self.conflicts += 1
                        return False
                    assignment[abs(unassigned)] = unassigned > 0
                    self.propagations += 1
                    changed = True
            return True

        def search(assignment: Dict[int, bool]) -> Optional[Dict[int, bool]]:
            if not propagate(assignment):
                return None
            free = [
                v for v in range(1, self.num_vars + 1) if v not in assignment
            ]
            if not free:
                return assignment
            best = max(
                free,
                key=lambda v: occurrence.get(v, 0) + occurrence.get(-v, 0),
            )
            first = occurrence.get(best, 0) >= occurrence.get(-best, 0)
            for polarity in (first, not first):
                self.decisions += 1
                child = dict(assignment)
                child[best] = polarity
                model = search(child)
                if model is not None:
                    return model
            return None

        import sys

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, self.num_vars * 4 + 1000))
        try:
            model = search({})
        finally:
            sys.setrecursionlimit(old_limit)
        return SatResult(
            model is not None,
            model,
            self.decisions,
            self.propagations,
            self.conflicts,
            time.perf_counter() - started,
        )


# ----------------------------------------------------------------------
# Miter equivalence
# ----------------------------------------------------------------------

def equivalence_check_sat(
    golden: Netlist,
    candidate: Netlist,
    time_limit_s: Optional[float] = None,
    telemetry: Optional[_telemetry.Telemetry] = None,
) -> Tuple[bool, SatResult]:
    """Miter-based equivalence check.

    Returns ``(equivalent, solver_result)``; UNSAT miter == equivalent.
    Both netlists must share input names and have matching outputs.
    The whole check runs inside a ``baseline.sat`` telemetry span
    (annotated with CNF size and solver statistics), so
    rewriting-vs-SAT comparisons land in the same traces as the
    engine's ``cone`` spans.
    """
    if set(golden.inputs) != set(candidate.inputs):
        raise ValueError("netlists have different primary inputs")
    if list(golden.outputs) != list(candidate.outputs):
        raise ValueError("netlists have different primary outputs")

    registry = _telemetry.resolve(telemetry)
    with _telemetry.use(registry), registry.span(
        "baseline.sat",
        gates=len(golden) + len(candidate),
        outputs=len(golden.outputs),
    ) as span:
        renamed = _rename_internal(candidate, suffix="__cand")
        clauses, varmap, next_var = tseitin_encode(golden)
        more, varmap, next_var = tseitin_encode(
            renamed, varmap=varmap, next_var=next_var
        )
        clauses.extend(more)

        # XOR each output pair, OR the differences, assert 1.
        diff_vars = []
        for net in golden.outputs:
            g_var = varmap[net]
            c_var = varmap[f"{net}__cand"]
            d = next_var
            next_var += 1
            diff_vars.append(d)
            clauses.extend(
                [
                    [-d, g_var, c_var],
                    [-d, -g_var, -c_var],
                    [d, -g_var, c_var],
                    [d, g_var, -c_var],
                ]
            )
        clauses.append(diff_vars)  # at least one output differs

        solver = DpllSolver(clauses, next_var - 1)
        result = solver.solve(time_limit_s=time_limit_s)
        span.annotate(
            variables=next_var - 1,
            clauses=len(clauses),
            decisions=result.decisions,
            propagations=result.propagations,
            conflicts=result.conflicts,
            equivalent=not result.satisfiable,
        )
        return (not result.satisfiable), result


def _rename_internal(netlist: Netlist, suffix: str) -> Netlist:
    """Rename every non-input net so two netlists can coexist in a CNF."""
    inputs = set(netlist.inputs)

    def rename(net: str) -> str:
        return net if net in inputs else f"{net}{suffix}"

    result = Netlist(netlist.name + suffix, inputs=netlist.inputs)
    for gate in netlist.topological_order():
        result.add_gate(
            Gate(
                rename(gate.output),
                gate.gtype,
                tuple(rename(n) for n in gate.inputs),
            )
        )
    for net in netlist.outputs:
        result.add_output(rename(net))
    return result
