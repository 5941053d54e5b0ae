"""The :class:`Netlist` container.

A netlist is a DAG of :class:`~repro.netlist.gate.Gate` cells between
declared primary inputs and primary outputs.  The operations the rest
of the system relies on:

* **validation** — single driver per net, no undriven non-PI nets, no
  combinational cycles;
* **topological order** — Algorithm 1 rewrites "in a topological order
  of the netlist" (backwards);
* **cone extraction** — Theorem 2 lets each output bit be processed in
  its own transitive fan-in cone, which is what makes the method
  parallel and memory-friendly;
* **bit-parallel simulation** — the ground truth the generators and the
  extraction verifier are tested against;
* **statistics** — the paper's ``# eqns`` column is the gate count.
"""

from __future__ import annotations

import contextlib
import gc
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro.netlist.gate import EVALUATION, Gate, GateType


class NetlistError(ValueError):
    """Structural problem in a netlist (multi-driver, cycle, ...)."""


#: Longest the collector stays off while pauses overlap.  A holder that
#: leaves after the collector has been off this long runs one
#: young-generation collection before it returns.
GC_PAUSE_BOUND_S = 4.0


class _CollectorPause(contextlib.ContextDecorator):
    """Context manager (and decorator): cyclic garbage collector off
    for one request.

    A request — reading a netlist, or a whole batch, ECO or HTTP
    request around it — allocates large acyclic structures (gates,
    the AIG, the compiled program, decoded JSON) that refcounting
    frees, and almost no reference cycles.  Left on, the collector
    would still re-traverse the fresh containers every few hundred
    allocations and the whole heap on each full collection.  Enter
    the pause around the *whole* call (as a decorator, or a ``with``
    around a call), so the request's locals are freed before the
    collector comes back; what then survives is the request's answer.

    Re-entrant across threads (HTTP handlers and workers run
    concurrently): a counter under a lock re-enables the collector
    only when the last concurrent holder leaves, and only if it was
    enabled when the first one entered.  An exception leaving the
    block restores it too.  There is one instance, :data:`GC_PAUSE`,
    because the collector's switch is process-wide.

    * **Starvation bound.**  Overlapping holders could keep the
      collector off indefinitely.  When a holder leaves while others
      remain and the collector has been off for longer than
      :data:`GC_PAUSE_BOUND_S`, that holder runs ``gc.collect(0)``
      before returning, and the bound starts over.
    * **Fork safety.**  A child forked while the pause is held (a
      ``jobs > 1`` rewrite pool, a forked campaign worker) gets a
      fresh lock, depth 0 and the collector state from before the
      outermost pause, as if no pause were held.  Leaving a pause
      the child inherited from its parent changes nothing.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False
        self._off_since = 0.0
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._after_fork_in_child)

    # The depth counts a holder from before the switch flips on entry
    # until after it flips back on exit, so a child forked between any
    # two steps still knows whether to restore the collector.

    def __enter__(self) -> None:
        with self._lock:
            if not self._depth:
                self._resume = gc.isenabled()
                self._off_since = time.monotonic()
            self._depth += 1
            gc.disable()

    def __exit__(self, *exc_info: object) -> None:
        starved = False
        with self._lock:
            if not self._depth:
                return
            if self._depth == 1:
                if self._resume:
                    gc.enable()
            elif (
                self._resume
                and time.monotonic() - self._off_since > GC_PAUSE_BOUND_S
            ):
                self._off_since = time.monotonic()
                starved = True
            self._depth -= 1
        if starved:
            # Outside the lock: finalizers run by the collection may
            # themselves enter the pause.
            gc.collect(0)

    def _after_fork_in_child(self) -> None:
        self._lock = threading.Lock()
        if self._depth:
            self._depth = 0
            if self._resume:
                gc.enable()


#: The one shared pause: the netlist readers build under ``with
#: GC_PAUSE:``, and each service request (a batch netlist, an ECO
#: re-audit, an HTTP submission or job) runs under it as a whole.
GC_PAUSE = _CollectorPause()


@dataclass
class NetlistStats:
    """Summary statistics in the units the paper reports."""

    num_gates: int
    num_inputs: int
    num_outputs: int
    depth: int
    gate_counts: Dict[str, int]

    @property
    def num_equations(self) -> int:
        """Alias: the paper's '# eqns' column is the gate count."""
        return self.num_gates

    def __str__(self) -> str:
        counts = ", ".join(
            f"{name}:{count}" for name, count in sorted(self.gate_counts.items())
        )
        return (
            f"gates={self.num_gates} inputs={self.num_inputs} "
            f"outputs={self.num_outputs} depth={self.depth} [{counts}]"
        )


class Netlist:
    """A combinational gate-level netlist.

    >>> net = Netlist("half_adder", inputs=["a", "b"], outputs=["s", "c"])
    >>> net.add_gate(Gate("s", GateType.XOR, ("a", "b")))
    >>> net.add_gate(Gate("c", GateType.AND, ("a", "b")))
    >>> net.simulate({"a": 1, "b": 1})
    {'s': 0, 'c': 1}
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[str] = (),
        outputs: Sequence[str] = (),
    ):
        self.name = name
        self.inputs: List[str] = list(inputs)
        self.outputs: List[str] = list(outputs)
        # Membership tests for the public port lists, which only the
        # add_* methods below may grow.
        self._input_set: Set[str] = set(self.inputs)
        self._output_set: Set[str] = set(self.outputs)
        self._gates: List[Gate] = []
        self._driver: Dict[str, Gate] = {}
        self._topo_cache: Optional[List[Gate]] = None
        self._topo_pos_cache: Optional[Dict[str, int]] = None
        self._memo: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_gate(self, gate: Gate) -> None:
        """Append a gate; rejects double-driven nets immediately."""
        if gate.output in self._driver:
            raise NetlistError(f"net {gate.output!r} has multiple drivers")
        if gate.output in self._input_set:
            raise NetlistError(f"primary input {gate.output!r} cannot be driven")
        self._driver[gate.output] = gate
        self._gates.append(gate)
        self._topo_cache = None
        self._topo_pos_cache = None
        self._memo = None

    def add_input(self, name: str) -> None:
        if name in self._driver:
            raise NetlistError(f"net {name!r} is already driven by a gate")
        if name not in self._input_set:
            self._input_set.add(name)
            self.inputs.append(name)
            self._memo = None

    def add_output(self, name: str) -> None:
        if name not in self._output_set:
            self._output_set.add(name)
            self.outputs.append(name)
            self._memo = None

    def memo(self) -> Dict[str, Any]:
        """Forms derived from the netlist's current contents.

        The strashed live AIG (:func:`repro.aig.live_aig`), the content
        fingerprint and cone digests (:mod:`repro.service.fingerprint`)
        and the exact-content token of compiled programs
        (:func:`repro.engine.base.netlist_token`) are each derived once
        and kept here; every mutator clears the dict.
        """
        if self._memo is None:
            self._memo = {}
        return self._memo

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def gates(self) -> List[Gate]:
        """Gates in insertion order (not necessarily topological)."""
        return list(self._gates)

    def __len__(self) -> int:
        return len(self._gates)

    def driver_of(self, net: str) -> Optional[Gate]:
        """The gate driving ``net``, or ``None`` for PIs/undriven nets."""
        return self._driver.get(net)

    def nets(self) -> Set[str]:
        """Every net name mentioned anywhere in the netlist."""
        out: Set[str] = set(self.inputs) | set(self.outputs)
        for gate in self._gates:
            out.add(gate.output)
            out.update(gate.inputs)
        return out

    def validate(self) -> None:
        """Raise :class:`NetlistError` on any structural defect.

        One pass: the undriven-net and undriven-output checks ride on
        the indegree count of :meth:`topological_order`, whose order it
        caches.  The first error raised is the one separate scans would
        raise first: an undriven read (in gate, then input order), then
        an undriven output, then a cycle.
        """
        self._sort(validate=True)

    # ------------------------------------------------------------------
    # Ordering and cones
    # ------------------------------------------------------------------

    def topological_order(self) -> List[Gate]:
        """Gates ordered so every gate follows all its input drivers.

        Kahn's algorithm over gate indices in one pass: a FIFO seeded
        with the zero-indegree gates in insertion order, each gate
        releasing its readers in insertion order (a gate reading a net
        twice counts it twice).  That is the order of the net-keyed
        sort it replaced (``tests/test_eqn_differential.py`` keeps a
        copy as the reference), so written files and schedules do not
        change.  Raises :class:`NetlistError` on combinational
        cycles but not on undriven nets (that is :meth:`validate`'s
        job).  The result is cached until the netlist changes.
        """
        if self._topo_cache is None:
            self._sort(validate=False)
        return self._topo_cache

    def _sort(self, validate: bool) -> None:
        """Count indegrees, optionally check drivers, then run Kahn."""
        gates = self._gates
        index = {gate.output: i for i, gate in enumerate(gates)}
        driver_of = index.get
        indegree: List[int] = []
        # Reader lists only for gates that are read; the ints from
        # ``index`` are shared, not re-created per edge.
        readers: List[Optional[List[int]]] = [None] * len(gates)
        for i, gate in zip(index.values(), gates):
            degree = 0
            for net in gate.inputs:
                driver = driver_of(net)
                if driver is None:
                    if validate and net not in self._input_set:
                        raise NetlistError(
                            f"gate {gate.output!r} reads undriven net {net!r}"
                        )
                    continue
                degree += 1
                fanout = readers[driver]
                if fanout is None:
                    readers[driver] = [i]
                else:
                    fanout.append(i)
            indegree.append(degree)
        if validate:
            for net in self.outputs:
                if net not in index and net not in self._input_set:
                    raise NetlistError(f"primary output {net!r} is undriven")
        del index, driver_of
        queue = [i for i, degree in enumerate(indegree) if not degree]
        for i in queue:  # grows while iterated: a FIFO
            for reader in readers[i] or ():
                indegree[reader] -= 1
                if not indegree[reader]:
                    queue.append(reader)
        del readers
        if len(queue) != len(gates):
            stuck = sorted(
                gate.output
                for gate, degree in zip(gates, indegree)
                if degree > 0
            )
            raise NetlistError(
                f"combinational cycle involving nets {stuck[:5]}"
            )
        self._topo_cache = [gates[i] for i in queue]

    def topological_positions(self) -> Dict[str, int]:
        """Map gate-output net → its index in :meth:`topological_order`.

        Cached like the order itself.  Per-cone engines use this to
        schedule backward rewriting by topological position without
        rescanning the gate list for every output bit.
        """
        if self._topo_pos_cache is None:
            self._topo_pos_cache = {
                gate.output: position
                for position, gate in enumerate(self.topological_order())
            }
        return self._topo_pos_cache

    def cone(self, output: str) -> "Netlist":
        """Transitive fan-in cone of one net, as a standalone netlist.

        The cone's inputs are exactly the primary inputs it reaches;
        its single output is ``output``.  Theorem 2 guarantees the
        backward rewriting of output bit ``z_i`` only ever needs this
        sub-netlist.
        """
        if output not in self._driver and output not in self._input_set:
            raise NetlistError(f"unknown net {output!r}")
        keep: Set[str] = set()
        stack = [output]
        while stack:
            net = stack.pop()
            if net in keep:
                continue
            keep.add(net)
            gate = self._driver.get(net)
            if gate is not None:
                stack.extend(gate.inputs)
        cone_inputs = [net for net in self.inputs if net in keep]
        sub = Netlist(f"{self.name}.{output}", cone_inputs, [output])
        for gate in self._gates:
            if gate.output in keep:
                sub.add_gate(gate)
        return sub

    def cone_gates(self, output: str) -> List[Gate]:
        """Gates of the fan-in cone of ``output`` in topological order."""
        keep: Set[str] = set()
        stack = [output]
        while stack:
            net = stack.pop()
            if net in keep:
                continue
            keep.add(net)
            gate = self._driver.get(net)
            if gate is not None:
                stack.extend(gate.inputs)
        return [gate for gate in self.topological_order() if gate.output in keep]

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def simulate(
        self, assignment: Mapping[str, int], width: int = 1
    ) -> Dict[str, int]:
        """Bit-parallel simulation.

        ``assignment`` maps every primary input to an int whose low
        ``width`` bits are independent simulation lanes.  Returns the
        primary output values (same packing).

        One loop over the topological order, shared with
        :meth:`simulate_all_nets`, calls each gate's
        :data:`~repro.netlist.gate.EVALUATION` entry with its operand
        values; one- and two-operand cells take a single ``&``/``^``
        on the lane ints and no operand list.
        """
        values = self._net_values(assignment, width)
        missing = [net for net in self.outputs if net not in values]
        if missing:
            raise NetlistError(f"outputs {missing} were never computed")
        return {net: values[net] for net in self.outputs}

    def simulate_all_nets(
        self, assignment: Mapping[str, int], width: int = 1
    ) -> Dict[str, int]:
        """Like :meth:`simulate` but returns every internal net too."""
        return self._net_values(assignment, width)

    def _net_values(
        self, assignment: Mapping[str, int], width: int
    ) -> Dict[str, int]:
        """Value of every primary input and gate output, masked."""
        mask = (1 << width) - 1
        values: Dict[str, int] = {}
        for net in self.inputs:
            try:
                values[net] = assignment[net] & mask
            except KeyError:
                raise NetlistError(f"missing value for input {net!r}") from None
        evaluation = EVALUATION
        for gate in self.topological_order():
            nets = gate.inputs
            evaluate = evaluation[gate.gtype]
            if len(nets) == 2:
                a, b = nets
                values[gate.output] = evaluate(mask, values[a], values[b])
            elif len(nets) == 1:
                values[gate.output] = evaluate(mask, values[nets[0]])
            else:
                values[gate.output] = evaluate(
                    mask, *[values[net] for net in nets]
                )
        return values

    # ------------------------------------------------------------------
    # Statistics / copying
    # ------------------------------------------------------------------

    def stats(self) -> NetlistStats:
        """Gate counts, logic depth, and the paper's '# eqns' metric."""
        counts: Dict[str, int] = {}
        for gate in self._gates:
            counts[gate.gtype.value] = counts.get(gate.gtype.value, 0) + 1
        depth: Dict[str, int] = {net: 0 for net in self.inputs}
        max_depth = 0
        for gate in self.topological_order():
            level = 1 + max(
                (depth.get(net, 0) for net in gate.inputs), default=0
            )
            depth[gate.output] = level
            max_depth = max(max_depth, level)
        return NetlistStats(
            num_gates=len(self._gates),
            num_inputs=len(self.inputs),
            num_outputs=len(self.outputs),
            depth=max_depth,
            gate_counts=counts,
        )

    def copy(self, name: Optional[str] = None) -> "Netlist":
        """Shallow-ish copy (gates are immutable and shared)."""
        dup = Netlist(name or self.name, self.inputs, self.outputs)
        for gate in self._gates:
            dup.add_gate(gate)
        return dup

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, {len(self.inputs)} in, "
            f"{len(self.outputs)} out, {len(self._gates)} gates)"
        )
