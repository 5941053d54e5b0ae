"""The :class:`Netlist` container.

A netlist is a DAG of gate cells between declared primary inputs and
primary outputs.  Its only storage is an integer-indexed core, in the
style of ABC's networks (Brayton and Mishchenko, "ABC: An Academic
Industrial-Strength Verification Tool", CAV 2010):

* a net-name table: ``net_names[id]``, and :meth:`Netlist.net_id` for
  the way back;
* per gate, in insertion order: its type code (an index into
  :data:`~repro.netlist.gate.GATE_TYPES`), its output net id and its
  fan-in net ids;
* the cached Kahn order, as gate indices (:meth:`Netlist.gate_order`).

Validation, ordering, cone walks and bit-parallel simulation loop over
these integers, and so do the AIG strash
(:meth:`repro.aig.Aig.from_netlist`) and the EQN reader, which fills
the core directly.  :class:`~repro.netlist.gate.Gate`
objects are *views*: :meth:`Netlist.add_gate` takes one and appends it
to the core, and ``gates``, ``driver_of``, ``topological_order``,
``cone_gates`` and the writers build them on demand.  No list of them
is kept.

The operations the rest of the system relies on:

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
from array import array
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.netlist.gate import (
    EVALUATION,
    GATE_CODE,
    GATE_TYPES,
    Gate,
    GateType,
)


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
      forked campaign worker) gets a fresh lock, depth 0 and the
      collector state from before the outermost pause, as if no pause
      were held.  Leaving a pause the child inherited from its parent
      changes nothing.
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


class _NetTable(dict):
    """Net name -> net id; the first lookup of a new name interns it.

    ``names[id]`` is the way back, and ``driver[id]`` is the index of
    the gate driving the net (``None`` for primary inputs and
    undriven nets).  ``.get`` never interns, so lookups that must not
    grow the table use it.
    """

    def __init__(self) -> None:
        super().__init__()
        self.names: List[str] = []
        self.driver: List[Optional[int]] = []

    def __missing__(self, name: str) -> int:
        net = self[name] = len(self.names)
        self.names.append(name)
        self.driver.append(None)
        return net

    def copy(self) -> "_NetTable":
        dup = _NetTable()
        dup.update(self)
        dup.names = list(self.names)
        dup.driver = list(self.driver)
        return dup


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
        # The integer core (see the module docstring).  The EQN reader
        # appends to these lists directly.
        self._nets = _NetTable()
        for net in self.inputs + self.outputs:
            self._nets[net]  # interns the name
        self._codes = array("B")
        self._outs: List[int] = []
        self._fanins: List[Tuple[int, ...]] = []
        self._order: Optional[List[int]] = None
        self._memo: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_gate(self, gate: Gate) -> None:
        """Append a gate; rejects double-driven nets immediately."""
        nets = self._nets
        out = nets.get(gate.output)
        if out is not None and nets.driver[out] is not None:
            raise NetlistError(f"net {gate.output!r} has multiple drivers")
        if gate.output in self._input_set:
            raise NetlistError(f"primary input {gate.output!r} cannot be driven")
        out = nets[gate.output]
        nets.driver[out] = len(self._codes)
        self._codes.append(GATE_CODE[gate.gtype])
        self._outs.append(out)
        self._fanins.append(tuple(map(nets.__getitem__, gate.inputs)))
        self._order = None
        self._memo = None

    def add_input(self, name: str) -> None:
        net = self._nets.get(name)
        if net is not None and self._nets.driver[net] is not None:
            raise NetlistError(f"net {name!r} is already driven by a gate")
        if name not in self._input_set:
            self._nets[name]  # interns the name
            self._input_set.add(name)
            self.inputs.append(name)
            self._memo = None

    def add_output(self, name: str) -> None:
        if name not in self._output_set:
            self._nets[name]  # interns the name
            self._output_set.add(name)
            self.outputs.append(name)
            self._memo = None

    def memo(self) -> Dict[str, Any]:
        """Forms derived from the netlist's current contents.

        The strashed live AIG (:func:`repro.aig.live_aig`) and the
        content fingerprint and cone digests
        (:mod:`repro.service.fingerprint`) are each derived once and
        kept here; every mutator clears the dict.
        """
        if self._memo is None:
            self._memo = {}
        return self._memo

    # ------------------------------------------------------------------
    # The integer core (read-only: mutate through the add_* methods)
    # ------------------------------------------------------------------

    @property
    def net_names(self) -> List[str]:
        """Net id -> net name, for every net the netlist mentions."""
        return self._nets.names

    def net_id(self, name: str) -> Optional[int]:
        """Id of a net, or ``None`` if the netlist never mentions it."""
        return self._nets.get(name)

    @property
    def gate_codes(self) -> Sequence[int]:
        """Per gate, in insertion order: its type code, an index into
        :data:`~repro.netlist.gate.GATE_TYPES` (a byte array)."""
        return self._codes

    @property
    def gate_outputs(self) -> List[int]:
        """Per gate, in insertion order: the id of the net it drives."""
        return self._outs

    @property
    def gate_fanins(self) -> List[Tuple[int, ...]]:
        """Per gate, in insertion order: the ids of the nets it reads."""
        return self._fanins

    def gate_order(self) -> List[int]:
        """Gate indices in :meth:`topological_order` (cached)."""
        if self._order is None:
            self._sort(validate=False)
        return self._order

    # ------------------------------------------------------------------
    # Introspection (Gate views, built on demand)
    # ------------------------------------------------------------------

    def _gate(self, index: int) -> Gate:
        """The :class:`Gate` view of one gate.  Its arity was checked
        when it was added, so the frozen dataclass's ``__post_init__``
        is skipped."""
        names = self._nets.names
        gate = object.__new__(Gate)
        vars(gate).update(
            output=names[self._outs[index]],
            gtype=GATE_TYPES[self._codes[index]],
            inputs=tuple(map(names.__getitem__, self._fanins[index])),
        )
        return gate

    @property
    def gates(self) -> List[Gate]:
        """Gates in insertion order (not necessarily topological)."""
        return [self._gate(index) for index in range(len(self._codes))]

    def __len__(self) -> int:
        return len(self._codes)

    def driver_of(self, net: str) -> Optional[Gate]:
        """The gate driving ``net``, or ``None`` for PIs/undriven nets."""
        net_id = self._nets.get(net)
        if net_id is None:
            return None
        index = self._nets.driver[net_id]
        return None if index is None else self._gate(index)

    def nets(self) -> Set[str]:
        """Every net name mentioned anywhere in the netlist."""
        return set(self._nets.names)

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
        job).  The order is cached until the netlist changes, the
        gates are built per call.
        """
        return [self._gate(index) for index in self.gate_order()]

    def _sort(self, validate: bool) -> None:
        """Count indegrees, optionally check drivers, then run Kahn."""
        nets = self._nets
        driver = nets.driver
        fanins = self._fanins
        inputs = self._input_set
        indegree: List[int] = []
        # Reader lists only for gates that are read.  The gate indices
        # are the int objects ``driver`` holds, so the order shares them.
        gates = list(map(driver.__getitem__, self._outs))
        readers: List[Optional[List[int]]] = [None] * len(fanins)
        for index, fanin in zip(gates, fanins):
            degree = 0
            for net in fanin:
                source = driver[net]
                if source is None:
                    if validate and nets.names[net] not in inputs:
                        raise NetlistError(
                            f"gate {nets.names[self._outs[index]]!r} "
                            f"reads undriven net {nets.names[net]!r}"
                        )
                    continue
                degree += 1
                fanout = readers[source]
                if fanout is None:
                    readers[source] = [index]
                else:
                    fanout.append(index)
            indegree.append(degree)
        if validate:
            for name in self.outputs:
                if driver[nets[name]] is None and name not in inputs:
                    raise NetlistError(f"primary output {name!r} is undriven")
        queue = [index for index, degree in zip(gates, indegree) if not degree]
        for index in queue:  # grows while iterated: a FIFO
            for reader in readers[index] or ():
                indegree[reader] -= 1
                if not indegree[reader]:
                    queue.append(reader)
        del readers, gates
        if len(queue) != len(fanins):
            stuck = sorted(
                nets.names[out]
                for out, degree in zip(self._outs, indegree)
                if degree > 0
            )
            raise NetlistError(
                f"combinational cycle involving nets {stuck[:5]}"
            )
        self._order = queue

    def _reach(self, roots: Sequence[str]) -> bytearray:
        """Marks, by net id, of the transitive fan-in of the named
        nets (names the netlist never mentions are skipped)."""
        nets = self._nets
        driver = nets.driver
        fanins = self._fanins
        seen = bytearray(len(nets.names))
        stack = [net for net in map(nets.get, roots) if net is not None]
        while stack:
            net = stack.pop()
            if seen[net]:
                continue
            seen[net] = 1
            index = driver[net]
            if index is not None:
                stack.extend(fanins[index])
        return seen

    def restrict(
        self, outputs: Sequence[str], name: Optional[str] = None
    ) -> "Netlist":
        """The union of the fan-in cones of ``outputs``, as a netlist.

        Its inputs are the primary inputs the cones reach, in
        declaration order; its outputs are ``outputs``; its gates keep
        their insertion order.  Built core to core: no
        :class:`Gate` is made.
        """
        seen = self._reach(outputs)
        nets = self._nets
        names = nets.names
        sub = Netlist(
            self.name if name is None else name,
            [net for net in self.inputs if seen[nets[net]]],
            outputs,
        )
        sub_nets = sub._nets
        intern = sub_nets.__getitem__
        for index, out in enumerate(self._outs):
            if seen[out]:
                sub_out = intern(names[out])
                sub_nets.driver[sub_out] = len(sub._codes)
                sub._codes.append(self._codes[index])
                sub._outs.append(sub_out)
                sub._fanins.append(
                    tuple([intern(names[net]) for net in self._fanins[index]])
                )
        return sub

    def cone(self, output: str) -> "Netlist":
        """Transitive fan-in cone of one net, as a standalone netlist.

        The cone's inputs are exactly the primary inputs it reaches;
        its single output is ``output``.  Theorem 2 guarantees the
        backward rewriting of output bit ``z_i`` only ever needs this
        sub-netlist.
        """
        net = self._nets.get(output)
        if (
            net is None or self._nets.driver[net] is None
        ) and output not in self._input_set:
            raise NetlistError(f"unknown net {output!r}")
        return self.restrict([output], f"{self.name}.{output}")

    def cone_gates(self, output: str) -> List[Gate]:
        """Gates of the fan-in cone of ``output`` in topological order."""
        seen = self._reach([output])
        outs = self._outs
        return [
            self._gate(index)
            for index in self.gate_order()
            if seen[outs[index]]
        ]

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
        :meth:`simulate_all_nets`, keeps the values in a list indexed
        by net id and calls each gate's
        :data:`~repro.netlist.gate.EVALUATION` entry with its operand
        values; one- and two-operand cells take a single ``&``/``^``
        on the lane ints and no operand list.
        """
        values = self._net_values(assignment, width)
        ids = self._nets
        missing = [net for net in self.outputs if values[ids[net]] is None]
        if missing:
            raise NetlistError(f"outputs {missing} were never computed")
        return {net: values[ids[net]] for net in self.outputs}

    def simulate_all_nets(
        self, assignment: Mapping[str, int], width: int = 1
    ) -> Dict[str, int]:
        """Like :meth:`simulate` but returns every internal net too."""
        values = self._net_values(assignment, width)
        names = self._nets.names
        result = {net: values[self._nets[net]] for net in self.inputs}
        outs = self._outs
        for index in self.gate_order():
            out = outs[index]
            result[names[out]] = values[out]
        return result

    def _net_values(
        self, assignment: Mapping[str, int], width: int
    ) -> List[Optional[int]]:
        """Value of every primary input and gate output by net id,
        masked; ``None`` for the nets nothing computes."""
        mask = (1 << width) - 1
        nets = self._nets
        values: List[Optional[int]] = [None] * len(nets.names)
        for net in self.inputs:
            try:
                values[nets[net]] = assignment[net] & mask
            except KeyError:
                raise NetlistError(f"missing value for input {net!r}") from None
        evaluation = [EVALUATION[gtype] for gtype in GATE_TYPES]
        codes = self._codes
        outs = self._outs
        fanins = self._fanins
        order = self.gate_order()
        try:
            for index in order:
                fanin = fanins[index]
                evaluate = evaluation[codes[index]]
                if len(fanin) == 2:
                    a, b = fanin
                    values[outs[index]] = evaluate(mask, values[a], values[b])
                elif len(fanin) == 1:
                    values[outs[index]] = evaluate(mask, values[fanin[0]])
                else:
                    values[outs[index]] = evaluate(
                        mask, *[values[net] for net in fanin]
                    )
        except TypeError:
            # A ``None`` operand: the gate reads a net nothing drives.
            for net in fanins[index]:
                if values[net] is None:
                    raise KeyError(nets.names[net]) from None
            raise
        return values

    # ------------------------------------------------------------------
    # Statistics / copying
    # ------------------------------------------------------------------

    def stats(self) -> NetlistStats:
        """Gate counts, logic depth, and the paper's '# eqns' metric."""
        counts: Dict[str, int] = {}
        for code in self._codes:
            name = GATE_TYPES[code].value
            counts[name] = counts.get(name, 0) + 1
        depth = [0] * len(self._nets.names)
        fanins = self._fanins
        outs = self._outs
        max_depth = 0
        for index in self.gate_order():
            level = 1 + max(
                (depth[net] for net in fanins[index]), default=0
            )
            depth[outs[index]] = level
            max_depth = max(max_depth, level)
        return NetlistStats(
            num_gates=len(self._codes),
            num_inputs=len(self.inputs),
            num_outputs=len(self.outputs),
            depth=max_depth,
            gate_counts=counts,
        )

    def copy(self, name: Optional[str] = None) -> "Netlist":
        """A copy with its own core (the fan-in tuples are shared)."""
        dup = Netlist(name or self.name, self.inputs, self.outputs)
        dup._nets = self._nets.copy()
        dup._codes = array("B", self._codes)
        dup._outs = list(self._outs)
        dup._fanins = list(self._fanins)
        dup._order = self._order
        return dup

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, {len(self.inputs)} in, "
            f"{len(self.outputs)} out, {len(self._codes)} gates)"
        )
