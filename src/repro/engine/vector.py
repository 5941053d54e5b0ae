"""Vectorized backward rewriting — polynomials as numpy bit-matrices.

The pure-python backends spend the substitution loop hashing one
python ``int`` at a time; on wide cones the interpreter dispatch, not
the algebra, is the cost.  This backend keeps the *same* compiled
program as the ``aig`` engine (strash → flattening → cut-ANF models,
:class:`repro.engine.aig._CompiledAig` — so the two backends also
share compiled-program cache entries) but runs Algorithm 1's loop in
numpy:

* a polynomial is a ``uint64`` matrix of shape ``(monomials, words)``
  — row ``i`` is monomial ``i``'s bitmask with interned signals packed
  64 per word (the same bit indices the
  :class:`~repro.engine.interning.SignalInterner` assigns, so decode
  and the packed membership tests are unchanged);
* one substitution step is a broadcast: the affected rows (one
  vectorized bit-test — the role the bitpack engine's occurrence
  index plays — selects them) are stripped of the variable bit and
  OR-ed against the whole model matrix in a single
  ``(affected, 1, words) | (1, models, words)`` operation;
* GF(2) cancellation is a lexsort: the surviving rows plus the fresh
  products are sorted, equal rows grouped, and groups of even
  multiplicity dropped — ``set[int]`` churn becomes two C passes.
  Because a cancelled matrix comes out *sorted*, a step that produced
  only a few fresh rows skips the next full lexsort entirely: the
  fresh slice is cancelled on its own and merge-sorted into the
  sorted remainder (binary-search positions + one ``insert``), the
  incremental path below :data:`_MERGE_FRACTION`.

Fused multi-output mode
-----------------------
:meth:`VectorEngine.rewrite_cones` rewrites *all* requested output
cones in one matrix: every row carries an **output tag** in an extra
trailing word (the lexsort's primary key, so cancelled matrices come
out grouped by cone), and one bit-matrix holds every output's
polynomial at once.  The sweep runs in *rounds*: each round claims,
per row, the
highest pending (interned, non-leaf) variable present in that row,
substitutes every claimed group with one broadcast each, and cancels
the whole matrix once — the lexsort keys on (tag, monomial), so
cancellation stays strictly per-cone while the walk over the shared
gate DAG, the cut-model lookups and the sorts are amortized over all
m outputs.  Substituting per-row-highest variables first is exactly
the reverse-topological order Algorithm 1 prescribes, applied row by
row; intermediate *statistics* therefore differ from the per-bit
sweep (rounds replace per-gate iterations), but the final expressions
are bit-identical — cancellation is exact mod-2 algebra at every
step, and canonical forms are unique (Theorem 1).  The per-bit
entry point :meth:`rewrite_cone` is unchanged; callers opt in through
``fused=True`` on the extraction drivers.

Past the memory wall: the out-of-core sweep
-------------------------------------------
The paper's hard ceiling is memory-out, and in fused mode the whole
intermediate polynomial is exactly one matrix — so the matrix is the
unit that spills.  Give the sweep a byte budget
(``REPRO_SWEEP_MAX_BYTES`` / ``max_bytes=`` / ``--max-ram``) and,
between rounds, a matrix past half the budget is tiled into
**per-tag-range shards** on disk (:mod:`repro.engine.spill`).  The
tag word is the lexsort's *primary* key, so a contiguous tag range is
closed under cancellation: no row in one shard can ever cancel
against a row in another, and each shard is a self-contained sorted
matrix.  A spilled round then streams shard by shard — load one
shard, claim and substitute exactly as in core, cancel products into
a bounded accumulator that overflows into sorted **run** files, and
finish with a k-way parity merge (:func:`repro.engine.spill.
merge_parity`) of the untouched remainder, the runs, and the
accumulator back into a fresh shard.  Peak residency is one shard
plus one accumulator (~budget/2) instead of the whole matrix; the
budget therefore bounds the *intermediate*, while the final canonical
matrix — small by comparison, it is the answer — is materialized for
decode.  When the total shrinks back under half the budget the
shards are re-concatenated (tag order makes the concatenation
sorted) and the sweep continues in core.  Statistics stay exact:
shards partition the tag space, so per-cone counters never double-
count.  Spill directories are removed on success *and* on error, and
a round is all-or-nothing per shard, so the mode-neutral sweep-chunk
checkpoints in ``service/jobs.py`` resume a killed out-of-core run
the same way they resume an in-core one.

GPU dispatch
------------
The kernels above are written against the array surface numpy and
cupy share, reached through an :class:`repro.engine.xp.ArrayBackend`
(module handle + host/device boundary).  ``VectorEngine`` always
picks the host backend; the ``cuda`` engine
(:mod:`repro.engine.cuda`) subclasses it and swaps in cupy, keeping
the compiled program, the fused sweep, and the decode path — device
to host transfer happens exactly once, at the decode boundary.  The
byte-key incremental merge is host-only (cupy has no fixed-width
byte dtype), so device sweeps always take the full radix lexsort —
``supports_byte_keys`` on the backend records that.  Spilling is
host-only by construction; a budgeted sweep on the cuda engine runs
on the host spill path instead (its documented fallback when device
memory is the binding constraint).

Results are bit-identical to the reference backend (the differential
suite drives all packed engines across the generator zoo, in-core,
spilled, and device-dispatched); statistics and the memory-out point
are backend-specific, as the engine contract allows.

numpy is an *optional* dependency: :meth:`VectorEngine.availability`
reports why the backend is unusable (``None`` when it is), the
registry surfaces that reason, and everything else in the package
works without it.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Any, Dict, Iterable, List, Optional, Tuple

from weakref import WeakKeyDictionary

from repro import telemetry as _telemetry
from repro.engine import spill as _spill
from repro.engine import xp as _xp
from repro.engine.aig import AigEngine
from repro.engine.base import EngineError, cone_span
from repro.engine.bitpack import PackedExpression
from repro.engine.interning import SignalInterner
from repro.gf2.polynomial import Gf2Poly
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import (
    RewriteStats,
    TermLimitExceeded,
    TraceStep,
)

try:  # pragma: no cover - exercised via the no-numpy subprocess test
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

_WORD_BITS = 64
_WORD_MASK = (1 << _WORD_BITS) - 1
#: Largest product matrix materialized at once (rows).  Substitution
#: cancels chunk by chunk — exact, since run-parity cancellation is
#: associative — so the transient |affected|x|model| broadcast never
#: outgrows this bound and ``term_limit`` stays a real memory bound.
_CHUNK_ROWS = 1 << 16
#: Incremental-cancellation crossover: when one substitution step
#: produced fewer fresh rows than this fraction of the already-sorted
#: remainder, the fresh slice is cancelled on its own and merge-sorted
#: into place instead of re-lexsorting everything.
#: ``benchmarks/bench_fused.py`` measures the crossover and commits it
#: to ``BENCH_fused.json``: numpy's radix lexsort is near-linear, so
#: the merge only wins for genuinely tiny touches — the measured
#: break-even sits around 1/16 and the default follows it.
_MERGE_FRACTION = 0.0625
#: Below this many remainder rows a full lexsort is always cheaper
#: than building merge keys.
_MERGE_MIN_ROWS = 64


def _mask_rows(masks: List[int], words: int) -> "Any":
    """Python int bitmasks → a ``(len(masks), words)`` uint64 matrix.

    ``int.to_bytes`` writes each mask's little-endian words in one C
    call; ``frombuffer`` reinterprets the joined buffer as the matrix.
    Always a *host* matrix — device backends ``asarray`` the result.
    """
    width = words * 8
    buffer = b"".join(mask.to_bytes(width, "little") for mask in masks)
    rows = _np.frombuffer(buffer, dtype="<u8").reshape(len(masks), words)
    return rows.astype(_np.uint64, copy=True)  # writable, native order


def _rows_to_masks(matrix: "Any") -> "Any":
    """Matrix rows → python int bitmasks (the decode boundary).

    The row-major little-endian byte image of the matrix is sliced
    into one ``int.from_bytes`` call per row — no per-word python
    arithmetic.
    """
    words = matrix.shape[1]
    width = words * 8
    data = _np.ascontiguousarray(matrix).astype("<u8").tobytes()
    from_bytes = int.from_bytes
    return {
        from_bytes(data[start : start + width], "little")
        for start in range(0, len(data), width)
    }


def _pack_model(model, leaf_bits, intern) -> List[int]:
    """Pack one cut model into int bitmasks.

    Flat parts arrive as ready PI-space masks; opaque nodes resolve
    through the shared leaf table or intern via ``intern`` — the
    caller's hook, which also schedules newly seen nodes on its own
    worklist (heap for the per-bit sweep, next round for the fused
    one).  Shared by both sweeps so the packing rules cannot diverge.
    """
    masks: List[int] = []
    for pi_mask, opaque_nodes in model:
        mask = pi_mask
        for opaque in opaque_nodes:
            leaf_bit = leaf_bits.get(opaque)
            if leaf_bit is not None:
                mask |= 1 << leaf_bit
            else:
                mask |= 1 << intern(opaque)
        masks.append(mask)
    return masks


def _cancel_mod2(rows: "Any", xp: "Any" = None) -> "Any":
    """Drop rows of even multiplicity (the GF(2) cancellation).

    Lexsort groups equal rows; run lengths come from the boundary
    mask; odd-length runs keep one representative.  All C (or device
    kernel) passes — the body is written against the numpy/cupy
    shared surface and runs wherever ``rows`` lives.
    """
    xp = _np if xp is None else xp
    if rows.shape[0] < 2:
        return rows
    order = xp.lexsort(rows.T)
    ordered = rows[order]
    boundary = xp.empty(ordered.shape[0], dtype=bool)
    boundary[0] = True
    boundary[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    starts = xp.flatnonzero(boundary)
    ends = xp.concatenate(
        [starts[1:], xp.asarray([ordered.shape[0]], dtype=starts.dtype)]
    )
    lengths = ends - starts
    return ordered[starts[(lengths & 1).astype(bool)]]


def _row_keys(rows: "Any") -> "Any":
    """Rows as fixed-width byte strings sorting like the lexsort.

    ``_cancel_mod2`` leaves matrices in ``lexsort(rows.T)`` order —
    the *last* column is the primary key — so reversing the columns
    and storing each word big-endian yields byte strings whose
    bytewise comparison reproduces that order exactly (and whose
    equality is exact row equality).  These keys make the sorted
    remainder binary-searchable for the incremental merge, and give
    the out-of-core k-way merge its comparison order.  Host-only:
    cupy has no fixed-width byte dtype.
    """
    swapped = _np.ascontiguousarray(rows[:, ::-1]).astype(">u8")
    return _np.frombuffer(
        swapped.tobytes(), dtype=f"S{8 * rows.shape[1]}"
    )


def _merge_sorted(base: "Any", fresh: "Any") -> "Any":
    """GF(2)-add a small cancelled slice into a sorted remainder.

    Both inputs are sorted and internally duplicate-free (``base`` is
    a cancelled matrix or a subset of one; ``fresh`` went through
    :func:`_cancel_mod2`).  Rows present in both carry even total
    multiplicity and cancel; the rest interleave by binary-searched
    positions — O(base) memcpy plus O(fresh·log base) search instead
    of a full lexsort over everything.  Host-only (byte keys).
    """
    base_keys = _row_keys(base)
    fresh_keys = _row_keys(fresh)
    pos = base_keys.searchsorted(fresh_keys)
    hit = pos < base_keys.shape[0]
    dup = _np.zeros(fresh.shape[0], dtype=bool)
    dup[hit] = base_keys[pos[hit]] == fresh_keys[hit]
    if dup.any():
        keep = _np.ones(base.shape[0], dtype=bool)
        keep[pos[dup]] = False
        base = base[keep]
        fresh = fresh[~dup]
        if not fresh.shape[0]:
            return base
        base_keys = base_keys[keep]
        pos = base_keys.searchsorted(_row_keys(fresh))
    return _np.insert(base, pos, fresh, axis=0)


def _combine(
    current: "Any",
    fresh: "Any",
    xp: "Any" = None,
    byte_keys: bool = True,
) -> "Any":
    """Cancel freshly produced rows into a sorted, cancelled matrix.

    Dispatches between the full lexsort and the incremental merge on
    the :data:`_MERGE_FRACTION` crossover; either way the result is
    sorted again, preserving the invariant every substitution step
    relies on.  ``byte_keys=False`` (device backends) always takes
    the full lexsort — the merge's binary-searched byte keys are a
    host-side construct, and the GPU's radix sort is the fast path
    there anyway.
    """
    xp = _np if xp is None else xp
    if not fresh.shape[0]:
        return current
    if (
        not byte_keys
        or current.shape[0] < _MERGE_MIN_ROWS
        or fresh.shape[0] >= _MERGE_FRACTION * current.shape[0]
    ):
        return _cancel_mod2(xp.concatenate([current, fresh]), xp)
    return _merge_sorted(current, _cancel_mod2(fresh))


def _or_mask_int(rows: "Any", xp: "Any" = None) -> int:
    """OR-reduce rows into one python int bitmask (the live image).

    numpy takes the single-pass ufunc reduce; other backends take a
    logarithmic fold (cupy does not expose ``ufunc.reduce`` for the
    bitwise family).  The result is a host ``int`` either way — the
    claim scan walks it bit by bit.
    """
    xp = _np if xp is None else xp
    if not rows.shape[0]:
        return 0
    if xp is _np:
        image = _np.bitwise_or.reduce(rows, axis=0)
    else:
        image = rows
        while image.shape[0] > 1:
            half = (image.shape[0] + 1) // 2
            head = image[:half].copy()
            tail = image[half:]
            head[: tail.shape[0]] |= tail
            image = head
        image = image[0]
    mask = 0
    for word, value in enumerate(image.tolist()):
        mask |= int(value) << (word * _WORD_BITS)
    return mask


def _widen_rows(rows: "Any", words: int, grown: int, xp: "Any" = None) -> "Any":
    """Grow a tagged matrix's mask region from ``words`` to ``grown``.

    Fresh (all-zero) mask words slot in *before* the tag column; zero
    keys tie everywhere, so sortedness and the per-cone grouping both
    survive the widening.
    """
    xp = _np if xp is None else xp
    return xp.hstack(
        [
            rows[:, :words],
            xp.zeros((rows.shape[0], grown - words), dtype=xp.uint64),
            rows[:, words:],
        ]
    )


class _Shard:
    """One spilled tag-range chunk of the fused matrix.

    ``or_mask`` is the OR image of the shard's mask words (tag
    excluded) — the spilled round's liveness test without touching
    disk; ``counts`` the per-tag row counts (zero outside the shard's
    range).  Shards partition the tag space, so summing either across
    shards is exact.
    """

    __slots__ = ("file", "or_mask", "counts")

    def __init__(self, file: "_spill.RowFile", or_mask: int, counts: "Any"):
        self.file = file
        self.or_mask = or_mask
        self.counts = counts


def _write_shards(
    rows: "Any",
    n_roots: int,
    shard_budget: int,
    directory: "_spill.SpillDir",
) -> List[_Shard]:
    """Tile a sorted tagged matrix into on-disk tag-range shards.

    Cuts happen only at tag boundaries (cancellation closure), packed
    greedily up to ``shard_budget`` bytes; a single cone whose slice
    alone exceeds the budget gets an oversized shard of its own — the
    budget must exceed the largest single cone's working set, which
    the README documents as the knob's floor.  ``rows`` may be a
    memmap; blocks stream through bounded host copies.
    """
    tags = _np.asarray(rows[:, -1], dtype=_np.uint64)
    bounds = tags.searchsorted(_np.arange(n_roots + 1, dtype=_np.uint64))
    row_bytes = rows.shape[1] * 8
    cuts = [0]
    pending = 0
    for tag in range(n_roots):
        segment = int(bounds[tag + 1] - bounds[tag])
        if pending and (pending + segment) * row_bytes > shard_budget:
            cuts.append(int(bounds[tag]))
            pending = 0
        pending += segment
    total = int(rows.shape[0])
    if cuts[-1] != total:
        cuts.append(total)
    shards: List[_Shard] = []
    for start, end in zip(cuts, cuts[1:]):
        if end == start:
            continue
        spilled = _spill.RowFile(
            directory.next_file("shard"), rows.shape[1]
        )
        or_mask = 0
        for block_start in range(start, end, _spill.MERGE_BLOCK_ROWS):
            block_end = min(block_start + _spill.MERGE_BLOCK_ROWS, end)
            block = _np.asarray(
                rows[block_start:block_end], dtype=_np.uint64
            )
            spilled.append(block)
            or_mask |= _or_mask_int(block[:, :-1])
        spilled.close()
        counts = _np.diff(_np.clip(bounds, start, end)).astype(_np.int64)
        shards.append(_Shard(spilled, or_mask, counts))
    return shards


def _load_shards(shards: List[_Shard], words: int) -> "Any":
    """Concatenate shards back into one in-core matrix (and delete).

    Shards are stored in tag order and each is internally sorted with
    the tag as primary key, so the concatenation is already in global
    lexsort order — no re-cancellation needed.
    """
    parts: List[Any] = []
    for shard in shards:
        loaded = _np.array(shard.file.open(), dtype=_np.uint64)
        if loaded.shape[1] < words + 1:
            loaded = _widen_rows(loaded, loaded.shape[1] - 1, words)
        if loaded.shape[0]:
            parts.append(loaded)
        shard.file.delete()
    if not parts:
        return _np.zeros((0, words + 1), dtype=_np.uint64)
    return _np.concatenate(parts)


class _MatrixExpression(PackedExpression):
    """A :class:`PackedExpression` whose mask set materializes lazily.

    The fused sweep ends with every cone's monomials as rows of one
    matrix; converting rows to python ``int`` masks is the single
    biggest per-cone cost left after vectorization, and extract-only
    flows may never need some cones decoded at all.  This subclass
    keeps the cone's row slice and builds the ``set[int]`` on first
    access (membership tests, equality, decode), after which it
    behaves exactly like its parent.
    """

    __slots__ = ("_rows", "_masks")

    def __init__(self, rows: "Any", interner: SignalInterner):
        self._rows = rows
        self._masks = None
        self.interner = interner

    @property
    def masks(self):  # shadows the parent's slot descriptor
        masks = self._masks
        if masks is None:
            masks = _rows_to_masks(self._rows)
            self._masks = masks
            self._rows = None  # the matrix slice is no longer needed
        return masks

    def term_count(self) -> int:
        rows = self._rows
        if rows is not None:
            return int(rows.shape[0])
        return len(self._masks)


class VectorEngine(AigEngine):
    """Backward rewriting over numpy uint64 bit-matrix polynomials.

    Subclasses :class:`~repro.engine.aig.AigEngine` for everything
    *around* the loop — the compiled program (and therefore the
    ``aig`` compiled-cache key), the flat fast path, the residue
    check, trace formatting — and replaces the per-monomial python
    loop with the vectorized substitution described in the module
    docstring.
    """

    name = "vector"

    def __init__(self) -> None:
        super().__init__()
        # Fused-sweep state (shared interning tables + packed model
        # matrices), keyed weakly by compiled program: the tables are
        # append-only and root-set independent, so sweeps over any
        # output subset — a checkpointed campaign's chunks included —
        # share one growing state and each model is packed once ever
        # per program.
        self._fused_state: "WeakKeyDictionary[Any, Dict[str, Any]]" = (
            WeakKeyDictionary()
        )

    @classmethod
    def availability(cls) -> Optional[str]:
        """Why this backend is unusable, or ``None`` when it works.

        The registry records this probe and surfaces the reason, so a
        request for an unusable engine fails actionably.
        """
        return _xp.numpy_unavailable_reason()

    @classmethod
    def available(cls) -> bool:
        """Whether the backend is usable (``availability() is None``)."""
        return cls.availability() is None

    def _sweep_backend(self, budget: Optional[int]) -> "_xp.ArrayBackend":
        """The array backend the fused sweep runs on (host here).

        Subclasses override: the ``cuda`` engine returns the cupy
        backend — except under a byte budget, where spilling (host-
        only by construction) is the documented fallback.
        """
        return _xp.numpy_backend()

    def rewrite_cone(
        self,
        netlist: Netlist,
        output: str,
        trace: bool = False,
        term_limit: Optional[int] = None,
        compile_cache: Optional[Any] = None,
    ) -> Tuple[PackedExpression, RewriteStats]:
        if _np is None:
            raise EngineError(
                "the vector engine needs numpy, which is not installed; "
                "use engine='aig' or 'bitpack' instead"
            )
        with cone_span(self, output) as span:
            expression, stats = self._rewrite_cone_matrix(
                netlist, output, trace, term_limit, compile_cache
            )
            span.annotate(
                iterations=stats.iterations, peak_terms=stats.peak_terms
            )
            stats.runtime_s = span.elapsed()
            return expression, stats

    def _rewrite_cone_matrix(
        self,
        netlist: Netlist,
        output: str,
        trace: bool,
        term_limit: Optional[int],
        compile_cache: Optional[Any],
    ) -> Tuple[PackedExpression, RewriteStats]:
        stats = RewriteStats(output=output)

        compiled = self._compiled_for(netlist, compile_cache)
        literal = compiled.net_literal.get(output)
        if literal is None:
            return super().rewrite_cone(
                netlist, output, trace=trace, term_limit=term_limit
            )  # raises the shared dangling-variable failure
        node = literal >> 1
        complemented = literal & 1

        flat = compiled.flats.get(node)
        if flat is not None:
            # Flat fast path — already a packed PI-space answer; no
            # matrix needed (identical to the aig engine's path).
            return super().rewrite_cone(
                netlist,
                output,
                trace=trace,
                term_limit=term_limit,
                compile_cache=compile_cache,
            )

        # Cone-local interning: shared leaf region + one bit per
        # opaque node, exactly as the aig engine assigns them.
        sig_index: Dict[str, int] = dict(compiled.leaf_index)
        sig_names: List[str] = list(compiled.leaf_names)
        index_of_node: Dict[int, int] = {}
        pending: List[Tuple[int, int]] = []

        def intern_node(opaque: int) -> int:
            index = index_of_node.get(opaque)
            if index is None:
                index = len(sig_names)
                index_of_node[opaque] = index
                sig_index[f"__aig{opaque}"] = index
                sig_names.append(f"__aig{opaque}")
            return index

        def intern_scheduled(opaque: int) -> int:
            # First sight also enters the worklist: the new variable's
            # own substitution is still pending.
            index = index_of_node.get(opaque)
            if index is None:
                index = intern_node(opaque)
                heappush(pending, (-opaque, index))
            return index

        out_index = intern_node(node)
        heappush(pending, (-node, out_index))

        words = (len(sig_names) // _WORD_BITS) + 2  # headroom for interning
        initial = [1 << out_index]
        if complemented:
            initial.append(0)
        # Cancelled matrices are sorted; establishing the invariant up
        # front lets every step use the incremental merge path.
        matrix = _cancel_mod2(_mask_rows(initial, words))

        iterations = 0
        touched = 0
        eliminated_total = 0
        peak_terms = matrix.shape[0]

        model_of = compiled.model_of
        leaf_bits = compiled.leaf_bits

        while pending:
            neg_node, var_index = heappop(pending)
            touched += 1

            # Pack the cut model first: interning may allocate new bit
            # indices (and grow the matrix width) before the bit-test.
            model_masks = _pack_model(
                model_of(-neg_node), leaf_bits, intern_scheduled
            )
            needed = (len(sig_names) + _WORD_BITS - 1) // _WORD_BITS
            if needed > words:
                grown = needed + 1
                matrix = _np.hstack(
                    [
                        matrix,
                        _np.zeros(
                            (matrix.shape[0], grown - words),
                            dtype=_np.uint64,
                        ),
                    ]
                )
                words = grown

            # The vectorized occurrence test: one bit probe per row.
            word, bit = divmod(var_index, _WORD_BITS)
            selector = (
                (matrix[:, word] >> _np.uint64(bit)) & _np.uint64(1)
            ).astype(bool)
            if not selector.any():
                # Variable cancelled away before its node was reached
                # (Algorithm 1 line 4 skip).
                continue

            affected = matrix[selector]  # boolean indexing copies
            current = matrix[~selector]
            affected[:, word] &= _np.uint64(_WORD_MASK ^ (1 << bit))
            model_rows = _mask_rows(model_masks, words)

            produced = int(current.shape[0])
            chunk = max(1, _CHUNK_ROWS // max(1, model_rows.shape[0]))
            for start in range(0, affected.shape[0], chunk):
                part = affected[start : start + chunk]
                products = (
                    part[:, None, :] | model_rows[None, :, :]
                ).reshape(-1, words)
                produced += int(products.shape[0])
                current = _combine(current, products)
                if current.shape[0] > peak_terms:
                    peak_terms = int(current.shape[0])
                    if term_limit is not None and peak_terms > term_limit:
                        stats.iterations = iterations
                        stats.cone_gates = touched
                        stats.eliminated_monomials = eliminated_total
                        stats.peak_terms = peak_terms
                        raise TermLimitExceeded(
                            output, peak_terms, term_limit
                        )
            matrix = current
            step_eliminated = produced - int(matrix.shape[0])

            iterations += 1
            eliminated_total += step_eliminated
            if trace:
                interner = SignalInterner(list(sig_names))
                decoded = Gf2Poly.from_monomials(
                    {
                        interner.unpack(mono)
                        for mono in _rows_to_masks(matrix)
                    }
                )
                stats.trace.append(
                    TraceStep(
                        gate=self._describe_node(compiled, -neg_node),
                        expression=str(decoded),
                        eliminated=f"{step_eliminated} monomials cancelled",
                    )
                )

        masks = _rows_to_masks(matrix)
        self._check_residue(compiled, netlist, output, masks)
        interner = SignalInterner.adopt(sig_index, sig_names)

        stats.iterations = iterations
        stats.cone_gates = touched
        stats.eliminated_monomials = eliminated_total
        stats.peak_terms = peak_terms
        stats.final_terms = len(masks)
        return PackedExpression(masks, interner), stats

    # -- fused multi-output sweep ---------------------------------------

    def rewrite_cones(
        self,
        netlist: Netlist,
        outputs: Iterable[str],
        term_limit: Optional[int] = None,
        compile_cache: Optional[Any] = None,
        max_bytes: Optional[int] = None,
    ) -> Dict[str, Tuple[PackedExpression, RewriteStats]]:
        """All requested cones in one fused substitution sweep.

        Flat outputs take the same fast path the per-bit engines use;
        the rest share one output-tagged bit-matrix (see the module
        docstring).  ``max_bytes`` (or ``REPRO_SWEEP_MAX_BYTES``)
        caps the live matrix: past half the budget the sweep goes
        out of core and streams rounds over on-disk tag-range shards.
        Expressions are bit-identical to the per-bit
        sweep; per-cone statistics are round-based and each cone's
        ``runtime_s`` is its attributed slice of the shared sweep:
        round time proportional to the rows the cone claimed, plus an
        equal share of the out-of-round overhead — the per-bit series
        sums to the sweep's wall clock.
        """
        if _np is None:
            raise EngineError(
                "the vector engine needs numpy, which is not installed; "
                "use engine='aig' or 'bitpack' instead "
                "(or fused=False for the per-bit path)"
            )
        budget = _spill.resolve_sweep_budget(max_bytes)
        backend = self._sweep_backend(budget)
        if budget is not None and backend.is_device:
            raise EngineError(
                "a sweep byte budget requires the host spill path; "
                f"the {backend.name} backend cannot honour max_bytes"
            )
        chosen = list(outputs)
        compiled = self._compiled_for(netlist, compile_cache)
        results: Dict[str, Tuple[PackedExpression, RewriteStats]] = {}
        roots: List[Tuple[str, int, int]] = []
        for output in chosen:
            literal = compiled.net_literal.get(output)
            if literal is None or literal >> 1 in compiled.flats:
                # Flat fast path — identical to the per-bit engines,
                # which also report unknown nets and rewrite nets that
                # no output reads.
                results[output] = super().rewrite_cone(
                    netlist,
                    output,
                    term_limit=term_limit,
                    compile_cache=compile_cache,
                )
            else:
                roots.append((output, literal >> 1, literal & 1))
        if roots:
            with _telemetry.current().span(
                "sweep",
                engine=self.name,
                roots=len(roots),
                backend=backend.name,
                max_bytes=budget,
            ):
                results.update(
                    self._rewrite_fused(
                        netlist, compiled, roots, term_limit, backend, budget
                    )
                )
        return {output: results[output] for output in chosen}

    def _rewrite_fused(
        self,
        netlist: Netlist,
        compiled: Any,
        roots: List[Tuple[str, int, int]],
        term_limit: Optional[int],
        backend: "_xp.ArrayBackend",
        budget: Optional[int],
    ) -> Dict[str, Tuple[PackedExpression, RewriteStats]]:
        """The shared sweep over every non-flat root.

        Row layout: the monomial mask words first (same bit indices
        the per-bit sweep would assign, shared across cones), the
        owning output's tag as the final word — the lexsort's primary
        key, so cancellation groups per cone and the finished matrix
        needs no regrouping.  Each *round* claims, per row,
        the highest pending variable it holds — reverse-topological
        order applied row-wise — substitutes every claimed group with
        one broadcast, and cancels the whole matrix once; the sort
        keys include the tag word, so cancellation never crosses a
        cone boundary (Theorem 2).

        Array ops dispatch through ``backend`` (numpy or cupy); under
        a byte ``budget`` the matrix spills to tag-range shards and
        rounds stream shard by shard (module docstring, "Past the
        memory wall").
        """
        started = time.perf_counter()
        n_roots = len(roots)
        xp = backend.xp
        byte_keys = backend.supports_byte_keys

        # Shared interning: one leaf region and one bit per opaque
        # node for *all* cones — the per-bit sweep re-interns these
        # per cone; decode only depends on names, not bit positions.
        # The tables live per compiled *program* and are append-only,
        # so every sweep over the same program — including the
        # sweep-chunks a checkpointed campaign splits into — reuses
        # the bits and packed models of everything already seen:
        # each cut model is packed once ever per program.  Indices
        # never move, so interners adopted by earlier sweeps' results
        # stay valid, and variables interned for another chunk's
        # cones are simply never live in this matrix.
        state = self._fused_state.get(compiled)
        if state is None:
            state = {
                "sig_index": dict(compiled.leaf_index),
                "sig_names": list(compiled.leaf_names),
                "index_of_node": {},
                "packed_models": {},
                "tables": {},
            }
            self._fused_state[compiled] = state
        sig_index: Dict[str, int] = state["sig_index"]
        sig_names: List[str] = state["sig_names"]
        index_of_node: Dict[int, int] = state["index_of_node"]

        def intern_node(opaque: int) -> int:
            index = index_of_node.get(opaque)
            if index is None:
                index = len(sig_names)
                index_of_node[opaque] = index
                sig_index[f"__aig{opaque}"] = index
                sig_names.append(f"__aig{opaque}")
            return index

        initial_masks: List[int] = []
        initial_tags: List[int] = []
        for tag, (_output, node, complemented) in enumerate(roots):
            bit = intern_node(node)
            initial_masks.append(1 << bit)
            initial_tags.append(tag)
            if complemented:
                initial_masks.append(0)
                initial_tags.append(tag)

        # Row layout: mask words first, the output tag as the *last*
        # word.  ``lexsort`` keys on the last column first, so every
        # cancelled matrix comes out grouped by cone — cancellation
        # stays per-(tag, monomial) and the final per-cone slicing
        # needs no extra sort.
        words = (len(sig_names) // _WORD_BITS) + 2  # interning headroom
        seed = _np.zeros((len(initial_masks), words + 1), dtype=_np.uint64)
        seed[:, :words] = _mask_rows(initial_masks, words)
        seed[:, words] = initial_tags
        # establish the sorted invariant (on the sweep's backend)
        matrix = _cancel_mod2(backend.asarray(seed), xp)

        def counts_of(rows: "Any") -> "Any":
            if not rows.shape[0]:
                return xp.zeros(n_roots, dtype=xp.int64)
            return xp.bincount(
                rows[:, -1].astype(xp.int64), minlength=n_roots
            )

        iterations = [0] * n_roots   # rounds that touched the cone
        substituted = [0] * n_roots  # (round, variable) pairs per cone
        eliminated = [0] * n_roots
        peaks = _np.maximum(
            backend.to_host(counts_of(matrix)).astype(_np.int64), 1
        )

        model_of = compiled.model_of
        leaf_bits = compiled.leaf_bits
        packed_models: Dict[int, List[int]] = state["packed_models"]
        model_tables: Dict[Any, Tuple[int, Any]] = state["tables"]

        def table_of(var_index: int) -> "Any":
            """The variable's model as matrix rows (cached per width).

            The cache key carries the backend name: a budgeted sweep
            on a device engine falls back to the host path, and host
            and device tables must never mix.
            """
            key = (backend.name, var_index)
            entry = model_tables.get(key)
            if entry is not None and entry[0] == words:
                return entry[1]
            model_masks = packed_models[var_index]
            host_table = _np.zeros(
                (len(model_masks), words + 1), dtype=_np.uint64
            )
            host_table[:, :words] = _mask_rows(model_masks, words)
            table = (
                backend.asarray(host_table)
                if backend.is_device
                else host_table
            )
            model_tables[key] = (words, table)
            return table

        one = xp.uint64(1)
        leaf_count = len(compiled.leaf_names)
        survivors = 0  # leaf bits left standing when the sweep ends
        telemetry = _telemetry.current()
        round_index = 0
        # Per-cone wall-clock attribution: each round's time is split
        # over cones in proportion to the rows they had claimed, so the
        # per-bit ``runtime_s`` series is informative (not a flat
        # average) and still sums to the sweep's wall clock.
        tag_seconds = [0.0] * n_roots
        accounted = 0.0
        spill_dir: Optional[_spill.SpillDir] = None
        shards: Optional[List[_Shard]] = None
        shard_budget = max(1, budget // 4) if budget is not None else 0

        def claim_items(live_mask: int) -> List[Tuple[int, int]]:
            """Live (node, bit) pairs, highest node id first.

            Ascending AIG id is topological order, so this is the
            reverse-topological substitution order applied row-wise;
            a row's *first* hit in this order is the variable it
            claims this round.
            """
            return sorted(
                (
                    item
                    for item in index_of_node.items()
                    if (live_mask >> item[1]) & 1
                ),
                key=lambda item: -item[0],
            )

        def note_claims(group_of_h: "Any", claim_tags_h: "Any") -> None:
            """Per-cone round bookkeeping (host arrays).

            Tags are disjoint across shards — each cone lives in
            exactly one — so calling this once per shard never
            double-counts a (round, variable, cone) triple.
            """
            for pair in _np.unique(
                group_of_h * n_roots + claim_tags_h
            ).tolist():
                substituted[int(pair) % n_roots] += 1
            for tag in _np.unique(claim_tags_h).tolist():
                iterations[int(tag)] += 1

        try:
            while True:
                if shards is None:
                    # ---- in-core mode -------------------------------
                    if not matrix.shape[0]:
                        break
                    # One OR-reduce answers "does any pending variable
                    # survive anywhere" — the common exit — and doubles
                    # as the residue image of the finished matrix.
                    live_mask = _or_mask_int(matrix[:, :-1], xp)
                    if not live_mask >> leaf_count:
                        survivors = live_mask
                        break  # only leaf bits remain anywhere
                    if (
                        budget is not None
                        and int(matrix.nbytes) > budget // 2
                    ):
                        # Past half the budget: tile the matrix into
                        # tag-range shards and go out of core.  The
                        # other half of the budget stays free for the
                        # spilled rounds' shard + accumulator.
                        with telemetry.span(
                            "sweep.spill", round=round_index
                        ) as spill_span:
                            if spill_dir is None:
                                spill_dir = _spill.SpillDir()
                            host = backend.to_host(matrix)
                            spilled_bytes = int(host.nbytes)
                            shards = _write_shards(
                                host, n_roots, shard_budget, spill_dir
                            )
                            spill_span.annotate(
                                bytes=spilled_bytes, chunks=len(shards)
                            )
                        telemetry.counter(
                            "sweep.spilled_bytes", spilled_bytes
                        )
                        matrix = None
                        continue
                    telemetry.gauge(
                        "sweep.resident_bytes", int(matrix.nbytes)
                    )

                    round_span = telemetry.span(
                        "sweep.round",
                        round=round_index,
                        rows=int(matrix.shape[0]),
                    )
                    round_span.__enter__()

                    # Claim, per row, the highest pending variable it
                    # holds.  One gather + shift answers every
                    # (row, variable) pair, restricted to the variables
                    # the OR image proved live.
                    var_items = claim_items(live_mask)
                    var_bits = _np.fromiter(
                        (index for _, index in var_items),
                        dtype=_np.int64,
                        count=len(var_items),
                    )
                    var_cols_h = var_bits // _WORD_BITS
                    var_shift_h = (var_bits % _WORD_BITS).astype(_np.uint64)
                    strip_h = _np.uint64(_WORD_MASK) ^ (
                        _np.uint64(1) << var_shift_h
                    )
                    var_cols = xp.asarray(var_cols_h)
                    var_shift = xp.asarray(var_shift_h)
                    strip = xp.asarray(strip_h)
                    presence = (
                        (matrix[:, var_cols] >> var_shift[None, :]) & one
                    ).astype(bool)
                    has_var = presence.any(axis=1)
                    first = presence.argmax(axis=1)  # highest id per row

                    # Pack every claimed model first: interning may
                    # allocate fresh bits (new opaque nodes join later
                    # rounds) and the matrix must be widened before any
                    # row is combined.
                    group_of = first[has_var]
                    used_groups = xp.unique(group_of).tolist()
                    for group in used_groups:
                        node, var_index = var_items[int(group)]
                        if var_index in packed_models:
                            continue
                        # A node interned here (no scheduling hook
                        # needed) simply joins a later round's scan.
                        packed_models[var_index] = _pack_model(
                            model_of(node), leaf_bits, intern_node
                        )
                    needed = (
                        len(sig_names) + _WORD_BITS - 1
                    ) // _WORD_BITS
                    if needed > words:
                        grown = needed + 1
                        matrix = _widen_rows(matrix, words, grown, xp)
                        words = grown

                    # One concatenated model table for the round, plus
                    # offsets, so the substitution below is a single
                    # repeat + gather.
                    model_offset_h = _np.zeros(
                        len(var_items), dtype=_np.int64
                    )
                    model_count_h = _np.zeros(
                        len(var_items), dtype=_np.int64
                    )
                    tables: List[Any] = []
                    offset = 0
                    for group in used_groups:
                        _node, var_index = var_items[int(group)]
                        table = table_of(var_index)
                        tables.append(table)
                        model_offset_h[int(group)] = offset
                        model_count_h[int(group)] = table.shape[0]
                        offset += int(table.shape[0])
                    models = xp.concatenate(tables)
                    model_offset = xp.asarray(model_offset_h)
                    model_count = xp.asarray(model_count_h)

                    claimed = matrix[has_var]  # boolean indexing copies
                    current = matrix[~has_var]  # sorted stays sorted
                    claimed[
                        xp.arange(claimed.shape[0]), var_cols[group_of]
                    ] &= strip[group_of]

                    # Per-cone bookkeeping before the rows multiply.
                    claim_tags = claimed[:, -1].astype(xp.int64)
                    prior = counts_of(current)
                    rep = model_count[group_of]
                    produced = xp.bincount(
                        claim_tags, weights=rep, minlength=n_roots
                    ).astype(xp.int64)
                    note_claims(
                        backend.to_host(group_of),
                        backend.to_host(claim_tags),
                    )

                    # Substitute in chunks: row i expands to its
                    # group's model rows (repeat + gather), the OR
                    # multiplies, and each chunk cancels immediately so
                    # the transient stays bounded.
                    cum = xp.concatenate(
                        [
                            xp.zeros(1, dtype=xp.int64),
                            xp.cumsum(rep).astype(xp.int64),
                        ]
                    )
                    start = 0
                    while start < claimed.shape[0]:
                        end = int(
                            xp.searchsorted(
                                cum,
                                int(cum[start]) + _CHUNK_ROWS,
                                side="left",
                            )
                        )
                        end = max(end - 1, start + 1)
                        rep_part = rep[start:end]
                        with telemetry.span(
                            "substitute",
                            round=round_index,
                            rows=int(end - start),
                        ):
                            left = xp.repeat(
                                claimed[start:end], rep_part, axis=0
                            )
                            part_cum = xp.concatenate(
                                [
                                    xp.zeros(1, dtype=xp.int64),
                                    xp.cumsum(rep_part).astype(xp.int64),
                                ]
                            )
                            within = (
                                xp.arange(
                                    int(part_cum[-1]), dtype=xp.int64
                                )
                                - xp.repeat(part_cum[:-1], rep_part)
                            )
                            right = models[
                                xp.repeat(
                                    model_offset[group_of[start:end]],
                                    rep_part,
                                )
                                + within
                            ]
                            products = left | right
                        with telemetry.span(
                            "cancel",
                            round=round_index,
                            rows=int(products.shape[0]),
                        ):
                            current = _combine(
                                current, products, xp, byte_keys
                            )
                        counts = counts_of(current)
                        counts_h = backend.to_host(counts).astype(
                            _np.int64
                        )
                        _np.maximum(peaks, counts_h, out=peaks)
                        if term_limit is not None:
                            worst = int(counts_h.argmax())
                            if counts_h[worst] > term_limit:
                                raise TermLimitExceeded(
                                    roots[worst][0],
                                    int(counts_h[worst]),
                                    term_limit,
                                )
                        start = end
                    matrix = current
                    gone = backend.to_host(
                        prior + produced - counts_of(matrix)
                    )
                    for tag in range(n_roots):
                        eliminated[tag] += int(gone[tag])

                    round_span.annotate(
                        claimed=int(claimed.shape[0]),
                        produced=int(backend.to_host(produced).sum()),
                        terms=int(matrix.shape[0]),
                    )
                    round_span.__exit__(None, None, None)
                    device_bytes = backend.device_bytes()
                    if device_bytes is not None:
                        telemetry.gauge("sweep.device_bytes", device_bytes)
                    round_wall = round_span.wall_s
                    accounted += round_wall
                    claims_h = backend.to_host(
                        xp.bincount(claim_tags, minlength=n_roots)
                    )
                    total_claims = int(claims_h.sum())
                    if total_claims:
                        shares = claims_h * (round_wall / total_claims)
                        for tag in range(n_roots):
                            tag_seconds[tag] += float(shares[tag])
                    round_index += 1
                    continue

                # ---- spilled (out-of-core) mode ---------------------
                live_mask = 0
                for shard in shards:
                    live_mask |= shard.or_mask
                if not live_mask >> leaf_count:
                    survivors = live_mask
                    break

                rows_total = sum(
                    shard.file.rows for shard in shards
                )
                round_span = telemetry.span(
                    "sweep.round",
                    round=round_index,
                    rows=rows_total,
                    spilled=True,
                )
                round_span.__enter__()

                var_items = claim_items(live_mask)
                # Pack *every* live model up front: interning settles
                # the row width before any shard loads, so all of the
                # round's shards and runs share one width.  (Models
                # are packed once ever per program either way.)
                for node, var_index in var_items:
                    if var_index not in packed_models:
                        packed_models[var_index] = _pack_model(
                            model_of(node), leaf_bits, intern_node
                        )
                needed = (len(sig_names) + _WORD_BITS - 1) // _WORD_BITS
                if needed > words:
                    words = needed + 1
                var_bits = _np.fromiter(
                    (index for _, index in var_items),
                    dtype=_np.int64,
                    count=len(var_items),
                )
                var_cols = var_bits // _WORD_BITS
                var_shift = (var_bits % _WORD_BITS).astype(_np.uint64)
                strip = _np.uint64(_WORD_MASK) ^ (
                    _np.uint64(1) << var_shift
                )
                one_h = _np.uint64(1)

                claimed_round = 0
                produced_round = 0
                resident_peak = 0
                claims_round = _np.zeros(n_roots, dtype=_np.int64)
                new_shards: List[_Shard] = []
                for shard in shards:
                    if not shard.or_mask >> leaf_count:
                        # Every cone in this shard already finished;
                        # its rows stay untouched on disk.
                        new_shards.append(shard)
                        continue
                    loaded = _np.array(
                        shard.file.open(), dtype=_np.uint64
                    )
                    if loaded.shape[1] < words + 1:
                        loaded = _widen_rows(
                            loaded, loaded.shape[1] - 1, words
                        )
                    resident_peak = max(
                        resident_peak, int(loaded.nbytes)
                    )
                    presence = (
                        (loaded[:, var_cols] >> var_shift[None, :])
                        & one_h
                    ).astype(bool)
                    has_var = presence.any(axis=1)
                    if not has_var.any():  # pragma: no cover - or_mask
                        new_shards.append(shard)  # proved a claim exists
                        continue
                    first = presence.argmax(axis=1)
                    group_of = first[has_var]
                    claimed = loaded[has_var]
                    rest = loaded[~has_var]
                    del loaded, presence, first, has_var
                    claimed[
                        _np.arange(claimed.shape[0]),
                        var_cols[group_of],
                    ] &= strip[group_of]
                    claim_tags = claimed[:, -1].astype(_np.int64)

                    used_groups = _np.unique(group_of).tolist()
                    model_offset = _np.zeros(
                        len(var_items), dtype=_np.int64
                    )
                    model_count = _np.zeros(
                        len(var_items), dtype=_np.int64
                    )
                    tables = []
                    offset = 0
                    for group in used_groups:
                        _node, var_index = var_items[int(group)]
                        table = table_of(var_index)
                        tables.append(table)
                        model_offset[int(group)] = offset
                        model_count[int(group)] = table.shape[0]
                        offset += int(table.shape[0])
                    models = _np.concatenate(tables)

                    rep = model_count[group_of]
                    produced = _np.bincount(
                        claim_tags, weights=rep, minlength=n_roots
                    ).astype(_np.int64)
                    note_claims(group_of, claim_tags)
                    claimed_round += int(claimed.shape[0])
                    produced_round += int(produced.sum())
                    claims_round += _np.bincount(
                        claim_tags, minlength=n_roots
                    )

                    # Substitute into a bounded accumulator; when it
                    # outgrows its quarter of the budget it flushes to
                    # a sorted run file — the merge below treats runs
                    # and the accumulator identically.
                    acc = _np.zeros((0, words + 1), dtype=_np.uint64)
                    runs: List[_spill.RowFile] = []
                    cum = _np.concatenate(
                        ([0], _np.cumsum(rep))
                    ).astype(_np.int64)
                    start = 0
                    while start < claimed.shape[0]:
                        end = int(
                            _np.searchsorted(
                                cum,
                                cum[start] + _CHUNK_ROWS,
                                side="left",
                            )
                        )
                        end = max(end - 1, start + 1)
                        rep_part = rep[start:end]
                        with telemetry.span(
                            "substitute",
                            round=round_index,
                            rows=int(end - start),
                        ):
                            left = _np.repeat(
                                claimed[start:end], rep_part, axis=0
                            )
                            part_cum = _np.concatenate(
                                ([0], _np.cumsum(rep_part))
                            )
                            within = (
                                _np.arange(
                                    part_cum[-1], dtype=_np.int64
                                )
                                - _np.repeat(part_cum[:-1], rep_part)
                            )
                            right = models[
                                _np.repeat(
                                    model_offset[
                                        group_of[start:end]
                                    ],
                                    rep_part,
                                )
                                + within
                            ]
                            products = left | right
                        with telemetry.span(
                            "cancel",
                            round=round_index,
                            rows=int(products.shape[0]),
                        ):
                            acc = _combine(acc, products)
                        if int(acc.nbytes) > shard_budget:
                            run = _spill.write_rows(
                                spill_dir.next_file("run"), acc
                            )
                            telemetry.counter(
                                "sweep.spilled_bytes", int(acc.nbytes)
                            )
                            runs.append(run)
                            acc = _np.zeros(
                                (0, words + 1), dtype=_np.uint64
                            )
                        start = end
                    resident_peak = max(
                        resident_peak,
                        int(claimed.nbytes)
                        + int(rest.nbytes)
                        + int(acc.nbytes),
                    )
                    del claimed

                    # K-way parity merge of the untouched remainder,
                    # the flushed runs, and the live accumulator back
                    # into one fresh shard — sorted, cancelled, and
                    # counted per tag as it streams.
                    sources: List[Any] = []
                    if rest.shape[0]:
                        sources.append(rest)
                    sources.extend(run.open() for run in runs)
                    if acc.shape[0]:
                        sources.append(acc)
                    merged = _spill.RowFile(
                        spill_dir.next_file("shard"), words + 1
                    )
                    or_mask = 0
                    after = _np.zeros(n_roots, dtype=_np.int64)
                    with telemetry.span(
                        "sweep.merge",
                        round=round_index,
                        runs=len(sources),
                    ) as merge_span:
                        for block in _spill.merge_parity(
                            sources, _row_keys, _cancel_mod2
                        ):
                            merged.append(block)
                            or_mask |= _or_mask_int(block[:, :-1])
                            after += _np.bincount(
                                block[:, -1].astype(_np.int64),
                                minlength=n_roots,
                            )
                        merged.close()
                        merge_span.annotate(
                            rows=merged.rows, bytes=merged.nbytes
                        )
                    shard.file.delete()
                    for run in runs:
                        run.delete()

                    gone = shard.counts + produced - after
                    for tag in range(n_roots):
                        eliminated[tag] += int(gone[tag])
                    _np.maximum(peaks, after, out=peaks)
                    if term_limit is not None:
                        worst = int(after.argmax())
                        if after[worst] > term_limit:
                            raise TermLimitExceeded(
                                roots[worst][0],
                                int(after[worst]),
                                term_limit,
                            )

                    if merged.rows == 0:
                        merged.delete()
                    elif (
                        merged.nbytes > shard_budget
                        and int((after > 0).sum()) > 1
                    ):
                        # The merged shard outgrew its slot and spans
                        # more than one cone: re-tile it so the next
                        # round's residency stays bounded.
                        new_shards.extend(
                            _write_shards(
                                merged.open(),
                                n_roots,
                                shard_budget,
                                spill_dir,
                            )
                        )
                        merged.delete()
                    else:
                        new_shards.append(
                            _Shard(merged, or_mask, after)
                        )
                shards = new_shards

                telemetry.gauge("sweep.resident_bytes", resident_peak)
                round_span.annotate(
                    claimed=claimed_round,
                    produced=produced_round,
                    terms=sum(shard.file.rows for shard in shards),
                )
                round_span.__exit__(None, None, None)
                round_wall = round_span.wall_s
                accounted += round_wall
                total_claims = int(claims_round.sum())
                if total_claims:
                    shares = claims_round * (round_wall / total_claims)
                    for tag in range(n_roots):
                        tag_seconds[tag] += float(shares[tag])
                round_index += 1

                # Shrunk back under half the budget?  Come home: the
                # shards are in tag order and the tag is the primary
                # sort key, so concatenation is already sorted.
                total_bytes = sum(
                    shard.file.nbytes for shard in shards
                )
                if total_bytes <= budget // 2:
                    matrix = _load_shards(shards, words)
                    shards = None

            if shards is not None:
                # The sweep finished out of core; materialize the
                # canonical matrix (the *answer* — small next to the
                # intermediates the budget existed to bound).
                matrix = _load_shards(shards, words)
                shards = None
        finally:
            if spill_dir is not None:
                spill_dir.cleanup()

        # The tag is the sort's primary key, so the cancelled matrix
        # is already grouped by cone: per-cone results are zero-copy
        # slices between searchsorted bounds.  ``survivors`` (the
        # final OR image) makes the residue check O(1) in the common
        # all-declared case; only a genuine leftover walks per cone.
        with telemetry.span(
            "decode", cones=n_roots, rows=int(matrix.shape[0])
        ):
            # The one device→host transfer of the whole sweep.
            matrix = backend.to_host(matrix)
            bounds = _np.searchsorted(
                matrix[:, -1],
                _np.arange(n_roots + 1, dtype=_np.uint64),
            )
            if survivors & compiled.undeclared_bits:
                for tag, (output, _node, _complemented) in enumerate(roots):
                    self._check_residue(
                        compiled,
                        netlist,
                        output,
                        _rows_to_masks(
                            matrix[bounds[tag] : bounds[tag + 1], :-1]
                        ),
                    )

            # Decode boundary, per cone: the interner is shared
            # (read-only from here on) and each cone's rows decode
            # lazily — a caller that never reads an expression never
            # pays its conversion.
            interner = SignalInterner.adopt(sig_index, sig_names)

        # Round time was attributed by claimed rows above; the
        # out-of-round overhead (setup, claim scans, decode) is shared
        # equally, so the per-bit series still sums to the sweep wall.
        residual = max(
            0.0, time.perf_counter() - started - accounted
        ) / n_roots
        results: Dict[str, Tuple[PackedExpression, RewriteStats]] = {}
        for tag, (output, _node, _complemented) in enumerate(roots):
            rows = matrix[bounds[tag] : bounds[tag + 1], :-1]
            stats = RewriteStats(output=output)
            stats.iterations = iterations[tag]
            stats.cone_gates = substituted[tag]
            stats.eliminated_monomials = eliminated[tag]
            stats.peak_terms = int(peaks[tag])
            stats.final_terms = int(rows.shape[0])
            stats.runtime_s = tag_seconds[tag] + residual
            results[output] = (_MatrixExpression(rows, interner), stats)
        return results
