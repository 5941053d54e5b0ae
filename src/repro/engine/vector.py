"""Vectorized backward rewriting — polynomials as numpy bit-matrices.

The pure-python backends spend the substitution loop hashing one
python ``int`` at a time; on wide cones the interpreter dispatch, not
the algebra, is the cost.  This backend keeps the *same* compiled
program as the ``aig`` engine (strash → flattening → cut-ANF models,
:class:`repro.engine.aig._CompiledAig`) but runs Algorithm 1's loop for
all outputs at once in numpy:

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

Fused multi-output mode
-----------------------
:meth:`VectorEngine.rewrite_cones` rewrites *all* requested output
cones in one matrix: every row carries an **output tag** in an extra
trailing word (the lexsort's primary key, so cancelled matrices come
out grouped by cone), and one bit-matrix holds every output's
polynomial at once.  The sweep runs in *rounds*: each round claims,
per row, the highest pending (interned, non-leaf) variable present in that row,
substitutes every claimed group with one broadcast each, and cancels
the whole matrix once — the lexsort keys on (tag, monomial), so
cancellation stays strictly per-cone while the walk over the shared
gate DAG, the cut-model lookups and the sorts are amortized over all
m outputs.  Substituting per-row-highest variables first is exactly
the reverse-topological order Algorithm 1 prescribes, applied row by
row; intermediate *statistics* therefore differ from the per-bit
sweep (rounds replace per-gate iterations), but the final expressions
are bit-identical — cancellation is exact mod-2 algebra at every
step, and canonical forms are unique (Theorem 1).  Callers opt in
through ``fused=True`` on the extraction drivers; the per-bit entry
point :meth:`rewrite_cone` is the ``aig`` engine's own loop, results
and statistics alike.

Results are bit-identical to the reference backend (the differential
suite drives all packed engines across the generator zoo); statistics
and the memory-out point are backend-specific, as the engine contract
allows.

numpy is an *optional* dependency: :meth:`VectorEngine.availability`
reports why the backend is unusable (``None`` when it is), the
registry surfaces that reason, and everything else in the package
works without it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from weakref import WeakKeyDictionary

from repro import telemetry as _telemetry
from repro.engine.aig import AigEngine
from repro.engine.base import EngineError
from repro.engine.bitpack import PackedExpression
from repro.engine.interning import SignalInterner
from repro.netlist.netlist import Netlist
from repro.rewrite.backward import RewriteStats, TermLimitExceeded

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


def _mask_rows(masks: List[int], words: int) -> "Any":
    """Python int bitmasks → a ``(len(masks), words)`` uint64 matrix.

    ``int.to_bytes`` writes each mask's little-endian words in one C
    call; ``frombuffer`` reinterprets the joined buffer as the matrix.
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
    through the shared leaf table or intern via ``intern`` — a newly
    interned node simply joins a later round's claim scan.
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


def _cancel_mod2(rows: "Any") -> "Any":
    """Drop rows of even multiplicity (the GF(2) cancellation).

    Lexsort groups equal rows; run lengths come from the boundary
    mask; odd-length runs keep one representative.  All C passes,
    and the result comes out sorted in ``lexsort(rows.T)`` order.
    """
    if rows.shape[0] < 2:
        return rows
    order = _np.lexsort(rows.T)
    ordered = rows[order]
    boundary = _np.empty(ordered.shape[0], dtype=bool)
    boundary[0] = True
    boundary[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    starts = _np.flatnonzero(boundary)
    ends = _np.concatenate(
        [starts[1:], _np.asarray([ordered.shape[0]], dtype=starts.dtype)]
    )
    lengths = ends - starts
    return ordered[starts[(lengths & 1).astype(bool)]]


def _or_mask_int(rows: "Any") -> int:
    """OR-reduce rows into one python int bitmask (the live image).

    The claim scan walks the result bit by bit.
    """
    if not rows.shape[0]:
        return 0
    image = _np.bitwise_or.reduce(rows, axis=0)
    mask = 0
    for word, value in enumerate(image.tolist()):
        mask |= int(value) << (word * _WORD_BITS)
    return mask


def _widen_rows(rows: "Any", words: int, grown: int) -> "Any":
    """Grow a tagged matrix's mask region from ``words`` to ``grown``.

    Fresh (all-zero) mask words slot in *before* the tag column; zero
    keys tie everywhere, so sortedness and the per-cone grouping both
    survive the widening.
    """
    return _np.hstack(
        [
            rows[:, :words],
            _np.zeros((rows.shape[0], grown - words), dtype=_np.uint64),
            rows[:, words:],
        ]
    )


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
    """The ``aig`` engine plus a fused sweep over numpy bit-matrices.

    Subclasses :class:`~repro.engine.aig.AigEngine` for everything
    *around* the fused sweep — the compiled program, the flat fast
    path, the residue check — and for the per-bit
    :meth:`rewrite_cone` loop itself; it adds the vectorized
    multi-output substitution described in the module docstring.
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
        if _np is None:
            return (
                "numpy is not installed; "
                "use engine='aig' or 'bitpack' instead"
            )
        return None

    @classmethod
    def available(cls) -> bool:
        """Whether the backend is usable (``availability() is None``)."""
        return cls.availability() is None

    # -- fused multi-output sweep ---------------------------------------

    def rewrite_cones(
        self,
        netlist: Netlist,
        outputs: Iterable[str],
        term_limit: Optional[int] = None,
    ) -> Dict[str, Tuple[PackedExpression, RewriteStats]]:
        """All requested cones in one fused substitution sweep.

        Flat outputs take the same fast path the per-bit engines use;
        the rest share one output-tagged bit-matrix (see the module
        docstring).  Expressions are bit-identical to the per-bit
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
        chosen = list(outputs)
        compiled = self._compiled_for(netlist)
        results: Dict[str, Tuple[PackedExpression, RewriteStats]] = {}
        roots: List[Tuple[str, int, int]] = []
        for output in chosen:
            literal = compiled.net_literal.get(output)
            if literal is None or literal >> 1 in compiled.flats:
                # Flat fast path — identical to the per-bit engines,
                # which also report unknown nets and rewrite nets that
                # no output reads.
                results[output] = super().rewrite_cone(
                    netlist, output, term_limit=term_limit
                )
            else:
                roots.append((output, literal >> 1, literal & 1))
        if roots:
            with _telemetry.current().span(
                "sweep", engine=self.name, roots=len(roots)
            ):
                results.update(
                    self._rewrite_fused(netlist, compiled, roots, term_limit)
                )
        return {output: results[output] for output in chosen}

    def _rewrite_fused(
        self,
        netlist: Netlist,
        compiled: Any,
        roots: List[Tuple[str, int, int]],
        term_limit: Optional[int],
    ) -> Dict[str, Tuple[PackedExpression, RewriteStats]]:
        """The shared sweep over every non-flat root.

        Row layout: the monomial mask words first (the aig engine's
        leaf bit indices plus one bit per opaque node, shared across
        cones), the owning output's tag as the final word — the
        lexsort's primary key, so cancellation groups per cone and the
        finished matrix needs no regrouping.  Each *round* claims, per
        row, the highest pending variable it holds — reverse-topological
        order applied row-wise — substitutes every claimed group with
        one broadcast, and cancels the whole matrix once; the sort
        keys include the tag word, so cancellation never crosses a
        cone boundary (Theorem 2).
        """
        started = time.perf_counter()
        n_roots = len(roots)

        # Shared interning: one leaf region and one bit per opaque
        # node for *all* cones — the per-bit loop re-interns these
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
        matrix = _cancel_mod2(seed)  # establish the sorted invariant

        def counts_of(rows: "Any") -> "Any":
            if not rows.shape[0]:
                return _np.zeros(n_roots, dtype=_np.int64)
            return _np.bincount(
                rows[:, -1].astype(_np.int64), minlength=n_roots
            )

        iterations = [0] * n_roots   # rounds that touched the cone
        substituted = [0] * n_roots  # (round, variable) pairs per cone
        eliminated = [0] * n_roots
        peaks = _np.maximum(counts_of(matrix).astype(_np.int64), 1)

        model_of = compiled.model_of
        leaf_bits = compiled.leaf_bits
        packed_models: Dict[int, List[int]] = state["packed_models"]
        model_tables: Dict[int, Tuple[int, Any]] = state["tables"]

        def table_of(var_index: int) -> "Any":
            """The variable's model as matrix rows (cached per width)."""
            entry = model_tables.get(var_index)
            if entry is not None and entry[0] == words:
                return entry[1]
            model_masks = packed_models[var_index]
            table = _np.zeros(
                (len(model_masks), words + 1), dtype=_np.uint64
            )
            table[:, :words] = _mask_rows(model_masks, words)
            model_tables[var_index] = (words, table)
            return table

        one = _np.uint64(1)
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

        while matrix.shape[0]:
            # One OR-reduce answers "does any pending variable survive
            # anywhere" — the common exit — and doubles as the residue
            # image of the finished matrix.
            live_mask = _or_mask_int(matrix[:, :-1])
            if not live_mask >> leaf_count:
                survivors = live_mask
                break  # only leaf bits remain anywhere
            telemetry.gauge("sweep.resident_bytes", int(matrix.nbytes))

            round_span = telemetry.span(
                "sweep.round",
                round=round_index,
                rows=int(matrix.shape[0]),
            )
            round_span.__enter__()

            # Claim, per row, the highest pending variable it holds.
            # One gather + shift answers every (row, variable) pair,
            # restricted to the variables the OR image proved live.
            var_items = claim_items(live_mask)
            var_bits = _np.fromiter(
                (index for _, index in var_items),
                dtype=_np.int64,
                count=len(var_items),
            )
            var_cols = var_bits // _WORD_BITS
            var_shift = (var_bits % _WORD_BITS).astype(_np.uint64)
            strip = _np.uint64(_WORD_MASK) ^ (one << var_shift)
            presence = (
                (matrix[:, var_cols] >> var_shift[None, :]) & one
            ).astype(bool)
            has_var = presence.any(axis=1)
            first = presence.argmax(axis=1)  # highest id per row

            # Pack every claimed model first: interning may allocate
            # fresh bits (new opaque nodes join later rounds) and the
            # matrix must be widened before any row is combined.
            group_of = first[has_var]
            used_groups = _np.unique(group_of).tolist()
            for group in used_groups:
                node, var_index = var_items[int(group)]
                if var_index in packed_models:
                    continue
                # A node interned here (no scheduling hook needed)
                # simply joins a later round's scan.
                packed_models[var_index] = _pack_model(
                    model_of(node), leaf_bits, intern_node
                )
            needed = (len(sig_names) + _WORD_BITS - 1) // _WORD_BITS
            if needed > words:
                grown = needed + 1
                matrix = _widen_rows(matrix, words, grown)
                words = grown

            # One concatenated model table for the round, plus offsets,
            # so the substitution below is a single repeat + gather.
            model_offset = _np.zeros(len(var_items), dtype=_np.int64)
            model_count = _np.zeros(len(var_items), dtype=_np.int64)
            tables: List[Any] = []
            offset = 0
            for group in used_groups:
                _node, var_index = var_items[int(group)]
                table = table_of(var_index)
                tables.append(table)
                model_offset[int(group)] = offset
                model_count[int(group)] = table.shape[0]
                offset += int(table.shape[0])
            models = _np.concatenate(tables)

            claimed = matrix[has_var]  # boolean indexing copies
            current = matrix[~has_var]
            claimed[
                _np.arange(claimed.shape[0]), var_cols[group_of]
            ] &= strip[group_of]

            # Per-cone bookkeeping before the rows multiply.
            claim_tags = claimed[:, -1].astype(_np.int64)
            prior = counts_of(current)
            rep = model_count[group_of]
            produced = _np.bincount(
                claim_tags, weights=rep, minlength=n_roots
            ).astype(_np.int64)
            for pair in _np.unique(group_of * n_roots + claim_tags).tolist():
                substituted[int(pair) % n_roots] += 1
            for tag in _np.unique(claim_tags).tolist():
                iterations[int(tag)] += 1

            # Substitute in chunks: row i expands to its group's model
            # rows (repeat + gather), the OR multiplies, and each chunk
            # cancels immediately so the transient stays bounded.
            cum = _np.concatenate(
                [
                    _np.zeros(1, dtype=_np.int64),
                    _np.cumsum(rep).astype(_np.int64),
                ]
            )
            start = 0
            while start < claimed.shape[0]:
                end = int(
                    _np.searchsorted(
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
                    left = _np.repeat(claimed[start:end], rep_part, axis=0)
                    part_cum = _np.concatenate(
                        [
                            _np.zeros(1, dtype=_np.int64),
                            _np.cumsum(rep_part).astype(_np.int64),
                        ]
                    )
                    within = _np.arange(
                        int(part_cum[-1]), dtype=_np.int64
                    ) - _np.repeat(part_cum[:-1], rep_part)
                    right = models[
                        _np.repeat(
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
                    current = _cancel_mod2(
                        _np.concatenate([current, products])
                    )
                counts = counts_of(current).astype(_np.int64)
                _np.maximum(peaks, counts, out=peaks)
                if term_limit is not None:
                    worst = int(counts.argmax())
                    if counts[worst] > term_limit:
                        raise TermLimitExceeded(
                            roots[worst][0], int(counts[worst]), term_limit
                        )
                start = end
            matrix = current
            gone = prior + produced - counts_of(matrix)
            for tag in range(n_roots):
                eliminated[tag] += int(gone[tag])

            round_span.annotate(
                claimed=int(claimed.shape[0]),
                produced=int(produced.sum()),
                terms=int(matrix.shape[0]),
            )
            round_span.__exit__(None, None, None)
            round_wall = round_span.wall_s
            accounted += round_wall
            claims = _np.bincount(claim_tags, minlength=n_roots)
            total_claims = int(claims.sum())
            if total_claims:
                shares = claims * (round_wall / total_claims)
                for tag in range(n_roots):
                    tag_seconds[tag] += float(shares[tag])
            round_index += 1

        # The tag is the sort's primary key, so the cancelled matrix
        # is already grouped by cone: per-cone results are zero-copy
        # slices between searchsorted bounds.  ``survivors`` (the
        # final OR image) makes the residue check O(1) in the common
        # all-declared case; only a genuine leftover walks per cone.
        with telemetry.span(
            "decode", cones=n_roots, rows=int(matrix.shape[0])
        ):
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
