"""Out-of-core support for the fused sweep: budgets, spill files, and
the streamed k-way parity merge.

The paper's hard ceiling is memory-out: backward rewriting dies on the
size of the intermediate polynomial, which in fused mode is exactly
one output-tagged uint64 bit-matrix.  This module holds the pieces
that let that matrix outgrow RAM:

* **budget resolution** — ``REPRO_SWEEP_MAX_BYTES`` (with ``K``/``M``/
  ``G`` suffixes) or the ``max_bytes=`` kwarg / ``--max-ram`` flag
  decide when the sweep stops holding the matrix in one array;
* **spill directories** — one private ``repro-sweep-<pid>-<token>``
  directory per sweep (under ``REPRO_SPILL_DIR`` or the system temp
  dir), deleted on success *and* on error; stale directories left by
  killed processes are reaped on the next sweep's startup, so a
  checkpoint-resumed job never inherits dead spill state;
* **row files** — raw little-endian uint64 row-major dumps with the
  (rows, words) shape in the name-side metadata, opened back as
  ``numpy.memmap`` so a chunk loads without a copy;
* **the parity merge** — :func:`merge_parity` generalizes the vector
  engine's run-parity cancellation to any number of *streamed* runs:
  each run is sorted and internally duplicate-free (a cancelled
  matrix), and GF(2) addition of all runs is rows of odd multiplicity
  across them.  The merge advances block by block: the emit boundary
  is the smallest of the runs' current block-maximum keys, so every
  key at or below it has all of its occurrences in view, and one
  in-core run-parity cancellation over the boundary slices is exact.
  Associativity of mod-2 addition makes the composition of boundary
  windows exact globally — the same argument that lets the in-core
  sweep cancel substitution products chunk by chunk.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import uuid
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Sequence

try:  # pragma: no cover - exercised via the no-numpy subprocess test
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

#: Environment knob: byte budget of one fused sweep's live matrix.
SWEEP_BUDGET_ENV = "REPRO_SWEEP_MAX_BYTES"
#: Environment knob: where spill directories are created.
SPILL_DIR_ENV = "REPRO_SPILL_DIR"

_SPILL_PREFIX = "repro-sweep-"

_SUFFIXES = {
    "k": 1 << 10,
    "m": 1 << 20,
    "g": 1 << 30,
    "t": 1 << 40,
}


def parse_byte_size(text: str) -> int:
    """``"256M"`` / ``"1g"`` / ``"65536"`` → bytes.

    Accepts an optional single ``K``/``M``/``G``/``T`` suffix (binary
    multiples, case-insensitive, optional trailing ``B``/``iB``).
    """
    cleaned = str(text).strip().lower()
    for tail in ("ib", "b"):
        if cleaned.endswith(tail) and cleaned[: -len(tail)][-1:] in _SUFFIXES:
            cleaned = cleaned[: -len(tail)]
            break
    factor = 1
    if cleaned[-1:] in _SUFFIXES:
        factor = _SUFFIXES[cleaned[-1]]
        cleaned = cleaned[:-1]
    try:
        value = float(cleaned) if "." in cleaned else int(cleaned)
    except ValueError:
        raise ValueError(
            f"cannot parse byte size {text!r} "
            "(expected e.g. 268435456, 256M, 1G)"
        ) from None
    result = int(value * factor)
    if result <= 0:
        raise ValueError(f"byte size must be positive, got {text!r}")
    return result


def resolve_sweep_budget(
    max_bytes: Optional[int] = None,
) -> Optional[int]:
    """The effective sweep byte budget: kwarg, else env, else none."""
    if max_bytes is not None:
        return int(max_bytes)
    configured = os.environ.get(SWEEP_BUDGET_ENV)
    if configured:
        return parse_byte_size(configured)
    return None


def spill_root() -> Path:
    """Where spill directories live (``REPRO_SPILL_DIR`` or tempdir)."""
    configured = os.environ.get(SPILL_DIR_ENV)
    return Path(configured) if configured else Path(tempfile.gettempdir())


def _pid_of(directory_name: str) -> Optional[int]:
    parts = directory_name[len(_SPILL_PREFIX):].split("-", 1)
    try:
        return int(parts[0])
    except (ValueError, IndexError):
        return None


def reap_stale_spills(root: Optional[Path] = None) -> int:
    """Delete spill directories whose owning process is gone.

    Spill directories are normally removed by the sweep that made them
    (success and error paths both); this sweeps up after processes
    that died without unwinding — the OOM-killed runs the checkpoint
    layer is built to resume.  Returns the number of directories
    removed.
    """
    root = spill_root() if root is None else Path(root)
    removed = 0
    try:
        entries = list(root.iterdir())
    except OSError:
        return 0
    for entry in entries:
        if not entry.name.startswith(_SPILL_PREFIX):
            continue
        pid = _pid_of(entry.name)
        if pid is None or pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            shutil.rmtree(entry, ignore_errors=True)
            removed += 1
        except OSError:
            continue  # alive but not ours (EPERM) — leave it be
    return removed


class SpillDir:
    """One sweep's private spill directory, with guaranteed teardown.

    The name embeds the owning pid so :func:`reap_stale_spills` can
    tell live sweeps from corpses.  ``cleanup()`` is idempotent and
    the sweep calls it in a ``finally`` — a term-limit abort or any
    other raise removes the directory just like success does.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        base = spill_root() if root is None else Path(root)
        base.mkdir(parents=True, exist_ok=True)
        reap_stale_spills(base)
        self.path = (
            base / f"{_SPILL_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:12]}"
        )
        self.path.mkdir()
        self._sequence = 0

    def next_file(self, kind: str) -> Path:
        """A fresh file path inside the directory."""
        self._sequence += 1
        return self.path / f"{kind}-{self._sequence:06d}.u64"

    def cleanup(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


class RowFile:
    """A 2-D uint64 row matrix spilled to one raw file.

    Rows are written little-endian row-major (the in-memory layout of
    a C-contiguous ``uint64`` matrix), so :meth:`open` is a zero-copy
    ``numpy.memmap``.  The writer appends blocks; ``rows``/``words``
    carry the shape, and ``nbytes`` is the budget-accounting size.
    """

    __slots__ = ("path", "rows", "words", "_handle")

    def __init__(self, path: Path, words: int) -> None:
        self.path = Path(path)
        self.words = int(words)
        self.rows = 0
        self._handle = open(self.path, "wb")

    def append(self, block: "Any") -> None:
        """Append a ``(rows, words)`` uint64 block (host array)."""
        if block.shape[1] != self.words:
            raise ValueError(
                f"row width {block.shape[1]} != file width {self.words}"
            )
        data = _np.ascontiguousarray(block, dtype="<u8")
        self._handle.write(data.tobytes())
        self.rows += int(block.shape[0])

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @property
    def nbytes(self) -> int:
        return self.rows * self.words * 8

    def open(self) -> "Any":
        """The file as a read-only ``(rows, words)`` memmap."""
        self.close()
        if self.rows == 0:
            return _np.zeros((0, self.words), dtype=_np.uint64)
        return _np.memmap(
            self.path,
            dtype="<u8",
            mode="r",
            shape=(self.rows, self.words),
        )

    def delete(self) -> None:
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


def write_rows(path: Path, rows: "Any") -> RowFile:
    """Spill one in-core matrix to a :class:`RowFile` in one call."""
    spilled = RowFile(path, rows.shape[1])
    spilled.append(rows)
    spilled.close()
    return spilled


#: Rows pulled per run per merge step; bounds merge residency at
#: ``runs * block * row_bytes`` regardless of total spilled size.
MERGE_BLOCK_ROWS = 1 << 14


def merge_parity(
    sources: Sequence["Any"],
    row_keys: Callable[["Any"], "Any"],
    cancel: Callable[["Any"], "Any"],
    block_rows: int = MERGE_BLOCK_ROWS,
) -> Iterator["Any"]:
    """GF(2)-add sorted duplicate-free runs, streaming the result.

    ``sources`` are 2-D uint64 arrays (in-core or memmapped), each in
    the engine's lexsort order with no internal duplicates; the yield
    is the mod-2 sum — rows of odd multiplicity across all runs — in
    the same order, emitted in bounded sorted blocks.

    Per step, one block is read from every unfinished run; the emit
    boundary is the *smallest block-maximum key* — every occurrence of
    a key at or below it is in view (any row beyond a run's block
    compares above that run's block maximum, hence above the
    boundary), so one run-parity ``cancel`` over the boundary slices
    is exact for that key range.  The run owning the minimum always
    advances a full block, so the merge is O(total / block) steps.
    """
    positions = [0] * len(sources)
    totals = [int(source.shape[0]) for source in sources]
    while True:
        blocks: List[Any] = []
        owners: List[int] = []
        for index, source in enumerate(sources):
            position = positions[index]
            if position >= totals[index]:
                continue
            stop = min(position + block_rows, totals[index])
            # memmap slices materialize here: one bounded host copy.
            blocks.append(
                _np.asarray(source[position:stop], dtype=_np.uint64)
            )
            owners.append(index)
        if not blocks:
            return
        boundary = min(row_keys(block[-1:])[0] for block in blocks)
        parts: List[Any] = []
        for block, owner in zip(blocks, owners):
            take = int(
                row_keys(block).searchsorted(boundary, side="right")
            )
            positions[owner] += take
            if take:
                parts.append(block[:take])
        if len(parts) == 1:
            merged = parts[0]  # one run's slice is already cancelled
        else:
            merged = cancel(_np.concatenate(parts))
        if merged.shape[0]:
            yield merged
