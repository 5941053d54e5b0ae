"""Atomic file-write helpers shared by every artifact producer, and
the strict UTF-8 read the netlist readers share.

Batch campaigns and checkpointed extractions can be killed at any
moment (that is the point of checkpointing), so nothing in the system
may ever leave a half-written netlist, report, checkpoint or cache
entry behind.  The recipe is the classic POSIX one: write the full
payload to a temporary file *in the destination directory* (same
filesystem, so the final step is a metadata operation), flush, then
``os.replace`` over the target — readers observe either the old file
or the complete new one, never a truncation.
"""

from __future__ import annotations

import os
import tempfile
from typing import Callable, Union

PathLike = Union[str, os.PathLike]

#: The process umask, read once (reading requires a momentary set;
#: doing it at import avoids racing concurrent writers later).
_UMASK: int = None  # type: ignore[assignment]


def _current_umask() -> int:
    global _UMASK
    if _UMASK is None:
        _UMASK = os.umask(0o022)
        os.umask(_UMASK)
    return _UMASK


_current_umask()


def atomic_write_text(path: PathLike, text: str, encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with a file containing ``text``.

    >>> import tempfile, pathlib
    >>> target = pathlib.Path(tempfile.mkdtemp()) / "out.txt"
    >>> atomic_write_text(target, "hello")
    >>> target.read_text()
    'hello'

    A symlinked target is written *through* (the link's referent is
    replaced, the link survives).  The replace needs write permission
    on the destination directory — inherent to atomic renames.
    """
    atomic_write_bytes(path, text.encode(encoding))


def read_utf8(path: PathLike, error: Callable[[str], Exception]) -> str:
    """Read ``path`` as UTF-8 text with universal newlines.

    Undecodable input raises ``error(message)`` naming the file and
    the byte offset of the first bad byte, so each reader reports its
    own format error instead of a bare ``UnicodeDecodeError``.
    Newlines are translated exactly as a text-mode ``open`` would, and
    one leading byte-order mark is dropped.  (Decoding as
    ``utf-8-sig`` would drop it too, but its error offsets would not
    count the mark's three bytes.)
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as failure:
        raise error(
            f"{os.fspath(path)}: not UTF-8 text: invalid byte "
            f"0x{data[failure.start]:02x} at byte offset {failure.start}"
        ) from None
    if text.startswith("\ufeff"):
        text = text[1:]
    return text.replace("\r\n", "\n").replace("\r", "\n")


def atomic_write_bytes(path: PathLike, payload: bytes) -> None:
    """Atomically replace ``path`` with a binary payload.

    The one shared implementation of the write-temp-then-replace
    recipe (the text variant encodes and delegates); also used
    directly for the result cache's compact JSON entries.
    """
    # realpath: os.replace onto a symlink would clobber the link
    # itself; writers that previously wrote through links must keep
    # doing so.
    path = os.path.realpath(os.fspath(path))
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        # mkstemp creates 0600 files regardless of umask; artifacts
        # must keep the permissions a plain open() would have given
        # them (or the mode of the file they replace).
        try:
            mode = os.stat(path).st_mode & 0o777
        except OSError:
            mode = 0o666 & ~_current_umask()
        os.chmod(fd if os.chmod in os.supports_fd else tmp_path, mode)
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:  # pragma: no cover - already replaced/removed
            pass
        raise


def atomic_append_line(
    path: PathLike,
    line: str,
    encoding: str = "utf-8",
    fsync: bool = False,
) -> None:
    """Append one newline-terminated record to ``path`` in a single write.

    A single ``write()`` of a short line is atomic enough for JSONL
    reports (O_APPEND semantics); callers that need full-file
    atomicity use :func:`atomic_write_text` instead.  ``fsync=True``
    additionally forces the appended record to stable storage before
    returning — the durability knob checkpoint writers expose for
    power-loss (not just SIGKILL) safety, at the cost of one disk
    flush per record.
    """
    if not line.endswith("\n"):
        line += "\n"
    with open(path, "a", encoding=encoding) as handle:
        handle.write(line)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
