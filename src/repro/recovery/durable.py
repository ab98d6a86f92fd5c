"""Durable file primitives: the one sanctioned door to the filesystem.

Crash safety is a property of *how* bytes reach disk, not of what they
say, so every write the recovery subsystem performs flows through this
module — the ``durable-write-discipline`` lint rule flags any other
``open``/``os.replace``/``write_text`` call inside ``repro.recovery``.
Two disciplines cover everything:

* **group-committed append** (:class:`DurableAppendFile`) — journal
  records are flushed line by line and fsynced at the writer's sync
  points (:meth:`DurableAppendFile.sync`).  A killed process loses
  nothing that was flushed; an OS crash loses at most the records
  written since the last sync point, plus possibly a torn tail (which
  the journal truncates on open);
* **atomic rename-on-commit** (:func:`atomic_write_text`) — snapshots
  are written to a temp file, fsynced, then :func:`os.replace`'d over
  the destination and the directory entry fsynced, so a reader never
  observes a partial file no matter when the process dies.

State lives under a single directory resolved by
:func:`resolve_state_dir`: an explicit argument wins, then the
``REPRO_STATE_DIR`` environment variable, then ``.repro-state/`` in
the working directory.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

#: Environment variable naming the state directory (see
#: :func:`resolve_state_dir`).
STATE_DIR_ENV = "REPRO_STATE_DIR"

#: Fallback state directory when neither an explicit path nor the
#: environment variable is given.
DEFAULT_STATE_DIR = ".repro-state"


def resolve_state_dir(
    explicit: str | Path | None = None, create: bool = True
) -> Path:
    """Resolve the journal/snapshot directory from one setting.

    Precedence: ``explicit`` argument > ``$REPRO_STATE_DIR`` >
    :data:`DEFAULT_STATE_DIR`.  With ``create`` (the default) the
    directory is created on first use.
    """
    if explicit is not None:
        base = Path(explicit)
    else:
        env = os.environ.get(STATE_DIR_ENV)
        base = Path(env) if env else Path(DEFAULT_STATE_DIR)
    if create:
        base.mkdir(parents=True, exist_ok=True)
    return base


def _fsync_dir(path: Path) -> None:
    """fsync a directory entry so a rename/create survives a crash."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp + fsync + rename).

    The bytes land in ``path + ".tmp"`` first, are fsynced, and only
    then renamed over the destination via :func:`os.replace`; the
    parent directory entry is fsynced last.  A crash at any point
    leaves either the old file or the new one, never a mix.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    with tmp.open("w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, target)
    _fsync_dir(target.parent)


def atomic_write_json(path: str | Path, payload: Any) -> None:
    """Serialize ``payload`` canonically and atomically write it.

    Canonical means sorted keys and minimal separators, so a payload's
    on-disk bytes are a pure function of its value — the property the
    snapshot digest relies on.
    """
    atomic_write_text(
        path,
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
    )


def read_text(path: str | Path) -> str:
    """Read a whole text file (the sanctioned read-side helper)."""
    return Path(path).read_text(encoding="utf-8")


def read_json(path: str | Path) -> Any:
    """Read and parse one JSON document written by :func:`atomic_write_json`."""
    return json.loads(read_text(path))


class DurableAppendFile:
    """Append-only binary file with group-commit fsync and tail truncation.

    The journal's storage layer: :meth:`append_line` flushes each
    record to the OS, so it survives the writing process being killed;
    :meth:`sync` fsyncs everything appended so far, so it also survives
    an OS crash.  The writer decides where the sync points fall (the
    journal syncs once per durable unit, not once per record).
    :meth:`read_bytes` returns the current content (validated on open,
    read back on demand), and :meth:`truncate_to` durably discards a
    torn tail.  Offsets are byte offsets; the journal keeps its lines
    ASCII so they line up with character positions.
    """

    __slots__ = ("path", "_fh")

    def __init__(self, path: str | Path) -> None:
        """Open (creating if absent) the append file at ``path``."""
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a+b")

    def read_bytes(self, start: int = 0) -> bytes:
        """The file's current content from byte offset ``start`` on."""
        self._fh.seek(start)
        return self._fh.read()

    def append_line(self, line: str) -> None:
        """Append ``line`` plus a newline, flushed (not yet fsynced)."""
        self._fh.seek(0, os.SEEK_END)
        self._fh.write(line.encode("utf-8") + b"\n")
        self._fh.flush()

    def sync(self) -> None:
        """fsync every line appended so far (a group-commit point)."""
        os.fsync(self._fh.fileno())

    def truncate_to(self, size: int) -> None:
        """Durably cut the file back to ``size`` bytes (torn-tail repair)."""
        self._fh.truncate(size)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        """Sync the appended lines, then close the file handle."""
        if not self._fh.closed:
            self.sync()
            self._fh.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DurableAppendFile({str(self.path)!r})"
