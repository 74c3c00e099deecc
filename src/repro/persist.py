"""One append-log primitive: how every durable log lives on disk.

The registry store, the event log and the event tails all build on
this module; no other module writes a log or connects to a database.

* Suffix rule (:func:`backend_for`): ``None``/``":memory:"`` -> memory,
  ``.db``/``.sqlite``/``.sqlite3`` -> SQLite, anything else -> JSONL.
* JSONL lines: one ``json.dumps(doc, sort_keys=True)`` per append,
  pushed to the kernel at once; fsync at ``sync()``; atomic rewrite
  for compaction.  A kill can tear only the final line.  A line that
  does not decode is such a fragment and is skipped; one that decodes
  to anything but a document of its log raises :class:`PersistError`.
* SQLite: a writer's connection that commits at ``commit()``, and a
  tail's read-only one.
"""

import json
import os
import sqlite3
import threading
from typing import Callable, Iterable, List, Optional

from repro.errors import ReproError


class PersistError(ReproError):
    """A log line decodes but is not a document of its log."""


class Handle:
    """The lifecycle every store, event log and tail shares: ``flush()``
    is a durability point, ``close()`` flushes a last time, and a
    ``with`` block closes at its end."""

    def flush(self):
        pass

    def close(self):
        self.flush()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def backend_for(path: Optional[str]) -> str:
    """``"memory"``, ``"sqlite"`` or ``"jsonl"`` for *path*."""
    if path is None or path == ":memory:":
        return "memory"
    if path.endswith((".db", ".sqlite", ".sqlite3")):
        return "sqlite"
    return "jsonl"


def _make_parent(path: str):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)


def atomic_write(path: str, chunks: Iterable[str]):
    """Replace *path* with *chunks*: readers see the old file or the new."""
    _make_parent(path)
    temp_path = path + ".tmp"
    with open(temp_path, "w", encoding="utf-8") as handle:
        for chunk in chunks:
            handle.write(chunk)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, path)


def _line(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def parse_line(line: str, is_doc: Callable[[dict], bool], path: str,
               number: int) -> Optional[dict]:
    """The document on one log line; None for a blank or torn line."""
    line = line.strip()
    if not line:
        return None
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return None  # a fragment left by a kill mid-append
    if not isinstance(doc, dict) or not is_doc(doc):
        raise PersistError(f"{path}:{number}: not a document of this "
                           f"log: {line[:80]}")
    return doc


def load_jsonl(path: str, is_doc: Callable[[dict], bool]) -> List[dict]:
    """Every document in the log at *path*; [] if there is no file."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        docs = (parse_line(line, is_doc, path, number)
                for number, line in enumerate(handle, start=1))
        return [doc for doc in docs if doc is not None]


class JsonlFile:
    """The append handle on one JSONL log; its owner serialises calls.

    Before the handle's first append, a file that does not end in a
    newline (a torn tail) gets one, so the new line is not glued to the
    fragment and skipped with it.  Opening alone never writes -- a live
    writer may be mid-line -- and the file is never truncated, so a
    live tail reads the fragment as one undecodable line.
    """

    def __init__(self, path: str):
        self.path = path
        _make_parent(path)
        self._file = open(path, "a", encoding="utf-8")
        self._appended = False

    @property
    def closed(self) -> bool:
        return self._file.closed

    def append(self, doc: dict):
        if not self._appended:
            self._appended = True
            with open(self.path, "rb") as handle:
                if handle.seek(0, os.SEEK_END):
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        self._file.write("\n")
        self._file.write(_line(doc))
        self._file.flush()

    def sync(self):
        """A durability point: every append so far survives power loss."""
        if self._file.closed:
            return
        self._file.flush()
        os.fsync(self._file.fileno())

    def rewrite(self, docs: Iterable[dict]):
        """Atomically replace the log with *docs*, then append after them."""
        self._file.close()
        atomic_write(self.path, map(_line, docs))
        self._file = open(self.path, "a", encoding="utf-8")
        self._appended = True  # the rewritten file ends in a newline

    def close(self):
        self._file.close()


class SqliteDb:
    """A writer's SQLite connection: writes batch until ``commit()``."""

    def __init__(self, path: str, schema: Iterable[str]):
        _make_parent(path)  # a no-op for ":memory:"
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        with self._conn:  # the schema commits at once
            for statement in schema:
                self._conn.execute(statement)

    def execute(self, sql: str, params=()) -> list:
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    def commit(self):
        with self._lock:
            if self._conn is not None:
                self._conn.commit()

    def close(self):
        with self._lock:
            if self._conn is not None:
                self._conn.commit()
                self._conn.close()
                self._conn = None


class SqliteReader:
    """A tail's read-only connection (it never takes a write lock),
    opened at the first query.  A database that is missing, locked or
    not yet initialised reads as no rows; the next poll retries."""

    def __init__(self, path: str):
        self.path = path
        self._conn = None

    def query(self, sql: str, params=()) -> list:
        try:
            if self._conn is None:
                self._conn = sqlite3.connect(
                    f"file:{self.path}?mode=ro", uri=True,
                    check_same_thread=False)
            return self._conn.execute(sql, params).fetchall()
        except sqlite3.OperationalError:
            return []

    def close(self):
        if self._conn is not None:
            self._conn.close()
            self._conn = None
