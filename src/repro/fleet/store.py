"""Durable verifier state: pluggable persistence for the registry.

A :class:`RegistryStore` snapshots
:class:`~repro.fleet.registry.DeviceRecord` documents -- including the
freshness counters the replay defences depend on (``nonce_high_water``,
monotonic ``last_seen``) -- plus one fleet-level *meta* document (the
registry's logical clock and the log of applied update packages, so a
restarted simulation can fast-forward its device replicas).

Three backends, one contract:

* :class:`MemoryStore`  -- the keyed state (last write wins per
  device); the default, zero I/O.
* :class:`JsonlStore`   -- the same state plus its append log: every
  save is one appended line, loads fold the log last-wins, and the log
  compacts itself.
* :class:`SqliteStore`  -- one table per document kind, upserts inside
  a transaction that ``flush()`` commits (campaigns flush per wave).

How the files live on disk -- the suffix rule :func:`open_store`
applies, torn tails, the typed error for a foreign line, fsync points,
atomic compaction -- is :mod:`repro.persist`'s, shared with the event
log.

Record documents are also the process-shard wire format: campaign
workers receive ``record_to_dict`` snapshots, rebuild their shard's
devices, and ship mutated documents back for the parent to merge --
the store and the shard protocol deliberately share one codec.
"""

import itertools
import json
import threading
from typing import Dict, Optional

from repro import persist
from repro.casu.update import UpdateKey
from repro.fleet.registry import DeviceRecord, FleetError, Lifecycle
from repro.snapshot import WIRE_VERSION

META_CLOCK = "clock"
META_PACKAGES = "packages"  # version(str) -> {"target": int, "payload": hex}
META_FIRMWARE = "firmware"  # the FirmwareSpec dict the fleet was built on


# ---- the record codec ------------------------------------------------------


def record_to_dict(record: DeviceRecord) -> dict:
    """A JSON-safe snapshot of one record (also the shard wire format).

    The ``codec`` field versions the wire format (shared with the
    device-snapshot codec, :data:`repro.snapshot.WIRE_VERSION`):
    a parent and a pool worker running different builds fail loudly in
    :func:`record_from_dict` instead of misreading fields.
    """
    return {
        "codec": WIRE_VERSION,
        "device_id": record.device_id,
        "key": record.key.secret.hex(),
        "platform": record.platform,
        "security": record.security,
        "state": record.state.value,
        "firmware_version": record.firmware_version,
        "firmware_hash": record.firmware_hash,
        "enrolled_at": record.enrolled_at,
        "last_seen": record.last_seen,
        "attest_count": record.attest_count,
        "violation_count": record.violation_count,
        "reset_count": record.reset_count,
        "update_failures": record.update_failures,
        "nonce_high_water": record.nonce_high_water,
        "applied_versions": list(record.applied_versions),
        "violation_totals": dict(record.violation_totals),
    }


def record_from_dict(doc: dict) -> DeviceRecord:
    # Docs that predate the codec field are grandfathered in (their
    # layout is codec-1 compatible); an explicit mismatch -- a rolling
    # upgrade where parent and worker builds disagree -- is an error,
    # and a *clear* one rather than a KeyError three fields later.
    codec = doc.get("codec", WIRE_VERSION)
    if codec != WIRE_VERSION:
        raise FleetError(
            f"device record codec version {codec!r} is not supported by "
            f"this build (expected {WIRE_VERSION}); parent and worker "
            f"are running different versions")
    try:
        return DeviceRecord(
            device_id=doc["device_id"],
            key=UpdateKey(bytes.fromhex(doc["key"])),
            platform=doc["platform"],
            security=doc["security"],
            state=Lifecycle(doc["state"]),
            firmware_version=doc["firmware_version"],
            firmware_hash=doc.get("firmware_hash"),
            enrolled_at=doc.get("enrolled_at", 0),
            last_seen=doc.get("last_seen"),
            attest_count=doc.get("attest_count", 0),
            violation_count=doc.get("violation_count", 0),
            reset_count=doc.get("reset_count", 0),
            update_failures=doc.get("update_failures", 0),
            nonce_high_water=doc.get("nonce_high_water", 0),
            applied_versions=list(doc.get("applied_versions", ())),
            violation_totals=dict(doc.get("violation_totals", {})),
        )
    except (KeyError, ValueError) as error:
        raise FleetError(f"malformed stored device record: {error}") from None


# ---- the backend contract --------------------------------------------------


class RegistryStore(persist.Handle):
    """Persistence contract the registry talks to.

    One document per device (last write wins) plus one meta document.
    Implementations must make ``flush()`` a durability point: anything
    saved before a flush survives a process kill after it.
    """

    backend = "abstract"

    def load_records(self) -> Dict[str, dict]:
        raise NotImplementedError

    def save_record(self, doc: dict):
        raise NotImplementedError

    def load_meta(self) -> dict:
        raise NotImplementedError

    def save_meta(self, meta: dict):
        raise NotImplementedError


class MemoryStore(RegistryStore):
    """Dict-backed store: the process-local default, zero I/O.

    Holds the keyed state the JSONL store folds its log into: one
    document per device (last write wins) plus the meta document.
    Round-trips through the same document codec as the durable
    backends, so swapping a path in changes durability and nothing
    else.
    """

    backend = "memory"

    def __init__(self):
        self._lock = threading.RLock()  # JsonlStore compacts mid-save
        self._records: Dict[str, dict] = {}
        self._meta: dict = {}

    def load_records(self) -> Dict[str, dict]:
        with self._lock:
            return {device_id: dict(doc)
                    for device_id, doc in self._records.items()}

    def save_record(self, doc: dict):
        with self._lock:
            self._records[doc["device_id"]] = dict(doc)
            self._log("record", doc)

    def load_meta(self) -> dict:
        with self._lock:
            return json.loads(json.dumps(self._meta))

    def save_meta(self, meta: dict):
        with self._lock:
            self._meta = json.loads(json.dumps(meta))
            self._log("meta", self._meta)

    def _log(self, kind: str, doc: dict):
        """Called under the lock after every save; the JSONL store
        appends the document to its file here."""


def _is_store_line(doc: dict) -> bool:
    return doc.get("kind") == "meta" or "device_id" in doc


class JsonlStore(MemoryStore):
    """The memory store plus its append log (:mod:`repro.persist`).

    Every save appends one ``{"kind": "record"|"meta", ...}`` line, and
    opening folds the log last-wins.  ``compact()`` rewrites the file
    to one line per live document: on close, and whenever the log holds
    ``COMPACT_FACTOR`` times more lines than live documents -- checked
    at open (cron-driven verifiers rarely close cleanly) and after
    every append (a long session never grows an unbounded log).
    """

    backend = "jsonl"
    COMPACT_FACTOR = 4

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        docs = persist.load_jsonl(path, _is_store_line)
        for doc in docs:
            if doc.pop("kind", "record") == "meta":
                self._meta = doc
            else:
                self._records[doc["device_id"]] = doc
        self._lines = len(docs)
        self._file = persist.JsonlFile(path)
        if self._over_threshold():
            self.compact()

    def _live(self) -> int:
        return len(self._records) + (1 if self._meta else 0)

    def _over_threshold(self) -> bool:
        return self._lines > max(64, self.COMPACT_FACTOR * self._live())

    def _log(self, kind: str, doc: dict):
        # The line reaches the kernel before save_record returns, so a
        # SIGKILL loses no nonce high-water save.
        self._file.append({"kind": kind, **doc})
        self._lines += 1
        if self._over_threshold():
            self.compact()

    def flush(self):
        with self._lock:
            self._file.sync()

    def compact(self):
        """Rewrite the log to one line per live document, atomically:
        a kill never leaves a truncated registry (the records ARE the
        device keys)."""
        with self._lock:
            if self._file.closed:
                return
            meta = [{"kind": "meta", **self._meta}] if self._meta else []
            self._file.rewrite(itertools.chain(meta, (
                {"kind": "record", **doc} for doc in self._records.values())))
            self._lines = self._live()

    def close(self):
        if self._file.closed:
            return
        self.compact()
        self.flush()
        self._file.close()


_SQLITE_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS records ("
    " device_id TEXT PRIMARY KEY, doc TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS meta ("
    " id INTEGER PRIMARY KEY CHECK (id = 0), doc TEXT NOT NULL)",
)


class SqliteStore(RegistryStore):
    """SQLite-backed store: upserts batched until ``flush()`` commits.

    Campaigns flush once per wave, so a kill mid-wave rolls back to the
    previous wave's committed state -- the resume path then re-offers
    only that wave, and the device-side monotonic version check makes
    the re-offers idempotent.
    """

    backend = "sqlite"

    def __init__(self, path: str):
        self.path = path
        self._db = persist.SqliteDb(path, _SQLITE_SCHEMA)

    def load_records(self) -> Dict[str, dict]:
        rows = self._db.execute("SELECT device_id, doc FROM records")
        return {device_id: json.loads(doc) for device_id, doc in rows}

    def save_record(self, doc: dict):
        self._db.execute(
            "INSERT INTO records (device_id, doc) VALUES (?, ?) "
            "ON CONFLICT(device_id) DO UPDATE SET doc = excluded.doc",
            (doc["device_id"], json.dumps(doc, sort_keys=True)))

    def load_meta(self) -> dict:
        rows = self._db.execute("SELECT doc FROM meta WHERE id = 0")
        return json.loads(rows[0][0]) if rows else {}

    def save_meta(self, meta: dict):
        self._db.execute(
            "INSERT INTO meta (id, doc) VALUES (0, ?) "
            "ON CONFLICT(id) DO UPDATE SET doc = excluded.doc",
            (json.dumps(meta, sort_keys=True),))

    def flush(self):
        self._db.commit()

    def close(self):
        self._db.close()


def open_store(path: Optional[str]) -> RegistryStore:
    """Pick a backend from *path* (the :mod:`repro.persist` suffix rule)."""
    backend = persist.backend_for(path)
    if backend == "memory":
        return MemoryStore()
    return SqliteStore(path) if backend == "sqlite" else JsonlStore(path)
