"""Live event fan-out: the in-process bus and cross-process tails.

Two ways to watch the event log while it happens:

* :class:`EventBus` -- every :class:`~repro.obs.events.EventLog`
  carries one.  ``emit()`` publishes each stored document to the
  bus's subscribers *after* releasing the log's lock, so a subscriber
  (the alert engine, a live renderer) may itself emit follow-up
  events without deadlocking.  A misbehaving subscriber never breaks
  emission: exceptions are swallowed and counted on ``bus.errors``.
  The no-subscriber path is one tuple truthiness test -- the fleet
  layers pay nothing for the capability when nobody is watching.

* Tail cursors -- a *second process* cannot share the bus, but it can
  follow the durable log: :func:`open_event_tail` returns a cursor
  whose ``read()`` yields every event made durable (``flush()``) since
  the last call, in seq order, exactly once.  How it reads the file is
  :mod:`repro.persist`'s.  ``fleet watch --follow`` polls one.
"""

import json
import threading
from typing import Callable, Iterable, List, Optional

from repro import persist

__all__ = ["EventBus", "EventTail", "JsonlTail", "SqliteTail",
           "open_event_tail"]


class _Subscription:
    """Opaque handle returned by :meth:`EventBus.subscribe`."""

    __slots__ = ("callback", "kinds")

    def __init__(self, callback: Callable[[dict], None],
                 kinds: Optional[frozenset]):
        self.callback = callback
        self.kinds = kinds


class EventBus:
    """Synchronous fan-out of event documents to in-process subscribers.

    Subscription changes copy the subscriber tuple under a lock;
    ``publish`` reads the tuple without locking (tuples are immutable,
    a concurrent subscribe simply lands on the next publish).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._subscribers: tuple = ()
        # Subscriber exceptions land here instead of on the emitter.
        self.errors = 0

    def subscribe(self, callback: Callable[[dict], None],
                  kinds=None) -> _Subscription:
        """Register *callback* for every event (or just *kinds*)."""
        subscription = _Subscription(
            callback, frozenset(kinds) if kinds is not None else None)
        with self._lock:
            self._subscribers = self._subscribers + (subscription,)
        return subscription

    def unsubscribe(self, subscription: _Subscription):
        with self._lock:
            self._subscribers = tuple(entry for entry in self._subscribers
                                      if entry is not subscription)

    def __len__(self):
        return len(self._subscribers)

    def publish(self, doc: dict):
        subscribers = self._subscribers
        if not subscribers:
            return
        for subscription in subscribers:
            if subscription.kinds is not None \
                    and doc["kind"] not in subscription.kinds:
                continue
            try:
                subscription.callback(doc)
            except Exception:
                self.errors += 1


def is_event(doc: dict) -> bool:
    """The event-log line rule: an event document carries its ``seq``."""
    return "seq" in doc


class EventTail(persist.Handle):
    """Cursor contract: ``read()`` returns newly durable events once.

    ``last_seq`` is the resume token -- persist it and reopen with
    ``open_event_tail(path, since_seq=last_seq)`` to continue without
    duplicates after a restart.
    """

    def __init__(self, path: str, since_seq: int = 0):
        self.path = path
        self.last_seq = since_seq

    def read(self) -> List[dict]:
        raise NotImplementedError

    def _deliver(self, docs: Iterable[dict]) -> List[dict]:
        """The *docs* past ``last_seq`` (a reopen can overlap)."""
        fresh = []
        for doc in docs:
            if doc["seq"] > self.last_seq:
                self.last_seq = doc["seq"]
                fresh.append(doc)
        return fresh


class JsonlTail(EventTail):
    """Follow a JSONL event log by file position.

    A partial final line waits for its newline, so a line that races
    the writer's syscall is delivered whole, once, or not yet; lines
    parse by the loaders' rule (:func:`repro.persist.parse_line`).
    """

    def __init__(self, path: str, since_seq: int = 0):
        super().__init__(path, since_seq)
        self._handle = None
        self._partial = ""
        self._lines = 0

    def read(self) -> List[dict]:
        if self._handle is None:
            try:
                self._handle = open(self.path, encoding="utf-8")
            except FileNotFoundError:
                return []  # the writer has not created the log yet
        lines = (self._partial + self._handle.read()).split("\n")
        self._partial = lines.pop()  # "" after a newline-terminated read
        docs = []
        for line in lines:
            self._lines += 1
            doc = persist.parse_line(line, is_event, self.path, self._lines)
            if doc is not None:
                docs.append(doc)
        return self._deliver(docs)

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class SqliteTail(EventTail):
    """Follow a SQLite event log by indexed seq ranges, over a
    read-only :class:`~repro.persist.SqliteReader`."""

    def __init__(self, path: str, since_seq: int = 0):
        super().__init__(path, since_seq)
        self._reader = persist.SqliteReader(path)

    def read(self) -> List[dict]:
        rows = self._reader.query(
            "SELECT doc FROM events WHERE seq > ? ORDER BY seq",
            (self.last_seq,))
        return self._deliver(json.loads(raw) for (raw,) in rows)

    def close(self):
        self._reader.close()


def open_event_tail(path: Optional[str], since_seq: int = 0) -> EventTail:
    """A follow cursor for the durable log at *path* (the
    :mod:`repro.persist` suffix rule, like ``open_event_log``)."""
    backend = persist.backend_for(path)
    if backend == "memory":
        from repro.obs.events import ObsError

        raise ObsError("only durable event logs (jsonl/sqlite paths) can "
                       "be tailed from another process")
    tail = SqliteTail if backend == "sqlite" else JsonlTail
    return tail(path, since_seq=since_seq)
