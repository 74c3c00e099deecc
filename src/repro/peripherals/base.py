"""Peripheral base class."""

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class IoEvent:
    """One externally observable output event."""

    cycle: int
    port: str
    value: int


class Peripheral:
    """Base: register handlers on the bus, advance with CPU cycles.

    ``self.now`` is the device cycle counter, updated by the device
    before peripheral handlers can run, so event timestamps and
    schedules are cycle-accurate.
    """

    name = "peripheral"

    def __init__(self):
        self.now = 0
        self.events: List[IoEvent] = []
        self._ic = None

    def attach(self, bus, interrupt_controller=None):
        self._ic = interrupt_controller
        self._register(bus)

    def _register(self, bus):
        raise NotImplementedError

    def tick(self, cycles):
        """Advance simulated time by *cycles* CPU cycles."""
        self.now += cycles

    def reset(self):
        """Device reset: clear transient state but keep the event log.

        Event logs survive reset on purpose: they are the experiment's
        observation channel, not device state.
        """

    # Additional list-valued log attributes (subclasses extend).  Each
    # entry is a tuple whose first item is the ``now`` it was logged at.
    _log_attrs = ()

    def drop_since(self, cycle):
        """Drop the log entries stamped at or after *cycle*.

        A monitor violation voids the step that started at *cycle*; its
        entries are the newest ones, so they are popped off the end.
        """
        events = self.events
        while events and events[-1].cycle >= cycle:
            events.pop()
        for attr in self._log_attrs:
            log = getattr(self, attr)
            while log and log[-1][0] >= cycle:
                log.pop()

    # ---- full-state snapshot/restore (see repro.snapshot) ------------------
    #
    # These capture the peripheral's complete mutable state as JSON types
    # so a restored device resumes mid-transaction (latched reads,
    # pending ticks, the DONE latch) without replaying or dropping
    # events.  Construction-time configuration -- stimulus schedules,
    # callables -- is NOT state: the restore target is built with the
    # same configuration.

    def snapshot_state(self):
        state = {
            "now": self.now,
            "events": [[e.cycle, e.port, e.value] for e in self.events],
        }
        state.update(self._snapshot_extra())
        return state

    def restore_state(self, state):
        self.now = state["now"]
        self.events[:] = [IoEvent(cycle, port, value)
                          for cycle, port, value in state["events"]]
        self._restore_extra(state)

    def _snapshot_extra(self):
        """Subclass hook: additional mutable fields, JSON-safe."""
        return {}

    def _restore_extra(self, state):
        """Subclass hook: adopt the fields _snapshot_extra captured."""

    def emit(self, port, value):
        self.events.append(IoEvent(self.now, port, value & 0xFFFF))

    def raise_irq(self, vector):
        if self._ic is not None:
            self._ic.request(vector)

    # ---- trace helpers -----------------------------------------------------

    def event_values(self, port=None):
        return [e.value for e in self.events if port is None or e.port == port]
