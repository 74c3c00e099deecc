"""Interrupt controller: pending lines, priority, vector lookup.

MSP430 interrupt priority grows with the vector address; the reset
vector (index 15) is handled by the device, not by this controller.
Lines are edge-style: a request stays pending until the CPU accepts it,
at which point it auto-clears (peripherals re-raise as needed).

Pending lines are one bitmask, :attr:`InterruptController.pending`
(bit *i* = vector *i*), so the CPU tests "anything pending?" with one
truth test per step and acceptance picks the highest set bit.
"""

from repro.errors import MemoryAccessError
from repro.memory.map import NUM_VECTORS

RESET_VECTOR_INDEX = 15


class InterruptController:
    def __init__(self):
        self.pending = 0

    def request(self, index):
        if not 0 <= index < NUM_VECTORS:
            raise MemoryAccessError(f"interrupt index {index} out of range")
        if index == RESET_VECTOR_INDEX:
            raise MemoryAccessError("reset is requested through the device, not the IC")
        self.pending |= 1 << index

    def clear(self, index):
        self.pending &= ~(1 << index)

    def clear_all(self):
        self.pending = 0

    def pending_index(self):
        """Highest-priority pending vector index, or ``None``."""
        return self.pending.bit_length() - 1 if self.pending else None

    def accept(self):
        """Pop the highest-priority pending interrupt (CPU side)."""
        index = self.pending_index()
        if index is not None:
            self.pending &= ~(1 << index)
        return index

    @property
    def any_pending(self):
        return self.pending != 0

    # ---- snapshot/restore (see repro.snapshot) ---------------------------
    #
    # The wire form stays one bool per line.

    def snapshot_state(self):
        return {"pending": [bool(self.pending >> index & 1)
                            for index in range(NUM_VECTORS)]}

    def restore_state(self, state):
        pending = state["pending"]
        if len(pending) != NUM_VECTORS:
            raise MemoryAccessError(
                f"interrupt snapshot has {len(pending)} lines, "
                f"expected {NUM_VECTORS}")
        if pending[RESET_VECTOR_INDEX]:
            raise MemoryAccessError(
                "interrupt snapshot has the reset line pending")
        self.pending = sum(1 << index for index, line in enumerate(pending)
                           if line)
