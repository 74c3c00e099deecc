"""CASU substrate: the active Root-of-Trust EILID builds on.

CASU (Compromise Avoidance via Secure Update, ICCAD'22) is a hybrid
hardware/software RoT that makes deployed software immutable: program
memory writes are blocked outside an authenticated update, data memory
never executes (W xor X), and the trusted ROM is atomic (single entry,
single exit, no interrupts inside).  Any violation resets the MCU.

This package models the CASU hardware -- with EILID's shadow-stack bank
guard and violation port -- as one per-step check over the CPU's bus
signals (:mod:`repro.casu.monitor`): a single pass over the step's
accesses against the layout's 64 KB attribute table, plus the ROM
entry/exit/interrupt test on ``(pc, next_pc, kind)``.  Each part of
that check mirrors one model-checked FSM of
:mod:`repro.verification.properties` (W xor X, PMEM guard, secure RAM,
ROM atomicity), and ``tests/test_monitor.py`` checks the two agree over
each FSM's full input space.  The package also holds the authenticated
update protocol (:mod:`repro.casu.update`) and a structural hardware
cost model used for the Fig. 10 reproduction (:mod:`repro.casu.hwmodel`).
"""

from repro.casu.monitor import (
    HardwareMonitor,
    MonitorPolicy,
    RomConfig,
    Violation,
    ViolationReason,
)
from repro.casu.update import UpdateEngine, UpdateKey, UpdatePackage, UpdateResult
from repro.casu.hwmodel import HardwareCostModel

__all__ = [
    "HardwareMonitor",
    "MonitorPolicy",
    "RomConfig",
    "Violation",
    "ViolationReason",
    "UpdateEngine",
    "UpdateKey",
    "UpdatePackage",
    "UpdateResult",
    "HardwareCostModel",
]
