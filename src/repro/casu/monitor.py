"""Hardware monitor: one table-driven check over the CPU's bus signals.

CASU's hardware is a handful of small, formally verified FSMs
(the VRASED/CASU decomposition), and EILID adds a secure shadow-stack
bank and a violation port.  :mod:`repro.verification.properties` holds
the abstract FSMs; :meth:`HardwareMonitor.observe` evaluates all of them
for one :class:`repro.cpu.StepRecord` in a single pass over its bus
accesses, looking each address up in the 64 KB attribute table of
:class:`repro.memory.map.MemoryLayout`.  Which line mirrors which FSM:

* ``w_xor_x_fsm`` -- a FETCH whose address lacks the ``_F_EXEC`` bit
  (code injection);
* ``pmem_guard_fsm`` -- a WRITE to a ``_F_PMEM`` address, unless the PC
  is in secure ROM *and* an authenticated update session is open;
* ``secure_ram_fsm`` -- a READ or WRITE of a ``_F_SDMEM`` address
  (the shadow-stack bank) while the PC is outside secure ROM;
* ``rom_atomicity_fsm`` -- the ``(pc, next_pc, kind)`` test: ROM is
  entered only at a declared entry point, left only from a declared
  exit range, and never interrupted;

plus two checks with no FSM of their own: a WRITE to the violation port
(from ROM, EILIDsw reporting a failed CFI check; from anywhere else, an
attack) and an ILLEGAL step.  The ROM-atomicity FSM's ``IN_ROM`` state
is the PC's ``_F_SROM`` bit, so that check keeps no state of its own;
the PMEM guard's update session is the monitor's only mutable state.

Hardware ORs the violation wires into one reset line.  When several
fire in one step the reported reason is the first in the order
W-xor-X, PMEM, secure RAM, ROM atomicity, violation port, illegal
instruction, and each reason reports the first access that trips it.
"""

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cpu.core import StepKind
from repro.memory.bus import AccessKind
from repro.memory.map import _F_EXEC, _F_PMEM, _F_SDMEM, _F_SROM
from repro.peripherals.ports import VIOLATION_PORT


class ViolationReason(enum.Enum):
    W_XOR_X = "exec-from-nonexecutable"
    PMEM_WRITE = "pmem-write-outside-update"
    SECURE_RAM_ACCESS = "secure-ram-access-from-untrusted-code"
    ROM_ENTRY = "rom-entered-off-entry-point"
    ROM_EXIT = "rom-left-outside-exit-section"
    IRQ_IN_ROM = "interrupt-inside-rom"
    ILLEGAL_INSN = "illegal-instruction"
    SECURE_PORT = "violation-port-write-from-untrusted-code"
    # Reason codes written by EILIDsw to the violation port:
    CFI_RETURN = "cfi-return-address-mismatch"
    CFI_RFI = "cfi-interrupt-context-mismatch"
    CFI_INDIRECT = "cfi-illegal-indirect-target"
    SHADOW_OVERFLOW = "shadow-stack-overflow"
    SHADOW_UNDERFLOW = "shadow-stack-underflow"
    TABLE_OVERFLOW = "function-table-overflow"
    BAD_SELECTOR = "bad-rom-selector"


# EILIDsw reason-code wire values -> reasons (must match trusted_sw.py).
SW_REASON_CODES = {
    1: ViolationReason.CFI_RETURN,
    2: ViolationReason.CFI_RFI,
    3: ViolationReason.CFI_INDIRECT,
    4: ViolationReason.SHADOW_OVERFLOW,
    5: ViolationReason.SHADOW_UNDERFLOW,
    6: ViolationReason.TABLE_OVERFLOW,
    7: ViolationReason.BAD_SELECTOR,
}


@dataclass(frozen=True)
class Violation:
    reason: ViolationReason
    pc: int
    addr: Optional[int] = None
    detail: str = ""

    def __str__(self):
        where = f" addr=0x{self.addr:04x}" if self.addr is not None else ""
        return f"{self.reason.value} at pc=0x{self.pc:04x}{where} {self.detail}".rstrip()


@dataclass(frozen=True)
class RomConfig:
    """Trusted-ROM shape the atomicity check enforces."""

    entry_points: Tuple[int, ...] = ()
    exit_ranges: Tuple[Tuple[int, int], ...] = ()  # inclusive address ranges


@dataclass
class MonitorPolicy:
    """Which checks are armed.

    ``casu()`` is the base active-RoT configuration; ``eilid()`` adds
    the secure shadow-stack bank guard and the CFI violation port.
    """

    w_xor_x: bool = True
    pmem_guard: bool = True
    rom_atomicity: bool = True
    secure_ram_guard: bool = False
    violation_port: bool = False
    illegal_insn: bool = True

    @staticmethod
    def casu():
        return MonitorPolicy()

    @staticmethod
    def eilid():
        return MonitorPolicy(secure_ram_guard=True, violation_port=True)


_FETCH = AccessKind.FETCH
_WRITE = AccessKind.WRITE
_INTERRUPT = StepKind.INTERRUPT
_ILLEGAL = StepKind.ILLEGAL


class HardwareMonitor:
    """The armed checks of *policy*, evaluated once per CPU step."""

    def __init__(self, layout, policy: Optional[MonitorPolicy] = None,
                 rom_config: Optional[RomConfig] = None):
        self.layout = layout
        self.policy = policy = policy or MonitorPolicy.casu()
        self.rom_config = rom_config = rom_config or RomConfig()
        self.update_session_open = False
        self._flags = layout._flags
        self._w_xor_x = policy.w_xor_x
        self._rom_atomicity = policy.rom_atomicity
        self._illegal_insn = policy.illegal_insn
        # A disarmed guard watches no address bit (or, for the port, no
        # address at all).
        self._pmem_bit = _F_PMEM if policy.pmem_guard else 0
        self._sdmem_bit = _F_SDMEM if policy.secure_ram_guard else 0
        self._port = VIOLATION_PORT if policy.violation_port else -1
        self._entries = frozenset(rom_config.entry_points)
        self._exits = frozenset(addr for start, end in rom_config.exit_ranges
                                for addr in range(start, end + 1))

    def observe(self, step) -> Optional[Violation]:
        """Check one CPU step; see the module docstring for the order."""
        flags = self._flags
        pc = step.pc
        in_rom = flags[pc] & _F_SROM
        # Address bits a data access from this PC must not touch.
        read_watch = 0 if in_rom else self._sdmem_bit
        write_watch = read_watch
        if not (in_rom and self.update_session_open):
            write_watch |= self._pmem_bit
        port = self._port
        w_xor_x = self._w_xor_x
        pmem_addr = sram_addr = port_value = None
        for access in step.accesses:
            kind = access.kind
            addr = access.addr
            if kind is _FETCH:
                if w_xor_x and not flags[addr] & _F_EXEC:
                    return Violation(ViolationReason.W_XOR_X, pc, addr)
            elif kind is _WRITE:
                bits = flags[addr] & write_watch
                if bits or addr == port:
                    if bits & _F_PMEM and pmem_addr is None:
                        pmem_addr = addr
                    if bits & _F_SDMEM and sram_addr is None:
                        sram_addr = addr
                    if addr == port and port_value is None:
                        port_value = access.value
            elif flags[addr] & read_watch and sram_addr is None:
                sram_addr = addr
        if pmem_addr is not None:
            return Violation(ViolationReason.PMEM_WRITE, pc, pmem_addr)
        if sram_addr is not None:
            return Violation(ViolationReason.SECURE_RAM_ACCESS, pc, sram_addr)
        if self._rom_atomicity:
            next_pc = step.next_pc
            if in_rom:
                if step.kind is _INTERRUPT:
                    return Violation(ViolationReason.IRQ_IN_ROM, pc)
                if not flags[next_pc] & _F_SROM and pc not in self._exits:
                    return Violation(ViolationReason.ROM_EXIT, pc, next_pc)
            elif flags[next_pc] & _F_SROM and next_pc not in self._entries:
                return Violation(ViolationReason.ROM_ENTRY, pc, next_pc)
        if port_value is not None:
            if in_rom:
                reason = SW_REASON_CODES.get(port_value,
                                             ViolationReason.BAD_SELECTOR)
                return Violation(reason, pc, detail="(EILIDsw check failed)")
            return Violation(ViolationReason.SECURE_PORT, pc, port)
        if step.kind is _ILLEGAL and self._illegal_insn:
            return Violation(ViolationReason.ILLEGAL_INSN, pc,
                             detail=f"word=0x{step.illegal_word:04x}")
        return None

    def reset(self):
        """Return to the power-on state (called after a device reset)."""
        self.update_session_open = False

    # ---- update session control (driven by the update engine) -----------

    def open_update_session(self):
        if not self._pmem_bit:
            raise RuntimeError("monitor has no PMEM guard to unlock")
        self.update_session_open = True

    def close_update_session(self):
        self.update_session_open = False

    # ---- snapshot/restore (see repro.snapshot) -----------------------

    def snapshot_state(self):
        """The monitor's only mutable state: the PMEM-guard session."""
        return {"update_session_open": self.update_session_open}

    def restore_state(self, state):
        if self._pmem_bit:
            self.update_session_open = bool(state["update_session_open"])
