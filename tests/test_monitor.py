"""The hardware monitor against synthetic step records and its FSMs."""

import pytest

from repro.casu.monitor import (
    HardwareMonitor,
    MonitorPolicy,
    RomConfig,
    ViolationReason,
)
from repro.cpu.core import StepKind, StepRecord
from repro.memory.bus import Access, AccessKind
from repro.memory.map import MemoryLayout, RegionKind
from repro.peripherals.ports import VIOLATION_PORT
from repro.verification.properties import (
    pmem_guard_fsm,
    rom_atomicity_fsm,
    secure_ram_fsm,
    w_xor_x_fsm,
)

LAYOUT = MemoryLayout.default()
ROM = LAYOUT.secure_rom
ENTRY = ROM.start
LEAVE = ROM.start + 0x40
ROM_CONFIG = RomConfig(entry_points=(ENTRY,), exit_ranges=((LEAVE, LEAVE + 2),))


def step(pc, next_pc=None, accesses=(), kind=StepKind.INSTRUCTION, vector=None,
         illegal=None):
    return StepRecord(
        kind=kind,
        pc=pc,
        next_pc=next_pc if next_pc is not None else pc + 2,
        cycles=1,
        accesses=list(accesses),
        vector=vector,
        illegal_word=illegal,
    )


def fetch(addr, pc):
    return Access(AccessKind.FETCH, addr, 0, 2, pc)


def write(addr, value, pc):
    return Access(AccessKind.WRITE, addr, value, 2, pc, prev=0)


def read(addr, pc):
    return Access(AccessKind.READ, addr, 0, 2, pc)


def eilid_monitor():
    return HardwareMonitor(LAYOUT, MonitorPolicy.eilid(), ROM_CONFIG)


def casu_monitor():
    return HardwareMonitor(LAYOUT, MonitorPolicy.casu(), ROM_CONFIG)


class TestWxorX:
    def test_fetch_from_pmem_ok(self):
        assert eilid_monitor().observe(step(0xE000, accesses=[fetch(0xE000, 0xE000)])) is None

    def test_fetch_from_rom_ok(self):
        monitor = eilid_monitor()
        assert monitor.observe(step(ENTRY, accesses=[fetch(ENTRY, ENTRY)])) is None

    @pytest.mark.parametrize("addr", [0x0200, 0x0300, 0x1000])
    def test_fetch_from_ram_violates(self, addr):
        violation = eilid_monitor().observe(step(addr, accesses=[fetch(addr, addr)]))
        assert violation is not None
        assert violation.reason is ViolationReason.W_XOR_X

    def test_data_read_from_ram_ok(self):
        assert eilid_monitor().observe(
            step(0xE000, accesses=[read(0x0200, 0xE000)])
        ) is None


class TestPmemGuard:
    def test_write_from_app_violates(self):
        violation = casu_monitor().observe(
            step(0xE010, accesses=[write(0xE100, 1, 0xE010)])
        )
        assert violation.reason is ViolationReason.PMEM_WRITE

    def test_ivt_write_violates(self):
        violation = casu_monitor().observe(
            step(0xE010, accesses=[write(0xFFFE, 1, 0xE010)])
        )
        assert violation.reason is ViolationReason.PMEM_WRITE

    def test_rom_write_without_session_violates(self):
        monitor = casu_monitor()
        violation = monitor.observe(step(ENTRY, accesses=[write(0xE100, 1, ENTRY)]))
        assert violation.reason is ViolationReason.PMEM_WRITE

    def test_update_session_from_rom_allowed(self):
        monitor = casu_monitor()
        monitor.open_update_session()
        assert monitor.observe(step(ENTRY, accesses=[write(0xE100, 1, ENTRY)])) is None

    def test_update_session_from_app_still_violates(self):
        monitor = casu_monitor()
        monitor.open_update_session()
        violation = monitor.observe(step(0xE010, accesses=[write(0xE100, 1, 0xE010)]))
        assert violation.reason is ViolationReason.PMEM_WRITE

    def test_session_cleared_on_reset(self):
        monitor = casu_monitor()
        monitor.open_update_session()
        monitor.reset()
        assert not monitor.update_session_open


class TestSecureRamGuard:
    SHADOW = LAYOUT.secure_dmem.start + 4

    def test_app_read_violates(self):
        violation = eilid_monitor().observe(
            step(0xE010, accesses=[read(self.SHADOW, 0xE010)])
        )
        assert violation.reason is ViolationReason.SECURE_RAM_ACCESS

    def test_app_write_violates(self):
        violation = eilid_monitor().observe(
            step(0xE010, accesses=[write(self.SHADOW, 1, 0xE010)])
        )
        assert violation.reason is ViolationReason.SECURE_RAM_ACCESS

    def test_rom_access_allowed(self):
        assert eilid_monitor().observe(
            step(ENTRY, accesses=[write(self.SHADOW, 1, ENTRY)])
        ) is None

    def test_casu_policy_does_not_guard(self):
        # The shadow-stack guard is the EILID hardware extension.
        assert casu_monitor().observe(
            step(0xE010, accesses=[write(self.SHADOW, 1, 0xE010)])
        ) is None


class TestRomAtomicity:
    def test_entry_at_entry_point_ok(self):
        assert eilid_monitor().observe(step(0xE010, next_pc=ENTRY)) is None

    def test_mid_rom_entry_violates(self):
        violation = eilid_monitor().observe(step(0xE010, next_pc=ENTRY + 8))
        assert violation.reason is ViolationReason.ROM_ENTRY

    def test_exit_from_leave_ok(self):
        assert eilid_monitor().observe(step(LEAVE + 2, next_pc=0xE010)) is None

    def test_mid_rom_exit_violates(self):
        violation = eilid_monitor().observe(step(ENTRY + 4, next_pc=0xE010))
        assert violation.reason is ViolationReason.ROM_EXIT

    def test_irq_inside_rom_violates(self):
        violation = eilid_monitor().observe(
            step(ENTRY + 4, next_pc=0xFFF2, kind=StepKind.INTERRUPT, vector=9)
        )
        assert violation.reason is ViolationReason.IRQ_IN_ROM

    def test_irq_outside_rom_ok(self):
        assert eilid_monitor().observe(
            step(0xE010, next_pc=0xFFF2, kind=StepKind.INTERRUPT, vector=9)
        ) is None

    def test_rom_internal_transfer_ok(self):
        assert eilid_monitor().observe(step(ENTRY, next_pc=ENTRY + 20)) is None


class TestViolationPort:
    @pytest.mark.parametrize("code,reason", [
        (1, ViolationReason.CFI_RETURN),
        (2, ViolationReason.CFI_RFI),
        (3, ViolationReason.CFI_INDIRECT),
        (4, ViolationReason.SHADOW_OVERFLOW),
        (5, ViolationReason.SHADOW_UNDERFLOW),
        (6, ViolationReason.TABLE_OVERFLOW),
        (7, ViolationReason.BAD_SELECTOR),
    ])
    def test_rom_write_maps_reason_codes(self, code, reason):
        violation = eilid_monitor().observe(
            step(ENTRY + 10, accesses=[write(VIOLATION_PORT, code, ENTRY + 10)])
        )
        assert violation.reason is reason

    def test_app_write_is_an_attack(self):
        violation = eilid_monitor().observe(
            step(0xE010, accesses=[write(VIOLATION_PORT, 1, 0xE010)])
        )
        assert violation.reason is ViolationReason.SECURE_PORT


class TestIllegalInstruction:
    def test_illegal_step_violates(self):
        violation = eilid_monitor().observe(
            step(0xE010, kind=StepKind.ILLEGAL, illegal=0x0000)
        )
        assert violation.reason is ViolationReason.ILLEGAL_INSN


class TestComposition:
    def test_first_violation_wins(self):
        # A fetch from RAM combined with a PMEM write: W-xor-X is
        # checked first in the composition order.
        record = step(0x0200, accesses=[fetch(0x0200, 0x0200), write(0xE000, 1, 0x0200)])
        violation = eilid_monitor().observe(record)
        assert violation.reason is ViolationReason.W_XOR_X

    # One case per adjacent pair of the priority order W-xor-X > PMEM >
    # secure RAM > ROM atomicity > violation port > illegal.  Each step
    # trips both checks of its pair, with the lower-priority offender
    # first on the bus, and the higher-priority reason must win.

    def test_w_xor_x_beats_pmem_guard_in_any_access_order(self):
        record = step(0x0200, accesses=[write(0xE000, 1, 0x0200),
                                        fetch(0x0200, 0x0200)])
        violation = eilid_monitor().observe(record)
        assert (violation.reason, violation.addr) == (ViolationReason.W_XOR_X, 0x0200)

    def test_pmem_guard_beats_secure_ram_guard(self):
        shadow = LAYOUT.secure_dmem.start
        record = step(0xE010, accesses=[read(shadow, 0xE010), write(0xE100, 1, 0xE010)])
        violation = eilid_monitor().observe(record)
        assert (violation.reason, violation.addr) == (ViolationReason.PMEM_WRITE, 0xE100)

    def test_secure_ram_guard_beats_rom_atomicity(self):
        shadow = LAYOUT.secure_dmem.start + 2
        record = step(0xE010, next_pc=ENTRY + 8, accesses=[read(shadow, 0xE010)])
        violation = eilid_monitor().observe(record)
        assert (violation.reason, violation.addr) == (
            ViolationReason.SECURE_RAM_ACCESS, shadow)

    def test_rom_atomicity_beats_violation_port(self):
        record = step(ENTRY + 4, next_pc=0xE010,
                      accesses=[write(VIOLATION_PORT, 1, ENTRY + 4)])
        violation = eilid_monitor().observe(record)
        assert (violation.reason, violation.addr) == (ViolationReason.ROM_EXIT, 0xE010)

    def test_violation_port_beats_illegal_instruction(self):
        record = step(0xE010, kind=StepKind.ILLEGAL, illegal=0x0000,
                      accesses=[write(VIOLATION_PORT, 1, 0xE010)])
        violation = eilid_monitor().observe(record)
        assert (violation.reason, violation.addr) == (
            ViolationReason.SECURE_PORT, VIOLATION_PORT)

    def test_each_reason_reports_its_first_offending_access(self):
        shadow = LAYOUT.secure_dmem.start
        record = step(0xE010, accesses=[
            read(shadow + 4, 0xE010), write(0xE100, 1, 0xE010),
            write(shadow, 1, 0xE010), write(0xE200, 1, 0xE010)])
        assert eilid_monitor().observe(record).addr == 0xE100
        record.accesses.pop(1)
        assert eilid_monitor().observe(record).addr == 0xE200
        record.accesses.pop()
        assert eilid_monitor().observe(record).addr == shadow + 4

    def test_benign_step_passes_everything(self):
        record = step(0xE010, accesses=[fetch(0xE010, 0xE010), write(0x0300, 5, 0xE010)])
        assert eilid_monitor().observe(record) is None


# ---- conformance with the model-checked FSMs ---------------------------------
#
# Each check of the monitor against its FSM in
# repro.verification.properties, over the FSM's full input space: every
# (non-VIOL state, input valuation) pair is realised by concrete step
# records, the FSM inputs are derived from the layout's *region list*
# (not the monitor's flags table), and the monitor must trip exactly when
# the FSM moves to VIOL, with the reason of the transition that fired.
# The address-driven checks sweep every address and every PC of the
# 64 KB space.


def _only(**armed):
    """A policy with just the named checks armed."""
    off = dict(w_xor_x=False, pmem_guard=False, rom_atomicity=False,
               secure_ram_guard=False, violation_port=False, illegal_insn=False)
    off.update(armed)
    return MonitorPolicy(**off)


def _region_kinds():
    kinds = [None] * 0x10000
    for region in LAYOUT.regions:
        for addr in range(region.start, region.end + 1):
            kinds[addr] = region.kind
    return kinds


KIND = _region_kinds()
ADDRESSES = range(0x10000)
IN_ROM_PC, OUTSIDE_PC = ROM.start + 0x10, 0xE010


def _fired(fsm, state, inputs):
    """The transition Fsm.step takes, or None for the self-loop."""
    for transition in fsm.transitions:
        if transition.source == state and transition.guard(inputs):
            return transition
    return None


def _conform(fsm, reason_for, cases):
    """Check (state, input values, monitor, record) cases against *fsm*.

    Records may be reused between cases (the generator mutates them), so
    each is observed as soon as it is yielded.  Returns the abstract
    points covered.
    """
    names = tuple(fsm.inputs)
    expected = {}
    for state, values, monitor, record in cases:
        key = (state, values)
        if key not in expected:
            transition = _fired(fsm, state, dict(zip(names, values)))
            expected[key] = (reason_for[transition.label]
                             if transition is not None and transition.target == "VIOL"
                             else None)
        violation = monitor.observe(record)
        got = None if violation is None else violation.reason
        assert got is expected[key], (state, dict(zip(names, values)), str(record))
    return set(expected)


def _full_space(fsm, states):
    return {(state, tuple(inputs[name] for name in fsm.inputs))
            for state in states for inputs in fsm.input_space()}


class TestFsmConformance:
    def test_w_xor_x_fsm(self):
        fsm = w_xor_x_fsm()
        monitor = HardwareMonitor(LAYOUT, _only(w_xor_x=True), ROM_CONFIG)
        executable = (RegionKind.PMEM, RegionKind.SECURE_ROM)
        record = step(OUTSIDE_PC, accesses=[None])

        def cases():
            for kind in (AccessKind.FETCH, AccessKind.READ):
                for addr in ADDRESSES:
                    record.accesses[0] = Access(kind, addr, 0, 2, OUTSIDE_PC)
                    yield ("OK", (kind is AccessKind.FETCH, KIND[addr] in executable),
                           monitor, record)

        covered = _conform(fsm, {"fetch-from-nx": ViolationReason.W_XOR_X}, cases())
        assert covered == _full_space(fsm, ["OK"])

    def test_pmem_guard_fsm(self):
        fsm = pmem_guard_fsm()
        immutable = (RegionKind.PMEM, RegionKind.IVT)
        record = step(OUTSIDE_PC, accesses=[None])

        def cases():
            for update_open in (False, True):
                monitor = HardwareMonitor(LAYOUT, _only(pmem_guard=True), ROM_CONFIG)
                if update_open:
                    monitor.open_update_session()
                # Every written address, from inside and outside the ROM.
                for pc in (IN_ROM_PC, OUTSIDE_PC):
                    record.pc = pc
                    pc_in_rom = KIND[pc] is RegionKind.SECURE_ROM
                    for addr in ADDRESSES:
                        record.accesses[0] = write(addr, 1, pc)
                        yield ("OK", (KIND[addr] in immutable, pc_in_rom, update_open),
                               monitor, record)
                    # A read of PMEM is no PMEM write.
                    record.accesses[0] = read(0xE100, pc)
                    yield "OK", (False, pc_in_rom, update_open), monitor, record
                # Every PC, writing PMEM.
                record.accesses[0] = write(0xE100, 1, 0)
                for pc in ADDRESSES:
                    record.pc = pc
                    yield ("OK", (True, KIND[pc] is RegionKind.SECURE_ROM, update_open),
                           monitor, record)

        covered = _conform(
            fsm, {"unauthorised-pmem-write": ViolationReason.PMEM_WRITE}, cases())
        assert covered == _full_space(fsm, ["OK"])

    def test_secure_ram_fsm(self):
        fsm = secure_ram_fsm()
        monitor = HardwareMonitor(LAYOUT, _only(secure_ram_guard=True), ROM_CONFIG)
        record = step(OUTSIDE_PC, accesses=[None])

        def cases():
            for pc in (IN_ROM_PC, OUTSIDE_PC):
                record.pc = pc
                pc_in_rom = KIND[pc] is RegionKind.SECURE_ROM
                for kind in AccessKind:
                    for addr in ADDRESSES:
                        record.accesses[0] = Access(kind, addr, 0, 2, pc, prev=0)
                        # Fetches are W-xor-X's signal, not a data access.
                        shadow = (KIND[addr] is RegionKind.SECURE_DMEM
                                  and kind is not AccessKind.FETCH)
                        yield "OK", (shadow, pc_in_rom), monitor, record
            record.accesses[0] = read(LAYOUT.secure_dmem.start, 0)
            for pc in ADDRESSES:
                record.pc = pc
                yield "OK", (True, KIND[pc] is RegionKind.SECURE_ROM), monitor, record

        covered = _conform(
            fsm, {"untrusted-shadow-access": ViolationReason.SECURE_RAM_ACCESS}, cases())
        assert covered == _full_space(fsm, ["OK"])

    def test_rom_atomicity_fsm(self):
        """Every (state, inputs) point, realised with a RomConfig built
        for the case, so entry points and exit ranges may sit anywhere
        the FSM's inputs allow (even outside the ROM)."""
        fsm = rom_atomicity_fsm()
        inside_next, outside_next = ROM.start + 0x20, 0xE020
        elsewhere = ROM.start + 0x100

        def cases():
            for state in ("OK", "IN_ROM"):
                pc = IN_ROM_PC if state == "IN_ROM" else OUTSIDE_PC
                for inputs in fsm.input_space():
                    next_pc = inside_next if inputs["next_in_rom"] else outside_next
                    rom_config = RomConfig(
                        entry_points=(next_pc if inputs["at_entry"] else elsewhere,),
                        exit_ranges=((pc, pc) if inputs["in_exit"]
                                     else (elsewhere, elsewhere + 2),))
                    if inputs["irq"]:
                        record = step(pc, next_pc=next_pc, kind=StepKind.INTERRUPT,
                                      vector=9, accesses=[
                                          write(0x09FE, pc, pc), write(0x09FC, 0, pc),
                                          read(0xFFF2, pc)])
                    else:
                        record = step(pc, next_pc=next_pc, accesses=[fetch(pc, pc)])
                    values = tuple(inputs[name] for name in fsm.inputs)
                    for policy in (MonitorPolicy.casu(), MonitorPolicy.eilid()):
                        yield state, values, HardwareMonitor(LAYOUT, policy, rom_config), record
                    # The monitor keeps no ROM state of its own: outside
                    # VIOL the FSM's next state is the ROM bit of next_pc.
                    target = fsm.step(state, inputs)
                    if target != "VIOL":
                        assert target == ("IN_ROM" if inputs["next_in_rom"] else "OK")

        covered = _conform(fsm, {
            "mid-rom-entry": ViolationReason.ROM_ENTRY,
            "mid-rom-exit": ViolationReason.ROM_EXIT,
            "irq-in-rom": ViolationReason.IRQ_IN_ROM,
        }, cases())
        assert covered == _full_space(fsm, ["OK", "IN_ROM"])
