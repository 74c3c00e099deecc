"""Device composition: reset semantics, rollback, CASU secure update."""

import pytest

from repro.casu.monitor import ViolationReason
from repro.casu.update import UpdateKey, UpdatePackage, UpdateStatus
from repro.device import build_device
from repro.eilid.iterbuild import IterativeBuild
from repro.peripherals import ports
from repro.toolchain.build import SourceModule


def raw_program(app_source, with_rom=True):
    builder = IterativeBuild()
    modules = [
        SourceModule("crt0.s", builder.trusted.crt0_source(eilid_enabled=False)),
        SourceModule("app.s", app_source, is_app=True),
    ]
    if with_rom:
        modules.append(SourceModule("eilid_rom.s", builder.trusted.rom_source()))
    return builder.pipeline.build(modules, name="raw").program


GOOD_APP = """
    .text
    .global main
main:
    mov #42, &0x0200
    mov #1, &0x0070
l:
    jmp l
"""


class TestDeviceBasics:
    def test_run_to_done(self):
        device = build_device(raw_program(GOOD_APP), security="casu")
        result = device.run(max_cycles=10_000)
        assert result.done and result.done_value == 1
        assert not result.violations
        assert result.cycles > 0 and result.instructions > 0

    def test_run_time_us_at_100mhz(self):
        device = build_device(raw_program(GOOD_APP), security="none")
        result = device.run(max_cycles=10_000)
        assert result.run_time_us == result.cycles / 100.0

    def test_break_at(self):
        program = raw_program(GOOD_APP)
        device = build_device(program, security="none")
        main = program.symbols["main"]
        device.run(break_at={main}, stop_on_done=False, max_cycles=10_000)
        assert device.cpu.pc == main

    def test_illegal_instruction_resets_with_monitor(self):
        app = GOOD_APP.replace("mov #42, &0x0200", ".word 0x0000")
        device = build_device(raw_program(app), security="casu")
        result = device.run(max_cycles=10_000)
        assert result.violations
        assert result.violations[0].reason is ViolationReason.ILLEGAL_INSN

    def test_violation_rolls_back_the_step(self):
        # A PMEM write from app code must not land before the reset.
        app = GOOD_APP.replace("mov #42, &0x0200", "mov #0xdead, &0xe200")
        program = raw_program(app)
        device = build_device(program, security="casu")
        before = device.peek_word(0xE200)
        result = device.run(max_cycles=10_000)
        assert result.violations[0].reason is ViolationReason.PMEM_WRITE
        assert device.peek_word(0xE200) == before
        assert device.reset_count == 1

    def test_violation_rolls_back_the_done_latch(self):
        # Regression: a voided step's DONE write must not survive the
        # rollback.  Injected code in DMEM writes DONE_PORT; executing
        # it is itself the W-xor-X violation, so the harness latch set
        # by the in-flight write has to be restored with the rest of
        # the step's effects.
        device = build_device(raw_program(GOOD_APP), security="casu")
        shellcode = device.layout.dmem.start + 0x40
        for index, word in enumerate((0x40B2, 0x00AA, 0x0070)):  # mov #0xAA, &DONE
            device.bus.poke_word(shellcode + 2 * index, word)
        device.cpu.set_reg(0, shellcode)
        record, violation = device.step()
        assert violation is not None
        assert violation.reason is ViolationReason.W_XOR_X
        assert device.harness.done is False
        assert device.harness.done_value is None
        assert device.harness.event_values("harness.done") == []
        assert device.reset_count == 1

    # Every voidable peripheral log: (port, peripheral, event port, the
    # peripheral's own log attribute or None).
    VOIDABLE = [
        (ports.UART_TX, "uart", "uart.tx", "tx_log"),
        (ports.LCD_DATA, "lcd", "lcd.data", "data_log"),
        (ports.LCD_CMD, "lcd", "lcd.cmd", "command_log"),
        (ports.VIOLATION_PORT, "harness", "harness.violation", "violation_writes"),
        (ports.DONE_PORT, "harness", "harness.done", None),
    ]

    @staticmethod
    def _mov_to(port, value):
        return (0x40B2, value, port)  # mov #value, &port

    @pytest.mark.parametrize("port,name,event,log_attr", VOIDABLE,
                             ids=[entry[2] for entry in VOIDABLE])
    def test_voided_step_leaves_no_log_entry_and_no_latch(self, port, name, event,
                                                          log_attr):
        """A step voided by W-xor-X (it ran from DMEM) drops what its
        port write logged, while entries of committed steps -- even one
        committed by the step right before -- stay."""
        device = build_device(raw_program(GOOD_APP), security="casu")
        peripheral = device.peripherals[name]
        shellcode, pmem_code = device.layout.dmem.start + 0x40, 0xF000
        for index, word in enumerate(self._mov_to(port, 0xAA)):
            device.bus.poke_word(shellcode + 2 * index, word)
        for index, word in enumerate(self._mov_to(port, 0x11)):
            device.bus.poke_word(pmem_code + 2 * index, word)

        def logged():
            entries = [peripheral.event_values(event)]
            if log_attr is not None:
                entries.append([entry[1:] for entry in getattr(peripheral, log_attr)])
            return entries, (device.harness.done, device.harness.done_value)

        empty = logged()
        device.cpu.set_reg(0, shellcode)
        _record, violation = device.step()
        assert violation.reason is ViolationReason.W_XOR_X
        assert logged() == empty
        assert device.harness.done is False

        device.cpu.set_reg(0, pmem_code)
        assert device.step()[1] is None
        committed = logged()
        assert committed != empty
        device.cpu.set_reg(0, shellcode)
        assert device.step()[1].reason is ViolationReason.W_XOR_X
        assert logged() == committed
        assert device.reset_count == 2

    @pytest.mark.parametrize("port,name,event,log_attr", VOIDABLE,
                             ids=[entry[2] for entry in VOIDABLE])
    def test_voided_step_after_clock_jump_leaves_no_log_entry(
            self, port, name, event, log_attr):
        """Regression: a clock jump (fleet resume fast-forwards a rebuilt
        replica) moves every peripheral clock too, so the very first
        step after it is voided like any other."""
        device = build_device(raw_program(GOOD_APP), security="casu")
        device.advance_clock(1_000_000)
        device.advance_clock(5)  # never backward
        assert device.cycle == 1_000_000
        assert {p.now for p in device.peripherals.values()} == {1_000_000}
        shellcode = device.layout.dmem.start + 0x40
        for index, word in enumerate(self._mov_to(port, 0xAA)):
            device.bus.poke_word(shellcode + 2 * index, word)
        device.cpu.set_reg(0, shellcode)
        _record, violation = device.step()
        assert violation.reason is ViolationReason.W_XOR_X
        peripheral = device.peripherals[name]
        assert peripheral.event_values(event) == []
        if log_attr is not None:
            assert getattr(peripheral, log_attr) == []

    def test_untrusted_violation_port_write_is_voided(self):
        # Under EILID the write itself is the violation.
        device = build_device(raw_program(GOOD_APP), security="eilid")
        for index, word in enumerate(self._mov_to(ports.VIOLATION_PORT, 1)):
            device.bus.poke_word(0xF000 + 2 * index, word)
        device.cpu.set_reg(0, 0xF000)
        _record, violation = device.step()
        assert violation.reason is ViolationReason.SECURE_PORT
        assert device.harness.violation_writes == []
        assert device.harness.events == []

    def test_reset_restarts_at_reset_vector(self):
        app = GOOD_APP.replace("mov #42, &0x0200", "mov #0xdead, &0xe200")
        program = raw_program(app)
        device = build_device(program, security="casu")
        device.run(max_cycles=10_000)
        assert device.cpu.pc == program.entry

    def test_no_monitor_means_no_reset(self):
        app = GOOD_APP.replace("mov #42, &0x0200", "mov #0xdead, &0xe200")
        device = build_device(raw_program(app), security="none")
        result = device.run(max_cycles=10_000)
        assert not result.violations and result.done
        assert device.peek_word(0xE200) == 0xDEAD  # write persisted


class TestSecureUpdate:
    def make_device(self):
        program = raw_program(GOOD_APP, with_rom=True)
        key = UpdateKey.derive(program.name)
        return build_device(program, security="casu", update_key=key), key

    def test_valid_update_applies(self):
        device, key = self.make_device()
        payload = bytes((0x11, 0x22, 0x33, 0x44))
        package = UpdatePackage.make(key, target=0xE800, payload=payload, version=1)
        result = device.apply_update(package)
        assert result.ok
        assert device.peek_word(0xE800) == 0x2211
        assert device.peek_word(0xE802) == 0x4433
        assert device.update_engine.current_version == 1
        assert not device.violations  # ROM copy ran without tripping

    def test_tampered_payload_rejected(self):
        device, key = self.make_device()
        package = UpdatePackage.make(key, 0xE800, b"\x11\x22", version=1)
        result = device.apply_update(package.tampered())
        assert result.status is UpdateStatus.BAD_MAC
        assert device.peek_word(0xE800) == 0

    def test_wrong_key_rejected(self):
        device, _key = self.make_device()
        wrong = UpdateKey.derive("mallory")
        package = UpdatePackage.make(wrong, 0xE800, b"\x11\x22", version=1)
        assert device.apply_update(package).status is UpdateStatus.BAD_MAC

    def test_rollback_protection(self):
        device, key = self.make_device()
        good = UpdatePackage.make(key, 0xE800, b"\x11\x22", version=2)
        assert device.apply_update(good).ok
        stale = UpdatePackage.make(key, 0xE800, b"\x33\x44", version=1)
        result = device.apply_update(stale)
        assert result.status is UpdateStatus.STALE_VERSION
        assert device.peek_word(0xE800) == 0x2211  # unchanged

    def test_replay_rejected(self):
        device, key = self.make_device()
        package = UpdatePackage.make(key, 0xE800, b"\x11\x22", version=1)
        assert device.apply_update(package).ok
        assert device.apply_update(package).status is UpdateStatus.STALE_VERSION

    def test_update_session_gates_the_guard(self):
        # The same ROM copy routine without an open session must reset.
        device, key = self.make_device()
        staging = device.layout.dmem.start + 6
        device.bus.load_bytes(staging, b"\x11\x22")
        violations = device.call_routine(
            "S_CASU_update_copy", regs={15: staging, 14: 0xE800, 13: 1}
        )
        assert violations and violations[0].reason is ViolationReason.PMEM_WRITE
        assert device.peek_word(0xE800) == 0


class TestIterativeBuild:
    APP = """
    .text
    .global main
    .global work
main:
    call #work
    call #work
    mov #1, &0x0070
l:
    jmp l
work:
    mov #7, r10
    ret
"""

    def test_three_builds(self):
        result = IterativeBuild().build_eilid(self.APP, "app.s")
        assert result.build_count == 3

    def test_fixed_point_verified(self):
        result = IterativeBuild().build_eilid(self.APP, "app.s", verify_convergence=True)
        assert result.converged

    def test_fourth_build_is_byte_identical(self):
        builder = IterativeBuild()
        result = builder.build_eilid(self.APP, "app.s", verify_convergence=True)
        final = result.final
        again = builder.pipeline.build(
            builder._eilid_modules(result.final_source, "app.s"), name="again"
        )
        assert final.segments() == again.segments()

    def test_iteration2_addresses_stale_iteration3_correct(self):
        """The documented reason for three builds (Fig. 2)."""
        builder = IterativeBuild()
        result = builder.build_eilid(self.APP, "app.s")
        instr_pass1 = result.iterations[1].instrumented_source
        instr_pass2 = result.iterations[2].instrumented_source
        assert instr_pass1 != instr_pass2  # addresses shifted

    def test_original_build_has_no_rom(self):
        builder = IterativeBuild()
        original = builder.build_original(self.APP, "app.s")
        assert "S_EILID_entry" not in original.program.symbols

    def test_parse_cache_reused_across_iterations(self):
        builder = IterativeBuild()
        builder.build_eilid(self.APP, "app.s")
        hits_before = builder.pipeline.cache_hits
        builder.build_eilid(self.APP, "app.s")
        assert builder.pipeline.cache_hits > hits_before
