"""Differential tests: decoded-instruction cache vs. uncached interpreter.

The cache (see :mod:`repro.cpu.core`) must be architecturally invisible:
for every Table IV application and every attack trace, a cached device
and an uncached device must produce bit-identical StepRecords (including
the monitor-visible access stream), cycle totals, monitor verdicts and
attestation evidence.  These tests run both interpreters in lockstep
and compare every record, then check the invalidation contract against
self-modifying and attacker-injected code.
"""

import functools
import types

import pytest
from hypothesis import given, settings, strategies as st

import repro.cpu.core as cpu_core
from repro.apps.registry import APPS, TABLE_IV_ORDER
from repro.attacks import (
    code_injection,
    interrupt_context_tamper,
    pointer_hijack,
    return_address_smash,
)
from repro.cpu import Cpu
from repro.device import build_device
from repro.eilid.iterbuild import IterativeBuild
from repro.isa import Instruction, Operand, encode
from repro.isa.opcodes import (
    FORMAT1_OPCODES,
    FORMAT2_BYTE_CAPABLE,
    FORMAT2_OPCODES,
    JUMP_OPCODES,
)
from repro.isa.registers import CG2, FLAG_C, FLAG_N, FLAG_V, FLAG_Z, PC, SP, SR
from repro.toolchain import link, parse_source
from repro.toolchain.build import SourceModule

# Enough lockstep steps to cover each app's startup, main loop and (for
# the short apps) the complete run; full-run equivalence is additionally
# covered by the attack differentials and the aggregate asserts below.
LOCKSTEP_STEPS = 15_000

ATTACKS = {
    "code_injection": code_injection,
    "return_address_smash": return_address_smash,
    "pointer_hijack": pointer_hijack,
    "interrupt_context_tamper": interrupt_context_tamper,
}


@pytest.fixture
def uncached_default():
    """Flip the process-wide interpreter default to the uncached path."""
    cpu_core.DECODE_CACHE_DEFAULT = False
    try:
        yield
    finally:
        cpu_core.DECODE_CACHE_DEFAULT = True


def lockstep(program, security, make_peripherals, max_steps=LOCKSTEP_STEPS):
    """Step a cached and an uncached device in lockstep, comparing
    every StepRecord (kind, PCs, cycles, instruction, access stream)
    and every monitor verdict."""
    cached = build_device(program, security=security,
                          peripherals=make_peripherals(), decode_cache=True)
    plain = build_device(program, security=security,
                         peripherals=make_peripherals(), decode_cache=False)
    assert cached.cpu._dcache is not None
    assert plain.cpu._dcache is None
    for step in range(max_steps):
        record_c, violation_c = cached.step()
        record_p, violation_p = plain.step()
        assert record_c == record_p, f"step {step} diverged"
        assert violation_c == violation_p, f"step {step} verdict diverged"
        if cached.harness.done:
            break
    assert cached.cycle == plain.cycle
    assert cached.cpu.total_cycles == plain.cpu.total_cycles
    assert cached.cpu.instruction_count == plain.cpu.instruction_count
    assert cached.cpu.regs == plain.cpu.regs
    assert cached.harness.done == plain.harness.done
    assert cached.harness.done_value == plain.harness.done_value
    assert cached.reset_count == plain.reset_count
    assert cached.trace_snapshot() == plain.trace_snapshot()
    assert cached.firmware_measurement() == plain.firmware_measurement()
    return cached, plain


@pytest.mark.parametrize("name", TABLE_IV_ORDER)
def test_table4_app_original_is_cache_invariant(name, app_builds):
    spec = APPS[name]
    original, _ = app_builds[name]
    lockstep(original.program, "none", spec.make_peripherals)


@pytest.mark.parametrize("name", TABLE_IV_ORDER)
def test_table4_app_eilid_is_cache_invariant(name, app_builds):
    spec = APPS[name]
    _, eilid = app_builds[name]
    lockstep(eilid.final.program, "eilid", spec.make_peripherals)


@pytest.mark.parametrize("attack_name", sorted(ATTACKS))
@pytest.mark.parametrize("security", ["none", "eilid"])
def test_attack_outcomes_are_cache_invariant(attack_name, security,
                                             uncached_default):
    """Each Table IV attack trace ends in the same outcome, violation
    reasons, cycle count and attestation evidence on both interpreters."""
    attack = ATTACKS[attack_name]
    plain = attack(security)  # DECODE_CACHE_DEFAULT is False here
    cpu_core.DECODE_CACHE_DEFAULT = True
    cached = attack(security)
    assert cached.outcome is plain.outcome
    assert [v.reason for v in cached.violations] == \
           [v.reason for v in plain.violations]
    assert cached.device.cycle == plain.device.cycle
    assert cached.device.reset_count == plain.device.reset_count
    assert cached.device.cpu.regs == plain.device.cpu.regs
    assert cached.device.trace_snapshot() == plain.device.trace_snapshot()
    assert cached.device.attestation_report() == \
           plain.device.attestation_report()


# ---- invalidation contract ---------------------------------------------------


def _make_cpu(asm):
    from repro.cpu import Cpu, InterruptController
    from repro.memory.bus import Bus

    source = "    .text\n__start:\n" + asm + "\nend:\n    jmp end\n    .vector 15, __start\n"
    program = link([parse_source(source, "smc.s")], name="smc")
    bus = Bus(program.layout)
    for addr, chunk in program.segments():
        bus.load_bytes(addr, chunk)
    cpu = Cpu(bus, InterruptController(), decode_cache=True)
    cpu.reset()
    return cpu, program


def test_cpu_write_to_cached_code_forces_redecode():
    # Execute `mov #0x1111, r11`, then overwrite its immediate word
    # through the CPU-visible bus (self-modifying code) and jump back:
    # the stale decode must not execute again.
    cpu, _ = _make_cpu("    mov #0x1111, r11\n    jmp end\n")
    target = cpu.pc
    record = cpu.step()
    assert record.insn.render() == "mov #0x1111, r11"
    assert cpu.get_reg(11) == 0x1111
    assert target in cpu._dcache
    # Now write the immediate slot through the CPU-visible bus path
    # (what an in-ROM or attacker-hijacked store would do).
    cpu.bus.write_word(target + 2, 0x2222)
    assert target not in cpu._dcache  # entry invalidated
    cpu.set_reg(0, target)
    record = cpu.step()
    assert record.insn.render() == "mov #0x2222, r11"
    assert cpu.get_reg(11) == 0x2222


def test_backdoor_poke_into_cached_code_forces_redecode():
    cpu, program = _make_cpu("    mov #0x1111, r11\n    jmp end\n")
    start = cpu.pc
    cpu.step()
    assert cpu.get_reg(11) == 0x1111
    assert start in cpu._dcache
    # Attacker/programmer back door: poke a new immediate in place.
    cpu.bus.poke_word(start + 2, 0x2222)
    assert start not in cpu._dcache
    cpu.set_reg(0, start)
    cpu.step()
    assert cpu.get_reg(11) == 0x2222


def test_load_bytes_into_cached_code_forces_redecode():
    cpu, program = _make_cpu("    mov #0x1111, r11\n    jmp end\n")
    start = cpu.pc
    cpu.step()
    assert start in cpu._dcache
    cpu.bus.load_bytes(start + 2, b"\x22\x22")
    assert start not in cpu._dcache
    cpu.set_reg(0, start)
    cpu.step()
    assert cpu.get_reg(11) == 0x2222


def test_cache_hit_replays_fetch_access_stream():
    """Monitors must see the same FETCH records on hits as on misses."""
    cpu, _ = _make_cpu("    mov #0x1234, r10\n    jmp end\n")
    start = cpu.pc
    miss_record = cpu.step()
    cpu.set_reg(0, start)
    hit_record = cpu.step()
    assert start in cpu._dcache
    assert miss_record.accesses == hit_record.accesses
    fetches = [a for a in hit_record.accesses if a.kind.value == "fetch"]
    assert [a.addr for a in fetches] == [start, start + 2]
    assert all(a.pc == start for a in fetches)


# ---- compiled steps against the generic executors ----------------------------
#
# A cache hit runs the entry's compiled closure; a miss and the uncached
# interpreter run the generic executors.  Each case below runs its code
# twice from the same register file -- the first pass fills the cache,
# the second runs the compiled steps -- on a cached and an uncached
# device in lockstep.

CODE = 0xF000  # in PMEM: executable under every monitor
DATA = 0x0300  # a DMEM window the register values point into


@functools.lru_cache(maxsize=None)
def _program():
    builder = IterativeBuild()
    modules = [
        SourceModule("crt0.s", builder.trusted.crt0_source(eilid_enabled=False)),
        SourceModule("app.s", "    .text\n    .global main\nmain:\n"
                              "    jmp main\n", is_app=True),
        SourceModule("eilid_rom.s", builder.trusted.rom_source()),
    ]
    return builder.pipeline.build(modules, name="stream").program


def _pair(security, words, data=b""):
    image = b"".join((word & 0xFFFF).to_bytes(2, "little") for word in words)
    devices = []
    for decode_cache in (True, False):
        device = build_device(_program(), security=security,
                              decode_cache=decode_cache)
        device.bus.load_bytes(CODE, image)
        device.bus.load_bytes(DATA, data)
        devices.append(device)
    return devices


def _agree(cached, plain, where):
    (record_c, violation_c), (record_p, violation_p) = cached.step(), plain.step()
    assert record_c == record_p, where
    assert violation_c == violation_p, where
    assert cached.cpu.regs == plain.cpu.regs, where
    assert cached.bus.mem == plain.bus.mem, where
    assert cached.cycle == plain.cycle, where
    trace_c, trace_p = cached.trace_snapshot(), plain.trace_snapshot()
    assert (trace_c.digest, trace_c.total) == (trace_p.digest, trace_p.total), where


def _run_twice(cached, plain, regs, steps):
    for run in ("fill", "hit"):
        for device in (cached, plain):
            # Rebinding the register file is what reset, restore and
            # rollback do; compiled steps must follow it.
            device.cpu.regs = list(regs)
            device.cpu.regs[PC] = CODE
        for step in range(steps):
            _agree(cached, plain, f"{run} step {step}")


def _compiled_closures():
    """The code object of every specialised run closure."""
    return {const for name, builder in vars(Cpu).items()
            if name.startswith("_compile_")
            for const in builder.__code__.co_consts
            if isinstance(const, types.CodeType) and const.co_name == "run"}


# Edge registers: PC, SP, SR and the constant generator r3 -- in source
# positions most of them decode as constant-generator or immediate forms.
EDGE_REGS = (PC, SP, SR, CG2)
OTHER = 9  # an ordinary register holding a DATA pointer
_ARITH_NAMES = ("add", "addc", "sub", "subc", "cmp")
# Flag states: none, all of C/Z/N/V, and N and V on their own (jl/jge).
_SR_STATES = (0x0000, FLAG_C | FLAG_Z | FLAG_N | FLAG_V, FLAG_N, FLAG_V)


def _f1(name, src, dst, byte):
    return Instruction(FORMAT1_OPCODES[name], src=src, dst=dst, byte_mode=byte)


def _table_cases():
    for byte in (False, True):
        for reg in EDGE_REGS:
            for name in _ARITH_NAMES + ("mov",):
                yield _f1(name, Operand.register(reg), Operand.register(OTHER), byte)
                yield _f1(name, Operand.register(OTHER), Operand.register(reg), byte)
                yield _f1(name, Operand.immediate(0x80FF), Operand.register(reg), byte)
                yield _f1(name, Operand.immediate(1), Operand.register(reg), byte)
            yield _f1("mov", Operand.autoinc(reg), Operand.register(OTHER), byte)
            yield _f1("mov", Operand.autoinc(OTHER), Operand.register(reg), byte)
            yield _f1("mov", Operand.autoinc(SP), Operand.register(reg), byte)
            yield _f1("mov", Operand.register(reg), Operand.indexed(3, OTHER), byte)
            yield _f1("mov", Operand.register(reg), Operand.indexed(-3, OTHER), byte)
            yield _f1("mov", Operand.register(reg), Operand.indexed(4, SP), byte)
            yield _f1("mov", Operand.register(reg), Operand.absolute(DATA + 7), byte)
            yield _f1("mov", Operand.register(reg), Operand.symbolic(DATA + 9), byte)
            for operand in (Operand.register(reg), Operand.indexed(5, reg),
                            Operand.indexed(-5, OTHER)):
                yield Instruction(FORMAT2_OPCODES["push"], dst=operand, byte_mode=byte)
        for operand in (Operand.immediate(0x1234), Operand.immediate(8),
                        Operand.absolute(DATA + 3), Operand.symbolic(DATA + 1)):
            yield Instruction(FORMAT2_OPCODES["push"], dst=operand, byte_mode=byte)
    for name in sorted(JUMP_OPCODES):
        for offset in (-3, 0, 5):
            yield Instruction(JUMP_OPCODES[name], offset=offset)


@pytest.mark.parametrize("security", ["none", "eilid"])
def test_every_specialised_form_matches_the_generic_executor(security):
    hit = set()
    data = bytes(range(0x41, 0x81))
    for insn in _table_cases():
        words = encode(insn)
        for sr in _SR_STATES:
            cached, plain = _pair(security, words, data)
            regs = [0x8001 + 0x1111 * n for n in range(16)]
            regs[SP], regs[SR], regs[CG2], regs[OTHER] = DATA + 0x20, sr, 0x7FFF, DATA + 1
            _run_twice(cached, plain, regs, steps=1)
            entry = cached.cpu._dcache.get(CODE)
            if entry is not None:
                hit.add(getattr(entry[4], "__code__", None))
    assert _compiled_closures() <= hit


# ---- random instruction streams ---------------------------------------------

_WORD = st.integers(min_value=0, max_value=0xFFFF)
_ANY_REG = st.integers(min_value=0, max_value=15)
_BASE_REG = st.sampled_from((SP, 4, OTHER, 15))  # encodable as x(Rn)/@Rn+


def _operands():
    return st.one_of(
        _ANY_REG.map(Operand.register),
        st.tuples(_WORD, _BASE_REG).map(lambda t: Operand.indexed(*t)),
        _WORD.map(Operand.absolute),
        _WORD.map(Operand.symbolic),
        st.sampled_from((PC, SP, 4, OTHER)).map(Operand.indirect),
        _BASE_REG.map(Operand.autoinc),
        _WORD.map(Operand.immediate),  # CG values decode as constants
    )


def _destinations():
    return st.one_of(
        _ANY_REG.map(Operand.register),
        st.tuples(_WORD, _BASE_REG).map(lambda t: Operand.indexed(*t)),
        _WORD.map(Operand.absolute),
        _WORD.map(Operand.symbolic),
    )


_INSTRUCTIONS = st.one_of(
    st.builds(_f1, st.sampled_from(sorted(FORMAT1_OPCODES)), _operands(),
              _destinations(), st.booleans()),
    st.builds(lambda name, operand, byte: Instruction(
        FORMAT2_OPCODES[name], dst=operand,
        byte_mode=byte and name in FORMAT2_BYTE_CAPABLE),
        st.sampled_from(sorted(set(FORMAT2_OPCODES) - {"reti"})),
        _operands(), st.booleans()),
    st.builds(lambda name, offset: Instruction(JUMP_OPCODES[name], offset=offset),
              st.sampled_from(sorted(JUMP_OPCODES)),
              st.integers(min_value=-6, max_value=6)),
)


@settings(max_examples=300, deadline=None)
@given(security=st.sampled_from(["casu", "eilid"]),
       block=st.lists(_INSTRUCTIONS, min_size=1, max_size=6),
       regs=st.lists(st.one_of(_WORD, st.integers(DATA, DATA + 0x3F)),
                     min_size=16, max_size=16),
       data=st.binary(min_size=0x40, max_size=0x40))
def test_random_instruction_stream_is_cache_invariant(security, block, regs, data):
    words = [word for insn in block for word in encode(insn)]
    cached, plain = _pair(security, words, data)
    _run_twice(cached, plain, regs, steps=len(block) + 2)
