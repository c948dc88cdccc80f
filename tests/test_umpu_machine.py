"""UmpuMachine integration: whole programs under hardware protection."""

import pytest

from repro.asm import assemble
from repro.core.faults import (
    ConfigFault,
    JumpTableFault,
    MemMapFault,
    StackBoundFault,
)
from repro.core.encoding import TRUSTED_DOMAIN
from repro.sim import Machine
from repro.umpu import HarborLayout, UmpuMachine


LAYOUT = HarborLayout()

MODULE_SRC = """
store_own:                  ; r25:r24 = address, r22 = value
    movw r26, r24
    st X, r22
    ret
reader:                     ; r25:r24 = address -> r24 = byte
    movw r26, r24
    ld r24, X
    ret
pusher:                     ; push/pop pair (stack traffic)
    push r16
    ldi r16, 1
    pop r16
    ret
sp_hijack:                  ; point SP into a foreign domain's heap, push
    ldi r16, 0x00
    out SPL, r16
    ldi r16, 0x05
    out SPH, r16
    push r16
    ret
reg_poke:                   ; try to write a protection register
    ldi r16, 0xFF
    out 0x22, r16           ; mem_prot_bot low
    ret
.org {jt1:#x}
    jmp remote_noop
.org 0x3000
remote_noop:
    ret
caller:
    call {jt1:#x}
    ret
""".format(jt1=LAYOUT.jt_base + 1 * 512)


@pytest.fixture
def machine():
    m = UmpuMachine(assemble(MODULE_SRC, "umpu_int"), layout=LAYOUT)
    m.memmap.set_segment(0x0400, 32, 0)
    m.memmap.set_segment(0x0500, 32, 1)
    m.tracker.register_code_region(0, 0, LAYOUT.jt_base)
    m.tracker.register_code_region(1, 0x3000, 0x3100)
    return m


def test_owned_store_succeeds(machine):
    machine.enter_domain(0)
    machine.call("store_own", 0x0400, ("u8", 0x5A))
    assert machine.memory.read_data(0x0400) == 0x5A


def test_foreign_store_faults_and_memory_intact(machine):
    machine.enter_domain(0)
    with pytest.raises(MemMapFault):
        machine.call("store_own", 0x0500, ("u8", 0x66))
    assert machine.memory.read_data(0x0500) == 0


def test_free_memory_protected(machine):
    machine.enter_domain(0)
    with pytest.raises(MemMapFault):
        machine.call("store_own", 0x0800, ("u8", 1))


def test_reads_unrestricted(machine):
    machine.memory.write_data(0x0500, 0x77)
    machine.enter_domain(0)
    machine.call("reader", 0x0500)
    assert machine.result8() == 0x77


def test_stack_traffic_allowed(machine):
    machine.enter_domain(0)
    machine.call("pusher")


def test_store_above_stack_bound_faults(machine):
    machine.enter_domain(0, stack_bound=0x0F00)
    with pytest.raises(StackBoundFault):
        machine.call("store_own", 0x0F01, ("u8", 1))


def test_sp_hijack_into_heap_caught(machine):
    """Repointing SP into another domain's heap and pushing is caught by
    the MMC checking pushes."""
    machine.enter_domain(0)
    with pytest.raises(MemMapFault):
        machine.call("sp_hijack")


def test_protection_register_write_by_module_faults(machine):
    machine.enter_domain(0)
    with pytest.raises(ConfigFault):
        machine.call("reg_poke")


def test_trusted_can_configure(machine):
    machine.enter_trusted()
    machine.call("reg_poke")  # same code, trusted domain: allowed
    assert machine.regs.mem_prot_bot & 0xFF == 0xFF


def test_cross_domain_call_through_jt(machine):
    machine.enter_trusted()
    machine.call("caller")
    assert machine.tracker.cross_calls == 1
    assert machine.tracker.cross_returns == 1
    assert machine.regs.cur_domain == TRUSTED_DOMAIN
    assert machine.regs.safe_stack_ptr == LAYOUT.safe_stack_base


def test_cross_domain_call_sets_callee_domain(machine):
    """While inside the callee, cur_domain is the callee's id: give the
    callee a store and watch it be attributed."""
    src = MODULE_SRC.replace(
        "remote_noop:\n    ret",
        "remote_noop:\n"
        "    ldi r26, 0x00\n"
        "    ldi r27, 0x05\n"
        "    ldi r16, 0x21\n"
        "    st X, r16\n"
        "    ret")
    m = UmpuMachine(assemble(src, "umpu_int2"), layout=LAYOUT)
    m.memmap.set_segment(0x0500, 32, 1)
    m.tracker.register_code_region(1, 0x3000, 0x3100)
    m.enter_trusted()
    m.call("caller")
    assert m.memory.read_data(0x0500) == 0x21  # domain 1 owned it


def test_direct_call_into_foreign_code_faults(machine):
    """A module calling another module's function directly (bypassing
    the jump table) is an escape and faults."""
    src = MODULE_SRC + """
escape:
    call 0x3000
    ret
"""
    m = UmpuMachine(assemble(src, "umpu_int3"), layout=LAYOUT)
    m.tracker.register_code_region(0, 0, 0x3000)
    m.enter_domain(0)
    with pytest.raises(JumpTableFault):
        m.call("escape")


def test_isa_compatibility_same_binary_runs_unprotected():
    """The paper's compatibility claim: the same image runs on a stock
    AVR (Machine) and on UMPU with protection disabled, with identical
    results and cycle counts."""
    src = """
    work:
        ldi r24, 0
        ldi r22, 10
    loop:
        add r24, r22
        dec r22
        brne loop
        ret
    """
    plain = Machine(assemble(src))
    plain_cycles = plain.call("work")
    umpu = UmpuMachine(assemble(src))  # no layout: units disabled
    umpu_cycles = umpu.call("work")
    assert plain.result8() == umpu.result8() == 55
    assert plain_cycles == umpu_cycles


def test_mmc_stall_is_exactly_one_cycle(machine):
    machine.enter_domain(0)
    protected = machine.call("store_own", 0x0400, ("u8", 1))
    with machine.protection_disabled():
        machine.reset()
        baseline = machine.call("store_own", 0x0400, ("u8", 1))
    assert protected - baseline == 1


def test_nested_protection_disabled_restores_outer_state(machine):
    config = machine.regs.mem_map_config
    assert machine.regs.enabled
    with machine.protection_disabled():
        with machine.protection_disabled():
            assert not machine.regs.enabled
        assert not machine.regs.enabled
    assert machine.regs.mem_map_config == config
    assert machine.regs.enabled


def test_protection_disabled_restores_after_exception(machine):
    config = machine.regs.mem_map_config
    with pytest.raises(RuntimeError):
        with machine.protection_disabled():
            raise RuntimeError("load failed")
    assert machine.regs.mem_map_config == config
    assert machine.regs.enabled
    # a foreign store passes inside the block and faults again after it
    machine.enter_domain(0)
    with machine.protection_disabled():
        machine.call("store_own", 0x0500, ("u8", 1))
    with pytest.raises(MemMapFault):
        machine.call("store_own", 0x0500, ("u8", 1))


def test_safe_stack_holds_return_addresses(machine):
    """Return addresses live in the safe-stack region, not at SP."""
    machine.enter_trusted()
    tracer = machine.attach_tracer()
    machine.call("pusher")
    ret_pushes = [e for e in tracer.events
                  if e.kind.name == "RET_PUSH"]
    assert ret_pushes, "no return-address traffic seen"
    # redirected writes actually landed in the safe-stack region: the
    # final safe_stack_ptr returned to base (balanced), and the bytes
    # below it hold the sentinel return address
    assert machine.regs.safe_stack_ptr == LAYOUT.safe_stack_base
