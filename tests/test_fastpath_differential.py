"""Differential fuzz: the threaded-dispatch fast run loop must be
cycle-for-cycle identical to the fully instrumented ``step()`` path.

``AvrCore.run`` picks ``_run_fast`` only when nothing observes the
core (no trace sink, profiler, debugger, metrics or devices — an
interrupt controller alone stays on the fast loop, which polls it);
otherwise it falls back to ``step()``.  These tests execute
seeded-random but valid
instruction programs on both paths and require the complete
architectural state to match: cycle count, retired-instruction count,
PC, SREG and every byte of the data space (registers, I/O, SP, SRAM).
"""

import random

import pytest

from repro.asm import assemble
from repro.sim import Machine

#: scratch SRAM window the generated memory blocks write into
SCRATCH = 0x0800

#: registers the ALU blocks draw from (r26-r31 are reserved for the
#: X/Y/Z pointers the memory blocks manage)
GP_REGS = list(range(16, 26))

ALU2 = ["add", "adc", "sub", "sbc", "and", "or", "eor", "mov",
        "cp", "cpc"]
ALU1 = ["inc", "dec", "com", "neg", "lsr", "ror", "asr", "swap"]
IMM = ["subi", "sbci", "andi", "ori", "cpi", "ldi"]
SKIPS = ["sbrc", "sbrs"]


def _block_alu(rng, lines):
    kind = rng.randrange(4)
    if kind == 0:
        lines.append("    {} r{}, r{}".format(
            rng.choice(ALU2), rng.choice(GP_REGS), rng.choice(GP_REGS)))
    elif kind == 1:
        lines.append("    {} r{}".format(
            rng.choice(ALU1), rng.choice(GP_REGS)))
    elif kind == 2:
        lines.append("    {} r{}, {}".format(
            rng.choice(IMM), rng.choice(GP_REGS), rng.randrange(256)))
    else:
        lines.append("    mul r{}, r{}".format(
            rng.choice(GP_REGS), rng.choice(GP_REGS)))


def _block_wide(rng, lines):
    op = rng.choice(["adiw", "sbiw"])
    lines.append("    {} r24, {}".format(op, rng.randrange(64)))


def _block_memory(rng, lines):
    # re-seat the pointer every block so displacement/post-inc walks
    # stay inside the scratch window regardless of history
    base = SCRATCH + rng.randrange(0, 0x100)
    ptr, lo_reg, hi_reg = rng.choice(
        [("x", 26, 27), ("y", 28, 29), ("z", 30, 31)])
    lines.append("    ldi r{}, {}".format(lo_reg, base & 0xFF))
    lines.append("    ldi r{}, {}".format(hi_reg, base >> 8))
    for _ in range(rng.randrange(1, 4)):
        reg = rng.choice(GP_REGS)
        mode = rng.randrange(4)
        if mode == 0:
            lines.append("    st {}+, r{}".format(ptr, reg))
        elif mode == 1:
            lines.append("    ld r{}, {}+".format(reg, ptr))
        elif mode == 2 and ptr in ("y", "z"):
            lines.append("    std {}+{}, r{}".format(
                ptr, rng.randrange(32), reg))
        elif mode == 3 and ptr in ("y", "z"):
            lines.append("    ldd r{}, {}+{}".format(
                reg, ptr, rng.randrange(32)))
        else:
            lines.append("    st {}, r{}".format(ptr, reg))
    addr = SCRATCH + 0x180 + rng.randrange(0x40)
    lines.append("    sts {}, r{}".format(addr, rng.choice(GP_REGS)))
    lines.append("    lds r{}, {}".format(rng.choice(GP_REGS), addr))


def _block_stack(rng, lines):
    regs = rng.sample(GP_REGS, 2)
    lines.append("    push r{}".format(regs[0]))
    lines.append("    push r{}".format(regs[1]))
    lines.append("    pop r{}".format(regs[1]))
    lines.append("    pop r{}".format(regs[0]))


def _block_skip(rng, lines):
    lines.append("    {} r{}, {}".format(
        rng.choice(SKIPS), rng.choice(GP_REGS), rng.randrange(8)))
    lines.append("    inc r{}".format(rng.choice(GP_REGS)))
    lines.append("    cpse r{}, r{}".format(
        rng.choice(GP_REGS), rng.choice(GP_REGS)))
    lines.append("    dec r{}".format(rng.choice(GP_REGS)))


def _block_call(rng, lines):
    lines.append("    rcall scramble")


def _block_bits(rng, lines):
    lines.append("    bst r{}, {}".format(
        rng.choice(GP_REGS), rng.randrange(8)))
    lines.append("    bld r{}, {}".format(
        rng.choice(GP_REGS), rng.randrange(8)))


BLOCKS = [_block_alu, _block_alu, _block_alu, _block_wide,
          _block_memory, _block_stack, _block_skip, _block_call,
          _block_bits]


def generate_program(seed, n_blocks=60):
    """A seeded-random straight-line program of valid instructions,
    closed by a short counted loop and ``break``."""
    rng = random.Random(seed)
    lines = []
    for reg in range(16, 32):
        lines.append("    ldi r{}, {}".format(reg, rng.randrange(256)))
    for _ in range(n_blocks):
        rng.choice(BLOCKS)(rng, lines)
    lines += [
        "    ldi r16, 7",
        "tail:",
        "    inc r17",
        "    lsr r18",
        "    dec r16",
        "    brne tail",
        "    break",
        "scramble:",
        "    eor r20, r21",
        "    adc r22, r23",
        "    ret",
    ]
    return "\n".join(lines) + "\n"


def run_both_paths(src, max_cycles=2_000_000):
    fast = Machine(assemble(src))
    assert fast.core.trace is None and fast.core.profiler is None
    fast.run(max_cycles=max_cycles)

    slow = Machine(assemble(src))
    slow.attach_trace()
    slow.attach_profiler()
    slow.run(max_cycles=max_cycles)
    return fast, slow


def assert_states_identical(fast, slow):
    assert fast.core.cycles == slow.core.cycles
    assert fast.core.instret == slow.core.instret
    assert fast.core.pc == slow.core.pc
    assert fast.core.halted == slow.core.halted
    assert fast.core.memory.sreg == slow.core.memory.sreg
    assert bytes(fast.core.memory.data) == bytes(slow.core.memory.data)


@pytest.mark.parametrize("seed", range(12))
def test_fuzzed_program_fast_vs_instrumented(seed):
    fast, slow = run_both_paths(generate_program(seed))
    assert fast.core.halted, "fuzzed program must reach break"
    assert_states_identical(fast, slow)


def test_path_selection():
    """run() uses the fast loop exactly when nothing observes the core."""
    src = generate_program(99, n_blocks=10)

    m = Machine(assemble(src))
    calls = []
    original = m.core._run_fast
    m.core._run_fast = lambda *a: calls.append(a) or original(*a)
    m.run()
    assert calls, "uninstrumented run must take the fast loop"

    m2 = Machine(assemble(src))
    m2.attach_trace()
    m2.core._run_fast = lambda *a: pytest.fail(
        "instrumented run must not take the fast loop")
    m2.run()


def test_debugger_and_metrics_force_instrumented_path():
    """Attaching a debugger or a metrics registry must move the core off
    the fast loop (their hooks only exist on the step() path)."""
    src = generate_program(41, n_blocks=10)

    m = Machine(assemble(src))
    m.attach_debugger()
    m.core._run_fast = lambda *a: pytest.fail(
        "debugger-attached run must not take the fast loop")
    m.run()

    m2 = Machine(assemble(src))
    m2.attach_metrics()
    m2.core._run_fast = lambda *a: pytest.fail(
        "metrics-attached run must not take the fast loop")
    m2.run()


def test_debugger_and_metrics_preserve_architectural_state():
    """Watchpoints and metrics observe without perturbing: the
    instrumented run is cycle-for-cycle identical to the fast run."""
    src = generate_program(43)

    fast = Machine(assemble(src))
    fast.run()

    observed = Machine(assemble(src))
    debugger = observed.attach_debugger()
    watch = debugger.watch(SCRATCH, SCRATCH + 0x1FF, on_read=True)
    observed.attach_metrics()
    observed.run()

    assert_states_identical(fast, observed)
    assert watch.hits, "fuzzed program must touch the scratch window"


FAULT_SRC = """
entry:
    ldi r18, 0x55
    sts 0x0700, r18
    ldi r19, 1
    break
"""


def _umpu_fault_machine(instrumented):
    from repro.umpu import HarborLayout, UmpuMachine
    layout = HarborLayout()
    machine = UmpuMachine(assemble(FAULT_SRC, "flt"), layout=layout)
    machine.memmap.set_segment(0x0700, 8, 1)  # foreign block: store faults
    machine.tracker.register_code_region(0, 0, layout.jt_base)
    if instrumented:
        machine.attach_trace()
        machine.attach_profiler()
    machine.enter_domain(0)
    return machine


def test_fault_propagation_identical_on_both_paths():
    """A protection fault raised inside _run_fast must leave the same
    consistent, resumable state as the instrumented step() path."""
    from repro.core.faults import MemMapFault

    fast = _umpu_fault_machine(instrumented=False)
    took_fast = []
    original = fast.core._run_fast
    fast.core._run_fast = lambda *a: took_fast.append(a) or original(*a)
    slow = _umpu_fault_machine(instrumented=True)

    for machine in (fast, slow):
        with pytest.raises(MemMapFault):
            machine.call("entry")
    assert took_fast, "uninstrumented faulting run must use the fast loop"

    assert fast.core.cycles == slow.core.cycles
    assert fast.core.instret == slow.core.instret
    assert fast.core.pc == slow.core.pc
    assert fast.core.memory.sreg == slow.core.memory.sreg
    assert bytes(fast.core.memory.data) == bytes(slow.core.memory.data)
    # the vetoed store never landed
    assert fast.core.memory.read_data(0x0700) == 0

    # both machines are resumable past the fault and stay in lockstep
    for machine in (fast, slow):
        machine.run(max_cycles=1000)
    assert fast.core.halted and slow.core.halted
    assert fast.core.reg(19) == 1 and slow.core.reg(19) == 1
    assert fast.core.cycles == slow.core.cycles
    assert fast.core.instret == slow.core.instret
    assert bytes(fast.core.memory.data) == bytes(slow.core.memory.data)


def test_observers_attached_and_detached_between_runs():
    """A TraceSink/profiler attached for a middle stretch of execution
    and detached again: the fast -> instrumented -> fast transitions
    must leave state cycle-identical to an uninterrupted fast run."""
    from repro.sim import CycleLimitExceeded
    from repro.trace import install_profiler, install_tracing, uninstall

    src = generate_program(17)
    ref = Machine(assemble(src))
    ref.run()
    total = ref.core.cycles

    staged = Machine(assemble(src))
    with pytest.raises(CycleLimitExceeded):
        staged.run(max_cycles=total // 3)          # fast chunk
    sink = install_tracing(staged)
    profiler = install_profiler(staged)
    with pytest.raises(CycleLimitExceeded):
        staged.run(max_cycles=total // 3)          # instrumented chunk
    assert len(sink) > 0
    assert profiler.total() > 0
    uninstall(staged)
    assert not staged.core.halted
    staged.run()                                   # fast to completion
    assert_states_identical(ref, staged)


def test_timeline_recording_spans_path_transitions():
    """A recording timeline must survive fast <-> instrumented
    transitions: watermark keyframes fire on both paths and seeks into
    any chunk reproduce the budget-stopped live state."""
    from repro.sim import CycleLimitExceeded, MachineSnapshot
    from repro.trace import install_tracing, uninstall

    src = generate_program(23)
    ref = Machine(assemble(src))
    ref.run()
    total = ref.core.cycles

    staged = Machine(assemble(src))
    timeline = staged.attach_timeline(interval=97)
    with pytest.raises(CycleLimitExceeded):
        staged.run(max_cycles=total // 3)          # fast chunk
    install_tracing(staged)
    with pytest.raises(CycleLimitExceeded):
        staged.run(max_cycles=total // 3)          # instrumented chunk
    uninstall(staged)
    staged.run()                                   # fast to completion
    assert_states_identical(ref, staged)

    # keyframes were dropped on both paths, at the same 97-cycle grid
    # (watermark overshoot on multi-cycle instructions stretches the
    # spacing slightly, hence the slack)
    timeline.finalize()
    assert len(timeline.keyframes) >= total // 110

    # seeking to a cycle inside each chunk matches a budget-stopped run
    for target in (total // 6, total // 2, 5 * total // 6):
        timeline.seek(target)
        fresh = Machine(assemble(src))
        try:
            fresh.run(max_cycles=target)
        except CycleLimitExceeded:
            pass
        want = MachineSnapshot.capture(fresh)
        got = MachineSnapshot.capture(staged)
        assert (got.data, got.pc, got.cycles, got.instret, got.halted) \
            == (want.data, want.pc, want.cycles, want.instret, want.halted)


def test_until_pc_and_cycle_budget_match():
    """Stop conditions agree between the paths (until_pc, budgets)."""
    src = generate_program(7)
    prog = assemble(src)

    fast = Machine(prog)
    slow = Machine(prog)
    slow.attach_trace()
    slow.attach_profiler()
    # a budget small enough to interrupt mid-program
    for m in (fast, slow):
        with pytest.raises(Exception):
            m.core.run(max_cycles=50)
    assert fast.core.cycles == slow.core.cycles
    assert fast.core.pc == slow.core.pc
    assert fast.core.instret == slow.core.instret


def test_flash_rewrite_rebinds_handler_on_fast_path():
    """Runtime flash writes must drop the cached bound handler so the
    fast loop decodes and executes the new instruction."""
    src = """
    spin:
        rjmp spin
        ldi r19, 5          ; dead until patched over
    """
    m = Machine(assemble(src))
    from repro.sim import CycleLimitExceeded
    with pytest.raises(CycleLimitExceeded):
        m.run(max_cycles=200)      # fast loop, caches rjmp at pc=0
    assert m.core.reg(19) == 0
    # patch pc=0: rjmp spin -> ldi r19, 0x2A ; then break at pc=1
    patched = assemble("""
        ldi r19, 42
        break
    """)
    for word_addr, value in patched.words.items():
        m.core.memory.write_flash_word(word_addr, value)
    m.core.pc = 0
    m.core.halted = False
    m.run(max_cycles=200)
    assert m.core.halted
    assert m.core.reg(19) == 42


# ---------------------------------------------------------------------
# observers on a UMPU node: the watch unit rides the bus routes
# ---------------------------------------------------------------------
PIPELINE_CONSUMER = """
.equ FREE = {FREE}
consume:
    push r16
    push r17
    movw r16, r24
    movw r26, r24
    ldi r18, 0x7E
    st X, r18
    movw r24, r16
    call FREE
    pop r17
    pop r16
    ret
"""

PIPELINE_PRODUCER = """
.equ MALLOC = {MALLOC}
.equ CHANGE_OWN = {CHANGE_OWN}
.equ CONSUME = {CONSUME}
produce:
    push r16
    ldi r24, 12
    ldi r25, 0
    call MALLOC
    cp r24, r1
    cpc r25, r1
    breq p_done
    movw r16, r24
    movw r26, r24
    ldi r18, 8
p_fill:
    st X+, r18
    dec r18
    brne p_fill
    movw r24, r16
    ldi r22, {CONSUMER_DOM}
    call CHANGE_OWN
    movw r24, r16
    call CONSUME
p_done:
    pop r16
    ret
"""


def _pipeline_node():
    """The producer -> consumer pipeline on a UMPU node."""
    from repro.umpu import UmpuSystem
    system = UmpuSystem()
    syms = system.kernel_symbols()
    consumer = system.load_module(
        assemble(PIPELINE_CONSUMER.format(FREE=syms["KERNEL_FREE"]),
                 "consumer"), "consumer", exports=("consume",))
    system.load_module(
        assemble(PIPELINE_PRODUCER.format(
            MALLOC=syms["KERNEL_MALLOC"],
            CHANGE_OWN=syms["KERNEL_CHANGE_OWN"],
            CONSUME=consumer.exports["consume"],
            CONSUMER_DOM=consumer.domain), "producer"),
        "producer", exports=("produce",))
    return system


def _node_state(system):
    machine = system.machine
    return (machine.core.cycles, machine.core.instret, machine.core.pc,
            bytes(machine.memory.data), machine.regs.dump(),
            machine.safe_stack_unit.redirected_pushes,
            machine.safe_stack_unit.redirected_pops,
            machine.mmc.checked_stores, machine.tracker.cross_calls)


def _routes(bus):
    return [route for routes in (bus._write_routes, bus._read_routes)
            for route in routes.values()]


def test_watch_unit_rides_umpu_routes_without_perturbing():
    """A debugger watchpoint on a UMPU node running the pipeline —
    attached, across a timeline suspension, detached — leaves every op
    cycle- and state-identical to a bare node.  While attached the
    watch unit leads every route; suspended or detached it is in
    none."""
    bare = _pipeline_node()
    node = _pipeline_node()
    timeline = node.attach_timeline(interval=200)
    bus = node.machine.bus
    debugger = None
    watch = None

    def op(system):
        return system.call_export("producer", "produce",
                                  max_cycles=100000)

    for step in range(6):
        if step == 1:
            debugger = node.machine.attach_debugger()
            layout = node.layout
            watch = debugger.watch(layout.heap_start, layout.heap_end - 1,
                                   on_read=True)
            unit = debugger.watch_unit
            assert all(route and route[0].__self__ is unit
                       for route in _routes(bus))
        if step == 3:
            with timeline._suspended():
                assert all(hook.__self__ is not unit
                           for route in _routes(bus) for hook in route)
                hits = len(watch.hits)
                assert op(node) == op(bare)
                assert len(watch.hits) == hits
            assert all(route[0].__self__ is unit
                       for route in _routes(bus))
            assert _node_state(node) == _node_state(bare)
            continue
        if step == 4:
            debugger.detach()
            assert unit not in bus.interposers
            assert all(hook.__self__ is not unit
                       for route in _routes(bus) for hook in route)
            hits = len(watch.hits)
        assert op(node) == op(bare)
        assert _node_state(node) == _node_state(bare)
    assert watch.hits, "the pipeline must touch the watched heap window"
    assert len(watch.hits) == hits
    assert [u.name for u in bus.interposers] == ["safe_stack", "mmc"]
