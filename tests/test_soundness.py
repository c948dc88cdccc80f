"""Adversarial soundness: snapshot/restore, the write oracle, the
hostile-module fuzzer, and regression tests for the bugs the campaign
exists to catch (named by escape family)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static.elision import (
    MANIFEST_ATTACKS,
    corrupt_manifest,
    verify_manifest,
)
from repro.asm import assemble
from repro.core.faults import ProtectionFault
from repro.sfi.layout import SfiLayout
from repro.sfi.system import LoadedModule, SfiSystem
from repro.sim import MachineSnapshot
from repro.sim.errors import InvalidAccess, SimError
from repro.sim.memory import Memory
from repro.soundness import Campaign, HostileModuleGenerator, \
    SfiWriteOracle
from repro.soundness.triage import minimize_source
from repro.trace import uninstall
from repro.trace.metrics import MetricsRegistry
from repro.umpu.system import UmpuSystem


# ---------------------------------------------------------------------------
# escape family: store-boundary — word writes tearing at the data edge

def test_write_word_data_no_tear_at_data_end():
    """A word write whose high byte falls off the data space must not
    land its low byte first (all-or-nothing, like fill_data)."""
    mem = Memory()
    end = mem.geometry.data_end
    mem.data[end] = 0x11
    with pytest.raises(InvalidAccess):
        mem.write_word_data(end, 0xBEEF)
    assert mem.data[end] == 0x11        # low byte did not tear in

    mem.write_word_data(end - 1, 0xBEEF)
    assert mem.data[end - 1] == 0xEF
    assert mem.data[end] == 0xBE


def test_set_reg_pair_no_tear_at_data_end():
    mem = Memory()
    end = mem.geometry.data_end
    mem.data[end] = 0x22
    with pytest.raises(InvalidAccess):
        mem.set_reg_pair(end, 0xCAFE)
    assert mem.data[end] == 0x22

    with pytest.raises(InvalidAccess):
        mem.set_reg_pair(-1, 0xCAFE)

    mem.set_reg_pair(26, 0x1234)        # the normal X-pair case
    assert mem.reg_pair(26) == 0x1234


# ---------------------------------------------------------------------------
# escape family: global-state — process-global mutable state leaks

def test_forensics_recent_reports_reset():
    from repro.trace import forensics
    forensics.RECENT_REPORTS.append(object())
    forensics.reset()
    assert len(forensics.RECENT_REPORTS) == 0


def test_metrics_registry_reset():
    registry = MetricsRegistry()
    registry.counter("sim.a").inc()
    assert len(registry) > 0
    assert registry.reset() is registry
    assert len(registry) == 0


# ---------------------------------------------------------------------------
# snapshot/restore

MODULE_FAULTING = """\
main:
    ldi r18, 42
    ldi r26, 0x00
    ldi r27, 0x0b
    sts 0x0b00, r18
loop:
    st X+, r18
    rjmp loop
"""


def _prepared_sfi():
    system = SfiSystem()
    oracle = SfiWriteOracle(system)
    system.machine.bus.add_interposer(oracle)
    program = assemble(MODULE_FAULTING, symbols=system.kernel_symbols())
    system.load_module(program, "mod", exports=("main",))
    return system, oracle, system.snapshot()


_SFI_CACHE = {}


def _sfi():
    if not _SFI_CACHE:
        _SFI_CACHE["v"] = _prepared_sfi()
    return _SFI_CACHE["v"]


def _state_sig(machine):
    core = machine.core
    return (core.pc, core.cycles, core.instret, core.halted,
            bytes(machine.memory.data))


def _run_budget(system, oracle, snap, budget, trace):
    """Restore, then run the faulting workload under a cycle budget on
    the selected execution path; returns (outcome, log, state)."""
    system.restore(snap)
    oracle.clear()
    if trace:
        system.machine.attach_trace()
    try:
        system.call_export("mod", "main", max_cycles=budget)
        outcome = "ok"
    except ProtectionFault as fault:
        outcome = type(fault).__name__
        system.recover()
    except SimError as err:
        outcome = type(err).__name__
    finally:
        if trace:
            uninstall(system.machine)
    return outcome, list(oracle.log), _state_sig(system.machine)


@settings(deadline=None, max_examples=15)
@given(budget=st.integers(min_value=8, max_value=4000))
def test_restore_then_run_identical_on_both_paths(budget):
    """restore(snapshot) + N cycles is write-log- and state-identical
    on the fast loop and the step() path — including across the
    contained fault + recovery the workload is built to hit."""
    system, oracle, snap = _sfi()
    fast = _run_budget(system, oracle, snap, budget, trace=False)
    step = _run_budget(system, oracle, snap, budget, trace=True)
    again = _run_budget(system, oracle, snap, budget, trace=False)
    assert fast == step
    assert fast == again                # restore is deterministic


def test_sfi_system_snapshot_restores_loader_state():
    system = SfiSystem()
    program = assemble("main:\n    ldi r24, 1\n    ret\n",
                       symbols=system.kernel_symbols())
    system.load_module(program, "first", exports=("main",))
    snap = system.snapshot()
    program2 = assemble("main:\n    ldi r24, 2\n    ret\n",
                        symbols=system.kernel_symbols())
    system.load_module(program2, "second", exports=("main",))
    assert set(system.modules) == {"first", "second"}
    system.restore(snap)
    assert set(system.modules) == {"first"}
    ret, _ = system.call_export("first", "main")
    assert ret == 1
    # the freed domain is reusable after restore
    system.load_module(program2, "third", exports=("main",))
    ret, _ = system.call_export("third", "main")
    assert ret == 2


def test_umpu_snapshot_restores_hardware_state():
    system = UmpuSystem()
    snap = system.snapshot()
    machine = system.machine
    before = (machine.regs.cur_domain, machine.regs.stack_bound,
              machine.regs.safe_stack_ptr)
    machine.regs.cur_domain = 3
    machine.regs.stack_bound = 0x123
    machine.regs.safe_stack_ptr ^= 0x10
    machine.tracker.call_depths.append(99)
    system.restore(snap)
    assert (machine.regs.cur_domain, machine.regs.stack_bound,
            machine.regs.safe_stack_ptr) == before
    assert 99 not in machine.tracker.call_depths


def test_machine_snapshot_requires_system_capture():
    system = SfiSystem()
    snap = MachineSnapshot.capture(system.machine)
    with pytest.raises(ValueError):
        snap.apply_system(system)


# ---------------------------------------------------------------------------
# the write oracle: planted-escape detector sanity

def test_oracle_flags_unverified_module_store():
    """Bypass the admission pipeline entirely (simulating a verifier
    hole) and install a module that raw-stores into a trusted cell:
    the oracle must flag the landed write as an escape."""
    system = SfiSystem()
    oracle = SfiWriteOracle(system)
    system.machine.bus.add_interposer(oracle)
    evil = assemble("main:\n"
                    "    ldi r18, 5\n"
                    "    sts 0x{:04x}, r18\n"
                    "    ret\n".format(system.layout.scratch))
    start, end = system.place_image(evil)
    entry = system.linker.export(0, "main", start)
    system._flush_jump_table()
    system.modules["evil"] = LoadedModule(
        name="evil", domain=0, start=start, end=end,
        exports={"main": entry})
    system.call_export("evil", "main")
    assert oracle.escapes, "planted raw store must be flagged"
    record = oracle.escapes[0]
    assert record.addr == system.layout.scratch
    assert record.rule == "UntrustedAccessFault"


def test_oracle_quiet_on_verified_module():
    system, oracle, snap = _prepared_sfi()
    try:
        system.call_export("mod", "main", max_cycles=20000)
    except (ProtectionFault, SimError):
        system.recover()
    assert oracle.escapes == []


# ---------------------------------------------------------------------------
# escape family: manifest-forgery

def test_every_manifest_attack_is_rejected():
    layout = SfiLayout(static_data_bytes=256, static_data_domains=2)
    system = SfiSystem(layout)
    lo, hi = layout.static_data_span(0)
    source = ("main:\n"
              "    ldi r18, 9\n"
              "    sts 0x{:04x}, r18\n"
              "    sts 0x{:04x}, r18\n"
              "    ret\n".format(lo, hi - 1))
    program = assemble(source, symbols=system.kernel_symbols())
    module = system.load_module(program, "el", exports=("main",),
                                elide=True)
    assert module.manifest is not None and module.manifest.sites
    read = system.machine.memory.read_flash_word
    entries = sorted(system.linker._by_name[(module.domain, n)].target
                     for n in module.exports)
    # the genuine manifest re-proves...
    assert verify_manifest(read, layout, system.runtime.symbols,
                           module.manifest, entries=entries) == []
    # ...and every corruption of it is rejected
    rng = random.Random(1234)
    for attack in MANIFEST_ATTACKS:
        forged = corrupt_manifest(module.manifest, attack, rng)
        problems = verify_manifest(read, layout, system.runtime.symbols,
                                   forged, entries=entries)
        assert problems, "attack {!r} was accepted".format(attack)


# ---------------------------------------------------------------------------
# campaign smokes

def test_sfi_campaign_smoke_zero_escapes():
    campaign = Campaign("sfi", seed=11)
    stats = campaign.run(48)
    assert stats.escapes == []
    assert stats.executed > 0
    assert set(stats.families) == {"store-boundary", "control-flow",
                                   "encoding", "manifest-forgery",
                                   "jump-table-abuse"}


def test_umpu_campaign_smoke_zero_escapes():
    campaign = Campaign("umpu", seed=11)
    stats = campaign.run(48)
    assert stats.escapes == []
    assert stats.executed > 0


def test_campaign_same_seed_is_deterministic():
    first = Campaign("sfi", seed=5)
    second = Campaign("sfi", seed=5)
    assert first.run(24).to_dict() == second.run(24).to_dict()
    gen = HostileModuleGenerator(5, first.layout,
                                 first.system.kernel_symbols())
    for index in (0, 1, 3, 5):
        a = gen.generate(index)
        b = first.generator.generate(index)
        assert (a.source, a.family) == (b.source, b.family)


def test_campaign_different_seed_differs():
    layout = SfiLayout(static_data_bytes=256, static_data_domains=2)
    gen_a = HostileModuleGenerator(1, layout)
    gen_b = HostileModuleGenerator(2, layout)
    assert any(gen_a.generate(i).source != gen_b.generate(i).source
               for i in (0, 4, 8))


# ---------------------------------------------------------------------------
# triage

def test_minimize_source_shrinks_to_culprit():
    source = ("    nop\n"
              "    ldi r18, 1\n"
              "    sts 0x0060, r18\n"
              "    nop\n"
              "    ret\n")

    def still_fails(text):
        return "sts 0x0060" in text

    minimized = minimize_source(source, still_fails)
    assert "sts 0x0060" in minimized
    assert len(minimized.splitlines()) < len(source.splitlines())
    assert still_fails(minimized)


def test_dump_escape_writes_artifacts(tmp_path):
    from repro.soundness import dump_escape
    escape = {"candidate": {"index": 7, "family": "store-boundary",
                            "seed": 3, "source": "main:\n    ret\n"},
              "reasons": [{"kind": "oracle"}]}
    path = dump_escape(str(tmp_path), escape, reports=[])
    assert (tmp_path / "escape-000007-store-boundary.json").exists()
    assert (tmp_path / "escape-000007-store-boundary.asm").read_text() \
        == "main:\n    ret\n"
    import json
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["candidate"]["index"] == 7
    assert payload["fault_reports"] == []


# ---------------------------------------------------------------------------
# escape-bug burn-down: regressions for every confirmed campaign escape,
# named by escape family (docs/soundness.md "Escape triage" step 4)

def _verify_raw(system, src):
    """Assemble *src* against the runtime symbols (so it can name the
    hb_* stubs directly, bypassing the rewriter) and verify it."""
    from repro.asm import Assembler
    prog = Assembler(symbols=system.runtime.symbols).assemble(src, "raw")
    lo, hi = prog.extent()
    return system.verifier.verify(prog, lo * 2, (hi + 1) * 2)


def _raw_rejected(system, src, rule):
    from repro.sfi.verifier import VerifyError
    with pytest.raises(VerifyError) as exc:
        _verify_raw(system, src)
    assert exc.value.rule == rule, str(exc.value)
    return exc.value


# --- control-flow: safe-stack save/restore desync (campaign seed 2007,
# --- sfi indices 493/3185/3537) --------------------------------------------

ESCAPE_493_SHAPE = """\
main:
    ldi r20, 3
rec:
    dec r20
    breq done
    rcall rec
done:
    ret
"""


def test_control_flow_fall_into_head_recursion_now_sound():
    """The first confirmed escape: ``rec`` is an rcall target *and*
    reachable by fall-through, so the inserted prologue used to run
    without a call frame, spooling garbage to the safe stack until a
    desynced restore handed back a bogus domain/stack bound.  The
    rewriter now hops the sequential path over the prologue (entry
    guard) and the module runs contained."""
    system = SfiSystem()
    oracle = SfiWriteOracle(system)
    system.machine.bus.add_interposer(oracle)
    module = system.load_module(assemble(ESCAPE_493_SHAPE), "r493",
                                exports=("main",))
    assert module.rewrite_stats["entry_guards"] >= 1
    system.call_export("r493", "main", max_cycles=20000)
    assert oracle.escapes == []


def test_control_flow_legit_self_recursion_still_admits():
    system = SfiSystem()
    oracle = SfiWriteOracle(system)
    system.machine.bus.add_interposer(oracle)
    src = """\
main:
    ldi r20, 4
    rcall rec
    ret
rec:
    dec r20
    breq out
    rcall rec
out:
    ret
"""
    system.load_module(assemble(src), "rec", exports=("main",))
    system.call_export("rec", "main", max_cycles=20000)
    assert oracle.escapes == []


def test_control_flow_fall_through_prologue_rejected_hl015():
    """Verifier-level root cause: a hand-built image (as the encoding
    family emits, no rewriter involved) whose prologue is reachable by
    fall-through must be rejected."""
    _raw_rejected(SfiSystem(), """\
f:
    call hb_save_ret
    dec r20
    call hb_save_ret
    call hb_restore_ret
    ret
""", "HL015")


def test_control_flow_jump_into_prologue_rejected_hl015():
    _raw_rejected(SfiSystem(), """\
f:
    call hb_save_ret
    rjmp p
p:
    call hb_save_ret
    call hb_restore_ret
    ret
""", "HL015")


def test_control_flow_call_return_edge_into_prologue_rejected_hl015():
    """A call's return resumes at the next instruction — landing there
    on a prologue re-executes hb_save_ret without a fresh frame."""
    _raw_rejected(SfiSystem(), """\
f:
    call hb_save_ret
    rcall g
    call hb_save_ret
    call hb_restore_ret
    ret
g:
    call hb_save_ret
    call hb_restore_ret
    ret
""", "HL015")


def test_control_flow_internal_call_must_enter_prologue_hl015():
    _raw_rejected(SfiSystem(), """\
f:
    call hb_save_ret
    rcall mid
    call hb_restore_ret
    ret
mid:
    nop
    call hb_restore_ret
    ret
""", "HL015")


def test_control_flow_skip_to_ret_rejected_hl003():
    """cpse leaps over the 2-word restore call and lands on the bare
    ret — the dynamic edge the linear predecessor rule can't see."""
    _raw_rejected(SfiSystem(), """\
f:
    call hb_save_ret
    cpse r18, r18
    call hb_restore_ret
    ret
""", "HL003")


# --- encoding: stack-pointer drift (campaign seed 2007, sfi index 518) -----

#: the escaping word stream verbatim from the campaign artifact —
#: disassembles to ldi/ldi/ldi, pop, pop, ret, st X, ldi, ret: the pops
#: drift SP above the frame so hb_restore_ret rewrites (and the ret
#: consumes) a caller-owned stack slot
ESCAPE_518_WORDS = {0: 59041, 1: 57520, 2: 58666, 3: 37167, 4: 37167,
                    5: 38152, 6: 37676, 7: 59041, 8: 38152}


def test_encoding_escape_518_word_stream_rejected():
    from repro.asm.program import Program
    from repro.sfi.rewriter import RewriteError
    system = SfiSystem()
    prog = Program(words=dict(ESCAPE_518_WORDS), symbols={"main": 0},
                   source_name="<fz518>")
    with pytest.raises(RewriteError) as exc:
        system.load_module(prog, "fz518", exports=("main",))
    assert "pop without a matching push" in str(exc.value)


def test_encoding_pop_underflow_rejected_at_rewrite():
    from repro.sfi.rewriter import RewriteError
    system = SfiSystem()
    src = "main:\n    pop r18\n    pop r18\n    ret\n"
    with pytest.raises(RewriteError):
        system.load_module(assemble(src), "drift", exports=("main",))


def test_encoding_pop_underflow_rejected_at_verify_hl016():
    _raw_rejected(SfiSystem(), """\
f:
    call hb_save_ret
    pop r18
    pop r18
    call hb_restore_ret
    ret
""", "HL016")


def test_encoding_loop_shaped_pop_smuggle_rejected_hl016():
    """Linearly balanced, dynamically a drain: each loop iteration pops
    twice but pushed only once in total."""
    _raw_rejected(SfiSystem(), """\
f:
    call hb_save_ret
    push r18
    push r18
l:
    pop r18
    pop r18
    brne l
    call hb_restore_ret
    ret
""", "HL016")


def test_encoding_restore_at_nonzero_depth_rejected_hl016():
    _raw_rejected(SfiSystem(), """\
f:
    call hb_save_ret
    push r18
    call hb_restore_ret
    ret
""", "HL016")


def test_caller_saved_register_pattern_still_verifies():
    """The depth rule must admit ordinary compiled code: caller-saved
    registers held across a branch, balanced at the restore."""
    system = SfiSystem()
    report = _verify_raw(system, """\
f:
    call hb_save_ret
    push r16
    cpi r24, 3
    breq done
    inc r16
done:
    pop r16
    call hb_restore_ret
    ret
""")
    assert report.rets == 1
