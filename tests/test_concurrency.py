"""Interrupt-aware concurrency analysis: the I-bit dataflow, the
mainline x ISR race detector (HL019/HL020 with two-site witnesses),
the static ISR-WCET / interrupt-latency certificate (HL021), the
``harbor-race`` CLI, the lint baseline, and fast-path interrupt
delivery.

Acceptance-critical properties pinned here:

* the racy example module yields HL019 + HL020 (the 16-bit counter)
  with a two-site witness; the clean examples analyze race-free;
* the static latency bound dominates the runtime ``irq_entry_latency``
  maximum the metrics registry observes on an interrupt-driven
  workload;
* ``cli``/``sei``/``reti`` sequences deliver pending interrupts cycle-
  and state-identically on the fast and instrumented run loops
  (hypothesis differential).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.static.cfg import RegionCFG
from repro.analysis.static.concurrency import (
    ConcurrencyAnalysis,
    IsrInfo,
    find_isr_labels,
    publish_gauges,
    vector_table_isrs,
)
from repro.analysis.static.diagnostics import (
    DiagnosticsEngine,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.asm import assemble
from repro.asm.assembler import default_symbols
from repro.cli import cmd_race
from repro.sim import Machine
from repro.sim.devices import PeriodicTimer
from repro.sim.interrupts import InterruptController
from repro.trace.metrics import MetricsRegistry

RACY = "examples/modules/racy_sampler.s"
CLEAN = "examples/modules/clean_sensor.s"

_KERNEL_SYMBOLS = None


def kernel_symbols():
    """KERNEL_* symbols the example modules assemble against (computed
    once; building an SfiSystem is not free)."""
    global _KERNEL_SYMBOLS
    if _KERNEL_SYMBOLS is None:
        from repro.sfi.system import SfiSystem
        _KERNEL_SYMBOLS = SfiSystem().kernel_symbols()
    return _KERNEL_SYMBOLS


def analyze(src, engine=None, budget=None, isrs=None, mainline=None,
            name="t"):
    """Assemble *src* and run the concurrency analysis the way
    ``harbor-race`` does (label-convention ISR discovery)."""
    from repro.asm import Assembler
    program = Assembler(symbols=kernel_symbols()).assemble(src)
    lo, hi = program.extent()
    predefined = set(default_symbols()) | set(kernel_symbols())
    labels = {n: a for n, a in program.symbols.items()
              if n not in predefined and lo * 2 <= a <= hi * 2 + 1}
    words = dict(program.words)

    def read_word(word_addr):
        return words.get(word_addr, 0xFFFF)

    if isrs is None:
        isrs = find_isr_labels(labels)
    taken = {i.entry for i in isrs}
    if mainline is None:
        entries = set(labels.values()) - taken
    else:
        entries = {labels[m] for m in mainline}
    cfg = RegionCFG.build(read_word, lo * 2, (hi + 1) * 2, name=name,
                          extra_leaders=sorted(labels.values()))
    analysis = ConcurrencyAnalysis(cfg, mainline_entries=entries,
                                   isrs=isrs)
    return analysis.run(engine=engine, budget=budget)


# =====================================================================
# Race detection on the example pair
# =====================================================================
def test_racy_example_reports_hl019_and_hl020_with_witness():
    engine = DiagnosticsEngine()
    with open(RACY) as handle:
        report = analyze(handle.read(), engine=engine)
    codes = [d.code for d in engine.findings]
    assert "HL019" in codes and "HL020" in codes
    assert report.races and report.torn
    # two-site witness: a mainline site and an ISR site, plus the
    # interleaving window the ISR may fire inside
    witness = report.races[0].witness_lines()
    assert any("mainline" in line for line in witness)
    assert any("isr" in line for line in witness)
    assert any("interleaving window" in line for line in witness)
    # the torn finding is the 16-bit counter at 0x0700/0x0701
    torn = next(d for d in engine.findings if d.code == "HL020")
    assert "0x0700..0x0701" in torn.message


def test_racy_example_cli_protected_stores_are_atomic():
    """safe_reset's stores sit between cli/sei: interrupt-atomic, so
    they must not be flagged even though they hit the shared counter."""
    with open(RACY) as handle:
        report = analyze(handle.read())
    racy_pcs = {f.mainline.byte_addr for f in report.races}
    racy_pcs |= {s.byte_addr for f in report.torn
                 for s in f.mainline.sites}
    # safe_reset starts after sample_poll's 6 instructions (0x12 = ret)
    assert report.atomic_instrs > 0
    assert all(pc < 0x14 for pc in racy_pcs), racy_pcs


def test_clean_example_is_race_free():
    engine = DiagnosticsEngine()
    with open(CLEAN) as handle:
        report = analyze(handle.read(), engine=engine)
    assert not engine.findings
    assert not report.races and not report.torn
    assert not report.isrs
    # no cli, no ISRs: nothing is interrupt-disabled, and the only
    # latency term left is the instruction-boundary skew
    assert report.latency.disabled_cycles == 0
    assert report.latency.bound == report.latency.max_instr_cycles


def test_isr_label_conventions():
    isrs = find_isr_labels({"__vector_3": 0x10, "uart_isr": 0x20,
                            "isr_spi": 0x30, "main": 0x00})
    assert [(i.line, i.name) for i in isrs] == [
        (3, "__vector_3"), (4, "isr_spi"), (5, "uart_isr")]


def test_vector_table_discovery():
    src = ("    jmp main\n"
           "    jmp tick\n"
           "main:\n    break\n"
           "tick:\n    reti\n")
    program = assemble(src)
    words = dict(program.words)
    isrs = vector_table_isrs(lambda w: words.get(w, 0xFFFF), nvectors=2)
    assert len(isrs) == 1
    assert isrs[0].line == 1
    assert isrs[0].entry == program.symbols["tick"]


# =====================================================================
# I-bit partition and the latency certificate
# =====================================================================
def test_sreg_save_restore_idiom_keeps_region_atomic():
    """in/cli/.../out SREG restore: the region stays atomic through the
    restore because the saved I value flows back out of the register."""
    src = ("f:\n"
           "    in r18, 0x3f\n"
           "    cli\n"
           "    sts 0x0700, r24\n"
           "    out 0x3f, r18\n"
           "    sts 0x0701, r24\n"
           "    ret\n"
           "isr_tick:\n"
           "    sts 0x0700, r25\n"
           "    sts 0x0701, r25\n"
           "    reti\n")
    program = assemble(src)
    report = analyze(src, mainline=["f"])
    # f is a mainline entry, so I is ON when `in r18` snapshots it; the
    # store inside cli/out is protected, while the store after the
    # restore runs with I back ON and is the single racing site
    assert len(report.races) == 1
    assert report.races[0].mainline.byte_addr == \
        program.symbols["f"] + 10


def test_counted_loop_wcet_is_bounded():
    src = ("__vector_1:\n"
           "    ldi r20, 5\n"
           "lp:\n"
           "    dec r20\n"
           "    brne lp\n"
           "    reti\n")
    report = analyze(src, mainline=[])
    (entry,) = report.latency.per_isr
    # ldi(1) + 5 iterations of dec(1)+brne(2, conservatively counted
    # as taken on the final trip too) + reti(4) = 1 + 15 + 4
    assert entry.wcet == 20


def test_unbounded_isr_raises_hl021():
    src = ("__vector_1:\n"
           "spin:\n"
           "    rjmp spin\n")
    engine = DiagnosticsEngine()
    report = analyze(src, engine=engine, mainline=[])
    (entry,) = report.latency.per_isr
    assert entry.wcet is None
    assert report.latency.bound is None
    assert any(d.code == "HL021" for d in engine.findings)


def test_latency_budget_violation_raises_hl021():
    with open(RACY) as handle:
        src = handle.read()
    engine = DiagnosticsEngine()
    report = analyze(src, engine=engine, budget=5)
    assert report.latency.bound > 5
    assert any(d.code == "HL021" and "budget" in d.message
               for d in engine.findings)
    # a generous budget is silent
    engine2 = DiagnosticsEngine()
    analyze(src, engine=engine2, budget=10_000)
    assert not any(d.code == "HL021" for d in engine2.findings)


# =====================================================================
# Static bound vs runtime observation
# =====================================================================
IRQ_WORKLOAD = (
    "    jmp main\n"
    "    jmp tick_isr\n"
    "main:\n"
    "    sei\n"
    "    ldi r16, 8\n"
    "spin:\n"
    "    lds r24, 0x0700\n"
    "    lds r25, 0x0701\n"
    "    adiw r24, 1\n"
    "    sts 0x0700, r24\n"
    "    sts 0x0701, r25\n"
    "    dec r16\n"
    "    brne spin\n"
    "    cli\n"
    "    sts 0x0700, r16\n"
    "    sts 0x0701, r16\n"
    "    sei\n"
    "    break\n"
    "tick_isr:\n"
    "    push r24\n"
    "    lds r24, 0x0700\n"
    "    inc r24\n"
    "    sts 0x0700, r24\n"
    "    pop r24\n"
    "    reti\n")


def run_irq_workload(period=40):
    machine = Machine(assemble(IRQ_WORKLOAD))
    controller = InterruptController(machine.core, nvectors=2)
    machine.attach_metrics()
    PeriodicTimer(controller, line=1, period=period).install(machine.core)
    machine.run(max_cycles=100_000)
    assert controller.taken > 0
    hist = machine.core.metrics.histogram(
        "irq_entry_latency", buckets=(4, 8, 16, 32, 64, 128, 256),
        line=1)
    return machine, hist


def static_workload_report(engine=None, budget=None):
    program = assemble(IRQ_WORKLOAD)
    words = dict(program.words)
    read = lambda w: words.get(w, 0xFFFF)
    isrs = vector_table_isrs(read, nvectors=2)
    lo, hi = program.extent()
    labels = sorted(v for k, v in program.symbols.items()
                    if k not in set(default_symbols()))
    cfg = RegionCFG.build(read, lo * 2, (hi + 1) * 2, name="irq",
                          extra_leaders=labels)
    analysis = ConcurrencyAnalysis(
        cfg, mainline_entries=[program.symbols["main"]], isrs=isrs)
    return analysis.run(engine=engine, budget=budget)


def test_static_latency_bound_covers_runtime_maximum():
    report = static_workload_report()
    bound = report.latency.bound
    assert bound is not None
    for period in (23, 40, 97):
        _machine, hist = run_irq_workload(period)
        assert hist.max is not None
        assert hist.max <= bound, (hist.max, bound)


def test_workload_races_are_detected_statically():
    engine = DiagnosticsEngine()
    report = static_workload_report(engine=engine)
    assert report.races, "the spin loop RMW must race tick_isr"
    assert any(d.code == "HL019" for d in engine.findings)
    assert any(d.code == "HL020" for d in engine.findings)


def test_publish_gauges():
    report = static_workload_report()
    registry = publish_gauges(MetricsRegistry(), report)
    doc = registry.to_dict()
    gauges = {(g["name"], tuple(sorted(g["labels"].items()))): g["value"]
              for g in doc["gauges"]}
    assert gauges[("static_max_irq_latency", ())] == report.latency.bound
    (entry,) = report.latency.per_isr
    assert gauges[("static_isr_wcet", (("vector", "1"),))] == entry.wcet


def test_histogram_tracks_max():
    registry = MetricsRegistry()
    hist = registry.histogram("h", buckets=(1, 2))
    assert hist.max is None
    hist.observe(1)
    hist.observe(7)
    hist.observe(3)
    assert hist.max == 7
    entry = registry.to_dict()["histograms"][0]
    assert entry["max"] == 7


# =====================================================================
# Fast-path interrupt delivery (hypothesis differential)
# =====================================================================
def _ibit_program(prologue, body):
    lines = ["    jmp main", "    jmp tick_isr", "main:"]
    lines += ["    " + op for op in prologue]
    lines += body
    lines += ["    break",
              "tick_isr:",
              "    inc r20",
              "    reti",
              # reti as an I-bit manipulation outside an ISR: rcall
              # pushes the resume address, reti pops it and sets I
              "do_reti:",
              "    reti"]
    return "\n".join(lines) + "\n"


def _run_irq_path(src, raises, instrumented):
    machine = Machine(assemble(src))
    controller = InterruptController(machine.core, nvectors=2)
    if instrumented:
        machine.attach_trace()
    for _ in range(raises):
        controller.raise_irq(1)
    machine.run(max_cycles=50_000)
    return machine, controller


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(("cli", "sei", "reti", "nop",
                                 "in r18, 0x3f", "out 0x3f, r18",
                                 "inc r21")),
                min_size=0, max_size=12),
       st.integers(min_value=0, max_value=2))
def test_ibit_sequences_deliver_identically_on_both_paths(ops, raises):
    """Any cli/sei/reti/SREG-save-restore sequence must take pending
    interrupts at the same instruction boundary, for the same cycle
    cost, on the fast loop and the step() loop."""
    body = []
    for op in ops:
        if op == "reti":
            # a bare reti would pop an empty stack; rcall pushes the
            # resume address the reti consumes (and I comes back on)
            body.append("    rcall do_reti")
        else:
            body.append("    " + op)
    src = _ibit_program(["sei"], body)
    fast_m, fast_c = _run_irq_path(src, raises, instrumented=False)
    slow_m, slow_c = _run_irq_path(src, raises, instrumented=True)
    assert fast_m.core.cycles == slow_m.core.cycles
    assert fast_m.core.instret == slow_m.core.instret
    assert fast_m.core.pc == slow_m.core.pc
    assert fast_c.taken == slow_c.taken
    assert bytes(fast_m.core.memory.data) == \
        bytes(slow_m.core.memory.data)


def test_fast_path_takes_pending_interrupt():
    """An attached interrupt controller alone must not force the
    instrumented path, and the fast loop must still vector."""
    src = _ibit_program(["sei"], ["    inc r21"] * 6)
    machine = Machine(assemble(src))
    controller = InterruptController(machine.core, nvectors=2)
    calls = []
    original = machine.core._run_fast
    machine.core._run_fast = lambda *a: calls.append(a) or original(*a)
    controller.raise_irq(1)
    machine.run(max_cycles=10_000)
    assert calls, "interrupt-only run must stay on the fast loop"
    assert controller.taken == 1
    assert machine.core.memory.data[20] == 1   # tick_isr ran


# =====================================================================
# Baseline suppressions
# =====================================================================
def test_baseline_round_trip(tmp_path):
    engine = DiagnosticsEngine()
    with open(RACY) as handle:
        src = handle.read()
    analyze(src, engine=engine)
    assert engine.findings
    path = tmp_path / "baseline.json"
    write_baseline(str(path), engine)
    doc = json.loads(path.read_text())
    assert doc["schema"] == 1
    assert all({"rule", "pc", "fingerprint"} <= set(s)
               for s in doc["suppressions"])

    engine2 = DiagnosticsEngine()
    analyze(src, engine=engine2)
    suppressed = apply_baseline(engine2, load_baseline(str(path)))
    assert suppressed > 0
    assert not engine2.findings


def test_baseline_does_not_mask_new_findings(tmp_path):
    engine = DiagnosticsEngine()
    with open(CLEAN) as handle:
        clean = handle.read()
    analyze(clean, engine=engine)
    path = tmp_path / "baseline.json"
    write_baseline(str(path), engine)     # empty baseline

    engine2 = DiagnosticsEngine()
    with open(RACY) as handle:
        analyze(handle.read(), engine=engine2)
    before = len(engine2.findings)
    assert apply_baseline(engine2, load_baseline(str(path))) == 0
    assert len(engine2.findings) == before


def test_baseline_schema_mismatch_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": 99, "suppressions": []}))
    with pytest.raises(ValueError):
        load_baseline(str(path))


def test_cmd_lint_baseline_flow(tmp_path, capsys):
    from repro.cli import cmd_lint
    miscompiled = "examples/modules/miscompiled.s"
    base = tmp_path / "lint-baseline.json"
    # snapshot the known findings; writing the baseline never gates
    assert cmd_lint(["--unchecked", miscompiled,
                     "--write-baseline", str(base)]) == 0
    capsys.readouterr()
    # with the baseline the same findings are suppressed and the
    # --fail-on contract sees a clean module
    assert cmd_lint(["--unchecked", miscompiled,
                     "--baseline", str(base)]) == 0
    captured = capsys.readouterr()
    assert "suppressed by baseline" in captured.err
    # without it the module still fails
    assert cmd_lint(["--unchecked", miscompiled]) == 1


def test_image_analyzer_surfaces_concurrency():
    """ImageAnalyzer analysis 5: a region with discovered handlers gets
    a concurrency report in the image report and its dict export."""
    from repro.analysis.static import ImageModel, ModuleRegion, \
        analyze_image
    from repro.asm import Assembler
    from repro.sfi.system import SfiSystem

    system = SfiSystem()
    src = ("poll:\n"
           "    lds r24, 0x0700\n"
           "    inc r24\n"
           "    sts 0x0700, r24\n"
           "    ret\n"
           "__vector_1:\n"
           "    sts 0x0700, r25\n"
           "    reti\n")
    prog = Assembler(symbols=system.kernel_symbols()).assemble(src,
                                                               "irqmod")
    lo, hi = prog.extent()
    base, end = system.place_image(prog)
    entries = {n: base + a - lo * 2 for n, a in prog.symbols.items()
               if n not in set(default_symbols())
               and lo * 2 <= a <= hi * 2 + 1}
    region = ModuleRegion(name="irqmod", domain=0, start=base, end=end,
                          policy="sfi", entries=entries)
    model = ImageModel.from_system(system, extra_modules=[region])
    report = analyze_image(model)
    assert "irqmod" in report.concurrency
    conc = report.concurrency["irqmod"]
    assert [i.name for i in conc.isrs] == ["__vector_1"]
    assert conc.races, "the unprotected RMW must race __vector_1"
    doc = report.analysis_dict()
    assert doc["concurrency"]["irqmod"]["races"] >= 1
    assert any(d.code == "HL019" for d in report.diagnostics.findings)


# =====================================================================
# harbor-race CLI
# =====================================================================
def test_cmd_race_racy_module_exits_one(capsys):
    assert cmd_race([RACY]) == 1
    out = capsys.readouterr().out
    assert "HL019" in out and "HL020" in out
    assert "witness" in out
    assert "static_max_irq_latency" in out


def test_cmd_race_clean_module_exits_zero(capsys):
    assert cmd_race([CLEAN]) == 0
    out = capsys.readouterr().out
    assert "no findings" in out
    assert "0 race(s)" in out


def test_cmd_race_elided_logger_is_race_free(capsys):
    assert cmd_race(["examples/modules/static_logger.s",
                     "--static-data", "256"]) == 0
    assert "0 race(s)" in capsys.readouterr().out


def test_cmd_race_json_and_latency_report(tmp_path, capsys):
    out_file = tmp_path / "race.json"
    lat_file = tmp_path / "latency.json"
    assert cmd_race([RACY, "--format", "json", "-o", str(out_file),
                     "--latency-report", str(lat_file)]) == 1
    doc = json.loads(out_file.read_text())
    conc = doc["analysis"]["concurrency"]["racy_sampler"]
    assert conc["races"] >= 1 and conc["torn"] >= 1
    assert conc["latency"]["bound"] is not None
    lat = json.loads(lat_file.read_text())
    assert lat["schema"] == 1
    assert lat["regions"]["racy_sampler"]["isrs"][0]["wcet"] is not None


def test_cmd_race_sarif_help_uris(capsys):
    assert cmd_race([RACY, "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    driver = doc["runs"][0]["tool"]["driver"]
    rules = {r["id"]: r for r in driver["rules"]}
    for code in ("HL019", "HL020"):
        assert code in rules
        assert rules[code]["helpUri"].startswith(
            "docs/static-analysis.md#")


def test_cmd_race_latency_budget_gates(capsys):
    # clean_sensor's bound is just the instruction-boundary skew, well
    # under a 100-cycle budget
    assert cmd_race([CLEAN, "--latency-budget", "100",
                     "--fail-on", "warning"]) == 0
    # the racy module's bound (ISR WCET + response + skew) blows a
    # 5-cycle budget and trips the warning gate
    assert cmd_race([RACY, "--latency-budget", "5",
                     "--fail-on", "warning"]) == 1
    assert "HL021" in capsys.readouterr().out
