"""Command-line tools for the Harbor toolchain.

Installed as console scripts (see ``pyproject.toml``):

* ``harbor-asm SOURCE [-o OUT.hex] [--listing]`` — assemble AVR source
  to a flash image (simple hex word dump) and/or a listing.
* ``harbor-disasm IMAGE.hex`` — disassemble an image.
* ``harbor-rewrite SOURCE --export NAME [...]`` — run the binary
  rewriter and print the sandboxed listing + statistics.
* ``harbor-verify SOURCE`` — run the on-node verifier over an image and
  report accept/reject.
* ``harbor-run SOURCE --entry LABEL`` — execute a program on the
  simulator (plain, or with UMPU protection via ``--umpu``).
* ``harbor-trace SOURCE -o OUT.json`` — execute with the structured
  trace attached and export a Chrome ``about://tracing`` JSON.
* ``harbor-profile SOURCE`` — execute with the per-domain cycle
  profiler attached and print the attribution breakdown (optionally
  also exporting the Chrome trace); see ``docs/observability.md``.
* ``harbor-replay SOURCE [--to-cycle C | --to-fault] [--window K]`` —
  record a run as a cycle-indexed timeline (keyframe snapshots), then
  seek it: deterministically replay to any cycle or to the fault and
  show the machine state plus a replay-derived instruction window with
  live register/SREG values; ``-o`` exports the timeline index and
  ``--speedscope`` the per-block heat profile.
* ``harbor-explain-fault SOURCE`` — execute with tracing + the fault
  forensics flight recorder attached; on a protection fault, print the
  structured panic dump (text or ``--json``).
* ``harbor-metrics SOURCE`` — execute with the metrics registry
  attached and print/export the counters, gauges and histograms.
* ``harbor-lint MODULE[:EXPORTS] [...]`` — build a whole node image
  from module sources (through the rewriter/verifier pipeline, or raw
  with ``--unchecked``) and run the whole-image static analyzer: CFG +
  abstract-interpretation protection verification, safe-stack bounds,
  overhead estimation and dead-code detection, reported with stable
  ``HLxxx`` rule codes (text, JSON or SARIF); see
  ``docs/static-analysis.md``.
* ``harbor-fuzz [--system sfi|umpu|both] [--count N] [--seed S]`` —
  adversarial soundness campaign: generate seeded hostile modules,
  drive them through the admission pipeline, execute the admitted ones
  on both execution paths under a write oracle and exit non-zero on
  any isolation escape; ``--index`` replays one candidate,
  ``--artifacts`` dumps escape records; see ``docs/soundness.md``.
* ``harbor-opt MODULE[:EXPORTS] [...]`` — proof-directed check elision:
  load modules with the prover enabled, strip run-time store checks it
  proves redundant against the layout's static data spans, write the
  ``ElisionManifest`` proof records and re-lint the elided image; see
  the "Check elision" section of ``docs/static-analysis.md``.
* ``harbor-certify MODULE[:EXPORTS] [...]`` — translation validation:
  load modules through the rewrite→(elide)→verify pipeline, then prove
  the installed flash is a sanctioned translation of each source
  (checked/manifest-covered stores, frame discipline, control-edge
  correspondence; ``HL017`` on any mismatch) and classify every
  installed block for the planned block JIT (``HL018`` notes);
  ``--report`` writes the JIT-readiness JSON; see the "Translation
  validation" section of ``docs/static-analysis.md``.
* ``harbor-race MODULE[:ENTRIES] [...]`` — interrupt-aware static race
  detector and latency certifier: HL019/HL020 races with two-site
  witnesses and a per-ISR WCET / interrupt-latency bound (HL021);
  ``--latency-report`` writes the bound certificate; see the
  "Concurrency analysis" section of ``docs/static-analysis.md``.

The tools share one driver: ``_load_module`` reads ``MODULE[:NAMES]``
specs, ``_static_layout`` builds ``--static-data`` layouts,
``_emit_report`` writes diagnostics and applies ``--fail-on``,
``_execute`` runs programs and ``_input_errors`` turns bad input into
one ``error:`` line (exit 2 for lint/opt/certify/race, else exit 1).

The image format is deliberately trivial: one ``ADDR: WORD`` hex pair
per line (word addresses), so images are diffable and editable.
"""

import argparse
import functools
import json
import sys

from repro.asm import AsmError, assemble, default_symbols, listing
from repro.asm.program import Program
from repro.core.faults import ProtectionFault
from repro.sfi.layout import SfiLayout
from repro.sfi.inline import InlineRewriter, TemplateVerifier
from repro.sfi.rewriter import RewriteError, Rewriter
from repro.sfi.runtime_asm import build_runtime
from repro.sfi.verifier import Verifier, VerifyError
from repro.sim import Machine
from repro.umpu import HarborLayout, UmpuMachine


class InputError(Exception):
    """Bad command-line input that is not an assembler error: an
    unknown label, a malformed flag value or an impossible layout."""


def _input_errors(status):
    """Decorate a tool so bad input prints one ``error:`` line and
    exits *status*; a module the loader rejects exits 1."""
    def decorate(tool):
        @functools.wraps(tool)
        def run(argv=None):
            try:
                return tool(argv)
            except (AsmError, OSError, InputError) as exc:
                message, code = exc, status
            except (RewriteError, VerifyError) as exc:
                message, code = exc, 1
            print("error: {}".format(message), file=sys.stderr)
            return code
        return run
    return decorate


def _read_source(path):
    with open(path) as handle:
        return handle.read()


def _load_image(path):
    program = Program(source_name=path)
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            addr, _, word = line.partition(":")
            try:
                program.set_word(int(addr, 16), int(word, 16))
            except ValueError:
                raise AsmError("malformed image line {!r}".format(line),
                               line_no, path) from None
    return program


def _dump_image(program, out):
    for word_addr in sorted(program.words):
        out.write("{:05x}: {:04x}\n".format(word_addr,
                                            program.words[word_addr]))


def _read_program(path, symbols=None):
    """Load a ``.hex`` image or assemble a source against *symbols*."""
    if path.endswith(".hex"):
        return _load_image(path)
    return assemble(_read_source(path), name=path, symbols=symbols)


def _load_module(spec, symbols):
    """Read a ``MODULE[:NAMES]`` spec into ``(name, program, lo, labels,
    names)``: *labels* maps the module's own labels (not *symbols* or
    the default ones, and inside its extent) to byte addresses, *lo* is
    the first word and *names* the listed labels (empty: none given)."""
    path, _, names_text = spec.partition(":")
    program = _read_program(path, symbols)
    lo, hi = program.extent()
    predefined = set(default_symbols()) | set(symbols)
    labels = {n: a for n, a in program.symbols.items()
              if n not in predefined and lo * 2 <= a <= hi * 2 + 1}
    names = tuple(n for n in names_text.split(",") if n)
    for label in names:
        if label not in labels:
            raise InputError("unknown entry label {!r}".format(label))
    name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
    return name, program, lo, labels, names


def _static_layout(args, domains=None):
    """The ``SfiLayout`` for ``--static-data``: a pinned span for each
    of *domains* (default: one per module) when the size is non-zero."""
    if domains is None:
        domains = min(len(args.modules), SfiLayout().ndomains - 1)
    try:
        return SfiLayout(static_data_bytes=args.static_data,
                         static_data_domains=domains
                         if args.static_data else 0)
    except ValueError as exc:
        raise InputError(exc) from None


def _add_allow_io(parser):
    parser.add_argument("--allow-io", action="append", default=[],
                        type=lambda v: int(v, 0),
                        help="whitelisted I/O address (repeatable)")


def _add_static_data(parser, default):
    parser.add_argument("--static-data", type=lambda v: int(v, 0),
                        default=default, metavar="BYTES",
                        help="per-domain static data span size, so "
                             "modules referencing SDATA_D* symbols "
                             "assemble (multiple of 256; 0 disables; "
                             "default {})".format(default))


def _add_fail_on(parser):
    parser.add_argument("--fail-on", choices=("error", "warning", "note"),
                        default="error",
                        help="exit 1 when a finding at or above this "
                             "severity exists (default: error)")


def _add_report_args(parser):
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    parser.add_argument("-o", "--output", default=None,
                        help="write the report here (in --format)")
    _add_fail_on(parser)


def _emit_report(args, engine, analysis, tail="", name=None):
    """Print the diagnostics in ``--format`` (text: the findings plus
    *tail*; json/sarif: the document with *analysis*), copy them to
    ``-o`` (noted as ``; NAME report -> PATH`` when *name* is given)
    and return the ``--fail-on`` exit status."""
    if args.format == "text":
        text = engine.render_text() + tail
    else:
        doc = engine.to_sarif() if args.format == "sarif" \
            else engine.to_dict(analysis=analysis)
        text = json.dumps(doc, indent=1, sort_keys=True)
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            # text reports end in a newline, JSON documents do not
            handle.write(text + "\n" if args.format == "text" else text)
        if name:
            print("; {} report -> {}".format(name, args.output),
                  file=sys.stderr)
    return 1 if _findings_at_or_above(engine, args.fail_on) else 0


# ---------------------------------------------------------------------
@_input_errors(1)
def cmd_asm(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-asm", description="assemble AVR source")
    parser.add_argument("source")
    parser.add_argument("-o", "--output", help="write hex image here")
    parser.add_argument("--listing", action="store_true",
                        help="print a disassembly listing")
    args = parser.parse_args(argv)
    program = assemble(_read_source(args.source), name=args.source)
    if args.output:
        with open(args.output, "w") as out:
            _dump_image(program, out)
    if args.listing or not args.output:
        print(listing(program))
    print("; {} bytes of code, {} symbols".format(
        program.code_bytes, len(program.symbols)), file=sys.stderr)
    return 0


@_input_errors(1)
def cmd_disasm(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-disasm", description="disassemble a flash image")
    parser.add_argument("image", help=".hex image or .s source")
    args = parser.parse_args(argv)
    print(listing(_read_program(args.image)))
    return 0


@_input_errors(1)
def cmd_rewrite(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-rewrite",
        description="sandbox a module with the binary rewriter")
    parser.add_argument("source")
    parser.add_argument("--export", action="append", default=[],
                        help="exported function (repeatable)")
    parser.add_argument("--origin", type=lambda v: int(v, 0), default=None,
                        help="load address (default: after jump tables)")
    parser.add_argument("--inline", action="store_true",
                        help="inline the check templates instead of "
                             "calling the runtime stubs")
    parser.add_argument("-o", "--output", help="write hex image here")
    args = parser.parse_args(argv)
    layout = SfiLayout()
    runtime = build_runtime(layout)
    rewriter_cls = InlineRewriter if args.inline else Rewriter
    rewriter = rewriter_cls(runtime.symbols, layout)
    module = _read_program(args.source)
    origin = args.origin if args.origin is not None else layout.jt_end
    try:
        result = rewriter.rewrite(module, origin, exports=args.export)
    except RewriteError as exc:
        print("rewrite error: {}".format(exc), file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w") as out:
            _dump_image(result.program, out)
    else:
        print(listing(result.program))
    stats = result.stats
    print("; {} -> {} bytes; stores={} xcalls={} prologues={} rets={}"
          .format(stats["size_in"], stats["size_out"], stats["stores"],
                  stats["cross_calls"], stats["prologues"],
                  stats["rets"]), file=sys.stderr)
    for name, addr in sorted(result.exports.items()):
        print("; export {} at 0x{:04x}".format(name, addr),
              file=sys.stderr)
    return 0


@_input_errors(1)
def cmd_verify(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-verify",
        description="run the on-node verifier over a module image")
    parser.add_argument("image", help=".hex image or .s source")
    _add_allow_io(parser)
    parser.add_argument("--inline", action="store_true",
                        help="use the template verifier (accepts "
                             "inline-checked binaries)")
    args = parser.parse_args(argv)
    layout = SfiLayout()
    runtime = build_runtime(layout)
    verifier_cls = TemplateVerifier if args.inline else Verifier
    verifier = verifier_cls(runtime.symbols, layout,
                            allowed_io=tuple(args.allow_io))
    program = _read_program(args.image)
    lo, hi = program.extent()
    try:
        report = verifier.verify(program, lo * 2, (hi + 1) * 2)
    except VerifyError as exc:
        print("REJECTED: {}".format(exc))
        return 1
    print("ACCEPTED: {} instructions, {} runtime calls, {} internal "
          "calls, {} rets".format(report.instructions,
                                  report.calls_to_runtime,
                                  report.internal_calls, report.rets))
    return 0


def _add_run_arguments(parser):
    parser.add_argument("source")
    parser.add_argument("--entry", default=None,
                        help="label to call (default: run from reset)")
    parser.add_argument("--umpu", action="store_true",
                        help="enable the UMPU protection units")
    parser.add_argument("--domain", type=int, default=None,
                        help="run as this protection domain (with --umpu)")
    parser.add_argument("--max-cycles", type=int, default=1_000_000)


def _build_machine(args):
    program = _read_program(args.source)
    if args.entry and args.entry not in program.symbols:
        raise InputError("unknown entry label {!r}".format(args.entry))
    if args.umpu:
        machine = UmpuMachine(program, layout=HarborLayout())
        if args.domain is not None:
            machine.enter_domain(args.domain)
    else:
        machine = Machine(program)
    return machine


def _execute(machine, args):
    """Run per the shared run arguments; returns (cycles, fault)."""
    try:
        if args.entry:
            cycles = machine.call(args.entry, max_cycles=args.max_cycles)
        else:
            cycles = machine.run(max_cycles=args.max_cycles)
    except ProtectionFault as exc:
        return machine.core.cycles, exc
    return cycles, None


def _fault_status(fault):
    """Exit status of a run: 2 (and the fault on stderr) if it faulted."""
    if fault is None:
        return 0
    print("protection fault: {}".format(fault), file=sys.stderr)
    return 2


@_input_errors(1)
def cmd_run(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-run", description="run a program on the simulator")
    _add_run_arguments(parser)
    parser.add_argument("--dump", action="append", default=[],
                        help="ADDR[:LEN] memory ranges to print after")
    args = parser.parse_args(argv)
    machine = _build_machine(args)
    cycles, fault = _execute(machine, args)
    if fault is not None:
        print("protection fault: {}".format(fault))
        return 2
    print("halted after {} cycles; r24:25 = 0x{:04x}".format(
        cycles, machine.result16()))
    for spec in args.dump:
        addr_text, _, len_text = spec.partition(":")
        addr = int(addr_text, 0)
        length = int(len_text, 0) if len_text else 16
        data = machine.read_bytes(addr, length)
        print("0x{:04x}: {}".format(
            addr, " ".join("{:02x}".format(b) for b in data)))
    return 0


# ---------------------------------------------------------------------
@_input_errors(1)
def cmd_trace(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-trace",
        description="run a program with the structured trace attached "
                    "and export Chrome trace_event JSON "
                    "(load in about://tracing or ui.perfetto.dev)")
    _add_run_arguments(parser)
    parser.add_argument("-o", "--output", default="trace.json",
                        help="Chrome trace output path (default: "
                             "trace.json)")
    parser.add_argument("--capacity", type=int, default=65536,
                        help="trace ring-buffer capacity (events)")
    parser.add_argument("--text", action="store_true",
                        help="also dump the raw events as text")
    args = parser.parse_args(argv)
    from repro.trace import write_chrome_trace
    machine = _build_machine(args)
    sink = machine.attach_trace(capacity=args.capacity)
    cycles, fault = _execute(machine, args)
    write_chrome_trace(args.output, sink)
    if args.text:
        for event in sink:
            print("{:>8}  {:<20} pc={} domain={} {}".format(
                event.cycle, event.kind.value,
                "-" if event.pc is None else "0x{:04x}".format(event.pc),
                "-" if event.domain is None else event.domain,
                event.data))
    print("; {} cycles, {} events ({} dropped) -> {}".format(
        cycles, sink.emitted, sink.dropped, args.output),
        file=sys.stderr)
    return _fault_status(fault)


@_input_errors(1)
def cmd_profile(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-profile",
        description="run a program with the per-domain cycle profiler "
                    "and print the attribution breakdown")
    _add_run_arguments(parser)
    parser.add_argument("--chrome", default=None, metavar="OUT.json",
                        help="also export the Chrome trace here")
    parser.add_argument("--capacity", type=int, default=65536,
                        help="trace ring-buffer capacity (events)")
    parser.add_argument("--blocks", action="store_true",
                        help="also rank per-basic-block execution heat "
                             "(records a timeline and replays it)")
    parser.add_argument("--top", type=int, default=20,
                        help="blocks to list with --blocks (default 20)")
    parser.add_argument("--speedscope", default=None, metavar="OUT.json",
                        help="export the block heat as a speedscope "
                             "profile (implies --blocks)")
    parser.add_argument("--interval", type=int, default=None,
                        help="timeline keyframe interval in cycles "
                             "(with --blocks)")
    args = parser.parse_args(argv)
    from repro.trace import flat_report, write_chrome_trace
    machine = _build_machine(args)
    sink = machine.attach_trace(capacity=args.capacity)
    profiler = machine.attach_profiler()
    blocks = args.blocks or args.speedscope
    timeline = machine.attach_timeline(interval=args.interval) \
        if blocks else None
    cycles, fault = _execute(machine, args)
    print(flat_report(profiler, sink,
                      title="Cycle attribution: {}".format(args.source)))
    if fault is None:
        profiler.assert_balanced(machine.core)
        print("; attribution balanced: {} cycles == core.cycles delta"
              .format(profiler.total()), file=sys.stderr)
    if blocks:
        from repro.trace import BlockHeat, write_speedscope
        heat = BlockHeat.from_machine(machine).feed(timeline)
        print()
        print(heat.render(top=args.top))
        if args.speedscope:
            write_speedscope(args.speedscope, heat,
                             name="profile:{}".format(args.source))
            print("; speedscope profile -> {}".format(args.speedscope),
                  file=sys.stderr)
    if args.chrome:
        write_chrome_trace(args.chrome, sink)
        print("; chrome trace -> {}".format(args.chrome),
              file=sys.stderr)
    return _fault_status(fault)


@_input_errors(1)
def cmd_replay(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-replay",
        description="record a run with keyframe snapshots, then seek "
                    "the time-travel timeline: replay to a cycle or to "
                    "the fault and show the machine state plus a "
                    "replay-derived instruction window with live "
                    "register/SREG values")
    _add_run_arguments(parser)
    parser.add_argument("--interval", type=int, default=None,
                        help="keyframe interval in cycles (default {})"
                        .format(10_000))
    parser.add_argument("--to-cycle", type=int, default=None, metavar="C",
                        help="seek to cycle C after the run")
    parser.add_argument("--to-fault", action="store_true",
                        help="seek to the recorded protection fault")
    parser.add_argument("--window", type=int, default=8, metavar="K",
                        help="instructions of replayed history to show")
    parser.add_argument("-o", "--output", default=None,
                        metavar="TIMELINE.json",
                        help="write the timeline index (keyframes, "
                             "segments, faults, stats) here")
    parser.add_argument("--speedscope", default=None, metavar="OUT.json",
                        help="replay the whole recording and export the "
                             "block heat as a speedscope profile")
    args = parser.parse_args(argv)
    from repro.trace import BlockHeat, write_speedscope
    machine = _build_machine(args)
    timeline = machine.attach_timeline(interval=args.interval)
    cycles, fault = _execute(machine, args)
    timeline.finalize()
    print("; recorded {} cycles, {} keyframes (interval {})".format(
        cycles, len(timeline.keyframes), timeline.interval),
        file=sys.stderr)
    if fault is not None:
        print("; protection fault at cycle {}: {}".format(
            timeline.fault_cycle, fault), file=sys.stderr)

    status = 0
    target = None
    if args.to_fault:
        if not timeline.faults:
            print("no protection fault recorded", file=sys.stderr)
            status = 1
        else:
            target = timeline.fault_cycle
    elif args.to_cycle is not None:
        target = args.to_cycle

    if target is not None:
        core = machine.core
        timeline.seek(target)
        print("state at cycle {} (seek target {}):".format(
            core.cycles, target))
        print("  pc=0x{:05x}  instret={}  SREG=0x{:02x}  SP=0x{:04x}"
              "  halted={}".format(core.pc * 2, core.instret,
                                   machine.memory.sreg, machine.memory.sp,
                                   core.halted))
        for row in range(0, 32, 8):
            cells = " ".join("{:02x}".format(machine.memory.data[r])
                             for r in range(row, row + 8))
            print("  r{:<2}-r{:<2} {}".format(row, row + 7, cells))
        window = timeline.window(
            cycle=None if args.to_fault else target, before=args.window,
            symbols=None if machine.program is None
            else {a: n for n, a in machine.program.symbols.items()})
        print("  replayed window ({} instructions):".format(len(window)))
        for entry in window:
            mark = "  <-- FAULT" if entry["fault"] else ""
            print("    0x{:05x}  {:<28} [SREG=0x{:02x} SP=0x{:04x}]{}"
                  .format(entry["pc"], entry["text"], entry["sreg"],
                          entry["sp"], mark))
        timeline.seek(target)  # leave the machine at the seek target

    if args.speedscope:
        heat = BlockHeat.from_machine(machine).feed(timeline)
        write_speedscope(args.speedscope, heat,
                         name="replay:{}".format(args.source))
        print("; speedscope profile -> {}".format(args.speedscope),
              file=sys.stderr)
    if args.output:
        timeline.write(args.output)
        print("; timeline -> {}".format(args.output), file=sys.stderr)
    if target is None and fault is not None:
        return 2
    return status


@_input_errors(1)
def cmd_explain_fault(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-explain-fault",
        description="run a program with fault forensics attached and "
                    "explain any protection fault: registers, annotated "
                    "faulting address, cross-domain call stack, and the "
                    "last retired instructions")
    _add_run_arguments(parser)
    parser.add_argument("--window", type=int, default=16,
                        help="instructions of history to disassemble")
    parser.add_argument("--json", action="store_true",
                        help="print the report as JSON instead of text")
    parser.add_argument("-o", "--output", default=None, metavar="OUT.json",
                        help="also write the JSON report here")
    args = parser.parse_args(argv)
    machine = _build_machine(args)
    machine.attach_trace()
    machine.attach_forensics(window=args.window)
    cycles, fault = _execute(machine, args)
    if fault is None:
        print("no protection fault after {} cycles".format(cycles))
        return 0
    report = getattr(fault, "report", None)
    if report is None:  # fault from a layer outside the machine funnel
        machine.record_fault(fault)
        report = fault.report
    if args.json:
        print(report.to_json())
    else:
        print(report.text())
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(report.to_json())
        print("; fault report -> {}".format(args.output), file=sys.stderr)
    return 2


@_input_errors(1)
def cmd_metrics(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-metrics",
        description="run a program with the metrics registry attached "
                    "and print the counters/gauges/histograms")
    _add_run_arguments(parser)
    parser.add_argument("--json", action="store_true",
                        help="print the registry as JSON instead of text")
    parser.add_argument("-o", "--output", default=None, metavar="OUT.json",
                        help="also write the JSON export here")
    args = parser.parse_args(argv)
    from repro.trace import write_metrics
    machine = _build_machine(args)
    registry = machine.attach_metrics()
    cycles, fault = _execute(machine, args)
    registry.sample(machine)
    if args.json:
        print(json.dumps(registry.to_dict(), indent=1, sort_keys=True))
    else:
        print(registry.render())
    if args.output:
        write_metrics(args.output, registry)
        print("; metrics -> {}".format(args.output), file=sys.stderr)
    print("; {} cycles, {} metrics".format(cycles, len(registry)),
          file=sys.stderr)
    return _fault_status(fault)


@_input_errors(2)
def cmd_lint(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-lint",
        description="whole-image static analyzer: build a node image "
                    "from module sources and run the CFG + abstract-"
                    "interpretation analyses (protection verification, "
                    "safe-stack bounds, overhead estimation, dead code); "
                    "findings carry stable HLxxx rule codes")
    parser.add_argument("modules", nargs="+", metavar="MODULE[:EXPORTS]",
                        help="module source (.s) or image (.hex); "
                             "EXPORTS is a comma-separated export list "
                             "(default: every label)")
    parser.add_argument("--umpu", action="store_true",
                        help="model the hardware-protected system "
                             "(modules load unrewritten)")
    parser.add_argument("--unchecked", action="store_true",
                        help="place the raw images without the rewriter/"
                             "verifier pipeline — lint miscompiled or "
                             "hand-written binaries the loader would "
                             "reject")
    _add_allow_io(parser)
    _add_report_args(parser)
    parser.add_argument("--no-dead-code", action="store_true",
                        help="skip the dead/unreachable-block analysis")
    parser.add_argument("--select", action="append", default=[],
                        metavar="RULES",
                        help="only report these rules (comma-separated "
                             "HL codes or slugs, repeatable); also "
                             "narrows the --fail-on gate")
    parser.add_argument("--ignore", action="append", default=[],
                        metavar="RULES",
                        help="drop these rules from the report and the "
                             "--fail-on gate (comma-separated HL codes "
                             "or slugs, repeatable)")
    parser.add_argument("--data-span", action="append", default=[],
                        metavar="MODULE:LO-HI",
                        help="declare [LO, HI] (module-relative byte "
                             "offsets, with --unchecked) as data words "
                             "— excluded from decode/dead-code analysis "
                             "(repeatable)")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="JSON suppression file: findings matching "
                             "a (rule, pc, fingerprint) entry are "
                             "dropped from the report and the --fail-on "
                             "gate, so CI fails only on new findings")
    parser.add_argument("--write-baseline", default=None, metavar="FILE",
                        help="write the current findings as a baseline "
                             "suppression file (exit 0 — the next run "
                             "with --baseline FILE gates on new "
                             "findings only)")
    args = parser.parse_args(argv)

    from repro.analysis.static import ModuleRegion, lint_system
    from repro.sfi.system import SfiSystem
    from repro.umpu.system import UmpuSystem

    data_spans = {}
    try:
        for spec in args.data_span:
            name, _, span_text = spec.rpartition(":")
            lo_text, _, hi_text = span_text.partition("-")
            data_spans.setdefault(name, []).append(
                (int(lo_text, 0), int(hi_text, 0)))
    except ValueError as exc:
        raise InputError("bad --data-span: {}".format(exc)) from None
    try:
        selected = _parse_rule_filter(args.select)
        ignored = _parse_rule_filter(args.ignore)
    except KeyError as exc:
        raise InputError(exc.args[0]) from None

    if args.umpu:
        system = UmpuSystem()
    else:
        system = SfiSystem(allowed_io=tuple(args.allow_io))
    extra_regions = []
    for index, spec in enumerate(args.modules):
        name, program, lo, labels, exports = _load_module(
            spec, system.kernel_symbols())
        exports = exports or tuple(sorted(labels))
        if args.unchecked:
            base, end = system.place_image(program)
            extra_regions.append(ModuleRegion(
                name=name, domain=index, start=base, end=end,
                policy=system.policy,
                entries={e: base + labels[e] - lo * 2 for e in exports},
                data_spans=tuple(
                    (base + lo_off, base + hi_off)
                    for lo_off, hi_off in data_spans.get(name, ()))))
        else:
            system.load_module(program, name, exports=exports)
    model, report = lint_system(system,
                                dead_code=not args.no_dead_code,
                                extra_modules=extra_regions)
    engine = report.diagnostics
    if selected or ignored:
        engine.findings[:] = [
            d for d in engine.findings
            if (not selected or d.rule.code in selected)
            and d.rule.code not in ignored]
    if args.baseline:
        from repro.analysis.static.diagnostics import (
            apply_baseline,
            load_baseline,
        )
        try:
            suppressions = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            raise InputError("bad baseline {}: {}".format(
                args.baseline, exc)) from None
        suppressed = apply_baseline(engine, suppressions)
        if suppressed:
            print("; {} finding(s) suppressed by baseline {}".format(
                suppressed, args.baseline), file=sys.stderr)
    if args.write_baseline:
        from repro.analysis.static.diagnostics import write_baseline
        write_baseline(args.write_baseline, engine)
        print("; baseline ({} finding(s)) -> {}".format(
            len(engine), args.write_baseline), file=sys.stderr)
    tail = report.render_analysis()
    status = _emit_report(args, engine, report.analysis_dict(),
                          "\n\n" + tail if tail else "", name="lint")
    # baselining acknowledges the current findings
    return 0 if args.write_baseline else status


def _parse_rule_filter(specs):
    """Resolve repeatable comma-separated HL codes / slugs to a code
    set (harbor-lint ``--select`` / ``--ignore``); unknown tokens raise
    the diagnostics catalog's KeyError."""
    from repro.analysis.static.diagnostics import rule
    codes = set()
    for spec in specs:
        for token in spec.split(","):
            token = token.strip()
            if token:
                codes.add(rule(token).code)
    return codes


def _findings_at_or_above(engine, threshold):
    """Count findings at or above *threshold* severity (the
    ``--fail-on`` gate; severities order most-severe-first)."""
    from repro.analysis.static.diagnostics import SEVERITIES
    rank = SEVERITIES.index(threshold)
    return sum(1 for d in engine.findings
               if SEVERITIES.index(d.severity) <= rank)


@_input_errors(2)
def cmd_race(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-race",
        description="interrupt-aware static race detector and latency "
                    "certifier: I-bit dataflow partitions the module "
                    "into interrupt-atomic/interruptible regions, "
                    "mainline store/load intervals are intersected "
                    "against each ISR's access set (HL019 unprotected "
                    "shared writes, HL020 torn multi-byte accesses, "
                    "with two-site witnesses), and each ISR gets a "
                    "static WCET / interrupt-latency bound (HL021)")
    parser.add_argument("modules", nargs="+", metavar="MODULE[:ENTRIES]",
                        help="module source (.s) or image (.hex); "
                             "ENTRIES is a comma-separated list of "
                             "mainline entry labels (default: every "
                             "non-ISR label)")
    parser.add_argument("--isr", action="append", default=[],
                        metavar="LINE:LABEL",
                        help="register LABEL as the vector-LINE "
                             "interrupt handler (repeatable; "
                             "__vector_N / isr_* / *_isr labels are "
                             "auto-detected)")
    parser.add_argument("--latency-budget", type=lambda v: int(v, 0),
                        default=None, metavar="CYCLES",
                        help="emit HL021 when the static interrupt-"
                             "latency bound exceeds this many cycles")
    _add_static_data(parser, 0)
    _add_report_args(parser)
    parser.add_argument("--latency-report", default=None, metavar="FILE",
                        help="write the per-ISR WCET / latency-bound "
                             "certificate here as JSON")
    args = parser.parse_args(argv)

    from repro.analysis.static.cfg import RegionCFG
    from repro.analysis.static.concurrency import (
        ConcurrencyAnalysis,
        IsrInfo,
        find_isr_labels,
    )
    from repro.analysis.static.diagnostics import DiagnosticsEngine
    from repro.sfi.system import SfiSystem

    engine = DiagnosticsEngine()
    reports = []
    # kernel symbols so lintable modules (KERNEL_* service calls,
    # SDATA_D* spans) assemble standalone; the analysis needs no system
    kernel_symbols = SfiSystem(layout=_static_layout(args)).kernel_symbols()
    for spec in args.modules:
        name, program, lo, labels, entries = _load_module(spec,
                                                          kernel_symbols)
        hi = program.extent()[1]
        words = dict(program.words)

        def read_word(word_addr, _words=words):
            return _words.get(word_addr, 0xFFFF)

        isrs = find_isr_labels(labels)
        taken = {i.entry for i in isrs}
        for isr_spec in args.isr:
            line_text, _, label = isr_spec.partition(":")
            try:
                line = int(line_text, 0)
                entry = labels[label]
            except (ValueError, KeyError):
                raise InputError(
                    "bad --isr {!r} (want LINE:LABEL with a label of the "
                    "module)".format(isr_spec)) from None
            isrs = [i for i in isrs if i.entry != entry and
                    i.line != line]
            isrs.append(IsrInfo(line, entry, label))
            taken.add(entry)
        mainline = {labels[e] for e in entries} if entries \
            else set(labels.values()) - taken
        cfg = RegionCFG.build(read_word, lo * 2, (hi + 1) * 2, name=name,
                              extra_leaders=sorted(labels.values()))
        analysis = ConcurrencyAnalysis(
            cfg, mainline_entries=mainline, isrs=sorted(
                isrs, key=lambda i: i.line))
        reports.append(analysis.run(engine=engine,
                                    budget=args.latency_budget))

    tail = "\n".join(rep.render() for rep in reports)
    status = _emit_report(
        args, engine,
        {"concurrency": {rep.region: rep.to_dict() for rep in reports}},
        "\n\n" + tail if tail else "", name="race")
    if args.latency_report:
        with open(args.latency_report, "w") as handle:
            json.dump(
                {"schema": 1, "regions": {
                    rep.region: rep.latency.to_dict() if rep.latency
                    else None for rep in reports}},
                handle, indent=1, sort_keys=True)
        print("; latency report -> {}".format(args.latency_report),
              file=sys.stderr)
    return status


@_input_errors(2)
def cmd_opt(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-opt",
        description="proof-directed check elision: load modules with "
                    "the whole-image prover enabled, elide run-time "
                    "store checks proved redundant against the static "
                    "data spans, emit the ElisionManifest(s) and "
                    "re-lint the elided image")
    parser.add_argument("modules", nargs="+", metavar="MODULE[:EXPORTS]",
                        help="module source (.s) or image (.hex); "
                             "EXPORTS is a comma-separated export list "
                             "(default: every label)")
    _add_allow_io(parser)
    _add_static_data(parser, 256)
    parser.add_argument("--static-domains", type=int, default=None,
                        help="domains that get a span (default: one "
                             "per module)")
    parser.add_argument("-o", "--output", default=None, metavar="OUT.json",
                        help="write the manifest(s) here (module name "
                             "is inserted before the extension when "
                             "several modules elide)")
    _add_fail_on(parser)
    args = parser.parse_args(argv)

    from repro.analysis.static import lint_system
    from repro.sfi.system import SfiSystem

    system = SfiSystem(layout=_static_layout(args, args.static_domains),
                       allowed_io=tuple(args.allow_io))
    summaries = []
    for spec in args.modules:
        name, program, _lo, labels, exports = _load_module(
            spec, system.kernel_symbols())
        summaries.append(system.load_module(
            program, name, exports=exports or tuple(sorted(labels)),
            elide=True))
    multiple = sum(1 for m in summaries if m.manifest is not None) > 1
    for module in summaries:
        stats = module.rewrite_stats
        total = stats.get("stores", 0)
        if module.manifest is None:
            print("{}: 0/{} checked store(s) elided".format(
                module.name, total))
            continue
        manifest = module.manifest
        print("{}: {}/{} checked store(s) elided "
              "(~{} cycles/pass saved, Table 3)".format(
                  module.name, manifest.elided_checks, total,
                  manifest.elided_cycles_saved))
        for site in manifest.sites:
            print("  0x{:04x} {} [{}] ea=0x{:04x}..0x{:04x}".format(
                site.pc, site.key, site.rule, site.lo, site.hi))
        if args.output:
            path = args.output
            if multiple:
                stem, dot, ext = path.rpartition(".")
                path = "{}.{}{}{}".format(stem, module.name, dot, ext) \
                    if dot else "{}.{}".format(path, module.name)
            manifest.write(path)
            print("; manifest -> {}".format(path), file=sys.stderr)
    _model, report = lint_system(system)
    engine = report.diagnostics
    print(engine.render_text())
    return 1 if _findings_at_or_above(engine, args.fail_on) else 0


@_input_errors(2)
def cmd_certify(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-certify",
        description="translation validation: load modules through the "
                    "rewrite/(elide)/verify pipeline, prove the "
                    "installed flash is a sanctioned translation of "
                    "each source (HL017 on mismatch) and classify "
                    "every installed block for the planned block JIT "
                    "(HL018 notes)")
    parser.add_argument("modules", nargs="+", metavar="MODULE[:EXPORTS]",
                        help="module source (.s) or image (.hex); "
                             "EXPORTS is a comma-separated export list "
                             "(default: every label)")
    parser.add_argument("--elide", action="store_true",
                        help="run the proof-directed check-elision "
                             "pass; the resulting manifest is part of "
                             "what certification re-proves")
    _add_static_data(parser, 0)
    parser.add_argument("--unchecked", action="store_true",
                        help="place the raw images without the "
                             "rewriter pipeline and certify them as "
                             "installed — a miscompiled or hand-"
                             "patched image fails with HL017")
    _add_allow_io(parser)
    _add_report_args(parser)
    parser.add_argument("--report", default=None, metavar="OUT.json",
                        help="write the JIT-readiness JSON (per-module "
                             "block classification + counts) here")
    args = parser.parse_args(argv)

    from repro.analysis.static.diagnostics import DiagnosticsEngine
    from repro.analysis.static.transval import validate_translation
    from repro.sfi.system import SfiSystem

    system = SfiSystem(layout=_static_layout(args),
                       allowed_io=tuple(args.allow_io))
    engine = DiagnosticsEngine()
    reports = []
    for spec in args.modules:
        name, program, _lo, labels, exports = _load_module(
            spec, system.kernel_symbols())
        exports = exports or tuple(sorted(labels))
        if args.unchecked:
            base, end = system.place_image(program)
            report = validate_translation(
                program, system.machine.memory.read_flash_word,
                base, end, system.layout, system.runtime.symbols,
                exports=exports, engine=engine, region=name,
                module=name)
        else:
            module = system.load_module(program, name,
                                        exports=exports,
                                        elide=args.elide)
            export_targets = {
                e: system.linker.export_target(module.domain, e)
                for e in module.exports}
            report = validate_translation(
                program, system.machine.memory.read_flash_word,
                module.start, module.end, system.layout,
                system.runtime.symbols, exports=exports,
                manifest=module.manifest,
                export_targets=export_targets, engine=engine,
                region=name, domain=module.domain, module=name)
            module.certification = report
        reports.append(report)
    summary = {
        "schema": 1,
        "modules": [r.to_dict() for r in reports],
        "certified": all(r.ok for r in reports),
        "blocks": sum(len(r.blocks) for r in reports),
        "translatable_blocks": sum(r.translatable_blocks
                                   for r in reports),
        "untranslatable_blocks": sum(r.untranslatable_blocks
                                     for r in reports),
        "store_checks": sum(r.store_checks for r in reports),
        "semantic_proofs": sum(r.semantic_proofs for r in reports),
        "elided_sites": sum(r.elided_sites for r in reports),
    }
    status = _emit_report(args, engine, summary, "".join(
        "\n{}: {} — {} line(s) matched, {} checked store(s) ({} "
        "symbolically proved), {} elided site(s); {} block(s): {} "
        "translatable, {} untranslatable".format(
            r.module, "certified" if r.ok else "REJECTED",
            r.matched_lines, r.store_checks, r.semantic_proofs,
            r.elided_sites, len(r.blocks), r.translatable_blocks,
            r.untranslatable_blocks)
        for r in reports))
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print("; JIT-readiness report -> {}".format(args.report),
              file=sys.stderr)
    return status


def cmd_fuzz(argv=None):
    parser = argparse.ArgumentParser(
        prog="harbor-fuzz",
        description="adversarial soundness campaign: generate hostile "
                    "modules, drive them through the admission "
                    "pipeline, execute the admitted ones on both "
                    "execution paths under a write oracle and report "
                    "any isolation escape")
    parser.add_argument("--system", choices=("sfi", "umpu", "both"),
                        default="both",
                        help="which enforcement system(s) to attack "
                             "(default: both)")
    parser.add_argument("--count", type=int, default=1000, metavar="N",
                        help="candidates per system (default: 1000)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default: 0)")
    parser.add_argument("--start", type=int, default=0, metavar="INDEX",
                        help="first candidate index (default: 0)")
    parser.add_argument("--index", type=int, default=None,
                        metavar="INDEX",
                        help="replay exactly one candidate index "
                             "(prints its source/words and verdict)")
    parser.add_argument("--max-cycles", type=int, default=None,
                        help="per-call cycle budget (default: 20000)")
    parser.add_argument("--artifacts", default=None, metavar="DIR",
                        help="dump escape artifacts (JSON + .asm) here")
    parser.add_argument("--json", action="store_true",
                        help="print the full stats as JSON")
    args = parser.parse_args(argv)

    from repro.soundness import Campaign, dump_escape
    from repro.soundness.fuzzer import DEFAULT_MAX_CYCLES

    kinds = ("sfi", "umpu") if args.system == "both" else (args.system,)
    max_cycles = args.max_cycles or DEFAULT_MAX_CYCLES
    escaped = False
    for kind in kinds:
        campaign = Campaign(kind, seed=args.seed, max_cycles=max_cycles)
        if args.index is not None:
            result = campaign.run_one(args.index)
            candidate = result["candidate"]
            print("# {} candidate {} (family {}, seed {})".format(
                kind, args.index, candidate.family, args.seed))
            if candidate.source:
                sys.stdout.write(candidate.source)
            else:
                for addr, word in sorted(candidate.program.words.items()):
                    print("{:04x}: {:04x}".format(addr, word))
            print("verdict: {}".format(
                "ESCAPE" if result["escape"] else
                "rejected at {}".format(result["rejected"][0])
                if "rejected" in result else
                "outcomes {}".format(result.get("outcomes"))))
        else:
            campaign.run(args.count, start=args.start)
            print("{}: {}".format(kind, campaign.stats.summary()))
        if args.json:
            print(json.dumps(campaign.stats.to_dict(), indent=2,
                             sort_keys=True, default=str))
        if campaign.stats.escapes:
            escaped = True
            for escape in campaign.stats.escapes:
                if args.artifacts:
                    path = dump_escape(args.artifacts, escape,
                                       prefix=kind + "-")
                    print("escape artifact -> {}".format(path),
                          file=sys.stderr)
                else:
                    print("ESCAPE: {}".format(
                        json.dumps(escape, default=str)[:400]),
                        file=sys.stderr)
    return 1 if escaped else 0


TOOLS = {"asm": cmd_asm, "disasm": cmd_disasm, "rewrite": cmd_rewrite,
         "verify": cmd_verify, "run": cmd_run, "trace": cmd_trace,
         "profile": cmd_profile, "replay": cmd_replay,
         "explain-fault": cmd_explain_fault, "metrics": cmd_metrics,
         "lint": cmd_lint, "opt": cmd_opt, "certify": cmd_certify,
         "fuzz": cmd_fuzz, "race": cmd_race}


def main(argv=None):
    """Multiplexer: ``python -m repro.cli <tool> ...``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in TOOLS:
        print("usage: python -m repro.cli {{{}}} ...".format(
            "|".join(TOOLS)), file=sys.stderr)
        return 64
    return TOOLS[argv[0]](argv[1:])


if __name__ == "__main__":
    sys.exit(main())
