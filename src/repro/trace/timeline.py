"""Time-travel execution timeline: cycle-indexed record/replay.

A :class:`Timeline` turns a run into a seekable recording.  While
attached it drops keyframe :class:`~repro.sim.snapshot.MachineSnapshot`
captures every *interval* cycles — on the threaded-dispatch fast loop
as well as the instrumented ``step()`` path, via the core's cycle
watermark, which rides the run loop's existing budget comparison and
therefore costs nothing per instruction.  Afterwards (or mid-fault)
:meth:`Timeline.seek` restores the nearest keyframe at-or-before the
target cycle and deterministically re-executes up to it, giving

* ``seek(cycle)`` / ``seek_instret(n)`` — land on any recorded
  instruction boundary, bit-identical to a live run stopped there
  (pinned by ``tests/test_timeline.py`` on both system harnesses);
* ``window(cycle, before, after)`` — replay-derived instruction
  windows carrying *live* register/SREG/SP values per instruction,
  consumed by :class:`~repro.trace.forensics.FlightRecorder`;
* reverse-step in :class:`~repro.trace.debug.Debugger`;
* ``replay(on_step=...)`` — a full deterministic re-execution feeding
  per-instruction callbacks, which :class:`BlockHeat` uses to count
  per-basic-block execution heat (the block-JIT candidate list).

Determinism contract: replay re-executes the same instructions over the
same restored state, so it is exact for anything the snapshot covers —
CPU, memory, protection units, pending interrupt lines.  Peripheral
device models (``core.devices``) keep state outside the snapshot and
void the guarantee; they are suspended during replay along with every
observer (trace sink, profiler, metrics, debugger, forensics, the
recorder itself), so replay never pollutes live measurements.

Host mutations between runs (argument registers, kernel recovery cell
writes) are handled by segmenting the recording: ``begin_run()`` —
wired into ``Machine.call``/``run`` and the system harness dispatch
paths — pins a keyframe at every run entry, and replay never re-executes
across a run boundary; it restores the next segment's start keyframe
instead.
"""

import json
import zlib
from bisect import bisect_right
from contextlib import contextmanager

from repro.asm.disassembler import disassemble_one
from repro.core.faults import ProtectionFault
from repro.sim.snapshot import MachineSnapshot

#: default keyframe spacing in cycles.  A keyframe is ~one data-space
#: copy (4 KiB on the ATmega103 geometry); at 10k cycles the record-mode
#: overhead stays well under 2x the uninstrumented fast loop (pinned by
#: ``benchmarks/bench_replay_overhead.py``).
DEFAULT_INTERVAL = 10_000

#: timeline JSON export schema version (bump on incompatible changes)
TIMELINE_SCHEMA = 1


class Timeline:
    """Keyframe recorder + replay engine for one machine.

    Construction attaches immediately (``machine.timeline`` is set and
    the core watermark is armed); use ``Machine.attach_timeline()``.
    The first :meth:`seek`/:meth:`window`/:meth:`replay` finalizes the
    recording: the current state is pinned as the end keyframe and the
    watermark is disarmed.  Call :meth:`record` to start a fresh
    recording from the machine's current state.
    """

    def __init__(self, machine, interval=None, keep_flash=True):
        self.machine = machine
        self.interval = int(interval) if interval else DEFAULT_INTERVAL
        if self.interval < 1:
            raise ValueError("keyframe interval must be >= 1 cycle")
        #: share one immutable flash tuple across keyframes until a
        #: flash write dirties it (runtime flash writes are rare; a
        #: 64Ki-word copy per keyframe is not)
        self.keep_flash = keep_flash
        self.recording = False
        self.finalized = False
        self._keyframes = []      # MachineSnapshots, position-ordered
        self._tags = []           # parallel: "begin"|"run"|"interval"|...
        self._segment_starts = []  # keyframe indices where a run begins
        self._kf_cycles = None    # built at finalize for bisect
        self._kf_instrets = None
        self.faults = []          # (keyframe index, code) per noted fault
        self.seeks = 0
        self.reexec_cycles = 0    # total replayed cycles across seeks
        self.last_replay_fault = None
        self._flash_cache = None
        self._flash_dirty = True
        self._suspend_depth = 0
        machine.timeline = self
        if keep_flash:
            machine.memory.flash_listeners.append(self._on_flash_write)
        self.record()

    # -- recording ------------------------------------------------------
    def record(self):
        """(Re-)arm recording from the machine's current state."""
        core = self.machine.core
        self.recording = True
        self.finalized = False
        self._kf_cycles = self._kf_instrets = None
        self._capture("begin" if not self._keyframes else "record")
        self._segment_starts.append(len(self._keyframes) - 1)
        core.watermark = core.cycles + self.interval
        core.watermark_hook = self._on_watermark
        return self

    def begin_run(self):
        """Pin a keyframe at a run entry (a new replay segment).

        ``Machine.call``/``Machine.run`` and the system harness dispatch
        paths call this right before entering ``core.run``, after any
        host-side setup (argument registers, pushed sentinel, kernel
        recovery writes) — so seeks into the new run restore that setup
        instead of trying to re-execute it.  A run inside a suspension
        (the recorder is detached) pins nothing.
        """
        if not self.recording or self._suspend_depth:
            return
        core = self.machine.core
        self._capture("run")
        self._segment_starts.append(len(self._keyframes) - 1)
        core.watermark = core.cycles + self.interval

    def _on_watermark(self, core):
        self._capture("interval")
        core.watermark = core.cycles + self.interval

    def note_fault(self, fault):
        """Pin the at-fault state (called by ``Machine.record_fault``
        while the fault is still propagating).  The faulting instruction
        advanced PC but retired nothing, so this keyframe is the exact
        resumable post-fault state."""
        if not self.recording or self._suspend_depth:
            return
        idx = self._capture("fault")
        self.faults.append((idx, getattr(fault, "code", "protection")))

    def mark(self, tag="mark"):
        """Pin a keyframe at the current state (manual bookmark)."""
        if not self.recording:
            raise RuntimeError("timeline is not recording")
        return self._capture(tag)

    def _capture(self, tag):
        machine = self.machine
        core = machine.core
        mem = machine.memory
        if self.keep_flash:
            if self._flash_dirty or self._flash_cache is None:
                self._flash_cache = tuple(mem.flash)
                self._flash_dirty = False
            flash = self._flash_cache
        else:
            flash = tuple(mem.flash)
        snap = MachineSnapshot(
            data=bytes(mem.data), flash=flash, pc=core.pc,
            cycles=core.cycles, instret=core.instret, halted=core.halted,
            extra=machine._snapshot_extra())
        self._keyframes.append(snap)
        self._tags.append(tag)
        metrics = core.metrics
        if metrics is not None:
            metrics.counter("snapshot_keyframes").inc()
        return len(self._keyframes) - 1

    def _on_flash_write(self, word_addr):
        self._flash_dirty = True

    # -- lifecycle ------------------------------------------------------
    def finalize(self):
        """Stop recording and pin the end keyframe (idempotent).  The
        first seek/window/replay calls this implicitly."""
        if self.finalized:
            return self
        if self.recording:
            self._capture("end")
            self.recording = False
            core = self.machine.core
            core.watermark = None
            core.watermark_hook = None
        self.finalized = True
        self._kf_cycles = [kf.cycles for kf in self._keyframes]
        self._kf_instrets = [kf.instret for kf in self._keyframes]
        return self

    def detach(self):
        """Disarm and detach; the recorded keyframes stay usable."""
        self.finalize()
        machine = self.machine
        try:
            machine.memory.flash_listeners.remove(self._on_flash_write)
        except ValueError:
            pass
        if machine.timeline is self:
            machine.timeline = None

    # -- introspection --------------------------------------------------
    @property
    def keyframes(self):
        return tuple(self._keyframes)

    @property
    def start_cycle(self):
        return self._keyframes[0].cycles if self._keyframes else None

    @property
    def end_cycle(self):
        if not self.finalized or not self._keyframes:
            return None
        return self._keyframes[-1].cycles

    @property
    def fault_cycle(self):
        """Cycle of the first recorded fault, or None."""
        if not self.faults:
            return None
        return self._keyframes[self.faults[0][0]].cycles

    @property
    def fault_instret(self):
        if not self.faults:
            return None
        return self._keyframes[self.faults[0][0]].instret

    def can_replay(self):
        return bool(self._keyframes)

    # -- seeking --------------------------------------------------------
    def seek(self, cycle):
        """Restore the machine to its state at *cycle*: the first
        instruction boundary at-or-after *cycle*, exactly as a live run
        stopped there by a cycle budget.  Targets at-or-past the end of
        the recording clamp to the recorded end state; targets before
        the recording raise ``ValueError``.  Returns the machine."""
        self.finalize()
        kfs = self._keyframes
        if not kfs:
            raise RuntimeError("timeline holds no keyframes")
        if cycle < kfs[0].cycles:
            raise ValueError(
                "cycle {} predates the recording (starts at {})".format(
                    cycle, kfs[0].cycles))
        self.seeks += 1
        if cycle >= kfs[-1].cycles:
            # nothing recorded past the end; there is nothing
            # deterministic to re-execute beyond it
            kfs[-1].apply(self.machine)
            return self.machine
        idx = bisect_right(self._kf_cycles, cycle) - 1
        kf = kfs[idx]
        kf.apply(self.machine)
        if kf.cycles < cycle:
            self._reexec(target_cycle=cycle,
                         end_instret=self._segment_end_instret(idx))
        return self.machine

    def seek_instret(self, n):
        """Like :meth:`seek` but indexed by retired-instruction count."""
        self.finalize()
        kfs = self._keyframes
        if not kfs:
            raise RuntimeError("timeline holds no keyframes")
        if n < kfs[0].instret:
            raise ValueError(
                "instret {} predates the recording (starts at {})".format(
                    n, kfs[0].instret))
        self.seeks += 1
        if n >= kfs[-1].instret:
            kfs[-1].apply(self.machine)
            return self.machine
        idx = bisect_right(self._kf_instrets, n) - 1
        kf = kfs[idx]
        kf.apply(self.machine)
        if kf.instret < n:
            self._reexec(target_instret=n,
                         end_instret=self._segment_end_instret(idx))
        return self.machine

    def _segment_end_instret(self, kf_index):
        """Retired-instruction count at which the segment containing
        keyframe *kf_index* ends (the next run's entry, or the end of
        the recording) — replay never steps past it, so it can never
        execute through a call sentinel into unmapped flash."""
        pos = bisect_right(self._segment_starts, kf_index)
        if pos < len(self._segment_starts):
            return self._keyframes[self._segment_starts[pos]].instret
        return self._keyframes[-1].instret

    def _segment_bounds(self, kf_index=None, instret=None):
        """(start, end) retired-instruction bounds of the run segment
        containing keyframe *kf_index* (exact), or the segment a state
        with *instret* belongs to (the latest segment on run-boundary
        ties, matching seek's keyframe tie-breaking)."""
        starts = self._segment_starts
        kfs = self._keyframes
        if kf_index is not None:
            pos = max(0, bisect_right(starts, kf_index) - 1)
        else:
            seg_instrets = [kfs[s].instret for s in starts]
            pos = max(0, bisect_right(seg_instrets, instret) - 1)
        lo = kfs[starts[pos]].instret
        hi = (kfs[starts[pos + 1]].instret if pos + 1 < len(starts)
              else kfs[-1].instret)
        return lo, hi

    # -- replay core ----------------------------------------------------
    def _reexec(self, target_cycle=None, target_instret=None,
                end_instret=None, on_step=None):
        """Deterministically re-execute from the machine's current
        (just-restored) state up to the target boundary, observers
        suspended.  Returns cycles replayed."""
        core = self.machine.core
        start = core.cycles
        self.last_replay_fault = None
        with self._suspended():
            step = core.step
            while not core.halted:
                if target_cycle is not None and core.cycles >= target_cycle:
                    break
                if end_instret is not None and core.instret >= end_instret:
                    break
                if target_instret is not None \
                        and core.instret >= target_instret:
                    break
                pc0 = core.pc
                c0 = core.cycles
                try:
                    step()
                except ProtectionFault as fault:
                    # same containment as the live run: the instruction
                    # is vetoed, PC has advanced, nothing retired
                    self.last_replay_fault = fault
                    if on_step is not None:
                        on_step(pc0 * 2, core.cycles - c0, fault)
                    break
                if on_step is not None:
                    on_step(pc0 * 2, core.cycles - c0, None)
        delta = core.cycles - start
        self.reexec_cycles += delta
        metrics = core.metrics
        if metrics is not None:
            metrics.counter("replay_reexec_cycles").inc(delta)
        return delta

    @contextmanager
    def _suspended(self):
        """Detach every observer (and the recorder itself) for the
        duration of a replay, so re-execution neither pollutes live
        trace/profile/metrics data nor re-captures keyframes.
        Re-entrant."""
        if self._suspend_depth:
            self._suspend_depth += 1
            try:
                yield
            finally:
                self._suspend_depth -= 1
            return
        machine = self.machine
        core = machine.core
        bus = machine.bus
        saved = (core.trace, core.profiler, core.metrics, core.debug,
                 core.watermark, core.watermark_hook, core.devices,
                 bus.trace, bus.profiler, bus.metrics, bus.tracer,
                 machine.forensics)
        watch_unit = getattr(core.debug, "watch_unit", None)
        if watch_unit is not None and watch_unit in bus.interposers:
            bus.remove_interposer(watch_unit)
        else:
            watch_unit = None
        core.trace = core.profiler = core.metrics = core.debug = None
        core.watermark = core.watermark_hook = None
        core.devices = []
        bus.trace = bus.profiler = bus.metrics = bus.tracer = None
        machine.forensics = None
        self._suspend_depth = 1
        try:
            yield
        finally:
            self._suspend_depth = 0
            (core.trace, core.profiler, core.metrics, core.debug,
             core.watermark, core.watermark_hook, core.devices,
             bus.trace, bus.profiler, bus.metrics, bus.tracer,
             machine.forensics) = saved
            if watch_unit is not None:
                bus.add_interposer(watch_unit, first=True)

    @contextmanager
    def preserving(self):
        """Snapshot the machine, yield, restore — so a caller (fault
        forensics, a debugger UI) can replay mid-flight and hand the
        machine back exactly as it found it.  If the timeline was still
        recording on entry (seeks finalize it), recording is re-armed on
        exit so execution after the excursion keeps being captured."""
        snap = MachineSnapshot.capture(self.machine)
        was_recording = self.recording
        try:
            yield self
        finally:
            snap.apply(self.machine)
            if was_recording and not self.recording:
                self.record()

    # -- windows --------------------------------------------------------
    def window(self, cycle=None, before=8, after=0, symbols=None):
        """Replay-derived instruction window around *cycle*.

        Returns a list of dicts, one per re-executed instruction, oldest
        first: ``pc`` (byte address), ``text`` (disassembly), ``cycles``
        consumed, ``instret`` after it retired, live ``registers`` (32
        bytes), ``sreg``, ``sp``, ``domain`` and ``fault`` (code slug
        when the instruction faulted, else None).  With *cycle* None the
        window ends at the first recorded fault when there is one, else
        at the end of the recording.  *symbols* is an optional
        ``addr -> name`` map for disassembly.
        """
        self.finalize()
        at_fault = cycle is None and bool(self.faults)
        if at_fault:
            # the latest noted fault: forensics captures while the
            # fault is still propagating, right after note_fault
            fault_kf = self.faults[-1][0]
            target_instret = self._keyframes[fault_kf].instret
            seg_lo, seg_hi = self._segment_bounds(kf_index=fault_kf)
        elif cycle is None:
            target_instret = self._keyframes[-1].instret
            seg_lo, seg_hi = self._segment_bounds(instret=target_instret)
        else:
            self.seek(cycle)
            target_instret = self.machine.core.instret
            seg_lo, seg_hi = self._segment_bounds(instret=target_instret)
        # a live machine never executes across a run boundary (host code
        # intervenes between runs), so the window must not either: clamp
        # the window start and length to the target's own segment
        start = max(seg_lo, target_instret - before)
        if at_fault and start == target_instret:
            # seek_instret at a run boundary tie-breaks into the NEXT
            # segment's start keyframe (host recovery applied); pin the
            # exact pre-fault state directly instead
            self._keyframes[fault_kf].apply(self.machine)
        else:
            self.seek_instret(start)
        core = self.machine.core
        total = min((target_instret - core.instret) + after,
                    seg_hi - core.instret)
        if at_fault:
            total += 1  # include the (vetoed, un-retired) faulting attempt
        records = []
        with self._suspended():
            for _ in range(total):
                if core.halted:
                    break
                record = self._step_record(symbols)
                records.append(record)
                if record["fault"] is not None:
                    break
        return records

    def _step_record(self, symbols=None):
        machine = self.machine
        core = machine.core
        mem = machine.memory
        pc0 = core.pc
        c0 = core.cycles
        fault = None
        try:
            core.step()
        except ProtectionFault as exc:
            fault = exc
            self.last_replay_fault = exc
        line = disassemble_one(mem.read_flash_word, pc0, symbols)
        provider = core.domain_provider
        return {
            "pc": pc0 * 2,
            "text": line.text if line is not None else "??",
            "cycles": core.cycles - c0,
            "instret": core.instret,
            "registers": list(mem.data[0:32]),
            "sreg": mem.sreg,
            "sp": mem.sp,
            "domain": provider() if provider is not None else None,
            "fault": getattr(fault, "code", "protection")
            if fault is not None else None,
        }

    # -- full replay ----------------------------------------------------
    def replay(self, on_step=None, to_cycle=None):
        """Re-execute the whole recording segment by segment, invoking
        ``on_step(pc_byte, cycles, fault_or_none)`` per instruction.
        Stops early at *to_cycle*.  Returns total cycles replayed."""
        self.finalize()
        kfs = self._keyframes
        if not kfs:
            raise RuntimeError("timeline holds no keyframes")
        total = 0
        starts = self._segment_starts
        for i, s in enumerate(starts):
            kf = kfs[s]
            if to_cycle is not None and kf.cycles >= to_cycle:
                break
            end_instret = (kfs[starts[i + 1]].instret
                           if i + 1 < len(starts) else kfs[-1].instret)
            if end_instret <= kf.instret:
                continue  # empty segment (no instruction retired in it)
            kf.apply(self.machine)
            total += self._reexec(target_cycle=to_cycle,
                                  end_instret=end_instret,
                                  on_step=on_step)
        return total

    # -- export ---------------------------------------------------------
    def to_dict(self):
        """JSON-ready description of the recording (keyframe positions
        and state digests, segments, faults, replay stats)."""
        self.finalize()
        flash_ids = {}
        keyframes = []
        for i, kf in enumerate(self._keyframes):
            fid = flash_ids.setdefault(id(kf.flash), len(flash_ids))
            keyframes.append({
                "cycle": kf.cycles,
                "instret": kf.instret,
                "pc": kf.pc * 2,
                "halted": kf.halted,
                "tag": self._tags[i],
                "data_crc32": zlib.crc32(kf.data) & 0xFFFFFFFF,
                "flash_id": fid,
            })
        return {
            "schema": TIMELINE_SCHEMA,
            "interval": self.interval,
            "keyframes": keyframes,
            "segments": list(self._segment_starts),
            "faults": [{"cycle": self._keyframes[idx].cycles,
                        "instret": self._keyframes[idx].instret,
                        "pc": self._keyframes[idx].pc * 2,
                        "code": code} for idx, code in self.faults],
            "stats": {
                "keyframes": len(self._keyframes),
                "seeks": self.seeks,
                "reexec_cycles": self.reexec_cycles,
            },
        }

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
        return path


# =====================================================================
class HeatCell:
    """Heat counters of one (basic block, protection domain) bucket."""

    __slots__ = ("entries", "instructions", "cycles")

    def __init__(self):
        self.entries = 0
        self.instructions = 0
        self.cycles = 0


class BlockHeat:
    """Per-basic-block execution heat, keyed by the static analyzer's
    :class:`~repro.analysis.static.cfg.RegionCFG` blocks and bucketed by
    the protection domain that executed them.

    Feed it from a timeline replay (:meth:`feed`); the ranked output is
    the candidate list the basic-block JIT roadmap item consumes, and
    :func:`repro.trace.export.to_speedscope` renders the recorded block
    sequence as a flamegraph-style speedscope document.
    """

    def __init__(self, blocks):
        # blocks: iterable of (start, end, label, domain, region_name)
        self.blocks = sorted(blocks)
        self._starts = [b[0] for b in self.blocks]
        self.cells = {}       # (block_index or None, domain) -> HeatCell
        self.sequence = []    # run-length [block_index|None, domain, cycles]
        self._prev = None     # last (block_index, pc) for entry counting
        self.total_cycles = 0
        self.total_instructions = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_system(cls, system):
        """Blocks from a live system image (runtime + loaded modules),
        labeled with image symbols and owning domains."""
        from repro.analysis.static.image import ImageModel
        model = ImageModel.from_system(system)
        by_addr = model.symbols_by_addr()
        blocks = []
        for region in model.regions:
            cfg = model.cfg_for(region)
            for start, block in cfg.blocks.items():
                if not block.lines:
                    continue
                label = by_addr.get(start)
                if label is None:
                    label = "{}+0x{:x}".format(region.name,
                                               start - region.start)
                blocks.append((start, block.end, label, region.domain,
                               region.name))
        return cls(blocks)

    @classmethod
    def from_machine(cls, machine):
        """Blocks from a bare machine's loaded program."""
        from repro.analysis.static.cfg import RegionCFG
        program = machine.program
        if program is None:
            raise ValueError("machine has no loaded program")
        lo, hi = program.extent()
        symbols = dict(getattr(program, "symbols", {}) or {})
        cfg = RegionCFG.build(machine.memory.read_flash_word,
                              lo * 2, (hi + 1) * 2, name="program",
                              extra_leaders=sorted(symbols.values()))
        by_addr = {}
        for name, addr in sorted(symbols.items()):
            by_addr.setdefault(addr, name)
        blocks = []
        for start, block in cfg.blocks.items():
            if not block.lines:
                continue
            label = by_addr.get(start, "0x{:04x}".format(start))
            blocks.append((start, block.end, label, None, "program"))
        return cls(blocks)

    # ------------------------------------------------------------------
    def _block_index(self, pc):
        pos = bisect_right(self._starts, pc) - 1
        if pos >= 0 and pc < self.blocks[pos][1]:
            return pos
        return None

    def on_step(self, pc, cycles, domain, fault=None):
        """Timeline replay callback (``pc`` is a byte address)."""
        idx = self._block_index(pc)
        key = (idx, domain)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = HeatCell()
        prev = self._prev
        if prev is None or prev[0] != idx:
            cell.entries += 1
        elif idx is not None and pc == self.blocks[idx][0] \
                and prev[1] >= pc:
            cell.entries += 1  # back-edge to the block's own head

        self._prev = (idx, pc)
        cell.instructions += 1
        cell.cycles += cycles
        self.total_instructions += 1
        self.total_cycles += cycles
        seq = self.sequence
        if seq and seq[-1][0] == idx and seq[-1][1] == domain:
            seq[-1][2] += cycles
        else:
            seq.append([idx, domain, cycles])

    def feed(self, timeline, to_cycle=None):
        """Replay *timeline* through :meth:`on_step`.  The machine's
        domain provider (UMPU register file) labels each instruction
        with its live protection domain; software systems count with
        domain None."""
        core = timeline.machine.core

        def hook(pc, cycles, fault):
            provider = core.domain_provider
            self.on_step(pc, cycles,
                         provider() if provider is not None else None,
                         fault)

        timeline.replay(on_step=hook, to_cycle=to_cycle)
        return self

    # ------------------------------------------------------------------
    def label_of(self, index):
        if index is None:
            return "<unmapped>"
        return self.blocks[index][2]

    def rank(self, top=None, domain=None):
        """Blocks by cycle heat, hottest first.  Rows: ``(label, start,
        end, domain, entries, instructions, cycles, share)``."""
        rows = []
        for (idx, dom), cell in self.cells.items():
            if domain is not None and dom != domain:
                continue
            start, end = (None, None) if idx is None \
                else self.blocks[idx][:2]
            share = (cell.cycles / self.total_cycles
                     if self.total_cycles else 0.0)
            rows.append((self.label_of(idx), start, end, dom,
                         cell.entries, cell.instructions, cell.cycles,
                         share))
        rows.sort(key=lambda r: (-r[6], r[0]))
        return rows[:top] if top else rows

    def render(self, top=20, title="Hot basic blocks (replay heat)"):
        from repro.analysis.tables import render_table
        from repro.trace.export import domain_label
        headers = ("Block", "Span", "Domain", "Entries", "Instr",
                   "Cycles", "Share")
        rows = []
        for (label, start, end, dom, entries, instrs, cycles,
             share) in self.rank(top):
            span = ("-" if start is None
                    else "0x{:04x}-0x{:04x}".format(start, end))
            rows.append((label, span, domain_label(dom), entries, instrs,
                         cycles, "{:.1f}%".format(100.0 * share)))
        return render_table(
            title, headers, rows,
            note="{} blocks, {} instructions, {} cycles replayed".format(
                len(self.blocks), self.total_instructions,
                self.total_cycles))
