"""Watchpoints and PC breakpoints.

A :class:`Debugger` attaches two probes to a machine:

- a :class:`WatchUnit` inserted at the *front* of the data-bus
  interposer chain, so data watchpoints observe every access — including
  safe-stack redirected pushes and stores that a later protection unit
  will fault — before any unit can consume or reject it; and
- a ``core.debug`` hook that :meth:`AvrCore.step` consults before each
  instruction for PC breakpoints.

Attaching a debugger opts the core out of the threaded-dispatch fast
loop (``_run_fast``); execution moves to the instrumented ``step()``
path, which is slower on the host but cycle-for-cycle identical in
simulated time (see ``docs/performance.md``).  The watch unit itself
adds zero extra simulated cycles: it only observes and returns ``None``.

Breakpoint/watchpoint stops are delivered as :class:`DebugStop`
exceptions.  They deliberately do NOT subclass ``SimError`` or
``ProtectionFault`` — a stop is a debugger event, not a simulated
failure, and must not trip fault forensics or kernel panic paths.
"""


class DebugStop(Exception):
    """Base class for debugger-initiated stops (not simulation errors)."""


class BreakpointHit(DebugStop):
    """Execution reached a PC breakpoint (before executing it)."""

    def __init__(self, pc_byte, cycle):
        self.pc_byte = pc_byte
        self.cycle = cycle
        super().__init__("breakpoint at pc=0x{:05x} (cycle {})".format(
            pc_byte, cycle))


class WatchpointHit(DebugStop):
    """A data access matched a watchpoint with ``break_on_hit`` set.

    Raised from inside the bus access, i.e. mid-instruction; the
    instruction's architectural effects up to the access have applied.
    """

    def __init__(self, addr, write, value, cycle):
        self.addr = addr
        self.write = write
        self.value = value
        self.cycle = cycle
        super().__init__(
            "watchpoint: {} 0x{:04x} value=0x{:02x} (cycle {})".format(
                "write" if write else "read", addr, value, cycle))


class WatchHit:
    """One recorded watchpoint match."""

    __slots__ = ("cycle", "addr", "value", "write", "kind")

    def __init__(self, cycle, addr, value, write, kind):
        self.cycle = cycle
        self.addr = addr
        self.value = value
        self.write = write
        self.kind = kind

    def __repr__(self):
        return "WatchHit(cycle={}, addr=0x{:04x}, value=0x{:02x}, {}, {})" \
            .format(self.cycle, self.addr, self.value,
                    "write" if self.write else "read", self.kind)


class Watchpoint:
    """Watch an inclusive data-address range for reads and/or writes."""

    def __init__(self, lo, hi=None, on_read=False, on_write=True,
                 break_on_hit=False):
        self.lo = lo
        self.hi = lo if hi is None else hi
        self.on_read = on_read
        self.on_write = on_write
        self.break_on_hit = break_on_hit
        self.hits = []

    def matches(self, addr, write):
        if not (self.lo <= addr <= self.hi):
            return False
        return self.on_write if write else self.on_read

    def record(self, cycle, addr, value, write, kind):
        hit = WatchHit(cycle, addr, value, write, kind)
        self.hits.append(hit)
        if self.break_on_hit:
            raise WatchpointHit(addr, write, value, cycle)
        return hit


class WatchUnit:
    """Bus interposer that feeds data accesses to the watchpoint list.

    Duck-typed against the DataBus interposer protocol (``on_write`` /
    ``on_read`` returning a verdict or ``None``, no declared kinds, so
    it claims every kind); it always returns ``None`` so it neither
    consumes accesses nor adds cycles, and it is added at the front of
    every route so protection units downstream still see every access
    unchanged.
    """

    name = "watchpoints"

    def __init__(self, debugger):
        self.debugger = debugger

    def on_write(self, bus, addr, value, kind):
        cycle = self.debugger.machine.core.cycles
        for wp in self.debugger.watchpoints:
            if wp.matches(addr, write=True):
                wp.record(cycle, addr, value, True, kind)
        return None

    def on_read(self, bus, addr, kind):
        watchpoints = self.debugger.watchpoints
        if watchpoints:
            cycle = self.debugger.machine.core.cycles
            value = None
            for wp in watchpoints:
                if wp.matches(addr, write=False):
                    if value is None:
                        try:
                            value = bus.memory.read_data(addr)
                        except Exception:
                            value = 0
                    wp.record(cycle, addr, value, False, kind)
        return None


class Debugger:
    """Watchpoint/breakpoint controller for one machine.

    Construction attaches immediately: ``core.debug`` is set (which
    disables the fast loop) and the watch unit is spliced into the bus.
    Call :meth:`detach` to restore the unobserved configuration.
    """

    def __init__(self, machine):
        self.machine = machine
        self.watchpoints = []
        self.breakpoints = set()  # word addresses
        self._resume_pc = None
        self.watch_unit = WatchUnit(self)
        machine.core.debug = self
        machine.bus.add_interposer(self.watch_unit, first=True)

    # -- breakpoints ----------------------------------------------------
    def add_breakpoint(self, byte_addr):
        self.breakpoints.add(byte_addr // 2)

    def remove_breakpoint(self, byte_addr):
        self.breakpoints.discard(byte_addr // 2)

    def check_pc(self, core):
        """Called by ``AvrCore.step`` before each instruction."""
        pc = core.pc
        if pc == self._resume_pc:
            # Resuming from a stop at this PC: execute it once without
            # re-triggering, then re-arm.
            self._resume_pc = None
            return
        self._resume_pc = None
        if pc in self.breakpoints:
            self._resume_pc = pc
            raise BreakpointHit(pc * 2, core.cycles)

    # -- time travel ----------------------------------------------------
    def reverse_step(self, n=1):
        """Step *n* retired instructions backwards.

        Requires a :class:`~repro.trace.timeline.Timeline` attached
        (``machine.attach_timeline()``) *before* the run being rewound:
        the timeline restores the nearest keyframe and deterministically
        re-executes forward to ``instret - n``.  Clamps at the start of
        the recording.  Returns the new PC (byte address).  Forward
        execution from the rewound state retraces the recording exactly
        (replay determinism), so breakpoints/watchpoints re-fire on the
        re-executed path.
        """
        timeline = getattr(self.machine, "timeline", None)
        if timeline is None or not timeline.can_replay():
            raise RuntimeError(
                "reverse_step needs an attached timeline recording "
                "(Machine.attach_timeline before the run)")
        core = self.machine.core
        first = timeline.keyframes[0].instret
        target = max(first, core.instret - n)
        timeline.seek_instret(target)
        self._resume_pc = None  # a rewind re-arms breakpoints
        return core.pc * 2

    # -- watchpoints ----------------------------------------------------
    def watch(self, lo, hi=None, on_read=False, on_write=True,
              break_on_hit=False):
        wp = Watchpoint(lo, hi, on_read=on_read, on_write=on_write,
                        break_on_hit=break_on_hit)
        self.watchpoints.append(wp)
        return wp

    def unwatch(self, watchpoint):
        self.watchpoints.remove(watchpoint)

    # -------------------------------------------------------------------
    def detach(self):
        """Remove all probes; the fast loop becomes eligible again."""
        if self.machine.core.debug is self:
            self.machine.core.debug = None
        try:
            self.machine.bus.remove_interposer(self.watch_unit)
        except ValueError:
            pass
