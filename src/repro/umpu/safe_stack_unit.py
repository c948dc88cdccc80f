"""Safe-stack hardware unit (paper §3.4 and Table 3 rows "Save/Restore
Ret Addr").

"The hardware unit for safe stack simply takes over the address bus when
the processor is pushing the return address to the run-time stack.  By
stealing the address bus from the processor, the hardware unit is able
to simply redirect the store of the return addresses to the safe stack"
— and therefore *saving and restoring return addresses introduces no
added overhead* (0 cycles in Table 3).

The unit claims the bus's return-address transactions (``RET_PUSH``
and ``RET_POP``, distinct decoder signals of the ``call``/``ret``
families; the bus routes it no others), services them from the
safe-stack region at ``safe_stack_ptr`` and marks them handled so they
never reach the run-time stack.  The run-time stack keeps a 2-byte hole
per call frame (SP still moves; the *data* goes to the safe stack),
which keeps the CPU core's SP datapath untouched — the extensions stay
outside the core, "minimal low-cost architectural extensions".

Overflow: the safe stack grows up toward the run-time stack; the unit
raises :class:`SafeStackOverflow` when ``safe_stack_ptr`` would collide
with SP.
"""

from repro.core.faults import SafeStackOverflow, SafeStackUnderflow
from repro.sim.bus import BusInterposer, ReadAction, WriteAction
from repro.sim.events import AccessKind
from repro.trace.events import TraceEventKind

#: preallocated verdict for redirected pushes: the bus only reads
#: WriteAction fields, so one immutable instance serves every push
_HANDLED_VERDICT = WriteAction(handled=True, extra_cycles=0)


class SafeStackUnit(BusInterposer):
    """Redirects return-address pushes/pops to the safe stack region."""

    name = "safe_stack"
    #: the return-address signals of the call/ret families
    write_kinds = frozenset({AccessKind.RET_PUSH})
    read_kinds = frozenset({AccessKind.RET_POP})

    def __init__(self, registers, memory):
        self.regs = registers
        self.memory = memory
        self.redirected_pushes = 0
        self.redirected_pops = 0
        #: highest safe_stack_ptr ever reached (byte address past the
        #: deepest frame) — the runtime high-water mark the static
        #: occupancy bound is cross-checked against
        self.high_water = 0
        #: lowest address the safe stack may reach (set by the runtime;
        #: defaults to colliding with SP only)
        self.floor = None

    # ------------------------------------------------------------------
    def push_byte(self, value):
        """Sequence one byte onto the safe stack (also used by the
        domain tracker to push its part of the cross-domain frame)."""
        ptr = self.regs.safe_stack_ptr
        if ptr >= self.memory.sp:
            raise SafeStackOverflow(ptr, self.memory.sp)
        self.memory.write_data(ptr, value & 0xFF)
        self.regs.safe_stack_ptr = ptr + 1
        if ptr + 1 > self.high_water:
            self.high_water = ptr + 1

    def pop_byte(self):
        ptr = self.regs.safe_stack_ptr - 1
        if self.floor is not None and ptr < self.floor:
            raise SafeStackUnderflow()
        if ptr < 0:
            raise SafeStackUnderflow()
        self.regs.safe_stack_ptr = ptr
        return self.memory.read_data(ptr)

    # ------------------------------------------------------------------
    def on_write(self, bus, addr, value, kind):
        if not self.regs.enabled:
            return None
        self.push_byte(value)
        self.redirected_pushes += 1
        if bus.trace is not None:
            bus.trace.emit(bus._now(),
                           TraceEventKind.SAFE_STACK_REDIRECT,
                           domain=self.regs.cur_domain, addr=addr,
                           target=self.regs.safe_stack_ptr - 1,
                           write=True)
        # handled: the run-time stack never sees the byte; zero extra
        # cycles (the write happens in the slot the CPU already spends)
        return _HANDLED_VERDICT

    def on_read(self, bus, addr, kind):
        if not self.regs.enabled:
            return None
        value = self.pop_byte()
        self.redirected_pops += 1
        if bus.trace is not None:
            bus.trace.emit(bus._now(),
                           TraceEventKind.SAFE_STACK_REDIRECT,
                           domain=self.regs.cur_domain, addr=addr,
                           target=self.regs.safe_stack_ptr,
                           write=False)
        return ReadAction(value=value, extra_cycles=0)
