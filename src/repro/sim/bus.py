"""Data-memory bus with functional-unit interposers.

The paper's hardware units sit between the CPU and the data memory
(Figure "Memory Map Controller (MMC)"): the MMC *"intercepts the signals
generated by the CPU for writing into the data memory"*, the safe-stack
unit *"takes over the address bus when the processor is pushing the
return address"*.  :class:`DataBus` is that attachment point: every
data-space transaction flows through it, and registered interposers may
observe the access, veto it (raising a protection fault), redirect it to
a different address, charge stall cycles, or handle it entirely.

Like the hardware, where each unit is wired to the decoder signal it
consumes, the bus routes by access kind: an interposer declares the
kinds it claims (``write_kinds`` / ``read_kinds``, None = every kind),
and :meth:`DataBus.add_interposer` files it into one route per
:class:`AccessKind`.  A transaction visits only its kind's route, in
chain order; a kind nobody claims takes the flat path straight to
memory (unless a bus observer is attached).  Routes are rebuilt only by ``add_interposer`` /
``remove_interposer``, so the chain is never edited in place.
"""

from dataclasses import dataclass

from repro.sim.events import AccessKind
from repro.trace.events import TraceEventKind


@dataclass
class WriteAction:
    """An interposer's verdict on a write transaction.

    ``redirect`` replaces the target address; ``handled`` means the
    interposer performed (or absorbed) the write itself and the bus must
    not touch memory; ``extra_cycles`` models pipeline stalls the unit
    inserts (the MMC's one-cycle bus-steal).
    """

    redirect: int = None
    handled: bool = False
    extra_cycles: int = 0


@dataclass
class ReadAction:
    """An interposer's verdict on a read transaction."""

    redirect: int = None
    value: int = None  # a fully handled read supplies the value
    extra_cycles: int = 0


class BusInterposer:
    """Base class for bus functional units; default is pass-through.

    ``write_kinds`` / ``read_kinds`` name the access kinds the unit
    claims (None = every kind).  The bus reads them when the unit is
    added and never calls a hook the unit's class does not override, so
    a unit sees only the transactions it declared.
    """

    name = "interposer"
    write_kinds = None
    read_kinds = None

    def on_write(self, bus, addr, value, kind):
        """Return a :class:`WriteAction` or None (pass through).

        May raise a protection fault to veto the access.
        """
        return None

    def on_read(self, bus, addr, kind):
        """Return a :class:`ReadAction` or None (pass through)."""
        return None


class DataBus:
    """The data-memory bus: memory + ordered, kind-routed interposers."""

    #: bus observers (a BusTracer, a repro.trace.TraceSink): setting
    #: either re-routes, since an observed bus has no flat kinds
    tracer = None
    trace = None

    def __init__(self, memory):
        self.memory = memory
        self._chain = []
        self._reroute()
        self.tracer = None
        self.cycle_hook = None  # callable returning current CPU cycle
        #: optional repro.trace.TraceSink; interposers read it off the
        #: bus at emission time (they receive the bus on every call)
        self.trace = None
        #: optional repro.trace.DomainProfiler for stall attribution
        self.profiler = None
        #: optional repro.trace.metrics.MetricsRegistry; interposers
        #: (MMC, safe-stack unit) read it off the bus at emission time
        self.metrics = None

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        if name == "tracer" or name == "trace":
            self._reroute()

    @property
    def interposers(self):
        """The interposer chain in order (read-only: change it through
        :meth:`add_interposer` / :meth:`remove_interposer`)."""
        return tuple(self._chain)

    def add_interposer(self, unit, first=False):
        """Attach *unit* at the end of the chain (the front if *first*)."""
        if first:
            self._chain.insert(0, unit)
        else:
            self._chain.append(unit)
        self._reroute()
        return unit

    def remove_interposer(self, unit):
        self._chain.remove(unit)
        self._reroute()

    def _reroute(self):
        observed = self.tracer is not None or self.trace is not None
        self._write_routes, self._flat_writes = self._routes(
            "on_write", "write_kinds", observed)
        self._read_routes, self._flat_reads = self._routes(
            "on_read", "read_kinds", observed)

    def _routes(self, hook, kinds_attr, observed):
        """Per-kind tuples of bound *hook*s in chain order, holding only
        the units whose class overrides *hook* and that claim the kind;
        and the flat kinds: those with no route, while unobserved."""
        base = getattr(BusInterposer, hook)
        claims = [(getattr(unit, hook), getattr(unit, kinds_attr, None))
                  for unit in self._chain
                  if getattr(type(unit), hook, base) is not base]
        routes = {kind: tuple(bound for bound, kinds in claims
                              if kinds is None or kind in kinds)
                  for kind in AccessKind}
        flat = frozenset(() if observed else
                         (kind for kind, route in routes.items()
                          if not route))
        return routes, flat

    def _now(self):
        return self.cycle_hook() if self.cycle_hook else 0

    # ------------------------------------------------------------------
    def write(self, addr, value, kind=AccessKind.DATA_STORE):
        """Run a write transaction; returns stall cycles added by units."""
        if kind in self._flat_writes:
            # flat path: no unit claims the kind, no observers —
            # straight to memory.  I/O devices still claim their
            # addresses (they are wiring, not instrumentation).
            memory = self.memory
            device = memory.io_devices.get(addr)
            if device is not None:
                device.io_write(addr, value)
            else:
                memory.write_data(addr, value)
            return 0
        extra = 0
        target = addr
        handled = False
        for on_write in self._write_routes[kind]:
            action = on_write(self, target, value, kind)
            if action is None:
                continue
            extra += action.extra_cycles
            if action.redirect is not None:
                target = action.redirect
            if action.handled:
                handled = True
                break
        if not handled:
            device = self.memory.io_devices.get(target)
            if device is not None:
                device.io_write(target, value)
            else:
                self.memory.write_data(target, value)
        if self.tracer is not None:
            note = "" if target == addr else "redirected->0x{:04x}".format(
                target)
            self.tracer.record(self._now(), kind, addr, value, note)
        if self.trace is not None:
            self.trace.emit(self._now(), TraceEventKind.BUS_ACCESS,
                            addr=addr, value=value, access=kind.value,
                            write=True, stall=extra,
                            **({"target": target} if target != addr
                               else {}))
        return extra

    # ------------------------------------------------------------------
    def read(self, addr, kind=AccessKind.DATA_LOAD):
        """Run a read transaction; returns (value, stall cycles)."""
        if kind in self._flat_reads:
            memory = self.memory
            device = memory.io_devices.get(addr)
            if device is not None:
                return device.io_read(addr), 0
            return memory.read_data(addr), 0
        extra = 0
        target = addr
        value = None
        for on_read in self._read_routes[kind]:
            action = on_read(self, target, kind)
            if action is None:
                continue
            extra += action.extra_cycles
            if action.redirect is not None:
                target = action.redirect
            if action.value is not None:
                value = action.value
                break
        if value is None:
            device = self.memory.io_devices.get(target)
            if device is not None:
                value = device.io_read(target)
            else:
                value = self.memory.read_data(target)
        if self.tracer is not None:
            note = "" if target == addr else "redirected->0x{:04x}".format(
                target)
            self.tracer.record(self._now(), kind, addr, value, note)
        if self.trace is not None:
            self.trace.emit(self._now(), TraceEventKind.BUS_ACCESS,
                            addr=addr, value=value, access=kind.value,
                            write=False, stall=extra,
                            **({"target": target} if target != addr
                               else {}))
        return value, extra
