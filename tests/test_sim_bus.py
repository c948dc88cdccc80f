"""Bus interposer mechanics and tracing."""

import pytest

from repro.sim import (
    AccessKind,
    BusInterposer,
    BusTracer,
    DataBus,
    Memory,
    ReadAction,
    WriteAction,
)


class Recorder(BusInterposer):
    def __init__(self):
        self.writes = []
        self.reads = []

    def on_write(self, bus, addr, value, kind):
        self.writes.append((addr, value, kind))
        return None

    def on_read(self, bus, addr, kind):
        self.reads.append((addr, kind))
        return None


def test_passthrough_observation():
    mem = Memory()
    bus = DataBus(mem)
    rec = bus.add_interposer(Recorder())
    bus.write(0x200, 0x11)
    value, _ = bus.read(0x200)
    assert value == 0x11
    assert rec.writes == [(0x200, 0x11, AccessKind.DATA_STORE)]
    assert rec.reads == [(0x200, AccessKind.DATA_LOAD)]


def test_write_redirect():
    class Redirect(BusInterposer):
        def on_write(self, bus, addr, value, kind):
            return WriteAction(redirect=addr + 0x100)

    mem = Memory()
    bus = DataBus(mem)
    bus.add_interposer(Redirect())
    bus.write(0x200, 0x22)
    assert mem.read_data(0x200) == 0
    assert mem.read_data(0x300) == 0x22


def test_write_handled_suppresses_memory():
    class Absorb(BusInterposer):
        def on_write(self, bus, addr, value, kind):
            return WriteAction(handled=True)

    mem = Memory()
    bus = DataBus(mem)
    bus.add_interposer(Absorb())
    bus.write(0x200, 0x33)
    assert mem.read_data(0x200) == 0


def test_read_value_override():
    class Feed(BusInterposer):
        def on_read(self, bus, addr, kind):
            return ReadAction(value=0x99)

    bus = DataBus(Memory())
    bus.add_interposer(Feed())
    value, _ = bus.read(0x200)
    assert value == 0x99


def test_extra_cycles_accumulate():
    class Slow(BusInterposer):
        def on_write(self, bus, addr, value, kind):
            return WriteAction(extra_cycles=2)

    bus = DataBus(Memory())
    bus.add_interposer(Slow())
    bus.add_interposer(Slow())
    assert bus.write(0x200, 1) == 4


def test_handled_stops_chain():
    order = []

    class First(BusInterposer):
        def on_write(self, bus, addr, value, kind):
            order.append("first")
            return WriteAction(handled=True)

    class Second(BusInterposer):
        def on_write(self, bus, addr, value, kind):
            order.append("second")
            return None

    bus = DataBus(Memory())
    bus.add_interposer(First())
    bus.add_interposer(Second())
    bus.write(0x200, 1)
    assert order == ["first"]


def test_remove_interposer():
    mem = Memory()
    bus = DataBus(mem)
    rec = bus.add_interposer(Recorder())
    bus.remove_interposer(rec)
    bus.write(0x200, 1)
    assert not rec.writes


def test_tracer_records_and_limits():
    bus = DataBus(Memory())
    tracer = BusTracer(limit=2)
    bus.tracer = tracer
    bus.write(0x200, 1)
    bus.write(0x201, 2)
    bus.write(0x202, 3)  # beyond limit, dropped
    assert len(tracer) == 2
    assert tracer.writes()[0].addr == 0x200
    tracer.clear()
    assert len(tracer) == 0


def test_tracer_notes_redirects():
    class Redirect(BusInterposer):
        def on_write(self, bus, addr, value, kind):
            return WriteAction(redirect=0x400)

    bus = DataBus(Memory())
    bus.add_interposer(Redirect())
    tracer = BusTracer()
    bus.tracer = tracer
    bus.write(0x200, 1)
    assert "redirected" in tracer.events[0].note


def test_access_kind_is_write():
    assert AccessKind.DATA_STORE.is_write
    assert AccessKind.RET_PUSH.is_write
    assert AccessKind.STACK_PUSH.is_write
    assert AccessKind.IO_WRITE.is_write
    assert not AccessKind.DATA_LOAD.is_write
    assert not AccessKind.RET_POP.is_write


# ---------------------------------------------------------------------
# routing by access kind
# ---------------------------------------------------------------------
WRITE_KINDS = [kind for kind in AccessKind if kind.is_write]
READ_KINDS = [kind for kind in AccessKind if not kind.is_write]


def test_undeclared_unit_sees_every_write_kind_and_no_read():
    """write_kinds=None claims every kind; a hook the class does not
    override is never called."""
    class WritesOnly(BusInterposer):
        write_kinds = None

        def __init__(self):
            self.seen = []

        def on_write(self, bus, addr, value, kind):
            self.seen.append(kind)
            return None

    bus = DataBus(Memory())
    unit = bus.add_interposer(WritesOnly())
    for kind in WRITE_KINDS:
        bus.write(0x200, 1, kind)
    for kind in READ_KINDS:
        bus.read(0x200, kind)
    assert unit.seen == WRITE_KINDS
    assert all(bus._read_routes[kind] == () for kind in AccessKind)


def test_declared_kinds_route_only_those_kinds():
    class PushWatcher(Recorder):
        write_kinds = frozenset({AccessKind.STACK_PUSH})
        read_kinds = frozenset({AccessKind.STACK_POP})

    mem = Memory()
    bus = DataBus(mem)
    rec = bus.add_interposer(PushWatcher())
    for kind in WRITE_KINDS:
        bus.write(0x200, 7, kind)
    for kind in READ_KINDS:
        bus.read(0x200, kind)
    assert rec.writes == [(0x200, 7, AccessKind.STACK_PUSH)]
    assert rec.reads == [(0x200, AccessKind.STACK_POP)]
    # unclaimed kinds still reach memory on the flat path
    assert mem.read_data(0x200) == 7


def test_routes_follow_chain_order_and_first():
    order = []

    class Tag(BusInterposer):
        def __init__(self, tag, kinds=None):
            self.tag = tag
            self.write_kinds = kinds

        def on_write(self, bus, addr, value, kind):
            order.append(self.tag)
            return None

    bus = DataBus(Memory())
    bus.add_interposer(Tag("a"))
    bus.add_interposer(Tag("b", {AccessKind.DATA_STORE}))
    front = bus.add_interposer(Tag("front"), first=True)
    bus.write(0x200, 1, AccessKind.DATA_STORE)
    bus.write(0x200, 1, AccessKind.IO_WRITE)
    assert order == ["front", "a", "b", "front", "a"]
    assert [u.tag for u in bus.interposers] == ["front", "a", "b"]
    bus.remove_interposer(front)
    order.clear()
    bus.write(0x200, 1, AccessKind.DATA_STORE)
    assert order == ["a", "b"]


def test_duck_typed_unit_is_routed_by_its_hooks():
    class Probe:
        def __init__(self):
            self.reads = []

        def on_read(self, bus, addr, kind):
            self.reads.append(kind)
            return None

    bus = DataBus(Memory())
    probe = bus.add_interposer(Probe())
    bus.write(0x200, 1)
    bus.read(0x200, AccessKind.IO_READ)
    assert probe.reads == [AccessKind.IO_READ]
    assert all(bus._write_routes[kind] == () for kind in AccessKind)


def test_interposer_chain_is_read_only():
    bus = DataBus(Memory())
    rec = bus.add_interposer(Recorder())
    assert bus.interposers == (rec,)
    with pytest.raises(AttributeError):
        bus.interposers.append(Recorder())


def test_access_kind_hashes_by_identity():
    assert {kind: kind.value for kind in AccessKind}[AccessKind.RET_POP] \
        == "ret_pop"
    assert hash(AccessKind.DATA_LOAD) == object.__hash__(AccessKind.DATA_LOAD)


def test_observer_sends_unclaimed_kinds_through_the_routes():
    """With a trace sink attached, every kind is observed (BUS_ACCESS),
    claimed or not; detaching it restores the flat path."""
    from repro.trace.events import TraceEventKind, TraceSink

    class StoreWatcher(Recorder):
        write_kinds = frozenset({AccessKind.DATA_STORE})
        read_kinds = frozenset()

    mem = Memory()
    bus = DataBus(mem)
    rec = bus.add_interposer(StoreWatcher())
    assert AccessKind.DATA_LOAD in bus._flat_reads
    sink = bus.trace = TraceSink()
    assert not bus._flat_reads and not bus._flat_writes
    bus.write(0x200, 5, AccessKind.STACK_PUSH)
    bus.read(0x200, AccessKind.DATA_LOAD)
    accesses = sink.of(TraceEventKind.BUS_ACCESS)
    assert [(e.data["access"], e.data["write"]) for e in accesses] == [
        ("stack_push", True), ("data_load", False)]
    assert rec.writes == [] and rec.reads == []
    bus.trace = None
    assert AccessKind.DATA_LOAD in bus._flat_reads
    assert AccessKind.DATA_STORE not in bus._flat_writes
    bus.read(0x200, AccessKind.DATA_LOAD)
    assert len(sink.of(TraceEventKind.BUS_ACCESS)) == 2
