"""Bus access classification and trace events.

The UMPU functional units attach to the data bus and need to know *why*
an access happens: the Memory Map Controller checks data stores, the
safe-stack unit steals only the return-address pushes generated by the
``call`` family, and the domain tracker watches control flow.  On real
silicon these are distinct control signals from the instruction decoder;
here they are the :class:`AccessKind` tag on each bus transaction.
"""

import enum
from dataclasses import dataclass


class AccessKind(enum.Enum):
    DATA_LOAD = "data_load"    # ld/ldd/lds
    DATA_STORE = "data_store"  # st/std/sts
    STACK_PUSH = "stack_push"  # push instruction
    STACK_POP = "stack_pop"    # pop instruction
    RET_PUSH = "ret_push"      # return-address byte pushed by call/rcall/icall
    RET_POP = "ret_pop"        # return-address byte popped by ret/reti
    IO_READ = "io_read"        # in instruction / sbic/sbis
    IO_WRITE = "io_write"      # out instruction / sbi/cbi

    #: members are singletons, so identity hashing is exact and keeps
    #: the bus's per-kind route lookups in C (Enum hashes the name in
    #: Python)
    __hash__ = object.__hash__

    @property
    def is_write(self):
        return self in (AccessKind.DATA_STORE, AccessKind.STACK_PUSH,
                        AccessKind.RET_PUSH, AccessKind.IO_WRITE)


@dataclass(frozen=True)
class BusEvent:
    """One bus transaction, as recorded by a :class:`BusTracer`."""

    cycle: int
    kind: AccessKind
    addr: int
    value: int
    note: str = ""


class BusTracer:
    """Collects :class:`BusEvent` records; attach via ``bus.tracer``."""

    def __init__(self, limit=100000):
        self.events = []
        self.limit = limit

    def record(self, cycle, kind, addr, value, note=""):
        if len(self.events) < self.limit:
            self.events.append(BusEvent(cycle, kind, addr, value, note))

    def clear(self):
        self.events.clear()

    def writes(self):
        return [e for e in self.events if e.kind.is_write]

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)
