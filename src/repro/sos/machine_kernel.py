"""Machine-level SOS kernel: message dispatch over a cycle-accurate
protected node.

:class:`repro.sos.SosKernel` is the behavioural substrate; this kernel
runs the same message-passing discipline against *real machine-code
modules* on either protected system (:class:`~repro.sfi.SfiSystem` or
:class:`~repro.umpu.UmpuSystem` — both expose the same loader/dispatch
surface).  Every message delivery is a genuine cross-domain call on the
simulated node, so cycles, faults and containment are all measured, not
modelled — the paper's "executing complex software systems such as SOS"
at instruction level.

Message ABI for module handlers (an exported function, by default
``handle_msg``):

* r25:r24 = message type
* r23:r22 = 16-bit argument (payload address or scalar)
* r25:r24 on return = handler result (0 if unused)
"""

from dataclasses import dataclass, field

from repro.core.faults import ProtectionFault
from repro.sos.messaging import KERNEL_PID, Message, MessageQueue


@dataclass
class MachineModuleRecord:
    name: str
    module: object          # repro.core.system.LoadedModule
    handler: str
    state: str = "loaded"
    messages_handled: int = 0
    cycles: int = 0
    faults: int = 0


@dataclass
class MachineFaultLog:
    module: str
    message: object
    fault: ProtectionFault


class MachineKernel:
    """Cycle-accurate SOS-style dispatcher over a protected system."""

    def __init__(self, system, max_cycles_per_message=200_000):
        self.system = system
        self.max_cycles = max_cycles_per_message
        self.queue = MessageQueue()
        self.records = {}
        self.fault_log = []
        self.total_cycles = 0
        self.delivered = 0

    # ------------------------------------------------------------------
    def load_module(self, program, name, exports=("handle_msg",),
                    handler="handle_msg"):
        """Load an assembly module and register its message handler."""
        if handler not in exports:
            raise ValueError(
                "handler {!r} must be among the exports".format(handler))
        module = self.system.load_module(program, name, exports=exports)
        record = MachineModuleRecord(name=name, module=module,
                                     handler=handler)
        self.records[name] = record
        return record

    def kernel_symbols(self):
        return self.system.kernel_symbols()

    # ------------------------------------------------------------------
    def post(self, dst, mtype, arg=0, src=KERNEL_PID):
        return self.queue.post(Message(src, dst, mtype,
                                       data={"arg": arg & 0xFFFF}))

    def run(self, max_messages=100):
        """Dispatch until the queue drains (or the budget runs out).

        Protection faults raised while a module handles a message are
        contained: logged, the module marked crashed, the node's
        protection state recovered, and dispatch continues — the
        behaviour the paper's kernel guarantees.
        """
        count = 0
        while count < max_messages:
            message = self.queue.take()
            if message is None:
                break
            count += 1
            record = self.records.get(message.dst)
            if record is None or record.state != "loaded":
                continue
            try:
                _result, cycles = self.system.call_export(
                    record.name, record.handler,
                    message.mtype, message.data.get("arg", 0),
                    max_cycles=self.max_cycles)
                record.messages_handled += 1
                record.cycles += cycles
                self.total_cycles += cycles
            except ProtectionFault as fault:
                record.faults += 1
                record.state = "crashed"
                self.fault_log.append(
                    MachineFaultLog(record.name, message, fault))
                self.system.recover()
        self.delivered += count
        return count

    # ------------------------------------------------------------------
    def restart_module(self, name):
        """Re-arm a crashed module (state reset is the caller's business;
        a full SOS reload would re-run the module's init message)."""
        self.records[name].state = "loaded"

    def stats(self):
        return {name: {"messages": rec.messages_handled,
                       "cycles": rec.cycles,
                       "faults": rec.faults,
                       "state": rec.state}
                for name, rec in self.records.items()}
