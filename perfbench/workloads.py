"""The benchmark's four workloads.

Each workload is a closed loop with one caller: the runner issues op
``i + 1`` only after op ``i`` has returned.  A workload object owns the
systems it builds and exposes:

* ``setup()``      build fresh systems (timed as ``setup_s``);
* ``prepare(i)``   untimed state reset before op ``i``;
* ``op(i)``        the timed call into the public API;
* ``check(i)``     untimed output check, returns an error string or None;
* ``systems()``    the protected systems, for guest counters and the
                   traced run's observers;
* ``block``        ops per repeating input block.  The seed fixes one
                   block and the op stream repeats it, so every window of
                   whole blocks does the same guest work at every seed.

The seed varies only generated inputs (packet length and fill values,
message order and where the faults land, module admission order), never
the guest work per block, so guest-cycle metrics compare across seeds.
"""

import os
import random

import repro.analysis.static as static
from repro.analysis.static.cfg import RegionCFG
from repro.analysis.static.concurrency import (
    ConcurrencyAnalysis,
    find_isr_labels,
)
from repro.analysis.static.diagnostics import DiagnosticsEngine
from repro.asm import assemble
from repro.asm.assembler import Assembler, default_symbols
from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import MemMapFault
from repro.sfi import SfiSystem
from repro.sfi.layout import SfiLayout
from repro.sos.machine_kernel import MachineKernel
from repro.sos.messaging import MSG_TIMER_TIMEOUT
from repro.umpu import UmpuSystem

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ----------------------------------------------------------------------
# pipeline_umpu / pipeline_sfi
# ----------------------------------------------------------------------
# The producer/consumer pipeline of benchmarks/bench_macro_overhead.py
# with two seeded inputs.  The packet length stays within one allocator
# size class (len + 4-byte header rounds to 16 bytes for 8..12), and the
# fill loop steps by an odd STEP with ``subi`` where the original uses
# ``dec``: both are one word and one cycle, and an odd step reaches zero
# after exactly 8 stores.  So every seed runs the original's guest
# instruction stream cycle for cycle; LEN=12, STEP=1 *is* the original.
PRODUCER = """
.equ MALLOC = {MALLOC}
.equ CHANGE_OWN = {CHANGE_OWN}
.equ CONSUME = {CONSUME}
.equ CONSUMER_DOM = {CONSUMER_DOM}

produce:
    push r16
    ldi r24, {LEN}
    ldi r25, 0
    call MALLOC
    cp r24, r1
    cpc r25, r1
    breq p_done
    movw r16, r24
    movw r26, r24
    ldi r18, {FILL0}
p_fill:
    st X+, r18
    subi r18, {STEP}
    brne p_fill
    movw r24, r16
    ldi r22, CONSUMER_DOM
    call CHANGE_OWN
    movw r24, r16
    call CONSUME
p_done:
    pop r16
    ret
"""

CONSUMER = """
.equ FREE = {FREE}

consume:
    push r16
    push r17
    movw r16, r24
    movw r26, r24
    ldi r18, 0x7E
    st X, r18               ; stamp the header
    movw r24, r16
    call FREE
    pop r17
    pop r16
    ret
"""

STAMP = 0x7E
STORES = 8

#: guest cycles of one steady-state iteration with the original 12-byte,
#: 8-store packet (BENCH_host.json: 5,552 cycles per 8-pass macro_umpu run)
PIPELINE_REFERENCE_CYCLES = {"umpu": 694, "sfi": 2190}


class Pipeline:
    """One producer -> consumer iteration through ``call_export``."""

    block = 1

    def __init__(self, kind, seed, length=None, step=None):
        rng = random.Random(seed)
        self.kind = kind
        self.length = rng.randint(STORES, 12) if length is None else length
        self.step = rng.randrange(1, 256, 2) if step is None else step
        self.system = None

    def setup(self):
        system = (UmpuSystem if self.kind == "umpu" else SfiSystem)()
        syms = system.kernel_symbols()
        consumer = system.load_module(
            assemble(CONSUMER.format(FREE=hex(syms["KERNEL_FREE"])),
                     "consumer"),
            "consumer", exports=("consume",))
        producer_src = PRODUCER.format(
            MALLOC=hex(syms["KERNEL_MALLOC"]),
            CHANGE_OWN=hex(syms["KERNEL_CHANGE_OWN"]),
            CONSUME=hex(consumer.exports["consume"]),
            CONSUMER_DOM=consumer.domain, LEN=self.length,
            FILL0=(STORES * self.step) & 0xFF, STEP=self.step)
        system.load_module(assemble(producer_src, "producer"), "producer",
                           exports=("produce",))
        self.system = system
        self._steady = None

    def systems(self):
        return [self.system]

    def expected_payload(self):
        fills = [(self.step * (STORES - k)) & 0xFF
                 for k in range(1, STORES)]
        return bytes([STAMP] + fills + [0] * (self.length - STORES))

    def _state(self):
        layout = self.system.layout
        data = self.system.machine.memory.data
        table = layout.memmap_table
        return (bytes(data[table:table +
                           layout.memmap_config.table_bytes]),
                bytes(data[layout.heap_start:layout.heap_end]))

    def prepare(self, i):
        if self._steady is not None:
            data = self.system.machine.memory.data
            data[self._packet:self._packet + self.length] = \
                bytes(self.length)

    def op(self, i):
        self.system.call_export("producer", "produce", max_cycles=100000)

    def check(self, i):
        layout = self.system.layout
        memory = self.system.machine.memory
        if self._steady is None:
            # the packet just freed heads the free list; the allocator
            # hands the same block back on every later op
            self._packet = (memory.read_word_data(layout.freelist)
                            + layout.heap_header)
        payload = bytes(memory.data[self._packet:
                                    self._packet + self.length])
        if payload != self.expected_payload():
            return "packet payload {} != stamp + fills {}".format(
                payload.hex(), self.expected_payload().hex())
        if self.system.memmap.owner_of(self._packet) != TRUSTED_DOMAIN:
            return "packet block not returned to the free pool"
        state = self._state()
        if self._steady is None:
            self._steady = state
        memmap, heap = state
        if memmap != self._steady[0]:
            return "memory-map ownership left its steady state"
        if heap != self._steady[1]:
            return "heap left its steady state"
        return None


# ----------------------------------------------------------------------
# sos_faults
# ----------------------------------------------------------------------
COUNTER = """
handle_msg:                 ; r24:25 = mtype, r22:23 = &counter cell
    movw r26, r22
    ld r20, X
    inc r20
    st X, r20
    mov r24, r20
    ldi r25, 0
    ret
"""

#: The Surge bug (paper section 1.2): a failed tree-routing call returns
#: SOS_ERROR (0xFF) and the handler uses it as an offset into its packet
#: buffer, so the sample lands 255 bytes past the buffer.
SURGE = """
handle_msg:                 ; r24 = sensor sample, r22:23 = packet buffer
    movw r26, r22
    subi r26, 0x01          ; X -= 0xFF01, i.e. X += SOS_ERROR (0xFF)
    sbci r27, 0xFF
    st X, r24
    ret
"""

SOS_ERROR = 0xFF
VICTIM_BYTES = 300
SURGE_BUFFER = 8
#: one input block: one Surge message in ten, the rest split over two
#: well-behaved counter modules
BLOCK_TARGETS = ("surge",) + ("counter_a",) * 5 + ("counter_b",) * 4


class SosNode:
    """One protected node running MachineKernel with the three modules."""

    def __init__(self, system_cls):
        system = system_cls()
        kernel = MachineKernel(system)
        records = {name: kernel.load_module(
                       assemble(SURGE if name == "surge" else COUNTER, name),
                       name)
                   for name in ("counter_a", "counter_b", "surge")}
        # trusted victim first: the allocator splits from the top of the
        # heap, so the Surge buffer lands just below it
        self.victim = system.malloc(VICTIM_BYTES)
        self.buffer = system.malloc(
            SURGE_BUFFER, domain=records["surge"].module.domain)
        self.cells = {name: system.malloc(
                          2, domain=records[name].module.domain)
                      for name in ("counter_a", "counter_b")}
        target = self.buffer + SOS_ERROR
        if not (self.victim <= target < self.victim + VICTIM_BYTES
                and system.memmap.owner_of(target) == TRUSTED_DOMAIN):
            raise RuntimeError("Surge target 0x{:04x} is not inside the "
                               "trusted victim block".format(target))
        self.system = system
        self.kernel = kernel
        self.records = records
        self.counts = dict.fromkeys(self.cells, 0)


class SosFaults:
    """One message through MachineKernel.run on an SFI and a UMPU node."""

    block = len(BLOCK_TARGETS)

    def __init__(self, seed):
        rng = random.Random(seed)
        self.stream = list(BLOCK_TARGETS)
        rng.shuffle(self.stream)
        self.sample = rng.randrange(1, 256)
        self.victim_fill = bytes(rng.randrange(256)
                                 for _ in range(VICTIM_BYTES))
        self.nodes = []

    def setup(self):
        nodes = []
        for system_cls in (SfiSystem, UmpuSystem):
            node = SosNode(system_cls)
            # make a landed store visible: the byte the Surge handler
            # targets never already holds the sample
            fill = bytearray(self.victim_fill)
            fill[node.buffer + SOS_ERROR - node.victim] = self.sample ^ 0xFF
            node.victim_bytes = bytes(fill)
            node.system.machine.write_bytes(node.victim, node.victim_bytes)
            nodes.append(node)
        self.nodes = nodes

    def systems(self):
        return [node.system for node in self.nodes]

    def prepare(self, i):
        pass

    def op(self, i):
        target = self.stream[i % self.block]
        for node in self.nodes:
            if target == "surge":
                node.kernel.post("surge", self.sample, arg=node.buffer)
            else:
                node.kernel.post(target, MSG_TIMER_TIMEOUT,
                                 arg=node.cells[target])
            node.kernel.run(max_messages=1)
            if target == "surge":
                node.kernel.restart_module("surge")

    def check(self, i):
        target = self.stream[i % self.block]
        for node in self.nodes:
            label = type(node.system).__name__
            memory = node.system.machine.memory
            log = node.kernel.fault_log
            if len(node.kernel.queue):
                return "{}: message left in the queue".format(label)
            if target == "surge":
                if len(log) != 1 or log[0].module != "surge":
                    return "{}: Surge fault not contained once".format(
                        label)
                if not isinstance(log[0].fault, MemMapFault):
                    return "{}: Surge raised {} not MemMapFault".format(
                        label, type(log[0].fault).__name__)
                victim = bytes(memory.data[node.victim:
                                           node.victim + VICTIM_BYTES])
                if victim != node.victim_bytes:
                    return "{}: victim bytes changed".format(label)
                # a node keeps its fault history bounded: the kernel's
                # log and the flight recorder are drained once checked
                log.clear()
                node.system.machine.forensics.clear()
            else:
                if log:
                    return "{}: counter handler faulted: {}".format(
                        label, log[0].fault)
                node.counts[target] += 1
                cell = memory.read_data(node.cells[target])
                if cell != node.counts[target] & 0xFF:
                    return "{}: {} cell {} != {} messages".format(
                        label, target, cell, node.counts[target])
            for name, record in node.records.items():
                if record.state != "loaded":
                    return "{}: {} left {}".format(label, name,
                                                   record.state)
                if name != "surge" and record.faults:
                    return "{}: {} faulted".format(label, name)
        return None


# ----------------------------------------------------------------------
# admit
# ----------------------------------------------------------------------
#: module -> (exports, export called once after install as the module's
#: init message); None = race stage only (the rewriter rejects ``reti``)
MODULES = {
    "static_logger": (("logger_fill", "logger_set", "logger_tally"),
                      "logger_fill"),
    "clean_sensor": (("sample", "tally", "report"), "report"),
    "racy_sampler": None,
}
LOGGER_FILL = bytes([0xA5] * 16)


def race_stage(program, kernel_symbols, name):
    """ConcurrencyAnalysis over the module's source CFG."""
    predefined = set(default_symbols()) | set(kernel_symbols)
    lo, hi = program.extent()
    labels = {n: a for n, a in program.symbols.items()
              if n not in predefined and lo * 2 <= a <= hi * 2 + 1}
    words = dict(program.words)
    isrs = find_isr_labels(labels)
    mainline = set(labels.values()) - {isr.entry for isr in isrs}
    cfg = RegionCFG.build(lambda w: words.get(w, 0xFFFF), lo * 2,
                          (hi + 1) * 2, name=name,
                          extra_leaders=sorted(labels.values()))
    engine = DiagnosticsEngine()
    ConcurrencyAnalysis(cfg, mainline_entries=mainline,
                        isrs=isrs).run(engine=engine)
    return {d.code for d in engine.findings}


class Admit:
    """Admit one example module on a booted SfiSystem, then unload it."""

    block = len(MODULES)

    def __init__(self, seed):
        self.order = sorted(MODULES)
        random.Random(seed).shuffle(self.order)
        self.sources = {}
        for name in MODULES:
            path = os.path.join(REPO, "examples", "modules", name + ".s")
            with open(path) as handle:
                self.sources[name] = handle.read()
        self.system = None

    def setup(self):
        layout = SfiLayout(static_data_bytes=256, static_data_domains=1)
        self.system = SfiSystem(layout=layout)
        self._booted = None

    def systems(self):
        return [self.system]

    def prepare(self, i):
        # every op admits into the freshly booted image, so flash
        # placement (and with it every guest cycle) repeats
        if self._booted is None:
            self._booted = self.system.snapshot()
        self.system.restore(self._booted)

    def op(self, i):
        name = self.order[i % self.block]
        system = self.system
        kernel = system.kernel_symbols()
        program = Assembler(symbols=kernel).assemble(self.sources[name],
                                                     name=name + ".s")
        result = {"race": race_stage(program, kernel, name)}
        if MODULES[name] is not None:
            exports, init = MODULES[name]
            module = system.load_module(program, name, exports=exports,
                                        elide=True, certify=True)
            _model, report = static.lint_system(system)
            result.update(module=module, lint=report)
            result["init"] = system.call_export(name, init,
                                                max_cycles=100000)
            system.unload_module(name)
        self.result = result

    def check(self, i):
        name = self.order[i % self.block]
        result = self.result
        if MODULES[name] is None:
            missing = {"HL019", "HL020"} - result["race"]
            return ("racy_sampler missing {}".format(sorted(missing))
                    if missing else None)
        if result["race"]:
            return "{} reported races {}".format(name,
                                                 sorted(result["race"]))
        module = result["module"]
        cert = module.certification
        hl017 = [f for f in cert.engine.findings if f.rule.code == "HL017"]
        if not cert.ok or cert.mismatches or hl017:
            return "{} did not certify".format(name)
        if result["lint"].diagnostics.has_errors:
            return "{} lint errors: {}".format(
                name, [d.rule.code for d in result["lint"].diagnostics.errors])
        if name == "static_logger":
            elided = module.manifest.elided_checks if module.manifest else 0
            if (elided, module.rewrite_stats["stores"]) != (2, 3):
                return "static_logger elided {} of {} checked stores".format(
                    elided, module.rewrite_stats["stores"])
            span = self.system.static_data_addr(module.domain)
            data = self.system.machine.memory.data
            if bytes(data[span:span + len(LOGGER_FILL)]) != LOGGER_FILL:
                return "logger_fill did not fill the static data span"
            if result["init"][0] != 1:
                return "logger_fill returned {}".format(result["init"][0])
        if name in self.system.modules:
            return "{} not unloaded".format(name)
        return None


def make(name, seed):
    """The workload named *name*, its inputs drawn from *seed*."""
    if name == "pipeline_umpu":
        return Pipeline("umpu", seed)
    if name == "pipeline_sfi":
        return Pipeline("sfi", seed)
    if name == "sos_faults":
        return SosFaults(seed)
    if name == "admit":
        return Admit(seed)
    raise ValueError("unknown workload {!r}".format(name))


WORKLOADS = ("pipeline_umpu", "pipeline_sfi", "sos_faults", "admit")
