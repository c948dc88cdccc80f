"""ProtectedSystem: the host-side node harness both Harbor systems share.

The paper's protection model is the same whether software (SFI binary
rewriting, :class:`repro.sfi.SfiSystem`) or hardware (UMPU,
:class:`repro.umpu.UmpuSystem`) enforces it: the same jump-table layout
and kernel exports, the same memory map and heap library, the same
numeric fault codes.  This base owns all of that — the loader's domain
pool and flash placement, export linking, symbols, unloading, the fault
decoder, the run-to-return dispatch sequence, snapshots and the trusted
host-side memory API.  A backend supplies five hooks:

* ``boot()`` — reset the machine and run the library's ``hb_init``;
* ``cur_domain`` — where the active domain id is read from;
* ``load_module()`` — how an image is admitted (rewrite + verify, or
  placed as is and registered with the domain tracker);
* ``recover()`` — how protection state is reset after a contained fault;
* ``call_export()`` — which springboard enters a module.
"""

from dataclasses import dataclass

from repro.core.control_flow import JumpTable
from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.faults import fault_from_code
from repro.core.memmap import MemoryBackedStorage, MemoryMap
from repro.sos.linker import CrossDomainLinker

#: kernel services exported through the trusted domain's jump table
KERNEL_EXPORTS = (
    ("malloc", "hb_malloc_svc"),
    ("free", "hb_free_svc"),
    ("change_own", "hb_change_own_svc"),
    ("noop", "hb_noop"),
)


@dataclass
class LoadedModule:
    """A module admitted into the system."""

    name: str
    domain: int
    start: int
    end: int
    exports: dict           # name -> jump-table entry byte address
    #: the rewriter's statistics (SFI only), else None
    rewrite_stats: dict = None
    #: ElisionManifest when the module was loaded with ``elide=True``
    #: and at least one check was proved away, else None
    manifest: object = None
    #: TranslationReport when the module was loaded with
    #: ``certify=True``, else None
    certification: object = None


class ProtectedSystem:
    """A simulated Harbor node; subclasses supply the protection backend."""

    #: how the static analyzer models the backend's modules
    #: (``"sfi"`` or ``"umpu"``)
    policy = None

    def __init__(self, layout, runtime, machine):
        self.layout = layout
        self.runtime = runtime
        self.machine = machine
        machine.attach_forensics(layout=layout, memmap=lambda: self.memmap,
                                 symbols=self.symbol_map)
        self.jump_table = JumpTable(
            base=layout.jt_base,
            ndomains=layout.ndomains,
            entries_per_domain=layout.jt_page_bytes // 4,
            entry_bytes=4)
        self.linker = CrossDomainLinker(
            self.jump_table,
            exception_target=runtime.symbol("hb_fault_r20"))
        self.modules = {}
        self._next_load = layout.jt_end
        self._next_domain = 0
        self._free_domains = []
        # kernel services live in the trusted domain's jump table page
        for name, entry in KERNEL_EXPORTS:
            self.linker.export(TRUSTED_DOMAIN, name, runtime.symbol(entry))
        self._flush_jump_table()
        self.boot()

    def _flush_jump_table(self):
        """Bring flash's jump-table region in line with the linker,
        writing only the words whose value changes (each write drops
        the decodes it covers)."""
        memory = self.machine.memory
        flash = memory.flash
        write = memory.write_flash_word

        def write_changed(word_addr, value):
            if flash[word_addr] != value:
                write(word_addr, value)

        self.linker.emit(write_changed)

    # ------------------------------------------------------------------
    @property
    def memmap(self):
        """Host-side view of the in-SRAM memory map table."""
        return MemoryMap(self.layout.memmap_config,
                         MemoryBackedStorage(self.machine.memory,
                                             self.layout.memmap_table),
                         initialize=False)

    def kernel_symbols(self):
        """Symbols module sources assemble against: kernel jump-table
        entries (KERNEL_MALLOC, ...), already-loaded module exports
        (JT_<module>_<export>) and static data spans (SDATA_D<n>,
        SDATA_D<n>_END)."""
        syms = {}
        for name, _entry in KERNEL_EXPORTS:
            syms["KERNEL_" + name.upper()] = self.linker.entry_for(
                TRUSTED_DOMAIN, name)
        for module in self.modules.values():
            for export, addr in module.exports.items():
                syms["JT_{}_{}".format(module.name.upper(),
                                       export.upper())] = addr
        for dom in range(self.layout.static_data_domains):
            base, end = self.layout.static_data_span(dom)
            syms["SDATA_D{}".format(dom)] = base
            syms["SDATA_D{}_END".format(dom)] = end
        return syms

    def static_data_addr(self, domain):
        """Base of *domain*'s pinned static data span, or None."""
        span = self.layout.static_data_span(domain)
        return span[0] if span else None

    def symbol_map(self):
        """Whole-image symbol map: runtime labels, jump-table slot
        labels (``jt_d<n>_<export>``) and module export code addresses
        (``<module>.<export>``) — what the disassembler, the fault
        forensics windows and harbor-lint symbolize against."""
        syms = dict(self.runtime.symbols)
        syms.update(self.linker.symbols())
        for module in self.modules.values():
            for export in module.exports:
                target = self.linker.export_target(module.domain, export)
                if target is not None:
                    syms.setdefault(
                        "{}.{}".format(module.name, export), target)
        return syms

    # --- loader ---------------------------------------------------------
    def _next_free_domain(self):
        """The domain id the next load gets; :meth:`_install` claims it,
        so a load rejected before installation leaves the pool alone."""
        if self._free_domains:
            return self._free_domains[0]
        if self._next_domain < self.layout.ndomains - 1:
            return self._next_domain
        raise ValueError("no free protection domain")

    def place_image(self, program):
        """Write *program*'s words into flash as is, its first word at
        the next load address, and advance that address to the next
        256-byte boundary past the image; returns ``(start, end)``.

        Nothing is rewritten, verified, linked or registered: the
        loaders build on this, and the CLI's ``--unchecked`` modes plant
        raw images with it."""
        lo, hi = program.extent()
        start = self._next_load
        base_word = start // 2 - lo
        write = self.machine.memory.write_flash_word
        for word_addr, value in program.words.items():
            write(base_word + word_addr, value)
        end = start + (hi - lo + 1) * 2
        self._next_load = (end + 0xFF) & ~0xFF
        return start, end

    def _install(self, name, domain, start, end, targets, **record):
        """Claim *domain*, link each export to its code address in
        *targets* and record the module (extra *record* fields go on
        the :class:`LoadedModule`)."""
        if domain in self._free_domains:
            self._free_domains.remove(domain)
        else:
            self._next_domain += 1
        exports = {export: self.linker.export(domain, export, target)
                   for export, target in targets.items()}
        self._flush_jump_table()
        module = LoadedModule(name=name, domain=domain, start=start,
                              end=end, exports=exports, **record)
        self.modules[name] = module
        return module

    def unload_module(self, name):
        """Unload a module: free every heap segment its domain owns,
        drop its jump-table entries (slots revert to the exception
        routine), and release the domain id for reuse.  The module's
        flash stays behind (as on a real node) but is no longer
        reachable through any jump table."""
        module = self.modules.pop(name)
        # only dynamic heap segments are allocator blocks; pinned static
        # data spans above heap_dynamic_end stay owned forever (hb_free
        # would fault on them, and elision proofs depend on the pinning)
        heap_start = self.layout.heap_start
        heap_end = self.layout.heap_dynamic_end
        for start, _nblocks, owner in self.memmap.segments():
            if owner == module.domain and heap_start <= start < heap_end:
                self.free(start + self.layout.heap_header)
        self.linker.unlink_domain(module.domain)
        self._flush_jump_table()
        self._free_domains.append(module.domain)
        return module

    def attach_timeline(self, interval=None, keep_flash=True):
        """Attach a :class:`~repro.trace.timeline.Timeline` recorder to
        the node (keyframes span every subsequent ``call_export`` /
        kernel-call run; see ``docs/observability.md``)."""
        return self.machine.attach_timeline(interval=interval,
                                            keep_flash=keep_flash)

    # --- snapshot/restore ---------------------------------------------
    def snapshot(self):
        """Capture machine + loader state for :meth:`restore`.

        The machine snapshot carries every piece of protection state:
        the trusted SRAM cells and, on UMPU, the register file, domain
        tracker and safe-stack unit (``UmpuMachine._snapshot_extra``).
        The system layer only adds the host-side loader bookkeeping
        (loaded modules, next load address, free domains, linker
        exports)."""
        from repro.sim.snapshot import MachineSnapshot
        return MachineSnapshot.capture_system(self)

    def restore(self, snap):
        """Restore a :meth:`snapshot`; the memmap/cur_domain views read
        the restored state directly, so no rebuild is needed."""
        snap.apply_system(self)
        return self

    # --- faults and dispatch ----------------------------------------------
    def _check_fault(self):
        """Raise the typed fault for the code the library left in trusted
        SRAM, if any, after clearing it (the raised exception carries the
        forensics report).  Numeric codes map to the stable slugs of
        :func:`~repro.core.faults.fault_from_code`, so both backends
        raise the same fault types for the same violations."""
        mem = self.machine.memory
        layout = self.layout
        code = mem.read_data(layout.fault_code)
        if not code:
            return
        # imported here: the repro.sfi package imports this module
        from repro.sfi.layout import (
            FAULT_MEMMAP,
            FAULT_NAMES,
            FAULT_SS_OVERFLOW,
            FAULT_STACK_BOUND,
        )
        addr = mem.read_word_data(layout.fault_addr)
        context = {}
        if code == FAULT_STACK_BOUND:
            context["stack_bound"] = mem.read_word_data(layout.stack_bound)
        elif code == FAULT_SS_OVERFLOW:
            context["ptr"] = mem.read_word_data(layout.ss_ptr)
            context["limit"] = layout.safe_stack_limit
        elif code == FAULT_MEMMAP and layout.memmap_config.contains(addr):
            context["owner"] = self.memmap.owner_of(addr)
        fault = fault_from_code(
            FAULT_NAMES.get(code), addr=addr, domain=self.cur_domain,
            message="unknown library fault code {}".format(code),
            **context)
        self.clear_fault()
        raise self.machine.record_fault(fault)

    def clear_fault(self):
        self.machine.memory.write_data(self.layout.fault_code, 0)
        self.machine.core.halted = False

    def _call(self, target, *args, max_cycles=1_000_000):
        """Run runtime routine *target* to its return (the machine's
        sentinel call records hardware faults), then raise any library
        fault; returns the cycles taken."""
        cycles = self.machine.call(target, *args, max_cycles=max_cycles)
        self._check_fault()
        return cycles

    def _enter(self, springboard, module, export, args, max_cycles):
        """Enter *module*'s *export* through its jump-table entry (word
        address in Z) via the *springboard* routine; returns
        ``(result16, cycles)``."""
        entry = self.modules[module].exports[export]
        self.machine.core.set_reg_pair(30, entry // 2)
        cycles = self._call(springboard, *args, max_cycles=max_cycles)
        return self.machine.result16(), cycles

    # --- trusted host-side memory API ---------------------------------
    def _service(self, domain, target, *args):
        """Call kernel service *target* acting for *domain*: the
        library's SRAM attribution cell names *domain* for the call and
        gets its previous value back afterwards."""
        mem = self.machine.memory
        prev = mem.read_data(self.layout.cur_dom)
        mem.write_data(self.layout.cur_dom, domain)
        try:
            self._call(target, *args)
        finally:
            mem.write_data(self.layout.cur_dom, prev)

    def malloc(self, nbytes, domain=TRUSTED_DOMAIN):
        self._service(domain, "hb_malloc", nbytes)
        return self.machine.result16() or None

    def free(self, ptr, domain=TRUSTED_DOMAIN):
        self._service(domain, "hb_free", ptr)

    def change_own(self, ptr, new_domain, domain=TRUSTED_DOMAIN):
        self._service(domain, "hb_change_own", ptr, ("u8", new_domain))
