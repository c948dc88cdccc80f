"""UmpuSystem: a complete node running the hardware-accelerated system.

The counterpart of :class:`repro.sfi.SfiSystem` on the same
:class:`~repro.core.system.ProtectedSystem` base: same software library
API (retargeted for UMPU), same jump-table layout, same kernel exports —
but modules load **unmodified** (no rewriting, no verifier): the MMC,
safe-stack unit and domain tracker enforce the protection model in
hardware.  The loader's only jobs are placing the code, registering the
module's code region with the tracker and publishing its exports.
"""

from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.system import ProtectedSystem
from repro.isa.encoding import DecodeError, decode_words, encode
from repro.sfi.layout import SfiLayout
from repro.umpu.cpu import HarborLayout, UmpuMachine
from repro.umpu.runtime import build_umpu_runtime


class UmpuSystem(ProtectedSystem):
    """A simulated node: UMPU hardware + the retargeted software library."""

    policy = "umpu"

    def __init__(self, layout=None):
        layout = layout or SfiLayout()
        self.hw_layout = HarborLayout(
            memmap_table=layout.memmap_table,
            prot_bottom=layout.prot_bottom,
            prot_top=layout.prot_top,
            safe_stack_base=layout.safe_stack_base,
            jt_base=layout.jt_base,
            ndomains=layout.ndomains)
        runtime = build_umpu_runtime(layout)
        machine = UmpuMachine(runtime, layout=self.hw_layout)
        # the kernel library is the trusted domain's code region
        machine.tracker.register_code_region(
            TRUSTED_DOMAIN, 0, machine.geometry.flash_bytes)
        super().__init__(layout, runtime, machine)

    # ------------------------------------------------------------------
    def boot(self):
        self.machine.reset()
        self.machine.enter_trusted()
        # hardware registers were programmed at construction
        # (UmpuMachine.configure); the library builds its data structures
        self._call("hb_init", max_cycles=100000)
        # keep a fresh view (configure()'s view cleared the table before
        # hb_init rebuilt it; both agree now)
        self.machine.memmap = self.memmap
        return self

    @property
    def cur_domain(self):
        return self.machine.regs.cur_domain

    # ------------------------------------------------------------------
    def load_module(self, program, name, exports=()):
        """Install an *unmodified* module binary.

        No rewriting, no verification: hardware enforces the model.  The
        image is placed at the next load address, its code region is
        registered with the domain tracker, its exports are linked.
        """
        domain = self._next_free_domain()
        if program.extent()[0] != 0:
            raise ValueError("assemble UMPU modules at origin 0 "
                             "(they are placed by the loader)")
        start, end = self.place_image(program)
        # NOTE: modules must be position-independent w.r.t. absolute
        # jumps; relative branches and jump-table calls survive the move
        self._relocate_absolute(program, start // 2)
        self.machine.tracker.register_code_region(domain, start, end)
        return self._install(
            name, domain, start, end,
            {export: start + program.symbol(export) for export in exports})

    def _relocate_absolute(self, program, base_word):
        """Patch module-internal jmp/call targets for the load address
        (the linker's relocation step; jump-table targets are absolute
        and stay put)."""
        lo, hi = program.extent()
        mem = self.machine.memory
        idx = lo
        while idx <= hi:
            w0 = program.word(idx)
            w1 = program.word(idx + 1) if idx + 1 <= hi else None
            try:
                instr = decode_words(w0, w1)
            except DecodeError:
                idx += 1
                continue
            if instr.key in ("jmp", "call"):
                target_byte = instr.operands[0] * 2
                if lo * 2 <= target_byte <= hi * 2 + 1:
                    new = encode(instr.key,
                                 ((base_word * 2 + target_byte) // 2,))
                    mem.write_flash_word(base_word + (idx - lo), new[0])
                    mem.write_flash_word(base_word + (idx - lo) + 1,
                                         new[1])
            idx += instr.size_words
        return program

    # ------------------------------------------------------------------
    def recover(self):
        """Kernel-side recovery after a contained hardware fault."""
        self.clear_fault()
        machine = self.machine
        machine.enter_trusted()
        machine.regs.safe_stack_ptr = self.hw_layout.safe_stack_base
        machine.tracker.call_depths.clear()
        machine.memory.sp = machine.geometry.ramend
        machine.memory.write_data(self.layout.cur_dom, TRUSTED_DOMAIN)
        return self

    def call_export(self, module, export, *args, max_cycles=1_000_000):
        """Dispatch into a module export through the jump table (via the
        hb_dispatch springboard so the hardware sees a real icall)."""
        self.machine.enter_trusted()
        return self._enter("hb_dispatch", module, export, args, max_cycles)
