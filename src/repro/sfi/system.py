"""SfiSystem: a complete software-only Harbor node.

Assembles the runtime and loads modules through the rewriter + verifier
pipeline; everything else a node does (jump tables, symbols, the fault
decoder, dispatch, the host-side memory API) is the shared
:class:`~repro.core.system.ProtectedSystem`.

This is the first of the paper's two systems; the second
(:class:`repro.umpu.UmpuSystem`) runs the *same module binaries
unrewritten* with the checks in hardware.
"""

from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.system import KERNEL_EXPORTS, LoadedModule, ProtectedSystem
from repro.sfi.layout import SfiLayout
from repro.sfi.rewriter import Rewriter
from repro.sfi.runtime_asm import build_runtime
from repro.sfi.verifier import Verifier, VerifyError
from repro.sim import Machine

__all__ = ["KERNEL_EXPORTS", "LoadedModule", "SfiSystem"]


class SfiSystem(ProtectedSystem):
    """A simulated node running the software-only Harbor system."""

    policy = "sfi"

    def __init__(self, layout=None, allowed_io=(), strict_lint=False):
        layout = layout or SfiLayout()
        #: when set, every load additionally runs the whole-image static
        #: analyzer and refuses admission on any error-severity finding
        self.strict_lint = strict_lint
        runtime = build_runtime(layout)
        self.rewriter = Rewriter(runtime.symbols, layout)
        self.verifier = Verifier(runtime.symbols, layout,
                                 allowed_io=allowed_io)
        super().__init__(layout, runtime, Machine(runtime))

    def boot(self):
        """Run hb_init: protection state, memory map, heap free list."""
        self.machine.reset()
        self._call("hb_init", max_cycles=100000)
        return self

    @property
    def cur_domain(self):
        return self.machine.memory.read_data(self.layout.cur_dom)

    # ------------------------------------------------------------------
    def load_module(self, program, name, exports=(), entries=(),
                    lint=None, elide=False, certify=False):
        """Admit a module: rewrite, verify, link, install.

        *program* is the module's assembled image (unsandboxed).
        Returns the :class:`LoadedModule`; raises
        :class:`~repro.sfi.verifier.VerifyError` if the rewritten binary
        does not verify (correctness depends on the verifier, not the
        rewriter).

        *lint* (default: the system's ``strict_lint`` flag) additionally
        runs the whole-image static analyzer after installation and
        unloads + rejects the module on any error-severity finding —
        catching whole-image properties (jump-table sanity, cross-region
        edges, unbounded safe-stack occupancy) the per-module linear
        scan cannot see.

        *elide* runs the proof-directed check-elision pass
        (:mod:`repro.analysis.static.elision`): stores proved to stay
        inside the domain's static data span keep their raw form, and
        the resulting :class:`ElisionManifest` accompanies the image
        through verification (and is re-proved against the installed
        flash).  With no provable sites this degrades to a normal load.

        *certify* additionally runs translation validation
        (:mod:`repro.analysis.static.transval`): the installed flash is
        proved to be a sanctioned translation of *program* (checked or
        manifest-covered stores, frame discipline, control-edge
        correspondence), the ``certified_blocks`` /
        ``translatable_blocks`` / ``transval_mismatches`` gauges are
        published, and the load is rolled back with an HL017
        :class:`VerifyError` on any mismatch.  The report lands on
        ``module.certification``.
        """
        domain = self._next_free_domain()
        rewritten = self.rewriter.rewrite(program, self._next_load,
                                          exports=exports, entries=entries)
        manifest = None
        if elide:
            rewritten, manifest = self._elide_pass(
                program, name, domain, exports, entries, rewritten)
        self.verifier.verify(rewritten.program, rewritten.start,
                             rewritten.end, manifest=manifest)
        start, end = self.place_image(rewritten.program)
        if manifest is not None:
            self._check_installed_manifest(rewritten, manifest)
        module = self._install(
            name, domain, start, end,
            {export: rewritten.exports[export] for export in exports},
            rewrite_stats=rewritten.stats, manifest=manifest)
        if lint if lint is not None else self.strict_lint:
            self._lint_gate(name)
        if certify:
            self._certify_gate(name, program, exports, entries)
        return module

    # ------------------------------------------------------------------
    def _elide_pass(self, program, name, domain, exports, entries,
                    rewritten):
        """Prove and elide redundant store checks; returns the final
        (possibly re-rewritten) module and its manifest (or None).

        Elision changes the layout, which can change which facts hold
        (stub calls push/pop marshaling registers that raw stores leave
        alone), so rewrite→prove iterates to a fixpoint; a final
        validation round keeps only sites that still prove on the image
        that will actually be installed.
        """
        from repro.analysis.static.cfg import RegionCFG
        from repro.analysis.static.elision import (
            PROOF_IN_DOMAIN,
            StoreProver,
            build_manifest,
        )
        prover = StoreProver(self.layout, self.runtime.symbols, domain)

        def prove(rw):
            read = lambda i: rw.program.words.get(i, 0xFFFF)  # noqa: E731
            entry_addrs = sorted(set(rw.exports.values()) |
                                 {rw.addr_map[program.symbol(e)]
                                  for e in entries})
            cfg = RegionCFG.build(read, rw.start, rw.end, name=name,
                                  extra_leaders=entry_addrs)
            return prover.prove_cfg(cfg, entries=entry_addrs)

        def provable(rw, proofs):
            sites = set()
            for mapping in (rw.store_sites, rw.elided_sites):
                for old, pc in mapping.items():
                    proof = proofs.get(pc)
                    if proof is not None and proof.kind == PROOF_IN_DOMAIN:
                        sites.add(old)
            return sites

        elide = set()
        proofs = prove(rewritten)
        for _round in range(4):
            target = provable(rewritten, proofs)
            if target == elide:
                break
            elide = target
            rewritten = self.rewriter.rewrite(
                program, rewritten.start, exports=exports,
                entries=entries, elide=tuple(sorted(elide)))
            proofs = prove(rewritten)
        # keep only elided sites that prove on the final image
        still = {old for old, pc in rewritten.elided_sites.items()
                 if proofs.get(pc) is not None and
                 proofs[pc].kind == PROOF_IN_DOMAIN}
        if still != set(rewritten.elided_sites):
            rewritten = self.rewriter.rewrite(
                program, rewritten.start, exports=exports,
                entries=entries, elide=tuple(sorted(still)))
            proofs = prove(rewritten)
            still = {old for old, pc in rewritten.elided_sites.items()
                     if proofs.get(pc) is not None and
                     proofs[pc].kind == PROOF_IN_DOMAIN}
            if still != set(rewritten.elided_sites):
                # did not stabilize: fall back to the fully checked image
                return self.rewriter.rewrite(program, rewritten.start,
                                             exports=exports,
                                             entries=entries), None
        if not rewritten.elided_sites:
            return rewritten, None
        return rewritten, build_manifest(name, domain, rewritten, proofs)

    def _check_installed_manifest(self, rewritten, manifest):
        """Defense in depth: re-prove the manifest against the flash
        image that was actually installed, and publish the metrics."""
        from repro.analysis.static.elision import verify_manifest
        problems = verify_manifest(
            self.machine.memory.read_flash_word, self.layout,
            self.runtime.symbols, manifest,
            entries=sorted(set(rewritten.exports.values())))
        if problems:
            message, byte_addr = problems[0]
            raise VerifyError(message, byte_addr=byte_addr, rule="HL014")
        metrics = getattr(self.machine.core, "metrics", None)
        if metrics is not None:
            metrics.counter("elided_checks",
                            module=manifest.module).inc(
                                manifest.elided_checks)
            metrics.counter("elided_cycles_saved",
                            module=manifest.module).inc(
                                manifest.elided_cycles_saved)

    def _lint_gate(self, name):
        """Strict-mode admission: run the whole-image analyzer and back
        the load out on any error-severity finding."""
        from repro.analysis.static import lint_system
        _model, report = lint_system(self)
        if report.diagnostics.has_errors:
            codes = sorted({d.rule.code
                            for d in report.diagnostics.errors})
            first = report.diagnostics.errors[0]
            self.unload_module(name)
            raise VerifyError(
                "whole-image lint rejected module {!r} ({}): {}".format(
                    name, ", ".join(codes), first.message),
                byte_addr=first.byte_addr, rule=first.rule.code)


    def _certify_gate(self, name, program, exports, entries):
        """Translation validation admission: prove the installed flash
        is a sanctioned translation of the source, publish the
        JIT-readiness gauges, and back the load out on any HL017."""
        from repro.analysis.static.transval import validate_translation
        module = self.modules[name]
        export_targets = {
            e: self.linker.export_target(module.domain, e)
            for e in module.exports}
        report = validate_translation(
            program, self.machine.memory.read_flash_word,
            module.start, module.end, self.layout,
            self.runtime.symbols, exports=exports, entries=entries,
            manifest=module.manifest, export_targets=export_targets,
            region=name, domain=module.domain, module=name)
        module.certification = report
        metrics = getattr(self.machine.core, "metrics", None)
        if metrics is not None:
            metrics.gauge("certified_blocks", module=name).set(
                report.certified_blocks)
            metrics.gauge("translatable_blocks", module=name).set(
                report.translatable_blocks)
            metrics.gauge("transval_mismatches", module=name).set(
                report.mismatches)
        if not report.ok:
            first = next(f for f in report.engine.findings
                         if f.rule.code == "HL017")
            self.unload_module(name)
            raise VerifyError(
                "translation validation rejected module {!r}: "
                "{}".format(name, first.message),
                byte_addr=first.byte_addr, rule="HL017")
        return report

    # ------------------------------------------------------------------
    def recover(self):
        """Kernel-side recovery after a contained fault: restore the
        protection state so the node keeps dispatching ("a stable kernel
        can always ensure a clean re-start of user modules")."""
        self.clear_fault()
        mem = self.machine.memory
        mem.write_data(self.layout.cur_dom, TRUSTED_DOMAIN)
        mem.write_word_data(self.layout.stack_bound,
                            self.machine.geometry.ramend)
        mem.write_word_data(self.layout.ss_ptr,
                            self.layout.safe_stack_base)
        mem.sp = self.machine.geometry.ramend
        return self

    def call_export(self, module, export, *args, max_cycles=1_000_000):
        """Host-side dispatch into a module export via a cross-domain
        call (what the kernel scheduler does to deliver a message)."""
        return self._enter("hb_xdom_call", module, export, args, max_cycles)
