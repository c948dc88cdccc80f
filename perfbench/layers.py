"""Per-layer instruments for the traced run.

Everything here observes the program from outside: cProfile call counts
and self time grouped by ``repro`` module, spans timed around public
entry points by temporarily wrapping them, the guest-cycle split of
``DomainProfiler`` and the cost of the instrumented ``step()`` loop.
Nothing in ``src/`` knows it is being measured.
"""

import cProfile
import functools
import os
import pstats
import time

import repro
import repro.analysis.static as static
import repro.analysis.static.elision as elision
import repro.analysis.static.transval as transval
from repro.analysis.static.concurrency import ConcurrencyAnalysis
from repro.asm.assembler import Assembler
from repro.sfi import SfiSystem
from repro.sfi.rewriter import Rewriter
from repro.sfi.verifier import Verifier
from repro.sim.machine import Machine
from repro.trace import CATEGORIES, install_profiler, uninstall
from repro.trace.metrics import install_metrics, uninstall_metrics
from repro.umpu import UmpuSystem

#: layers are the repo's modules, named relative to the ``repro`` package
LAYERS = (
    # simulator
    "sim.core", "sim.bus", "sim.memory", "umpu.mmc", "umpu.safe_stack_unit",
    "umpu.domain_tracker", "umpu.registers", "core.control_flow",
    "isa.encoding",
    # system glue
    "sfi.system", "umpu.system", "sos.machine_kernel", "trace.forensics",
    # admission
    "asm.assembler", "sfi.rewriter", "sfi.verifier",
    "analysis.static.elision", "analysis.static.transval",
    "analysis.static.symexec", "analysis.static.analyses",
    "analysis.static.cfg", "analysis.static.absint",
    "analysis.static.concurrency",
)

#: span -> the public entry points it is timed around
SPANS = (
    ("span.assemble_us", ((Assembler, "assemble"),)),
    ("span.rewrite_us", ((Rewriter, "rewrite"),)),
    ("span.elide_us", ((elision.StoreProver, "prove_cfg"),
                       (elision, "build_manifest"))),
    ("span.verify_us", ((Verifier, "verify"),)),
    ("span.certify_us", ((transval, "validate_translation"),)),
    ("span.lint_us", ((static, "lint_system"),)),
    ("span.race_us", ((ConcurrencyAnalysis, "run"),)),
    ("span.call_export_us", ((SfiSystem, "call_export"),
                             (UmpuSystem, "call_export"))),
    ("span.record_fault_us", ((Machine, "record_fault"),)),
    ("span.recover_us", ((SfiSystem, "recover"), (UmpuSystem, "recover"))),
)

_PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def layer_of(filename):
    """``.../repro/sim/core.py`` -> ``sim.core``; None outside ``repro``."""
    if not filename.startswith(_PACKAGE):
        return None
    module = filename[len(_PACKAGE):-len(".py")].replace(os.sep, ".")
    return module[:-len(".__init__")] if module.endswith(".__init__") \
        else module


def layer_stats(profile):
    """({layer: calls}, {layer: self seconds}, total self seconds) of a
    :class:`cProfile.Profile`.  Call counts include recursive calls."""
    calls, self_time, total = {}, {}, 0.0
    for (filename, _line, _func), (_cc, nc, tt, _ct, _callers) in \
            pstats.Stats(profile).stats.items():
        total += tt
        layer = layer_of(filename)
        if layer is not None:
            calls[layer] = calls.get(layer, 0) + nc
            self_time[layer] = self_time.get(layer, 0.0) + tt
    return calls, self_time, total


class Profiled:
    """cProfile switched on around each op only."""

    def __init__(self):
        self.profile = cProfile.Profile()

    def start(self):
        self.profile.enable()

    def stop(self):
        self.profile.disable()


class Spans:
    """Self time per span: while active, every entry point in
    :data:`SPANS` is wrapped, and a span's time excludes the time of
    spans nested inside it, so spans never double count."""

    def __init__(self):
        self.totals = {name: 0.0 for name, _targets in SPANS}
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                self.totals[name] += elapsed - child[0]
                if self._stack:
                    self._stack[-1][0] += elapsed
        return timed

    def __enter__(self):
        for name, targets in SPANS:
            for owner, attr in targets:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def runtime_region(system):
    """Byte window of the system's trusted runtime image."""
    lo, hi = system.runtime.extent()
    return lo * 2, (hi + 1) * 2


class CycleCategories:
    """``DomainProfiler`` on every machine while active, summed over the
    ops it observes.  The profiler forces the instrumented ``step()``
    loop, so this runs apart from every timed window.  Each op is
    attributed and balanced on its own, because a workload may restore a
    snapshot (and with it the core's cycle counter) between ops."""

    def __init__(self, systems):
        self.systems = systems
        self.profilers = []
        self.totals = dict.fromkeys(CATEGORIES, 0)
        #: assert_balanced failures, one message per unbalanced op
        self.unbalanced = []

    def __enter__(self):
        self.profilers = [
            install_profiler(system.machine,
                             runtime_region=runtime_region(system))
            for system in self.systems]
        return self

    def __exit__(self, *exc):
        for system in self.systems:
            uninstall(system.machine)
        return False

    def start(self):
        for system, profiler in zip(self.systems, self.profilers):
            profiler.reset(system.machine.core)

    def stop(self):
        for system, profiler in zip(self.systems, self.profilers):
            try:
                profiler.assert_balanced(system.machine.core)
            except AssertionError as exc:
                self.unbalanced.append(str(exc))
            for category, cycles in profiler.by_category().items():
                self.totals[category] += cycles


class StepPath:
    """A metrics registry on every machine: it opts the core out of the
    fast loop, so ops run through the instrumented ``step()`` path."""

    def __init__(self, systems):
        self.machines = [system.machine for system in systems]

    def __enter__(self):
        for machine in self.machines:
            install_metrics(machine)
        return self

    def __exit__(self, *exc):
        for machine in self.machines:
            uninstall_metrics(machine)
        return False
