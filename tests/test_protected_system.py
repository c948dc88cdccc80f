"""The ProtectedSystem base shared by SfiSystem and UmpuSystem: loader
bookkeeping, the host-side memory API and parity between the backends."""

import pytest

from repro.asm import assemble
from repro.core.encoding import TRUSTED_DOMAIN
from repro.core.system import LoadedModule
from repro.sfi import RewriteError, SfiLayout, SfiSystem
from repro.umpu import UmpuSystem

MODULE = """
.equ KERNEL_MALLOC = {KERNEL_MALLOC}
.equ KERNEL_FREE = {KERNEL_FREE}

grab:                       ; -> r24:25 = an 8-byte block
    ldi r24, 8
    ldi r25, 0
    call KERNEL_MALLOC
    ret
drop:                       ; r24:25 = block
    call KERNEL_FREE
    ret
"""

GOOD = "f:\n    ldi r24, 0x11\n    ldi r25, 0\n    ret\n"


def _module(system, name="mod"):
    src = MODULE.format(**{k: hex(v)
                           for k, v in system.kernel_symbols().items()})
    return system.load_module(assemble(src, name), name,
                              exports=("grab", "drop"))


def _memmap_bytes(system):
    layout = system.layout
    return system.machine.read_bytes(layout.memmap_table,
                                     layout.memmap_config.table_bytes)


def _loader_state(system):
    return (dict(system.modules), system._next_load, system._next_domain,
            list(system._free_domains), system.kernel_symbols())


# ---------------------------------------------------------------------
# rejected loads leave the loader untouched
# ---------------------------------------------------------------------
# a raw `break` is rejected by the SFI rewriter; an image not assembled
# at origin 0 is rejected by the UMPU loader
REJECTED = {SfiSystem: ("f:\n    break\n    ret\n", RewriteError),
            UmpuSystem: (".org 2\nf:\n    ret\n", ValueError)}


@pytest.mark.parametrize("system_cls", [SfiSystem, UmpuSystem])
def test_rejected_load_keeps_domain_pool_and_flash(system_cls):
    system = system_cls()
    system.load_module(assemble(GOOD, "a"), "a", exports=("f",))
    system.unload_module("a")
    assert system._free_domains == [0]
    next_load = system._next_load
    flash = list(system.machine.memory.flash)
    source, error = REJECTED[system_cls]
    with pytest.raises(error):
        system.load_module(assemble(source, "bad"), "bad", exports=("f",))
    assert system._free_domains == [0]
    assert system._next_load == next_load
    assert list(system.machine.memory.flash) == flash
    module = system.load_module(assemble(GOOD, "b"), "b", exports=("f",))
    assert module.domain == 0
    assert system.call_export("b", "f")[0] == 0x11


def test_umpu_rejects_off_origin_image_before_writing_flash():
    system = UmpuSystem()
    flash = list(system.machine.memory.flash)
    with pytest.raises(ValueError):
        system.load_module(assemble(".org 4\nf:\n    ret\n", "bad"), "bad")
    assert list(system.machine.memory.flash) == flash
    assert system._next_domain == 0


# ---------------------------------------------------------------------
# UMPU runtime on a static-data layout
# ---------------------------------------------------------------------
STATIC = dict(static_data_bytes=256, static_data_domains=2)


def test_umpu_malloc_never_hands_out_pinned_static_spans():
    system = UmpuSystem(SfiLayout(**STATIC))
    layout = system.layout
    ptrs = []
    while True:
        ptr = system.malloc(24)
        if ptr is None:
            break
        ptrs.append(ptr)
    assert len(ptrs) > 10
    assert all(layout.heap_start <= p < layout.heap_dynamic_end
               for p in ptrs)
    for ptr in ptrs:
        system.free(ptr)
    for dom in range(layout.static_data_domains):
        base, _end = layout.static_data_span(dom)
        assert system.memmap.owner_of(base) == dom


def test_umpu_unload_on_static_layout_frees_only_dynamic_heap():
    system = UmpuSystem(SfiLayout(**STATIC))
    boot = _memmap_bytes(system)
    module = _module(system)
    for _ in range(3):
        assert system.malloc(16, domain=module.domain)
    system.unload_module("mod")
    assert _memmap_bytes(system) == boot


# ---------------------------------------------------------------------
# parity: the same module on both backends
# ---------------------------------------------------------------------
def test_backends_agree_on_symbols_and_module_records():
    sfi, umpu = SfiSystem(), UmpuSystem()
    assert sfi.kernel_symbols() == umpu.kernel_symbols()
    mods = _module(sfi), _module(umpu)
    assert sfi.kernel_symbols().keys() == umpu.kernel_symbols().keys()
    labels = [{k for k in system.symbol_map() if k.startswith("mod.")}
              for system in (sfi, umpu)]
    assert labels[0] == labels[1] == {"mod.grab", "mod.drop"}
    for module in mods:
        assert type(module) is LoadedModule
    sfi_mod, umpu_mod = mods
    assert (sfi_mod.name, sfi_mod.domain, sfi_mod.start, sfi_mod.exports) \
        == (umpu_mod.name, umpu_mod.domain, umpu_mod.start,
            umpu_mod.exports)
    assert sfi_mod.rewrite_stats and umpu_mod.rewrite_stats is None
    assert (sfi.policy, umpu.policy) == ("sfi", "umpu")


@pytest.mark.parametrize("system_cls", [SfiSystem, UmpuSystem])
def test_snapshot_restore_round_trips_loader_state(system_cls):
    system = system_cls()
    _module(system)
    before = _loader_state(system)
    snap = system.snapshot()
    system.unload_module("mod")
    system.load_module(assemble(GOOD, "a"), "a", exports=("f",))
    assert _loader_state(system) != before
    system.restore(snap)
    assert _loader_state(system) == before
    ptr, _cycles = system.call_export("mod", "grab")
    assert system.memmap.owner_of(ptr) == system.modules["mod"].domain


@pytest.mark.parametrize("system_cls", [SfiSystem, UmpuSystem])
def test_memory_api_round_trip_leaves_memmap_as_booted(system_cls):
    system = system_cls()
    boot = _memmap_bytes(system)
    cell = system.machine.memory.read_data(system.layout.cur_dom)
    ptr = system.malloc(8, domain=0)
    assert system.memmap.owner_of(ptr) == 0
    system.change_own(ptr, TRUSTED_DOMAIN, domain=0)
    assert system.memmap.owner_of(ptr) == TRUSTED_DOMAIN
    system.free(ptr, domain=TRUSTED_DOMAIN)
    assert _memmap_bytes(system) == boot
    # the SRAM attribution cell is put back after every service call
    assert system.machine.memory.read_data(system.layout.cur_dom) == cell
