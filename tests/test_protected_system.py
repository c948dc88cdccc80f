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


# ---------------------------------------------------------------------
# the jump-table flush writes only changed words
# ---------------------------------------------------------------------
OTHER = "f:\n    ldi r24, 0x22\n    ldi r25, 0\n    ret\n"


def _count_flash_writes(system):
    written = []
    system.machine.memory.flash_listeners.append(written.append)
    return written


def _assert_jump_table_as_linked(system):
    """Flash over the jump-table range equals a full emit of the
    linker's state, and flushing again writes nothing."""
    expected = {}
    system.linker.emit(expected.__setitem__)
    flash = system.machine.memory.flash
    assert {w: flash[w] for w in expected} == expected
    written = _count_flash_writes(system)
    system._flush_jump_table()
    assert written == []
    system.machine.memory.flash_listeners.remove(written.append)


@pytest.mark.parametrize("system_cls", [SfiSystem, UmpuSystem])
def test_jump_table_flush_matches_full_emit(system_cls):
    system = system_cls()
    _assert_jump_table_as_linked(system)               # boot
    booted = system.snapshot()
    system.load_module(assemble(GOOD, "a"), "a", exports=("f",))
    _assert_jump_table_as_linked(system)               # load
    _module(system)
    _assert_jump_table_as_linked(system)
    system.unload_module("a")
    _assert_jump_table_as_linked(system)               # unload
    system.load_module(assemble(OTHER, "b"), "b", exports=("f",))
    assert system.modules["b"].domain == 0             # domain-id reuse
    _assert_jump_table_as_linked(system)
    system.restore(booted)                             # snapshot restore
    _assert_jump_table_as_linked(system)
    system.load_module(assemble(OTHER, "c"), "c", exports=("f",))
    _assert_jump_table_as_linked(system)
    assert system.call_export("c", "f")[0] == 0x22


# ---------------------------------------------------------------------
# loading keeps warm decodes; rewrites under a cached decode re-decode
# ---------------------------------------------------------------------
@pytest.mark.parametrize("system_cls", [SfiSystem, UmpuSystem])
def test_load_module_keeps_runtime_decodes(system_cls):
    system = system_cls()
    _module(system)
    system.call_export("mod", "grab")
    lo, hi = system.runtime.extent()
    cache = system.machine.core._decode_cache
    warm = {pc: entry for pc, entry in cache.items() if lo <= pc <= hi}
    assert warm
    system.load_module(assemble(GOOD, "a"), "a", exports=("f",))
    assert {pc: cache.get(pc) for pc in warm} == warm


@pytest.mark.parametrize("system_cls", [SfiSystem, UmpuSystem])
def test_rewrite_under_cached_decode_is_redecoded(system_cls):
    system = system_cls()
    module = system.load_module(assemble(GOOD, "a"), "a", exports=("f",))
    slot = module.exports["f"] // 2
    assert system.call_export("a", "f")[0] == 0x11
    cache = system.machine.core._decode_cache
    assert slot in cache                    # the slot's 32-bit jmp ran
    # a 16-bit word: patch the module's `ldi r24, 0x11`
    flash = system.machine.memory.flash
    ldi = flash.index(assemble("    ldi r24, 0x11\n").words[0],
                      module.start // 2, module.end // 2)
    assert ldi in cache
    system.machine.memory.write_flash_word(
        ldi, assemble("    ldi r24, 0x33\n").words[0])
    assert system.call_export("a", "f")[0] == 0x33
    # the second word of a 32-bit instruction: unloading `a` and loading
    # `b` into the same domain and slot rewrites only the jmp's target
    # word, under the decode cached at the slot's first word
    system.unload_module("a")
    written = _count_flash_writes(system)
    system.load_module(assemble(OTHER, "b"), "b", exports=("f",))
    assert system.modules["b"].exports["f"] // 2 == slot
    assert slot + 1 in written and slot not in written
    assert system.call_export("b", "f")[0] == 0x22
