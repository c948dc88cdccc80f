"""The software library retargeted for UMPU (paper §2.4 + §5).

On the hardware system the library is the *same* allocator and memory
map manager as the software-only runtime, except that protection state
lives in the UMPU registers instead of SRAM globals: "the software
library reads the identity of the current active domain from the status
register".  This module generates that variant from the shared assembly
sources by retargeting the state accesses:

* safe-stack-pointer reads retarget to ``in`` on the hardware
  ``safe_stack_ptr`` register (the kernel services locate the caller's
  cross-domain frame through it);
* the library's *attribution* state (which domain a malloc/free acts
  for) stays in an SRAM cell the services maintain from the frame's
  caller id — the hardware ``cur_domain`` register reads 7 (trusted)
  while a kernel service runs, so it cannot carry attribution, and
  writing it from software outside the trusted domain is (correctly)
  a ConfigFault.

The store-checker, cross-domain and save/restore stubs are *not* emitted
— that is the point of UMPU: those jobs moved into hardware.  A tiny
``hb_dispatch`` springboard is added so the trusted kernel can enter a
module through its jump table with a real ``icall`` (which the domain
tracker observes).
"""

import re

from repro.asm.assembler import Assembler
from repro.isa.registers import IoReg
from repro.sfi.layout import SfiLayout
from repro.sfi.runtime_asm import (
    _allocator,
    _fault_handlers,
    _heap_init,
    _memmap_mark,
    _owner_check,
    _services,
)


def _retarget(src):
    """Swap safe-stack-pointer reads for UMPU register I/O.

    Also adjusts ``hb_caller_dom``'s frame offset: on UMPU *every*
    call's return address is redirected to the safe stack, so by the
    time the routine reads the pointer, its own 2-byte return address
    sits above the caller's 5-byte cross-domain frame (-7, not -5).
    """
    src = re.sub(r"lds (r\d+), HB_SS_LO",
                 r"in \1, {}".format(IoReg.SAFE_STACK_PTR_L), src)
    src = re.sub(r"lds (r\d+), HB_SS_HI",
                 r"in \1, {}".format(IoReg.SAFE_STACK_PTR_H), src)
    src = src.replace("    sbiw r30, 5\n    ld r18, Z",
                      "    sbiw r30, 7\n    ld r18, Z")
    return src


def _dispatch():
    return """
; ------------------------------------------------------- hb_dispatch
; Kernel springboard: enter a module through its jump-table entry (word
; address in Z) with a real icall so the domain tracker sequences the
; cross-domain frame.  Runs in the trusted domain.
hb_dispatch:
    icall
    ret
"""


def _init(layout):
    return """
; -------------------------------------------------------------- hb_init
; Library-side boot on UMPU: the protection registers were programmed by
; the trusted boot code; here we build the memory map (all free), the
; heap free list, mark the safe-stack region as a trusted segment and
; pin the static data spans (the same tail as the SFI runtime's).
hb_init:
    ldi r24, 0
    sts HB_FAULT_CODE, r24
    ldi r24, HB_TRUSTED        ; library attribution cell (SRAM shadow)
    sts HB_CUR_DOM, r24""" + _heap_init(layout)


def umpu_runtime_source(layout=None):
    """The UMPU software library (assembly source)."""
    layout = layout or SfiLayout()
    parts = [
        "; Harbor software library, UMPU target "
        "(generated by repro.umpu.runtime)",
        "rt_begin:",
        _fault_handlers(),
        _memmap_mark(),
        _retarget(_owner_check()),
        _retarget(_allocator(layout)),
        _retarget(_services()),
        _dispatch(),
        _init(layout),
        "rt_end:",
    ]
    return "\n".join(parts)


def build_umpu_runtime(layout=None, origin=0):
    """Assemble the UMPU library at *origin*; returns a Program."""
    layout = layout or SfiLayout()
    src = ".org {}\n".format(origin) + umpu_runtime_source(layout)
    return Assembler(symbols=layout.symbols()).assemble(
        src, name="harbor_umpu_runtime")
