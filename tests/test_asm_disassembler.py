"""Disassembler tests, including an assemble/disassemble round trip."""

import glob

import pytest
from hypothesis import given, settings, strategies as st

from repro.asm import assemble, disassemble, listing
from repro.asm.disassembler import disassemble_flash, format_instr
from repro.isa.encoding import DecodeError, _decode_uncached, decode_words, \
    encode
from repro.isa.opcodes import SPECS
from repro.sfi.layout import SfiLayout
from repro.sfi.runtime_asm import build_runtime
from repro.sfi.system import SfiSystem
from repro.sim.errors import InvalidAccess
from repro.sim.memory import Memory
from repro.umpu.runtime import build_umpu_runtime


def test_basic_disassembly():
    p = assemble("""
    start:
        ldi r16, 0x42
        sts 0x0100, r16
        rjmp start
    """)
    lines = disassemble(p)
    texts = [l.text for l in lines]
    assert texts[0] == "ldi r16, 66"
    assert texts[1] == "sts 0x0100, r16"
    assert texts[2] == "rjmp start"      # symbolized target


def test_pointer_modes_render():
    p = assemble("""
        ld r5, X+
        st -Y, r6
        ldd r7, Z+12
        std Y+3, r8
    """)
    texts = [l.text for l in disassemble(p)]
    assert texts == ["ld r5, X+", "st -Y, r6", "ldd r7, Z+12",
                     "std Y+3, r8"]


def test_data_words_become_dw():
    lines = disassemble([0xFFFF, 0x0000])
    assert lines[0].instr is None
    assert lines[0].text == ".dw 0xffff"
    assert lines[1].text == "nop"


def test_listing_includes_labels_and_addresses():
    p = assemble("""
    main:
        nop
        call main
    """)
    text = listing(p)
    assert "main:" in text
    assert "00000:" in text
    assert "call main" in text


def test_sizes_accounted():
    lines = disassemble(assemble("    jmp 0\n    nop\n"))
    assert lines[0].size_words == 2
    assert lines[1].size_words == 1
    assert lines[1].byte_addr == 4


@settings(max_examples=200)
@given(st.sampled_from([s for s in SPECS if not s.operands]))
def test_format_zero_operand(spec):
    words = encode(spec.key, ())
    text = format_instr(decode_words(*words))
    assert text == spec.mnemonic


def _reassemblable(line):
    """Render a disassembled line to re-assemblable source."""
    return "    {}\n".format(line.text)


def test_roundtrip_through_source():
    """dis(asm(src)) re-assembles to the identical words for a program
    exercising every format family."""
    src = """
        nop
        ldi r16, 0xAA
        add r16, r17
        movw r30, r26
        adiw r26, 10
        lds r4, 0x0123
        sts 0x0123, r4
        ld r5, X+
        std Z+5, r6
        push r0
        pop r0
        in r16, 0x3F
        out 0x3F, r16
        sbi 4, 2
        lpm r3, Z+
        mul r2, r3
        swap r9
        bst r1, 4
        ret
    """
    p1 = assemble(src)
    source2 = "".join(_reassemblable(l) for l in disassemble(p1))
    p2 = assemble(source2)
    assert p1.words == p2.words


def _eager_listing(program):
    """The listing as rendered before ``Line.text`` became lazy: every
    word decoded without the memo and every line formatted at once."""
    hi = program.extent()[1]
    words = [program.word(i) for i in range(hi + 1)]
    by_addr = {}
    for name, addr in program.symbols.items():
        by_addr.setdefault(addr, name)
    out = []
    i = 0
    while i <= hi:
        w1 = words[i + 1] if i + 1 < len(words) else None
        try:
            instr = _decode_uncached(words[i], w1)
            used = words[i:i + instr.size_words]
            text = format_instr(instr, i * 2, by_addr)
        except DecodeError:
            used = words[i:i + 1]
            text = ".dw 0x{:04x}".format(words[i])
        if by_addr.get(i * 2):
            out.append("{}:".format(by_addr[i * 2]))
        raw = " ".join("{:04x}".format(w) for w in used)
        out.append("  {:05x}:  {:<12} {}".format(i * 2, raw, text))
        i += len(used)
    return "\n".join(out)


def _listed_programs():
    symbols = SfiSystem(layout=SfiLayout(
        static_data_bytes=256, static_data_domains=1)).kernel_symbols()
    programs = [(path, assemble(open(path).read(), name=path,
                                symbols=symbols))
                for path in sorted(glob.glob("examples/modules/*.s"))]
    return programs + [
        ("sfi-runtime", build_runtime()),
        ("umpu-runtime", build_umpu_runtime()),
        # a data word, and a 32-bit opcode truncated by the image end
        ("data-words", assemble("top:\n    rjmp top\n"
                                "    .dw 0xFFFF, 0x940E\n"))]


@pytest.mark.parametrize("name,program", _listed_programs(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_listing_matches_eager_rendering(name, program):
    assert listing(program) == _eager_listing(program)


def test_disassemble_flash_stops_at_unreadable_word():
    memory = Memory()
    last = len(memory.flash) - 1
    memory.flash[last - 1] = 0x0000            # nop
    memory.flash[last] = encode("call", (0,))[0]
    lines = disassemble_flash(memory.read_flash_word, last - 1, 4)
    # the call's second word is past the end of flash: a truncated
    # 32-bit form renders as data, and the walk ends at the first
    # unreadable word instead of raising
    assert [(line.byte_addr, line.text) for line in lines] == [
        ((last - 1) * 2, "nop"), (last * 2, ".dw 0x940e")]
    assert disassemble_flash(memory.read_flash_word, last + 1, 2) == []


def test_disassemble_flash_propagates_reader_bugs():
    # only the typed out-of-range error ends the walk; any other reader
    # error is a bug and surfaces
    def read_word(word_addr):
        if word_addr == 1:
            raise KeyError(word_addr)
        return 0x0000
    with pytest.raises(KeyError):
        disassemble_flash(read_word, 0, 2)
    with pytest.raises(InvalidAccess):
        Memory().read_flash_word(-1)


def test_line_text_renders_once_with_the_callers_symbols():
    program = assemble("start:\n    rjmp start\n")
    (line,) = disassemble(program)
    assert "text" not in vars(line)
    assert line.text == "rjmp start"
    assert vars(line)["text"] is line.text
    # the symbol map rides along but is not part of equality
    (bare,) = disassemble_flash(lambda i: program.word(i), 0, 1)
    assert bare.text == "rjmp 0x0000"
    assert bare == line
