"""Encode/decode tests for the AVR subset.

Specific encodings are checked against the values the AVR datasheet
gives (spot checks across every format family), and a hypothesis
round-trip property covers the whole operand space of every spec.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.isa.encoding as encoding
from repro.isa.encoding import (
    DecodeError,
    EncodeError,
    _decode_uncached,
    decode_words,
    encode,
    is_32bit_opcode,
)
from repro.isa.opcodes import SPECS, SPEC_BY_KEY, OperandKind


# ---------------------------------------------------------------------
# known encodings (hand-computed from the datasheet patterns)
# ---------------------------------------------------------------------
KNOWN = [
    ("nop", (), (0x0000,)),
    ("ret", (), (0x9508,)),
    ("reti", (), (0x9518,)),
    ("ijmp", (), (0x9409,)),
    ("icall", (), (0x9509,)),
    ("add", (0, 0), (0x0C00,)),
    ("add", (1, 2), (0x0C12,)),
    ("add", (31, 31), (0x0FFF,)),
    ("adc", (17, 16), (0x1F10,)),
    ("sub", (5, 10), (0x185A,)),
    ("eor", (3, 3), (0x2433,)),          # aka clr r3
    ("mov", (0, 31), (0x2E0F,)),
    ("movw", (30, 26), (0x01FD,)),
    ("ldi", (16, 0xFF), (0xEF0F,)),      # aka ser r16
    ("ldi", (31, 0x42), (0xE4F2,)),
    ("cpi", (16, 0x10), (0x3100,)),
    ("subi", (20, 1), (0x5041,)),
    ("andi", (16, 0x0F), (0x700F,)),
    ("com", (7, ), (0x9470,)),
    ("neg", (0, ), (0x9401,)),
    ("inc", (22, ), (0x9563,)),
    ("dec", (22, ), (0x956A,)),
    ("lsr", (9, ), (0x9496,)),
    ("adiw", (26, 1), (0x9611,)),
    ("adiw", (30, 63), (0x96FF,)),
    ("sbiw", (24, 8), (0x9708,)),
    ("rjmp", (0, ), (0xC000,)),
    ("rjmp", (-1, ), (0xCFFF,)),
    ("rcall", (2, ), (0xD002,)),
    ("jmp", (0x123, ), (0x940C, 0x0123)),
    ("call", (0x456, ), (0x940E, 0x0456)),
    ("brbs", (1, -2), (0xF3F1,)),        # breq .-2
    ("brbc", (1, 5), (0xF429,)),         # brne .+5 words
    ("lds", (4, 0x0100), (0x9040, 0x0100)),
    ("sts", (0x0200, 5), (0x9250, 0x0200)),
    ("ld_x", (6, ), (0x906C,)),
    ("ld_xp", (6, ), (0x906D,)),
    ("ld_mx", (6, ), (0x906E,)),
    ("st_x", (7, ), (0x927C,)),
    ("st_xp", (7, ), (0x927D,)),
    ("ldd_y", (2, 1), (0x8029,)),
    ("ldd_z", (2, 0), (0x8020,)),
    ("std_y", (1, 3), (0x8239,)),        # std Y+1, r3
    ("std_z", (63, 0), (0xAE07,)),       # std Z+63, r0
    ("push", (31, ), (0x93FF,)),
    ("pop", (0, ), (0x900F,)),
    ("in", (0, 0x3F), (0xB60F,)),
    ("out", (0x3F, 0), (0xBE0F,)),
    ("sbi", (5, 7), (0x9A2F,)),
    ("cbi", (0, 0), (0x9800,)),
    ("sbic", (1, 2), (0x990A,)),
    ("lpm_r0", (), (0x95C8,)),
    ("lpm", (3, ), (0x9034,)),
    ("lpm_zp", (3, ), (0x9035,)),
    ("bset", (7, ), (0x9478,)),          # sei
    ("bclr", (7, ), (0x94F8,)),          # cli
    ("bst", (10, 3), (0xFAA3,)),
    ("bld", (10, 3), (0xF8A3,)),
    ("sbrc", (2, 7), (0xFC27,)),
    ("sbrs", (2, 0), (0xFE20,)),
    ("cpse", (4, 5), (0x1045,)),
    ("mul", (2, 3), (0x9C23,)),
    ("sleep", (), (0x9588,)),
    ("wdr", (), (0x95A8,)),
    ("break", (), (0x9598,)),
    ("swap", (18, ), (0x9522,)),
    ("asr", (18, ), (0x9525,)),
    ("ror", (18, ), (0x9527,)),
]


@pytest.mark.parametrize("key,operands,words", KNOWN,
                         ids=[f"{k}-{i}" for i, (k, _o, _w)
                              in enumerate(KNOWN)])
def test_known_encoding(key, operands, words):
    assert encode(key, operands) == words


@pytest.mark.parametrize("key,operands,words", KNOWN,
                         ids=[f"{k}-{i}" for i, (k, _o, _w)
                              in enumerate(KNOWN)])
def test_known_decoding(key, operands, words):
    instr = decode_words(*words)
    assert instr.key == key
    assert instr.operands == tuple(operands)


# ---------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------
def test_encode_wrong_arity():
    with pytest.raises(EncodeError):
        encode("add", (1,))


def test_encode_reg_out_of_range():
    with pytest.raises(EncodeError):
        encode("add", (32, 0))


def test_encode_reg_hi_low_register():
    with pytest.raises(EncodeError):
        encode("ldi", (3, 1))


def test_encode_adiw_odd_pair():
    with pytest.raises(EncodeError):
        encode("adiw", (25, 1))


def test_encode_adiw_low_pair():
    with pytest.raises(EncodeError):
        encode("adiw", (20, 1))


def test_encode_movw_odd():
    with pytest.raises(EncodeError):
        encode("movw", (1, 2))


def test_encode_branch_out_of_range():
    with pytest.raises(EncodeError):
        encode("brbs", (0, 64))
    with pytest.raises(EncodeError):
        encode("brbs", (0, -65))


def test_encode_rjmp_out_of_range():
    with pytest.raises(EncodeError):
        encode("rjmp", (2048,))


def test_encode_displacement_range():
    with pytest.raises(EncodeError):
        encode("ldd_y", (0, 64))


def test_decode_garbage():
    with pytest.raises(DecodeError):
        decode_words(0xFFFF)  # erased flash is not an instruction


def test_decode_truncated_32bit():
    with pytest.raises(DecodeError):
        decode_words(0x940E, None)


def test_is_32bit_opcode():
    assert is_32bit_opcode(0x940E)      # call
    assert is_32bit_opcode(0x940C)      # jmp
    assert is_32bit_opcode(0x9040)      # lds
    assert is_32bit_opcode(0x9250)      # sts
    assert not is_32bit_opcode(0x0000)  # nop
    assert not is_32bit_opcode(0x9508)  # ret


# ---------------------------------------------------------------------
# whole-ISA round trip (property)
# ---------------------------------------------------------------------
def _operand_strategy(kind):
    if kind is OperandKind.REG:
        return st.integers(0, 31)
    if kind is OperandKind.REG_HI:
        return st.integers(16, 31)
    if kind is OperandKind.REG_PAIR:
        return st.integers(0, 15).map(lambda n: n * 2)
    if kind is OperandKind.REG_PAIR_W:
        return st.sampled_from([24, 26, 28, 30])
    if kind is OperandKind.IMM8:
        return st.integers(0, 255)
    if kind in (OperandKind.IMM6, OperandKind.IO6, OperandKind.DISP6):
        return st.integers(0, 63)
    if kind is OperandKind.IO5:
        return st.integers(0, 31)
    if kind in (OperandKind.BIT, OperandKind.SREG_BIT):
        return st.integers(0, 7)
    if kind is OperandKind.REL7:
        return st.integers(-64, 63)
    if kind is OperandKind.REL12:
        return st.integers(-2048, 2047)
    if kind is OperandKind.ADDR16:
        return st.integers(0, 0xFFFF)
    if kind is OperandKind.ADDR22:
        return st.integers(0, (1 << 22) - 1)
    raise AssertionError(kind)


@st.composite
def _any_instruction(draw):
    spec = draw(st.sampled_from(SPECS))
    operands = tuple(draw(_operand_strategy(op.kind))
                     for op in spec.operands)
    return spec.key, operands


@settings(max_examples=500)
@given(_any_instruction())
def test_roundtrip_property(instr):
    """encode -> decode recovers the exact instruction, for every spec
    and every legal operand combination."""
    key, operands = instr
    words = encode(key, operands)
    assert len(words) == SPEC_BY_KEY[key].size_words
    decoded = decode_words(*words)
    assert decoded.key == key
    assert decoded.operands == operands


def test_decode_is_unambiguous_for_all_encodings():
    """No two specs may claim the same word: decode(encode(x)) must give
    back x's key, exercised at field extremes for every spec."""
    for spec in SPECS:
        extremes = []
        for op in spec.operands:
            lo, hi = {
                OperandKind.REG: (0, 31),
                OperandKind.REG_HI: (16, 31),
                OperandKind.REG_PAIR: (0, 30),
                OperandKind.REG_PAIR_W: (24, 30),
                OperandKind.IMM8: (0, 255),
                OperandKind.IMM6: (0, 63),
                OperandKind.IO6: (0, 63),
                OperandKind.IO5: (0, 31),
                OperandKind.BIT: (0, 7),
                OperandKind.SREG_BIT: (0, 7),
                OperandKind.DISP6: (0, 63),
                OperandKind.REL7: (-64, 63),
                OperandKind.REL12: (-2048, 2047),
                OperandKind.ADDR16: (0, 0xFFFF),
                OperandKind.ADDR22: (0, (1 << 22) - 1),
            }[op.kind]
            extremes.append((lo, hi))
        import itertools
        for combo in itertools.product(*extremes) if extremes else [()]:
            words = encode(spec.key, combo)
            decoded = decode_words(*words)
            assert decoded.key == spec.key, (
                "{} with {} decoded as {}".format(spec.key, combo,
                                                  decoded.key))


# ---------------------------------------------------------------------
# the process-wide decode memo
# ---------------------------------------------------------------------
@pytest.fixture
def cold_memo():
    encoding._MEMO.clear()
    yield encoding._MEMO
    encoding._MEMO.clear()


def _outcome(decode, word0, word1):
    try:
        return decode(word0, word1)
    except DecodeError as exc:
        return str(exc)


SECOND_WORDS = (0x0000, 0x0001, 0x1234, 0x8000, 0xFFFF)


def test_memo_is_total_and_matches_uncached_decode(cold_memo):
    """Every first word, on a cold memo and again on a warm one, decodes
    exactly as the uncached pattern scan does: 63,322 decode and 2,214
    raise ``DecodeError``.  32-bit forms are checked with several second
    words each."""
    for temperature in ("cold", "warm"):
        decoded = failed = 0
        for word0 in range(1 << 16):
            seconds = SECOND_WORDS if is_32bit_opcode(word0) else (0x0000,)
            for word1 in seconds:
                got = _outcome(decode_words, word0, word1)
                assert got == _outcome(_decode_uncached, word0, word1), (
                    temperature, hex(word0), hex(word1))
            if isinstance(got, str):
                failed += 1
            else:
                decoded += 1
        assert (decoded, failed) == (63322, 2214), temperature
        # one entry per decoded 16-bit word and per 32-bit word pair:
        # the sweep fits under the bound, so the second pass is warm
        n32 = sum(map(is_32bit_opcode, range(1 << 16)))
        assert len(cold_memo) == 63322 - n32 + n32 * len(SECOND_WORDS)


def test_memo_keys_16bit_forms_by_first_word_alone(cold_memo):
    first = decode_words(0x0F01)                  # add r16, r17
    for word1 in (None,) + SECOND_WORDS:
        assert decode_words(0x0F01, word1) is first
    assert first == _decode_uncached(0x0F01)
    call_a = decode_words(0x940E, 0x0010)
    assert decode_words(0x940E, 0x0010) is call_a
    assert decode_words(0x940E, 0x0020) != call_a


def test_memo_never_caches_truncated_32bit_forms(cold_memo):
    decode_words(0x940E, 0x0000)
    decode_words(0x940E, 0x940E)
    for _ in range(2):
        with pytest.raises(DecodeError, match="truncated 32-bit"):
            decode_words(0x940E, None)
        with pytest.raises(DecodeError, match="cannot decode word ffff"):
            decode_words(0xFFFF)
    assert 0x940E not in cold_memo and 0xFFFF not in cold_memo


def test_memo_stays_bounded_and_correct_past_its_limit(cold_memo):
    limit = encoding._MEMO_LIMIT
    distinct = [(0x940E, word1) for word1 in range(1 << 16)] \
        + [(0x940C, word1) for word1 in range(limit // 8)]
    assert len(distinct) > limit
    for word0, word1 in distinct:
        decode_words(word0, word1)
        assert len(cold_memo) <= limit
    # the bound tripped: only the decodes since the clear are kept
    assert len(cold_memo) == len(distinct) - limit
    for word0, word1 in distinct[::997] + distinct[-5:]:
        assert decode_words(word0, word1) == _decode_uncached(word0, word1)
