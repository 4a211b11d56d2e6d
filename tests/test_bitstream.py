import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import naive_scc, naive_sng
from sclab.bitstream import (
    Bitstream,
    FixedUnipolar,
    decode_bipolar,
    decode_unipolar,
    dump_stream_ascii,
    dump_stream_raw,
    load_stream_ascii,
    load_stream_raw,
    scc,
    sng_generate,
)
from sclab.errors import ConfigurationError, DomainError, GenerationError, ParseError
from sclab.p2lsg import P2lsgConfig, p2lsg_sequence


class TestFixedUnipolar:
    def test_value(self):
        assert FixedUnipolar(3, 2).value == Fraction(3, 4)

    def test_range_check(self):
        with pytest.raises(DomainError):
            FixedUnipolar(4, 2)
        with pytest.raises(DomainError):
            FixedUnipolar(-1, 2)

    def test_widen_is_lossless(self):
        x = FixedUnipolar(3, 2)
        assert x.widen(8).value == x.value
        with pytest.raises(ConfigurationError):
            x.widen(1)

    def test_from_value_caps_at_one(self):
        assert FixedUnipolar.from_value(1, 8).numerator == 255
        assert FixedUnipolar.from_value(Fraction(1, 2), 8).numerator == 128
        with pytest.raises(DomainError):
            FixedUnipolar.from_value(1.5, 8)


class TestBitstreamPacking:
    def test_bit_layout(self):
        s = Bitstream.from01("1" + "0" * 63 + "1")  # bits 0 and 64
        assert s.words[0] == 1
        assert s.words[1] == 1
        assert s.bit(0) == 1 and s.bit(63) == 0 and s.bit(64) == 1

    def test_roundtrip(self):
        text = "10110001"
        assert Bitstream.from01(text).to01() == text

    def test_pad_bits_zero(self):
        s = Bitstream.ones(70)
        assert int(s.words[1]) == (1 << 6) - 1
        assert s.popcount() == 70

    def test_caller_buffer_neither_rewritten_nor_shared(self):
        w = np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        s = Bitstream(w, 3)
        assert int(w[0]) == 0xFFFFFFFFFFFFFFFF
        w[0] = 0
        assert s.popcount() == 3
        with pytest.raises(ValueError):
            s.words[0] = 0xFF
        assert s.popcount() == 3 and s.to01() == "111"

    def test_read_only_input_accepted(self):
        w = np.array([5, 0xFFFF], dtype=np.uint64)
        w.flags.writeable = False
        s = Bitstream(w, 70)
        assert int(s.words[1]) == 0x3F and int(w[1]) == 0xFFFF

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_bools_inverse_of_from_bits(self, bits):
        s = Bitstream.from_bits(bits)
        assert list(s.bools().astype(int)) == bits
        assert s.popcount() == sum(bits)
        text = "".join(map(str, bits))
        assert s.to01() == text
        assert Bitstream.from01(text) == s
        assert load_stream_ascii(dump_stream_ascii(s)) == s

    # every character str.split() treats as whitespace is skipped; anything else
    # that is not an ASCII '0'/'1' (non-ASCII digits included) is rejected
    @given(st.text(st.sampled_from(
        "0011 \t\n\r\v\f\x1c\x1d\x1e\x1f\x85\u00a0\u2028\u3000"
        "2a?\x00\u0660\u0661\u00b9\uff11\U0001d7ce"
    ), max_size=200))
    def test_text_parse_matches_per_character_rule(self, text):
        chars = "".join(text.split())
        if chars and set(chars) <= {"0", "1"}:
            want = Bitstream.from_bits([int(c) for c in chars])
            assert Bitstream.from01(text) == want
            assert load_stream_ascii(text) == want
        else:
            with pytest.raises(DomainError):
                Bitstream.from01(text)
            with pytest.raises(ParseError):
                load_stream_ascii(text)

    def test_serialization_ascii(self):
        s = Bitstream.from_bits([random.Random(1).randint(0, 1) for _ in range(130)])
        assert load_stream_ascii(dump_stream_ascii(s)) == s

    def test_serialization_raw(self):
        s = Bitstream.from_bits([random.Random(2).randint(0, 1) for _ in range(99)])
        blob = dump_stream_raw(s)
        assert int.from_bytes(blob[:8], "little") == 99
        assert load_stream_raw(blob) == s

    def test_raw_truncation_detected(self):
        blob = dump_stream_raw(Bitstream.ones(64))
        with pytest.raises(ParseError):
            load_stream_raw(blob[:-1])
        with pytest.raises(ParseError):
            load_stream_raw(b"\x01")

    def test_ascii_garbage_detected(self):
        for text in ("10a1", "", " \n\u2028", "1\u0661", "10\uff11", "0\x00"):
            with pytest.raises(ParseError):
                load_stream_ascii(text)


class TestSng:
    def test_half_over_full_period(self):
        seq = p2lsg_sequence(P2lsgConfig(2, 8), 256)
        s = sng_generate(FixedUnipolar(128, 8), seq)
        assert s.popcount() == 128

    def test_zero_encodes_empty(self):
        seq = p2lsg_sequence(P2lsgConfig(2, 8), 256)
        assert sng_generate(FixedUnipolar(0, 8), seq).popcount() == 0

    def test_three_quarters_vdc2(self):
        s = sng_generate(FixedUnipolar(3, 2), [0, 2, 1, 3])
        assert s.to01() == "1110"  # strict comparison: 3>0, 3>2, 3>1, 3>3

    def test_matches_naive_comparator(self, rng):
        seq = [rng.randrange(256) for _ in range(100)]
        for k in (0, 1, 127, 255):
            s = sng_generate(FixedUnipolar(k, 8), seq)
            assert [s.bit(i) for i in range(100)] == naive_sng(k, seq)

    def test_sequence_exhausted(self):
        with pytest.raises(GenerationError):
            sng_generate(FixedUnipolar(1, 8), [0, 1, 2], length=4)

    def test_precision_mismatch(self):
        with pytest.raises(ConfigurationError):
            sng_generate(FixedUnipolar(1, 8), [0, 1], rng_bits=4)
        with pytest.raises(ConfigurationError):
            sng_generate(FixedUnipolar(1, 2), [0, 9])  # value 9 needs > 2 bits


class TestDecode:
    def test_unipolar_examples(self):
        assert decode_unipolar(Bitstream.from01("1100")) == Fraction(1, 2)
        assert decode_unipolar(Bitstream.ones(8)) == 1
        assert decode_unipolar(Bitstream.from01("10110001")) == Fraction(1, 2)

    def test_bipolar_examples(self):
        assert decode_bipolar(Bitstream.ones(8)) == 1
        assert decode_bipolar(Bitstream.zeros(8)) == -1
        assert decode_bipolar(Bitstream.from01("1010")) == 0


class TestScc:
    def test_identical_nonconstant(self):
        assert scc(Bitstream.from01("1100"), Bitstream.from01("1100")) == 1

    def test_opposite(self):
        assert scc(Bitstream.from01("1100"), Bitstream.from01("0011")) == -1

    def test_uncorrelated(self):
        assert scc(Bitstream.from01("1010"), Bitstream.from01("1100")) == 0

    def test_constant_stream_undefined(self):
        assert scc(Bitstream.ones(8), Bitstream.from01("11001010")) is None
        assert scc(Bitstream.zeros(8), Bitstream.zeros(8)) is None

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            scc(Bitstream.ones(8), Bitstream.ones(9))

    def test_symmetry_and_naive_agreement(self, rng):
        for _ in range(300):
            n = rng.randrange(4, 130)
            b1 = [rng.randint(0, 1) for _ in range(n)]
            b2 = [rng.randint(0, 1) for _ in range(n)]
            s1, s2 = Bitstream.from_bits(b1), Bitstream.from_bits(b2)
            v12, v21 = scc(s1, s2), scc(s2, s1)
            assert v12 == v21
            assert v12 == naive_scc(b1, b2)
            if v12 is not None:
                assert -1 <= v12 <= 1

    def test_same_sequence_streams_fully_correlated(self):
        seq = p2lsg_sequence(P2lsgConfig(2, 8), 256)
        s1 = sng_generate(FixedUnipolar(77, 8), seq)
        s2 = sng_generate(FixedUnipolar(200, 8), seq)
        assert scc(s1, s2) == 1


class TestExactEncoding:
    @pytest.mark.parametrize("base", [2, 4, 16, 256])
    def test_full_period_encoding_is_exact(self, base):
        seq = p2lsg_sequence(P2lsgConfig(base, 8), 256)
        for k in range(0, 256, 17):
            s = sng_generate(FixedUnipolar(k, 8), seq)
            assert decode_unipolar(s) == Fraction(k, 256)
