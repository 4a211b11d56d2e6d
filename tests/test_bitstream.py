import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import naive_scc, naive_sng
from sclab import bitstream
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
from sclab.ops import mul_bipolar, mul_unipolar, mux2, mux2_sub, mux4
from sclab.p2lsg import P2lsgConfig, p2lsg_sequence


class TestFixedUnipolar:
    def test_value(self):
        assert FixedUnipolar(3, 2).value == Fraction(3, 4)

    def test_range_check(self):
        with pytest.raises(DomainError):
            FixedUnipolar(4, 2)
        with pytest.raises(DomainError):
            FixedUnipolar(-1, 2)

    @pytest.mark.parametrize("bits", [0, 63])
    def test_precision_bits_checked(self, bits):
        with pytest.raises(ConfigurationError, match=f"^precision_bits must be in 1..62, got {bits}$"):
            FixedUnipolar(0, bits)

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

    @pytest.mark.parametrize("words, length, message", [
        ([0], 0, r"^stream length must be >= 1, got 0$"),
        ([0], -5, r"^stream length must be >= 1, got -5$"),
        ([0, 0], 64, r"^word buffer shape \(2,\) does not match length 64$"),
        ([0], 65, r"^word buffer shape \(1,\) does not match length 65$"),
        ([[0]], 3, r"^word buffer shape \(1, 1\) does not match length 3$"),
    ])
    def test_words_must_fit_the_length(self, words, length, message):
        with pytest.raises(DomainError, match=message):
            Bitstream(words, length)

    @pytest.mark.parametrize("i", [-1, 70, 1000])
    def test_bit_index_checked(self, i):
        with pytest.raises(DomainError, match=f"^bit index {i} out of range for length 70$"):
            Bitstream.ones(70).bit(i)

    def test_equality_hash_and_repr(self):
        s = Bitstream.from01("1011")
        assert s == Bitstream.from_bits([1, 0, 1, 1]) and s != Bitstream.from01("10110")
        assert s != "1011" and s != 11 and s.__eq__("1011") is NotImplemented
        assert hash(s) == hash(Bitstream.from01("1011"))
        assert len({s, Bitstream.from01("1011"), Bitstream.from01("0011")}) == 2
        assert repr(s) == "Bitstream('1011', length=4)"
        long = Bitstream.from01("10" * 50)
        assert repr(long) == f"Bitstream({'10' * 30 + '1...'!r}, length=100)"

    @pytest.mark.parametrize("build", [lambda: Bitstream.from_bools([]),
                                       lambda: Bitstream.from_bits("")])
    def test_empty_stream_rejected(self, build):
        with pytest.raises(DomainError, match=r"^stream length must be >= 1, got 0$"):
            build()

    def test_packed_words_have_zero_pad_bits_and_are_read_only(self):
        # from_bools and from01 wrap their packed words unmasked and uncopied
        for n in range(1, 131):
            flags = np.random.default_rng(n).integers(0, 2, n, dtype=bool)
            for bits in (flags, np.ones(n, bool)):
                for s in (Bitstream.from_bools(bits),
                          Bitstream.from01("".join("01"[b] for b in bits.tolist()))):
                    assert s.words.shape == (-(-n // 64),) and s.length == n
                    assert int(s.words[-1]) >> ((n - 1) % 64 + 1) == 0
                    assert s.popcount() == int(bits.sum())
                    assert not s.words.flags.writeable

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
        with pytest.raises(ConfigurationError, match=r"outside \[0, 2\^8\)"):
            sng_generate(FixedUnipolar(1, 8), [0, -1])  # negative thresholds are out of range too

    @pytest.mark.parametrize("rng_values, length, error, message", [
        # a negative length would slice off the tail: 251 bits from 256 values
        (np.arange(256), -5, DomainError, "stream length must be >= 1, got -5"),
        (np.arange(256), 0, DomainError, "stream length must be >= 1, got 0"),
        ([], None, DomainError, "stream length must be >= 1, got 0"),
        # slicing a 2-D array cuts rows: 256 bits for length 20
        (np.zeros((16, 16), dtype=np.int64), 20, DomainError,
         "sequence values must be a 1-D array, got shape (16, 16)"),
        (np.int64(3), None, DomainError, "sequence values must be a 1-D array, got shape ()"),
        # int64 truncation would read -0.5 as threshold 0, inside the range
        ([-0.5], None, ConfigurationError, "sequence values must be integers, got dtype float64"),
        (np.array([0.0, 1.0, 2.0]), 2, ConfigurationError,
         "sequence values must be integers, got dtype float64"),
        (["1", "2"], None, ConfigurationError, "sequence values must be integers, got dtype <U1"),
        ([1.5, 1 << 70], None, ConfigurationError,
         "sequence values must be integers, got dtype object"),
        # a slice bound must be an integer
        (np.arange(8), 2.5, ConfigurationError, "stream length must be an integer, got float"),
        (np.arange(8), np.float64(3), ConfigurationError,
         "stream length must be an integer, got float64"),
        (np.arange(8), "3", ConfigurationError, "stream length must be an integer, got str"),
        # Python ints past int64 are objects to numpy, and out of range
        ([1 << 70], None, ConfigurationError, "sequence values outside [0, 2^8) (precision mismatch?)"),
        ([0, -(1 << 70)], None, ConfigurationError,
         "sequence values outside [0, 2^8) (precision mismatch?)"),
    ])
    def test_input_it_would_mis_slice_or_cast_rejected(self, rng_values, length, error, message):
        with pytest.raises(error) as exc:
            sng_generate(FixedUnipolar(1, 8), rng_values, length=length)
        assert str(exc.value) == message

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.uint64, bool])
    def test_any_integer_dtype_accepted(self, dtype):
        thresholds = np.array([0, 1, 1, 0, 1], dtype=dtype)
        assert sng_generate(FixedUnipolar(1, 1), thresholds).to01() == "10010"

    def test_integer_length_types_accepted(self):
        for length in (3, np.int64(3), np.uint8(3)):
            assert sng_generate(FixedUnipolar(1, 1), [0, 1, 1, 0], length=length).to01() == "100"

    def test_python_ints_in_an_object_array_in_range_accepted(self):
        thresholds = np.array([0, 1, 1, 0], dtype=object)
        assert sng_generate(FixedUnipolar(1, 1), thresholds).to01() == "1001"

    def test_unsigned_values_past_int64_out_of_range(self):
        with pytest.raises(ConfigurationError, match=r"outside \[0, 2\^8\)"):
            sng_generate(FixedUnipolar(1, 8), np.array([0, 1 << 63], dtype=np.uint64))


class TestEncoderCache:
    """sng_generate's cache of threshold arrays: a hit (same id, length,
    precision and int64 bytes) returns a table row that must equal the
    comparator stream, and nothing else may change."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(bitstream, "_ENCODERS", {})

    @staticmethod
    def oracle(thresholds, k, length=None):
        return Bitstream.from_bools(np.asarray(thresholds[:length], dtype=np.int64) < k)

    @staticmethod
    def tables():
        return [entry[1] for entry in bitstream._ENCODERS.values() if entry[1] is not None]

    @pytest.mark.parametrize("n", [1, 63, 65, 100, 1000, 1024])
    def test_hits_equal_the_comparator_for_every_numerator(self, n):
        thr = np.random.default_rng(n).integers(0, 256, n)
        for _ in range(2):  # the first round stores the bytes, the second hits
            for k in range(256):
                assert sng_generate(FixedUnipolar(k, 8), thr) == self.oracle(thr, k)
        assert len(self.tables()) == 1

    @pytest.mark.parametrize("length", [1, 37, 64, 65, 200])
    def test_length_prefixes(self, length):
        thr = np.random.default_rng(length).integers(0, 16, 300)
        for _ in range(2):
            for k in range(16):
                got = sng_generate(FixedUnipolar(k, 4), thr, length=length)
                assert got == self.oracle(thr, k, length)
                assert got.length == length and got.words.size == -(-length // 64)
        assert sng_generate(FixedUnipolar(9, 4), thr) == self.oracle(thr, 9)

    def test_integer_dtypes_and_objects_give_the_same_streams(self):
        base = np.random.default_rng(7).integers(0, 128, 130)
        inputs = [base.astype(np.int8), base.astype(np.uint16), base.astype(object), base]
        for thr in inputs * 2:
            for k in (0, 1, 64, 127, 255):
                assert sng_generate(FixedUnipolar(k, 8), thr) == self.oracle(base, k)

    def test_an_array_edited_in_place_is_checked_again(self):
        thr = np.arange(100) % 256
        for _ in range(2):
            assert sng_generate(FixedUnipolar(50, 8), thr) == self.oracle(thr, 50)
        thr[3] = 200
        assert sng_generate(FixedUnipolar(50, 8), thr) == self.oracle(thr, 50)
        assert sng_generate(FixedUnipolar(201, 8), thr) == self.oracle(thr, 201)
        thr[5] = 256
        with pytest.raises(ConfigurationError, match=r"outside \[0, 2\^8\)"):
            sng_generate(FixedUnipolar(50, 8), thr)
        thr[5] = -1
        with pytest.raises(ConfigurationError, match=r"outside \[0, 2\^8\)"):
            sng_generate(FixedUnipolar(50, 8), thr)
        thr[5] = 5
        for _ in range(2):
            assert sng_generate(FixedUnipolar(6, 8), thr) == self.oracle(thr, 6)

    def test_other_precisions_are_range_checked(self):
        thr = np.arange(64) * 4
        for _ in range(2):
            sng_generate(FixedUnipolar(3, 8), thr)
        with pytest.raises(ConfigurationError, match=r"outside \[0, 2\^6\)"):
            sng_generate(FixedUnipolar(3, 6), thr)

    def test_a_numerator_outside_the_table_takes_the_comparator(self):
        class Wide:  # a duck-typed value whose numerator passes 2^precision_bits
            precision_bits, numerator = 8, 300

        thr = np.arange(256)
        for _ in range(2):
            sng_generate(FixedUnipolar(1, 8), thr)
            assert sng_generate(Wide(), thr) == Bitstream.ones(256)

    def test_a_cached_stream_is_read_only_and_outlives_its_array(self):
        thr = np.random.default_rng(3).integers(0, 256, 100)
        want = self.oracle(thr, 77)
        streams = [sng_generate(FixedUnipolar(77, 8), thr) for _ in range(3)]
        assert self.tables()
        del thr
        bitstream._ENCODERS.clear()
        for s in streams:
            assert s == want
            assert not s.words.flags.writeable
            with pytest.raises(ValueError):
                s.words[0] = 0

    def test_the_cache_is_bounded(self):
        arrays = [np.full(64, i % 256) for i in range(3 * bitstream._ENCODER_ENTRIES)]
        for thr in arrays * 2:
            sng_generate(FixedUnipolar(5, 8), thr)
            assert len(bitstream._ENCODERS) <= bitstream._ENCODER_ENTRIES
        big = np.zeros(bitstream._ENCODER_WORDS, dtype=np.int64)  # its values alone fill an entry
        for _ in range(2):
            assert sng_generate(FixedUnipolar(1, 8), big) == Bitstream.ones(big.size)
        assert all(key[0] != id(big) for key in bitstream._ENCODERS)
        for table in self.tables():
            assert table.size <= bitstream._ENCODER_WORDS

    @pytest.mark.parametrize("n", [1, 5, 63, 65, 100, 130])
    def test_circuits_keep_pad_bits_zero(self, n):
        rng = np.random.default_rng(n)
        s = [Bitstream.from_bools(rng.integers(0, 2, n, dtype=bool)) for _ in range(6)]
        b = [x.bools() for x in s]
        cases = [
            (mul_unipolar(s[0], s[1]), b[0] & b[1]),
            (mul_bipolar(s[0], s[1]), ~(b[0] ^ b[1])),
            (mux2(s[0], s[1], s[2]), np.where(b[2], b[1], b[0])),
            (mux2_sub(s[0], s[1], s[2]), np.where(b[2], ~b[1], b[0])),
            (mux4(*s), np.where(b[4], np.where(b[5], b[3], b[2]), np.where(b[5], b[1], b[0]))),
        ]
        for out, want in cases:
            assert out == Bitstream.from_bools(want)
            if n % 64:
                assert int(out.words[-1]) >> (n % 64) == 0
            assert not out.words.flags.writeable


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


# word counts on both sides of the switch from Python-int to numpy counting
SWITCH_WORDS = (bitstream._INT_COUNT_WORDS - 1, bitstream._INT_COUNT_WORDS,
                bitstream._INT_COUNT_WORDS + 1)


class TestCountSwitch:
    @pytest.mark.parametrize("words", SWITCH_WORDS)
    @pytest.mark.parametrize("short", [0, 13])  # lengths = 0 and != 0 mod 64
    def test_counts_match_bool_oracles(self, words, short):
        n = words * 64 - short
        gen = np.random.default_rng(words * 64 + short)
        for density in (0.1, 0.5, 0.9):
            f1, f2 = gen.random(n) < density, gen.random(n) < 0.5
            s1, s2 = Bitstream.from_bools(f1), Bitstream.from_bools(f2)
            assert s1.words.size == words
            ones = int(f1.sum())
            assert s1.popcount() == ones
            assert decode_unipolar(s1) == Fraction(ones, n)
            assert decode_bipolar(s1) == Fraction(2 * ones - n, n)
            assert scc(s1, s2) == naive_scc(f1.tolist(), f2.tolist())

    @pytest.mark.parametrize("words", SWITCH_WORDS)
    @pytest.mark.parametrize("short", [0, 13])
    def test_constant_streams_have_no_scc(self, words, short):
        n = words * 64 - short
        other = Bitstream.from_bools(np.random.default_rng(n).random(n) < 0.5)
        for constant in (Bitstream.zeros(n), Bitstream.ones(n)):
            assert constant.popcount() == (n if constant.bit(0) else 0)
            assert decode_bipolar(constant) == (1 if constant.bit(0) else -1)
            assert scc(constant, other) is None and scc(other, constant) is None
            assert scc(constant, constant) is None

    @pytest.mark.parametrize("words, numpy_path", [(1, False), (128, False), (129, True), (512, True)])
    def test_size_selects_the_path(self, monkeypatch, words, numpy_path):
        # the documented rule: Python ints up to 128 words, numpy above
        calls = []
        count = np.bitwise_count
        monkeypatch.setattr(np, "bitwise_count", lambda w: calls.append(w.size) or count(w))
        s, half = Bitstream.ones(words * 64), Bitstream.from01("10" * words * 32)
        for got, want in ((lambda: s.popcount(), words * 64),
                          (lambda: decode_unipolar(s), 1),
                          (lambda: scc(s, half), None),
                          (lambda: scc(half, half), 1)):
            calls.clear()
            assert got() == want
            assert bool(calls) == numpy_path
            assert all(size == words for size in calls)


class TestExactEncoding:
    @pytest.mark.parametrize("base", [2, 4, 16, 256])
    def test_full_period_encoding_is_exact(self, base):
        seq = p2lsg_sequence(P2lsgConfig(base, 8), 256)
        for k in range(0, 256, 17):
            s = sng_generate(FixedUnipolar(k, 8), seq)
            assert decode_unipolar(s) == Fraction(k, 256)
