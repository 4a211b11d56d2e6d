from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    from_naive,
    naive_and,
    naive_bits,
    naive_mux2,
    naive_mux2_sub,
    naive_mux4,
    naive_xnor,
    random_bit_list,
)
from sclab.bitstream import (
    WORD_BITS,
    Bitstream,
    FixedUnipolar,
    decode_bipolar,
    decode_unipolar,
    sng_generate,
)
from sclab.errors import DomainError
from sclab.ops import min_correlated, mul_bipolar, mul_unipolar, mux2, mux2_sub, mux4
from sclab.p2lsg import P2lsgConfig, p2lsg_sequence
from sclab.sequences import sequence_thresholds, resolve_spec, SequenceSpec


def b(text):
    return Bitstream.from01(text)


class TestMulUnipolar:
    def test_textbook_and(self):
        out = mul_unipolar(b("1100"), b("1010"))
        assert out.to01() == "1000"
        assert decode_unipolar(out) == Fraction(1, 4)

    def test_identity_and_annihilator(self):
        s = b("10110010")
        assert mul_unipolar(s, Bitstream.ones(8)) == s
        assert mul_unipolar(s, Bitstream.zeros(8)) == Bitstream.zeros(8)

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            mul_unipolar(b("11"), b("111"))


class TestMulBipolar:
    def test_self_is_all_ones(self):
        s = b("1010")
        assert mul_bipolar(s, s) == Bitstream.ones(4)

    def test_plus_times_minus(self):
        assert mul_bipolar(b("1111"), b("0000")) == Bitstream.zeros(4)

    def test_truth_table(self):
        out = mul_bipolar(b("1010"), b("1100"))
        assert out.to01() == "1001"
        assert decode_bipolar(out) == 0

    def test_pad_bits_stay_zero(self):
        # XNOR inverts words; the pad region must be masked back to zero
        out = mul_bipolar(Bitstream.zeros(70), Bitstream.zeros(70))
        assert out.popcount() == 70


class TestMinCorrelated:
    def test_shared_thresholds_nest(self):
        seq = [0, 2, 1, 3]
        s1 = sng_generate(FixedUnipolar(2, 2), seq)
        s2 = sng_generate(FixedUnipolar(3, 2), seq)
        assert decode_unipolar(min_correlated(s1, s2)) == Fraction(2, 4)

    def test_self_min(self):
        s = b("1011")
        assert min_correlated(s, s) == s

    def test_exhaustive_8bit_pairs(self):
        seq = p2lsg_sequence(P2lsgConfig(2, 8), 256)
        streams = [sng_generate(FixedUnipolar(k, 8), seq) for k in range(0, 256, 15)]
        values = list(range(0, 256, 15))
        for i, s1 in enumerate(streams):
            for j, s2 in enumerate(streams):
                got = decode_unipolar(min_correlated(s1, s2))
                assert got == Fraction(min(values[i], values[j]), 256)


class TestMux2:
    def test_alternating_select(self):
        out = mux2(b("1111"), b("0000"), b("1010"))
        assert out.to01() == "0101"
        assert decode_unipolar(out) == Fraction(1, 2)

    def test_select_constants(self):
        s1, s2 = b("1100"), b("0110")
        assert mux2(s1, s2, Bitstream.zeros(4)) == s1
        assert mux2(s1, s2, Bitstream.ones(4)) == s2

    @given(st.integers(1, 150), st.randoms(use_true_random=False))
    def test_conservation(self, n, rnd):
        bits1 = [rnd.randint(0, 1) for _ in range(n)]
        bits2 = [rnd.randint(0, 1) for _ in range(n)]
        sel = [rnd.randint(0, 1) for _ in range(n)]
        out = mux2(from_naive(bits1), from_naive(bits2), from_naive(sel))
        want = sum(x for x, s in zip(bits1, sel) if not s) + sum(
            y for y, s in zip(bits2, sel) if s
        )
        assert out.popcount() == want


class TestMux2Sub:
    def test_equal_inputs_cancel(self):
        n = 256
        sel_thr = sequence_thresholds(resolve_spec(SequenceSpec.parse("p2lsgN"), n), n)
        sel = sng_generate(FixedUnipolar(128, 8), sel_thr)
        out = mux2_sub(Bitstream.ones(n), Bitstream.ones(n), sel)
        assert decode_bipolar(out) == 0

    def test_plus_one_minus_minus_one(self):
        sel = b("1010")
        out = mux2_sub(Bitstream.ones(4), Bitstream.zeros(4), sel)
        assert out == Bitstream.ones(4)
        assert decode_bipolar(out) == 1

    def test_exhaustive_sweep_error_bound(self):
        # both operands off one sequence, select 0.5 off the other; at N=512
        # the result stays within 2/N of (x1 - x2)/2 in bipolar terms
        n = 512
        data_thr = sequence_thresholds(
            resolve_spec(SequenceSpec.parse("p2lsg2"), n), n
        )
        sel_thr = sequence_thresholds(
            resolve_spec(SequenceSpec.parse("p2lsgN"), n), n
        )
        sel = sng_generate(FixedUnipolar(128, 8), sel_thr)
        streams = {k: sng_generate(FixedUnipolar(k, 8), data_thr) for k in range(0, 256, 5)}
        worst = Fraction(0)
        for k1, s1 in streams.items():
            x1 = Fraction(2 * k1, 256) - 1
            for k2, s2 in streams.items():
                x2 = Fraction(2 * k2, 256) - 1
                got = decode_bipolar(mux2_sub(s1, s2, sel))
                worst = max(worst, abs(got - (x1 - x2) / 2))
        assert worst <= Fraction(2, n)


class TestMux4:
    def test_all_zero_selects(self):
        i11, i12, i21, i22 = b("1100"), b("0110"), b("0011"), b("1001")
        z, o = Bitstream.zeros(4), Bitstream.ones(4)
        assert mux4(i11, i12, i21, i22, z, z) == i11
        assert mux4(i11, i12, i21, i22, z, o) == i12
        assert mux4(i11, i12, i21, i22, o, z) == i21
        assert mux4(i11, i12, i21, i22, o, o) == i22

    def test_identical_inputs_pass_through(self):
        s = b("10101100")
        sel1 = b("11001010")
        sel2 = b("01010011")
        assert mux4(s, s, s, s, sel1, sel2) == s

    def test_degenerates_to_mux2_when_v_constant(self, rng):
        for _ in range(20):
            n = rng.randrange(4, 100)
            streams = [from_naive(random_bit_list(rng, n)) for _ in range(5)]
            i11, i12, i21, i22, su = streams
            out = mux4(i11, i12, i21, i22, su, Bitstream.zeros(n))
            assert out == mux2(i11, i21, su)

    def test_bilinear_formula_case(self):
        # u = v = 1/2 selects with data (255, 0, 0, 255): exact-probability
        # oracle from the 4-term product formula, evaluated in rationals
        n = 256
        data_thr = sequence_thresholds(resolve_spec(SequenceSpec.parse("p2lsg2"), n), n)
        u_thr = sequence_thresholds(resolve_spec(SequenceSpec.parse("p2lsgN"), n), n)
        v_thr = sequence_thresholds(resolve_spec(SequenceSpec.parse("sobol:dim=2"), n), n)
        mk = lambda k, thr: sng_generate(FixedUnipolar(k, 8), thr)
        out = mux4(
            mk(255, data_thr), mk(0, data_thr), mk(0, data_thr), mk(255, data_thr),
            mk(128, u_thr), mk(128, v_thr),
        )
        u = v = Fraction(128, 256)
        p11 = p22 = Fraction(255, 256)
        expected = (1 - u) * (1 - v) * p11 + u * v * p22
        assert abs(decode_unipolar(out) - expected) <= Fraction(1, 256)


class TestPackedAgainstNaive:
    def test_all_ops_match_naive_reference(self, rng):
        for _ in range(200):
            n = rng.randrange(1, 200)
            bits = [random_bit_list(rng, n) for _ in range(6)]
            streams = [from_naive(x) for x in bits]
            assert naive_bits(mul_unipolar(streams[0], streams[1])) == naive_and(bits[0], bits[1])
            assert naive_bits(mul_bipolar(streams[0], streams[1])) == naive_xnor(bits[0], bits[1])
            assert naive_bits(mux2(streams[0], streams[1], streams[2])) == naive_mux2(
                bits[0], bits[1], bits[2]
            )
            assert naive_bits(mux2_sub(streams[0], streams[1], streams[2])) == naive_mux2_sub(
                bits[0], bits[1], bits[2]
            )
            assert naive_bits(
                mux4(streams[0], streams[1], streams[2], streams[3], streams[4], streams[5])
            ) == naive_mux4(bits[0], bits[1], bits[2], bits[3], bits[4], bits[5])

    def test_results_own_read_only_words_with_zero_pad(self, rng):
        # 70 bits leave 58 pad bits in the last word; XNOR's ~ sets them
        streams = [from_naive(random_bit_list(rng, 70)) for _ in range(6)]
        results = (mul_unipolar(*streams[:2]), mul_bipolar(*streams[:2]),
                   mux2(*streams[:3]), mux2_sub(*streams[:3]), mux4(*streams))
        for out in results:
            assert out.popcount() == sum(naive_bits(out))
            assert not any(np.may_share_memory(out.words, s.words) for s in streams)
            with pytest.raises(ValueError):
                out.words[0] = 0

    @pytest.mark.parametrize("n", [63, 65, 127, 129, 8191, 8193])
    def test_inverting_circuits_mask_their_pad_bits(self, n):
        # 64k - 1 bits leave one pad bit and 64k + 1 leave 63; ~ sets them all
        gen = np.random.default_rng(n)
        flags = [gen.random(n) < 0.5 for _ in range(6)]
        s = [Bitstream.from_bools(f) for f in flags]
        outs = {
            "mul_bipolar": (mul_bipolar(s[0], s[1]), flags[0] == flags[1]),
            "mux2_sub": (mux2_sub(s[0], s[1], s[2]), np.where(flags[2], ~flags[1], flags[0])),
            "mux4": (mux4(*s), np.select(
                [~flags[4] & ~flags[5], ~flags[4] & flags[5], flags[4] & ~flags[5]],
                flags[:3], flags[3])),
        }
        for name, (out, want) in outs.items():
            assert int(out.words[-1]) >> (n % WORD_BITS) == 0, name
            assert not out.words.flags.writeable, name
            assert np.array_equal(out.bools(), want), name
            assert out.popcount() == int(want.sum()), name

    @pytest.mark.parametrize("n", [64, 128, 8192])
    def test_whole_word_from_bools_owns_its_words(self, n):
        flags = np.random.default_rng(n).random(n) < 0.5
        s = Bitstream.from_bools(flags)
        assert not np.may_share_memory(s.words, flags)
        assert not s.words.flags.writeable
        want = flags.copy()
        flags[:] = True
        assert np.array_equal(s.bools(), want)
