import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sclab.errors import ConfigurationError, DomainError
from sclab.p2lsg import (
    P2lsgConfig,
    group_reverse,
    p2lsg_pair_for_length,
    p2lsg_parallel,
    p2lsg_sequence,
)
from sclab.sequences import SequenceSpec, sequence_thresholds


def digit_oracle(value, bits, base):
    """Independent route: explicit base-B digit strings -> scaled radical inverse."""
    n_digits = math.ceil(bits / int(math.log2(base)))
    digits = []
    v = value
    for _ in range(n_digits):
        digits.append(v % base)
        v //= base
    num, den = 0, 1
    for d in digits:
        num = num * base + d
        den *= base
    return (num << bits) // den


def bit_reverse(value, bits):
    out = 0
    for _ in range(bits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


class TestGroupReverse:
    def test_nibble_swap(self):
        assert group_reverse(0x12, 8, 16) == 0x21

    def test_full_bit_reversal(self):
        assert group_reverse(1, 8, 2) == 128

    def test_two_bit_groups(self):
        assert group_reverse(0b000110, 6, 4) == 0b100100 == 36

    def test_padded_group_truncation(self):
        # 3-bit groups of 255 over 8 bits; oracle computes via digit strings
        assert digit_oracle(255, 8, 8) == 253
        assert group_reverse(255, 8, 8) == 253

    def test_truncation_cuts_index_bits_when_groups_do_not_divide(self):
        # the short group lands last with its pad zero above index bit 2, so the
        # cut drops that index bit and every output is even
        want = [0, 2, 4, 6] * 2
        assert [group_reverse(v, 3, 4) for v in range(8)] == want
        spec = SequenceSpec.parse("p2lsg:base=4,bits=3")
        assert sequence_thresholds(spec, 8, bits=3).tolist() == want
        # base 8 over 5 bits: the cut drops index bit 3, so 16 values twice each
        values, counts = np.unique(p2lsg_sequence(P2lsgConfig(8, 5), 32), return_counts=True)
        assert values.size == 16 and set(counts.tolist()) == {2}

    @pytest.mark.parametrize("base,bits", [(2, 6), (4, 6), (8, 7), (16, 9), (32, 8)])
    def test_matches_digit_oracle_exhaustively(self, base, bits):
        for v in range(1 << bits):
            assert group_reverse(v, bits, base) == digit_oracle(v, bits, base)

    def test_invalid_base(self):
        with pytest.raises(ConfigurationError):
            group_reverse(0, 8, 12)
        with pytest.raises(ConfigurationError):
            group_reverse(0, 8, 1)

    def test_out_of_range_value(self):
        with pytest.raises(DomainError):
            group_reverse(256, 8, 2)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=1 << 12),
    )
    def test_double_reversal_is_identity_when_groups_divide(self, log_base, mult, value):
        bits = log_base * mult
        value %= 1 << bits
        base = 1 << log_base
        once = group_reverse(value, bits, base)
        assert group_reverse(once, bits, base) == value


class TestSequence:
    def test_two_bit_reversal(self):
        assert list(p2lsg_sequence(P2lsgConfig(2, 2), 4)) == [0, 2, 1, 3]

    def test_low_nibble_becomes_high(self):
        assert list(p2lsg_sequence(P2lsgConfig(16, 8), 4)) == [0, 16, 32, 48]

    def test_base4_digit_oracle(self):
        got = list(p2lsg_sequence(P2lsgConfig(4, 8), 3))
        assert got == [digit_oracle(i, 8, 4) for i in range(3)] == [0, 64, 128]

    def test_base2_equals_classic_bit_reversal(self):
        seq = p2lsg_sequence(P2lsgConfig(2, 10), 1 << 10)
        for i in (0, 1, 5, 341, 1023):
            assert seq[i] == bit_reverse(i, 10)

    @pytest.mark.parametrize("base,bits", [(2, 8), (4, 8), (16, 8), (256, 8), (8, 12)])
    def test_full_period_is_permutation(self, base, bits):
        seq = p2lsg_sequence(P2lsgConfig(base, bits), 1 << bits)
        assert np.array_equal(np.sort(seq), np.arange(1 << bits))

    def test_equidistributed_prefixes_base2(self):
        # among the first 2^k outputs, each dyadic interval of size 2^-k holds one point
        n = 10
        seq = p2lsg_sequence(P2lsgConfig(2, n), 1 << n)
        for k in range(n + 1):
            cells = seq[: 1 << k] >> (n - k)
            assert sorted(cells) == list(range(1 << k))

    @pytest.mark.parametrize(
        "base,bits", [(2, 16), (65536, 16), (8, 16), (16, 8), (4, 7), (4096, 8), (1 << 80, 8)]
    )
    def test_matches_scalar_group_reverse(self, base, bits):
        cfg = P2lsgConfig(base, bits)
        want = [group_reverse(i, bits, base) for i in range(1 << bits)]
        assert p2lsg_sequence(cfg, 1 << bits).tolist() == want
        for start in (1, 37, (1 << bits) - 5):
            assert p2lsg_sequence(cfg, 5, start=start).tolist() == want[start : start + 5]

    def test_count_beyond_period_rejected(self):
        with pytest.raises(DomainError):
            p2lsg_sequence(P2lsgConfig(2, 4), 17)
        with pytest.raises(DomainError, match="exceed the counter period"):
            p2lsg_sequence(P2lsgConfig(2, 4), 2, start=15)
        with pytest.raises(DomainError, match="non-negative"):
            p2lsg_sequence(P2lsgConfig(2, 4), 2, start=-1)


class TestParallel:
    def test_first_cycle_base16(self):
        rows = p2lsg_parallel(P2lsgConfig(16, 8, par=4), 1)
        assert list(rows[0]) == [0, 16, 32, 48]

    def test_cycle1_base2(self):
        rows = p2lsg_parallel(P2lsgConfig(2, 8, par=2), 2)
        assert list(rows[1]) == [64, 192]

    @pytest.mark.parametrize("par", [2, 4, 8])
    @pytest.mark.parametrize("base", [2, 4, 16])
    def test_flattened_equals_serial(self, par, base):
        cfg = P2lsgConfig(base, 8, par=par)
        rows = p2lsg_parallel(cfg, (1 << 8) // par)
        serial = p2lsg_sequence(P2lsgConfig(base, 8), 1 << 8)
        assert np.array_equal(rows.reshape(-1), serial)

    @pytest.mark.parametrize("par,base,bits", [(2, 8, 16), (4, 65536, 16), (8, 4, 7)])
    def test_rows_match_scalar_group_reverse(self, par, base, bits):
        rows = p2lsg_parallel(P2lsgConfig(base, bits, par=par), (1 << bits) // par)
        want = [group_reverse(i, bits, base) for i in range(1 << bits)]
        assert rows.tolist() == [want[c * par : (c + 1) * par] for c in range(len(rows))]

    def test_par_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            P2lsgConfig(2, 8, par=3)

    def test_par_as_large_as_period_refused(self):
        with pytest.raises(ConfigurationError):
            P2lsgConfig(2, 3, par=8)


class TestPairForLength:
    def test_known_pairs(self):
        assert p2lsg_pair_for_length(256) == (P2lsgConfig(2, 8), P2lsgConfig(256, 8))
        assert p2lsg_pair_for_length(4) == (P2lsgConfig(2, 2), P2lsgConfig(4, 2))
        assert p2lsg_pair_for_length(1 << 16) == (
            P2lsgConfig(2, 16),
            P2lsgConfig(1 << 16, 16),
        )

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ConfigurationError):
            p2lsg_pair_for_length(100)
