import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import digit_oracle, radical_inverse
from sclab.errors import ConfigurationError, DomainError
from sclab.p2lsg import (
    P2lsgConfig,
    digital_outputs,
    p2lsg_pair_for_length,
    p2lsg_parallel,
    p2lsg_sequence,
)
from sclab.sequences import SequenceSpec, sequence_thresholds


def bit_reverse(value, bits):
    out = 0
    for _ in range(bits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


def at(base, bits, value):
    """The output for one counter value."""
    return int(p2lsg_sequence(P2lsgConfig(base, bits), 1, value)[0])


class TestGroupReversal:
    def test_nibble_swap(self):
        assert at(16, 8, 0x12) == 0x21

    def test_full_bit_reversal(self):
        assert at(2, 8, 1) == 128

    def test_two_bit_groups(self):
        assert at(4, 6, 0b000110) == 0b100100 == 36

    def test_padded_group_truncation(self):
        # 3-bit groups of 255 over 8 bits; oracle computes via digit strings
        assert digit_oracle(255, 8, 8) == 253
        assert at(8, 8, 255) == 253

    def test_truncation_cuts_index_bits_when_groups_do_not_divide(self):
        # the short group lands last with its pad zero above index bit 2, so the
        # cut drops that index bit and every output is even
        want = [0, 2, 4, 6] * 2
        assert p2lsg_sequence(P2lsgConfig(4, 3), 8).tolist() == want
        spec = SequenceSpec.parse("p2lsg:base=4,bits=3")
        assert sequence_thresholds(spec, 8, bits=3).tolist() == want
        # base 8 over 5 bits: the cut drops index bit 3, so 16 values twice each
        values, counts = np.unique(p2lsg_sequence(P2lsgConfig(8, 5), 32), return_counts=True)
        assert values.size == 16 and set(counts.tolist()) == {2}

    @pytest.mark.parametrize("base,bits", [
        (2, 6), (4, 6), (8, 7), (16, 9), (32, 8),
        (2, 16), (65536, 16), (8, 16), (16, 8), (4, 7), (4096, 8), (1 << 80, 8),
    ])
    def test_matches_digit_oracle_from_any_start(self, base, bits):
        cfg = P2lsgConfig(base, bits)
        want = [digit_oracle(v, bits, base) for v in range(1 << bits)]
        assert p2lsg_sequence(cfg, 1 << bits).tolist() == want
        for start in (1, 37, (1 << bits) - 5):
            assert p2lsg_sequence(cfg, 5, start=start).tolist() == want[start : start + 5]

    def test_invalid_base(self):
        with pytest.raises(ConfigurationError):
            P2lsgConfig(12, 8)
        with pytest.raises(ConfigurationError):
            P2lsgConfig(1, 8)

    def test_out_of_range_value(self):
        with pytest.raises(DomainError):
            at(2, 8, 256)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=1 << 12),
    )
    def test_double_reversal_is_identity_when_groups_divide(self, log_base, mult, value):
        bits = log_base * mult
        value %= 1 << bits
        base = 1 << log_base
        once = at(base, bits, value)
        assert at(base, bits, once) == value


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

    def test_count_beyond_period_rejected(self):
        with pytest.raises(DomainError):
            p2lsg_sequence(P2lsgConfig(2, 4), 17)
        with pytest.raises(DomainError, match="exceed the counter period"):
            p2lsg_sequence(P2lsgConfig(2, 4), 2, start=15)
        with pytest.raises(DomainError, match="non-negative"):
            p2lsg_sequence(P2lsgConfig(2, 4), 2, start=-1)

    @pytest.mark.parametrize("count", [0, -3])
    def test_count_must_be_positive(self, count):
        with pytest.raises(DomainError, match=f"^count must be positive, got {count}$"):
            p2lsg_sequence(P2lsgConfig(2, 4), count)


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
    def test_rows_match_digit_oracle(self, par, base, bits):
        rows = p2lsg_parallel(P2lsgConfig(base, bits, par=par), (1 << bits) // par)
        want = [digit_oracle(i, bits, base) for i in range(1 << bits)]
        assert rows.tolist() == [want[c * par : (c + 1) * par] for c in range(len(rows))]

    @pytest.mark.parametrize("config, cycles, error, message", [
        (P2lsgConfig(4, 8), 4, ConfigurationError, "^parallel generation needs par >= 2"),
        (P2lsgConfig(4, 8, par=4), 0, DomainError, "^cycles must be positive, got 0$"),
        (P2lsgConfig(4, 8, par=4), 65, DomainError,
         "^cycles\\*par = 260 exceeds the counter period 256$"),
    ])
    def test_run_checked(self, config, cycles, error, message):
        with pytest.raises(error, match=message):
            p2lsg_parallel(config, cycles)
        p2lsg_parallel(P2lsgConfig(4, 8, par=4), 64)  # the whole period is accepted

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


def gf2_oracle(rows, index):
    """One output in Python ints: bit j, from the top, is the parity of index & rows[j]."""
    out = 0
    for row in rows:
        out = out << 1 | (index & row).bit_count() & 1
    return out


def random_rows(width, n, seed):
    """n rows of at most `width` bits; the first has its top bit set, so the
    rows reach index bit width - 1."""
    rng = random.Random(seed)
    rows = [rng.getrandbits(width) for _ in range(n)]
    rows[0] |= 1 << (width - 1)
    return rows


def columns(rows):
    """The 63 columns of a GF(2) matrix given by rows, the first row the top
    output bit: column k is the output of index bit k alone."""
    n = len(rows)
    return [sum((row >> k & 1) << (n - 1 - j) for j, row in enumerate(rows)) for k in range(63)]


def zp_oracle(cols, p, index):
    """The sum of d_t * cols[t] over the base-p digits d_t of index, least
    significant first, entry by entry in Python ints: the digit vector times
    the matrix whose rows are the columns."""
    digits = []
    for _ in cols:
        index, d = divmod(index, p)
        digits.append(d)
    return [sum(d * int(col[k]) for d, col in zip(digits, cols)) for k in range(len(cols[0]))]


class TestDigitalOutputs:
    """`digital_outputs(cols, p, start, count)`, a table over the low index
    digits combined with one value per distinct high part from the same
    function over the higher digits, and for p > TABLE_SIZE the run's own
    lowest digits peeled: at p = 2, the XOR of the columns of random matrices
    against the per-index parity, and at other p, the + of the columns
    p^(L-1-t) against the radical inverse and of random digit-vector columns
    against the matrix product."""

    @pytest.mark.parametrize("width", range(1, 64))
    def test_runs_from_each_low_byte_phase(self, width):
        rows = random_rows(width, 6, width)
        cols = columns(rows)
        long_count = (-(-width // 8) << 8) + 1  # from 257 at 8 bits to 2049 at 63
        # start >> 8 at 0, in the middle, and just below 2^62, so runs cross it
        for high in (0, 0x1234, (1 << 54) - 2):
            for low in (0, 1, 255):
                start = high << 8 | low
                for count in (1, 255, 256, 257, long_count):
                    got = digital_outputs(cols, 2, start, count)
                    assert got.dtype == np.int64 and got.size == count
                    want = [gf2_oracle(rows, i) for i in range(start, start + count)]
                    assert got.tolist() == want, (start, count)

    @pytest.mark.parametrize("width,nrows,start", [
        (20, 20, 12345),  # the run crosses 18 values of index >> 12
        (63, 8, (1 << 62) - 35001),  # and here carries into bit 62
        (63, 63, (1 << 62) - 1000),  # the widest matrix: 63 output bits of 63
    ])
    def test_long_runs_cross_many_high_values(self, width, nrows, start):
        rows = random_rows(width, nrows, nrows)
        count = 70001 if nrows < 63 else 2049
        got = digital_outputs(columns(rows), 2, start, count)
        assert got.tolist() == [gf2_oracle(rows, i) for i in range(start, start + count)]

    @pytest.mark.parametrize("p,width,starts,count,dtype", [
        (3, 10, (0, 2186, 3**10 - 3000), 3000, np.int64),  # 2187-entry tables, two levels
        (7, 7, (0, 2400, 7**7 - 3000), 3000, np.int64),  # 2401-entry tables
        (4099, 3, (0, 4000, 4099**2 - 2000, 4099**3 - 5000), 5000, np.int64),  # no table
        # past int64: starts beyond 2^62, in Python integers
        (3, 41, ((1 << 62) + 12345, 3**41 - 300), 300, object),
        (4099, 6, ((1 << 62) - 4000, (1 << 62) + 5), 300, object),
    ])
    def test_digit_vector_columns_are_matrix_products(self, p, width, starts, count, dtype):
        rng = random.Random(p + width)
        cols = np.array([[rng.randrange(p) for _ in range(5)] for _ in range(width)], dtype)
        for start in starts:
            for n in (1, 2, count):
                got = digital_outputs(cols, p, start, n, dtype)
                assert got.shape == (n, 5) and got.dtype == dtype
                assert got.tolist() == [zp_oracle(cols, p, i)
                                        for i in range(start, start + n)], (start, n)

    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_no_table_level_sums_into_its_own_array(self, vector, dtype):
        # the higher digits' sums are added in place: into the run's own
        # products, never into the caller's columns or a shared table
        p, width, start, count = 4099, 3, 4099**2 - 2000, 5000
        rng = random.Random(width)
        if vector:
            cols = np.array([[rng.randrange(p) for _ in range(4)] for _ in range(width)], dtype)
        else:
            cols = [p**t for t in reversed(range(width))]
        given = np.array(cols, dtype).copy()
        first = digital_outputs(cols, p, start, count, dtype)
        second = digital_outputs(cols, p, start, count, dtype)
        assert np.array_equal(np.array(cols, dtype), given)
        assert first is not second and not np.shares_memory(first, second)
        assert first.tolist() == second.tolist() == [
            zp_oracle(given, p, i) if vector else radical_inverse(p, i) * p**width
            for i in range(start, start + count)]

    @pytest.mark.parametrize("p,starts,count", [
        (3, (0, 2186, 3**14 - 2000), 5000),  # 2187-entry tables, three levels
        (10, (0, 999, 10**9 - 1500), 2500),  # 1000-entry tables: a composite base
        (4093, (0, 4092, 4093**3 - 100), 4200),  # one digit per table
    ])
    def test_sums_over_zp_are_radical_inverses(self, p, starts, count):
        for start in starts:
            for n in (1, 2, p - 1, p + 1, count):
                width = 1
                while p**width < start + n:
                    width += 1
                cols = [p**t for t in reversed(range(width))]
                got = digital_outputs(cols, p, start, n)
                assert [Fraction(v, p**width) for v in got.tolist()] == [
                    radical_inverse(p, i) for i in range(start, start + n)], (start, n)
