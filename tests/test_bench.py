import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sclab import bench
from sclab.bench import (
    BenchConfig,
    MaeReport,
    MaeRow,
    add_error_sum,
    display_decimals,
    emit_report,
    mae_add_sweep,
    mae_mul_sweep,
    mul_error_sum,
    round_mae,
    run_bench,
)
from sclab.bitstream import FixedUnipolar, decode_unipolar, sng_generate
from sclab.errors import ConfigurationError
from sclab.ops import mul_unipolar, mux2
from sclab.sequences import FAMILIES, SequenceSpec, default_pair, sequence_thresholds


def _comparator_streams(thresholds, input_bits):
    """Stream for every input numerator 0..K-1 through the real SNG.

    Thresholds outside [0, K) are shifted into a wider comparator, so a
    threshold below 0 still gives an always-1 bit and one at or above K a
    never-1 bit.
    """
    k_count = 1 << input_bits
    thresholds = np.asarray(thresholds, dtype=np.int64)
    offset = max(0, -int(thresholds.min()))
    wide = (max(int(thresholds.max()), k_count - 1) + offset).bit_length()
    return [
        sng_generate(FixedUnipolar(k + offset, wide), thresholds + offset)
        for k in range(k_count)
    ]


def brute_force_mul_error(thr_a, thr_b, input_bits):
    """Per-pair streams through the real ops, exact fraction accumulation."""
    k_count = 1 << input_bits
    rows_a = _comparator_streams(thr_a, input_bits)
    rows_b = _comparator_streams(thr_b, input_bits)
    total = Fraction(0)
    for k1, s1 in enumerate(rows_a):
        for k2, s2 in enumerate(rows_b):
            est = decode_unipolar(mul_unipolar(s1, s2))
            total += abs(est - Fraction(k1 * k2, k_count * k_count))
    return total


def brute_force_add_error(thr_data, thr_sel, input_bits):
    k_count = 1 << input_bits
    sel = _comparator_streams(thr_sel, input_bits)[k_count // 2]
    rows = _comparator_streams(thr_data, input_bits)
    total = Fraction(0)
    for k1, s1 in enumerate(rows):
        for k2, s2 in enumerate(rows):
            est = decode_unipolar(mux2(s1, s2, sel))
            total += abs(est - Fraction(k1 + k2, 2 * k_count))
    return total


def mul_error_reference(thr_a, thr_b, input_bits):
    """sum over all (k1, k2) of |C*K^2 - k1*k2*N| with C = #{i : thr_a[i] < k1,
    thr_b[i] < k2}, counted row by row from the sorted thr_b and summed in
    Python integers.  No gcd scaling and no cumulative table: each term is at
    most N*K^2, so int64 holds a row's terms and their sum exactly for the
    N < 2^10 and K <= 2^12 the tests use."""
    k_count = 1 << input_bits
    n = len(thr_a)
    thr_a, thr_b = np.asarray(thr_a, dtype=np.int64), np.asarray(thr_b, dtype=np.int64)
    ks = np.arange(k_count, dtype=np.int64)
    total = 0
    for k1 in range(k_count):
        counts = np.searchsorted(np.sort(thr_b[thr_a < k1]), ks)  # #{b < k2} under k1
        total += int(np.abs(counts * (k_count * k_count) - k1 * n * ks).sum())
    return total


def assert_kernels_match(thr_a, thr_b, input_bits):
    k_count = 1 << input_bits
    n = len(thr_a)
    mul = mul_error_sum(thr_a, thr_b, input_bits=input_bits)
    assert Fraction(mul, k_count * k_count * n) == brute_force_mul_error(thr_a, thr_b, input_bits)
    add = add_error_sum(thr_a, thr_b, input_bits=input_bits)
    assert Fraction(add, 2 * k_count * n) == brute_force_add_error(thr_a, thr_b, input_bits)


class TestKernelsAgainstBruteForce:
    def test_mul_kernel_small_space(self):
        rng = random.Random(5)
        for _ in range(4):
            bits = 3
            n = 16
            thr_a = np.array([rng.randrange(8) for _ in range(n)])
            thr_b = np.array([rng.randrange(8) for _ in range(n)])
            err = mul_error_sum(thr_a, thr_b, input_bits=bits)
            got = Fraction(err, (1 << bits) ** 2 * n)
            want = brute_force_mul_error(thr_a, thr_b, bits)
            assert got == want

    def test_add_kernel_small_space(self):
        rng = random.Random(6)
        for _ in range(4):
            bits = 3
            n = 16
            thr_d = np.array([rng.randrange(8) for _ in range(n)])
            thr_s = np.array([rng.randrange(8) for _ in range(n)])
            err = add_error_sum(thr_d, thr_s, input_bits=bits)
            got = Fraction(err, 2 * (1 << bits) * n)
            want = brute_force_add_error(thr_d, thr_s, bits)
            assert got == want

    @pytest.mark.parametrize("family", FAMILIES)
    def test_count_engine_on_default_pairs(self, family):
        # 4-bit inputs keep the all-pairs oracle small; lengths 2^2..2^8
        for exponent in range(2, 9):
            n = 1 << exponent
            spec_a, spec_b = default_pair(family, n)
            assert_kernels_match(
                sequence_thresholds(spec_a, n, 4), sequence_thresholds(spec_b, n, 4), 4
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=3).flatmap(
            lambda bits: st.tuples(
                st.just(bits),
                st.lists(
                    st.tuples(
                        st.integers(-3, (1 << bits) + 2), st.integers(-3, (1 << bits) + 2)
                    ),
                    min_size=1,
                    max_size=24,
                ),
            )
        )
    )
    def test_count_engine_out_of_range_thresholds(self, case):
        bits, pairs = case
        thr_a = np.array([a for a, _ in pairs])
        thr_b = np.array([b for _, b in pairs])
        assert_kernels_match(thr_a, thr_b, bits)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12).flatmap(
            lambda bits: st.tuples(
                st.just(bits),
                st.lists(
                    st.tuples(
                        st.integers(-3, (1 << bits) + 2), st.integers(-3, (1 << bits) + 2)
                    ),
                    min_size=1,
                    max_size=160,
                ),
            )
        )
    )
    # 131 is prime, so lcm(131, 2^24) = 131 * 2^24 >= 2^31: the int64 branch
    @example((12, [(i * 37 % 4101 - 3, i * 91 % 4099 - 3) for i in range(131)]))
    # a power-of-2 N at 12 bits: int32, in blocks of rows
    @example((12, [(i * 1531 % 4096, i * 2999 % 4096) for i in range(128)]))
    def test_mul_error_sum_matches_reference(self, case):
        bits, pairs = case
        thr_a = np.array([a for a, _ in pairs])
        thr_b = np.array([b for _, b in pairs])
        assert mul_error_sum(thr_a, thr_b, bits) == mul_error_reference(thr_a, thr_b, bits)

    @pytest.mark.parametrize("n,bits", [(128, 12), (131, 12), (131, 8), (1 << 16, 8)])
    def test_error_dtype_follows_the_lcm_bound(self, monkeypatch, n, bits):
        # the error cells are built in the dtype of the products they subtract
        dtypes = []
        real = bench._products
        monkeypatch.setattr(bench, "_products", lambda *args: dtypes.append(args[3]) or real(*args))
        thr = np.arange(n) % (1 << bits)
        mul_error_sum(thr, thr[::-1], bits)
        want = np.int64 if math.lcm(n, 1 << 2 * bits) >= 1 << 31 else np.int32
        assert dtypes and set(dtypes) == {want}

    # 2^16 - 1 indices are the most that uint16 lanes count, 2^16 the fewest in uint32
    @pytest.mark.parametrize("bits", [8, 12])
    @pytest.mark.parametrize("n", [(1 << 16) - 1, 1 << 16, (1 << 16) + 1])
    def test_every_count_is_n_across_the_lane_switch(self, n, bits):
        # with every threshold at -1 each comparator bit is 1, so every count is
        # N and each pair's error numerator is N*(K^2 - k1*k2)
        k_count = 1 << bits
        thr = np.full(n, -1)
        levels = bench._levels(thr, 256)
        for size in (256, 257):  # mul_error_sum's corner, and media's table
            table = bench.count_table(levels, levels, size, size)
            assert table.shape == (size, size) and (table == n).all()
        want = n * (k_count**4 - (k_count * (k_count - 1) // 2) ** 2)
        assert mul_error_sum(thr, thr, bits) == want

    def test_row_blocks_match_single_block(self, monkeypatch):
        spec_a, spec_b = default_pair("halton", 256)
        thr_a = sequence_thresholds(spec_a, 256, 6)
        thr_b = sequence_thresholds(spec_b, 256, 6)
        whole = mul_error_sum(thr_a, thr_b, input_bits=6)
        monkeypatch.setattr(bench, "_BLOCK_CELLS", 3 * 64)  # 3-row blocks, short last one
        assert mul_error_sum(thr_a, thr_b, input_bits=6) == whole
        assert_kernels_match(thr_a[:40], thr_b[:40], 6)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_packed_path_matches_unpacked_random_pairs(self, n):
        # per-pair contributions recomputed bit-by-bit on unpacked lists
        spec_a, spec_b = default_pair("p2lsg", n)
        thr_a = sequence_thresholds(spec_a, n)
        thr_b = sequence_thresholds(spec_b, n)
        rng = random.Random(7)
        for _ in range(100):
            k1, k2 = rng.randrange(256), rng.randrange(256)
            packed = decode_unipolar(
                mul_unipolar(
                    sng_generate(FixedUnipolar(k1, 8), thr_a),
                    sng_generate(FixedUnipolar(k2, 8), thr_b),
                )
            )
            naive = sum(
                1 for ra, rb in zip(thr_a, thr_b) if k1 > ra and k2 > rb
            )
            assert packed == Fraction(naive, n)


class TestSweeps:
    def test_known_row_values(self):
        config = BenchConfig("mul", default_pair("p2lsg"), (64, 256))
        report = mae_mul_sweep(config)
        by_len = report.mae_by_length()
        assert by_len[256] == Fraction(25, 64)  # 0.390625 exactly
        assert float(by_len[64]) == pytest.approx(1.759, abs=2e-3)

    def test_add_reaches_zero_at_full_select_resolution(self):
        config = BenchConfig("add", default_pair("p2lsg"), (512,))
        report = mae_add_sweep(config)
        assert report.rows[0].mae_percent == 0

    def test_monotone_convergence_short(self):
        for family in ("p2lsg", "sobol", "niederreiter"):
            config = BenchConfig("mul", default_pair(family), (64, 128, 256, 512, 1024))
            rows = mae_mul_sweep(config).rows
            maes = [r.mae_percent for r in rows]
            assert all(a >= b for a, b in zip(maes, maes[1:]))

    def test_determinism(self):
        config = BenchConfig("mul", default_pair("sobol"), (64, 128))
        r1 = mae_mul_sweep(config)
        r2 = mae_mul_sweep(config)
        assert [r.mae_percent for r in r1.rows] == [r.mae_percent for r in r2.rows]
        assert emit_report(r1, "table") == emit_report(r2, "table")

    def test_operation_mismatch(self):
        config = BenchConfig("mul", default_pair("p2lsg"), (64,))
        with pytest.raises(ConfigurationError):
            mae_add_sweep(config)

    def test_input_bits_capped(self):
        BenchConfig("mul", default_pair("p2lsg"), (64,), input_bits=12)
        for bits in (0, 13, 16):
            with pytest.raises(ConfigurationError, match="input_bits"):
                BenchConfig("mul", default_pair("p2lsg"), (64,), input_bits=bits)

    def test_bad_lengths(self):
        with pytest.raises(ConfigurationError):
            BenchConfig("mul", default_pair("p2lsg"), (100,))
        with pytest.raises(ConfigurationError):
            BenchConfig("mul", default_pair("p2lsg"), (256, 64))
        BenchConfig("mul", default_pair("p2lsg"), (1 << 24,), input_bits=12)
        with pytest.raises(ConfigurationError, match="2\\^24"):
            BenchConfig("mul", default_pair("p2lsg"), (64, 1 << 25))

    def test_error_sums_enforce_the_caps(self):
        # the int64 sums rely on the same caps BenchConfig applies
        long = np.broadcast_to(np.int64(0), (1 << 25,))  # no allocation
        short = np.zeros(4, dtype=np.int64)
        for fn in (mul_error_sum, add_error_sum):
            with pytest.raises(ConfigurationError, match="2\\^24"):
                fn(long, long, input_bits=8)
            with pytest.raises(ConfigurationError, match="input_bits"):
                fn(short, short, input_bits=13)


def _spy(monkeypatch, name):
    """Wrap bench's `name`, recording each call's arguments and result."""
    calls, real = [], getattr(bench, name)

    def wrapper(*args):
        calls.append((args, result := real(*args)))
        return result

    monkeypatch.setattr(bench, name, wrapper)
    return calls


class TestSharedRows:
    """A row builds each length-independent spec once, at its longest length."""

    EXPLICIT = ("sobol:dim=1,bits=12", "p2lsg:base=4,bits=12",
                "poisson_disk:seed=1,min_distance=1/8192", "latin_hypercube:seed=3")

    @pytest.mark.parametrize("operation, lengths", [("mul", range(6, 12)), ("add", range(2, 10))])
    @pytest.mark.parametrize("pair", [*FAMILIES, *EXPLICIT])
    def test_row_equals_one_run_per_length(self, operation, lengths, pair):
        if pair in FAMILIES:
            pair = default_pair(pair)
        else:
            pair = (SequenceSpec.parse(pair), SequenceSpec.parse("vdc:base=3"))
        lengths = tuple(1 << e for e in lengths)
        row = run_bench(BenchConfig(operation, pair, lengths)).mae_by_length()
        for n in lengths:
            assert row[n] == run_bench(BenchConfig(operation, pair, (n,))).mae_by_length()[n], n

    @pytest.mark.parametrize("family, builds", [("halton", 2), ("p2lsg", 22)])
    def test_builds_per_row(self, monkeypatch, family, builds):
        # halton resolves to one spec at every length; p2lsg's base and bits follow N
        calls = _spy(monkeypatch, "sequence_thresholds")
        run_bench(BenchConfig("mul", default_pair(family), tuple(1 << e for e in range(6, 17))))
        assert len(calls) == builds

    def test_shared_thresholds_are_read_only_views(self, monkeypatch):
        built = _spy(monkeypatch, "sequence_thresholds")
        sums = _spy(monkeypatch, "mul_error_sum")
        run_bench(BenchConfig("mul", default_pair("halton"), (64, 128, 256)))
        assert [args[1] for args, _ in built] == [256, 256]
        for (thr_a, thr_b, _), _ in sums:
            assert not thr_a.flags.writeable and not thr_b.flags.writeable
            assert np.array_equal(thr_a, built[0][1][:len(thr_a)])

    def test_identical_specs_build_once(self, monkeypatch):
        calls = _spy(monkeypatch, "sequence_thresholds")
        spec = SequenceSpec.parse("halton:base=11")
        report = run_bench(BenchConfig("mul", (spec, spec), (64, 128)))
        assert len(calls) == 1 and len(report.rows) == 2

    def test_no_lengths_is_an_empty_report(self, monkeypatch):
        calls = _spy(monkeypatch, "sequence_thresholds")
        assert run_bench(BenchConfig("mul", default_pair("halton"), ())).rows == []
        assert calls == []

    def test_shared_build_time_goes_to_the_last_row(self, monkeypatch):
        real = bench.sequence_thresholds

        def slow(spec, count, bits):
            if count == 256:  # only the shared builds run at the longest length
                time.sleep(0.1)
            return real(spec, count, bits)

        monkeypatch.setattr(bench, "sequence_thresholds", slow)
        rows = run_bench(BenchConfig("mul", default_pair("vdc"), (64, 128, 256), 4)).rows
        assert rows[-1].wall_seconds >= 0.2 > max(row.wall_seconds for row in rows[:-1])


class TestReports:
    def _report(self, rows):
        rep = MaeReport("mul", "a & b", 8)
        rep.rows = rows
        return rep

    def test_single_row_csv(self):
        rep = self._report([MaeRow(256, Fraction(39, 10000), 0.25)])
        lines = emit_report(rep, "csv").splitlines()
        assert lines[0] == "length,mae_percent,wall_seconds"
        assert lines[1].startswith("256,0.0039,")
        assert len(lines) == 2

    def test_empty_report_is_header_only(self):
        assert emit_report(self._report([]), "csv") == "length,mae_percent,wall_seconds\n"

    def test_table_layout(self):
        rep = self._report(
            [MaeRow(1 << e, Fraction(1, 1000), 0.0) for e in range(6, 17)]
        )
        table = emit_report(rep, "table")
        head = table.splitlines()[0]
        for e in range(6, 17):
            assert f"2^{e}" in head
        assert len(table.splitlines()) == 2

    def test_display_rounding_half_even(self):
        assert round_mae(Fraction(25, 10000), 3) == "0.002"  # 0.0025 -> even
        assert round_mae(Fraction(35, 10000), 3) == "0.004"
        assert display_decimals("mul", 64) == 2
        assert display_decimals("mul", 65536) == 4
        assert display_decimals("add", 256) == 3

    def test_unknown_format(self):
        with pytest.raises(ConfigurationError):
            emit_report(self._report([]), "json")
