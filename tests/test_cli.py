import contextlib
import hashlib
import io
import os
import pathlib
import time
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    FIXED64,
    digit_oracle,
    fractions,
    lfsr_oracle,
    niederreiter_oracle,
    poisson_disk_oracle,
    radical_inverse,
    sobol_oracle,
    weyl_oracle,
)
from sclab import cli, media
from sclab.cli import _lines, main
from sclab.media import AlphaMap, GrayImage, RgbImage, merge_scene_sc, scale_image_sc
from sclab.pnm import read_pnm_file, write_pnm_file
from sclab.sequences import _REGISTRY, FAMILIES, SequenceSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_quiet(*argv):
    """Exit code, stdout and stderr of one run, argparse's exits included (no
    pytest fixture, so hypothesis can call it once per example)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(map(str, argv)))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def gen_stdout(*argv):
    """Exit code and stdout of one `gen` run."""
    code, out, _ = run_quiet("gen", *argv)
    return code, out


def per_value_lines(values, decimal):
    """The reference formatting: one line per value (a tuple joins with commas),
    each as str(Fraction) or, with --decimal, repr(float(Fraction))."""
    fmt = (lambda v: repr(float(v))) if decimal else str
    return "".join(
        ",".join(map(fmt, v if isinstance(v, tuple) else (v,))) + "\n" for v in values
    )


def floor_scaled(values, bits):
    """floor(2^bits * v) of each value (a tuple, each of its entries)."""
    floor = lambda v: (v.numerator << bits) // v.denominator
    return [tuple(map(floor, v)) if isinstance(v, tuple) else floor(v) for v in values]


# a hex int that int(text, 0) reads, with more decimal digits than str() converts
HEX_4000 = "0x" + "f" * 4000
# the longest decimal int str() converts, and a hex int just below that bound
NINES_4300 = "9" * 4300
HEX_3500 = "0x" + "f" * 3500


def _scaled(values, bits):
    return [Fraction(int(v), 1 << bits) for v in values]


def hammersley_pair(i):
    return radical_inverse(2, i), radical_inverse(3, i)


# gen flags, and the values at indices 0..end-1 from the test oracles or, for
# latin_hypercube, which has none, from sequence_numerators' run from index 0
GEN_ORACLES = {
    "vdc": (["--family", "vdc", "--base", "3"],
            lambda end: [radical_inverse(3, i) for i in range(end)]),
    "halton": (["--family", "halton", "--base", "13"],
               lambda end: [radical_inverse(13, i) for i in range(end)]),
    "hammersley-pair": (["--family", "hammersley"],
                        lambda end: [hammersley_pair(i) for i in range(end)]),
    "hammersley-dim": (["--family", "hammersley", "--dim", "1"],
                       lambda end: [radical_inverse(3, i) for i in range(end)]),
    "faure": (["--family", "faure", "--base", "7", "--dim", "2"],
              lambda end: [radical_inverse(7, i, 2) for i in range(end)]),
    "weyl": (["--family", "weyl", "--irrational", "silver"],
             lambda end: [weyl_oracle(FIXED64["weyl:irrational=silver"], i) for i in range(end)]),
    "r2": (["--family", "r2", "--dim", "1"],
           lambda end: [weyl_oracle(FIXED64["r2:dim=1"], i) for i in range(end)]),
    "sobol": (["--family", "sobol", "--dim", "2", "--bits", "10"],
              lambda end: _scaled([sobol_oracle(2, 10, i) for i in range(end)], 10)),
    "niederreiter": (["--family", "niederreiter", "--dim", "3", "--bits", "10", "--skip", "5"],
                     lambda end: _scaled([niederreiter_oracle(3, 10, i + 5)
                                          for i in range(end)], 10)),
    # no --skip: the family table's skip=0
    "niederreiter-skip-0": (["--family", "niederreiter", "--dim", "2"],
                            lambda end: _scaled([niederreiter_oracle(2, 8, i)
                                                 for i in range(end)], 8)),
    "lfsr": (["--family", "lfsr", "--seed", "7"],
             lambda end: _scaled(lfsr_oracle(0x71, 7, end), 8)),
    "latin_hypercube": (["--family", "latin_hypercube", "--seed", "4"],
                        lambda end: fractions("latin_hypercube:seed=4", end)),
    "poisson_disk": (["--family", "poisson_disk", "--seed", "2"],
                     lambda end: poisson_disk_oracle(end, Fraction(1, 4 * end), 2)),
}


# p2lsg prints integers, so it has a value oracle only for --scale-bits
SCALE_BITS_ORACLES = {
    **GEN_ORACLES,
    "p2lsg": (["--family", "p2lsg", "--base", "16", "--bits", "10"],
              lambda end: _scaled([digit_oracle(i, 10, 16) for i in range(end)], 10)),
}


class TestGen:
    def test_vdc_fraction(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "vdc", "--base", "3",
                           "--count", "1", "--index", "11")
        assert code == 0
        assert out == "19/27\n"

    def test_vdc_decimal(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "vdc", "--base", "3",
                           "--count", "1", "--index", "11", "--decimal")
        assert code == 0
        assert out.startswith("0.703703703703")

    def test_p2lsg_serial(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "p2lsg", "--base", "16",
                           "--bits", "8", "--count", "4")
        assert code == 0
        assert out.split() == ["0", "16", "32", "48"]

    def test_p2lsg_parallel_lines(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "p2lsg", "--base", "2",
                           "--bits", "8", "--par", "2", "--count", "2")
        assert code == 0
        assert out.splitlines() == ["0,128", "64,192"]

    def test_scaled_integers(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "vdc", "--base", "2",
                           "--count", "4", "--scale-bits", "8")
        assert code == 0
        assert out.split() == ["0", "128", "64", "192"]

    def test_scale_bits_exact_at_60(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "halton", "--base", "13", "--count", "3",
                           "--index", "100000", "--scale-bits", "60")
        assert code == 0
        assert out.split() == ["419543407310238298", "508229676895380373", "596915946480522448"]

    @pytest.mark.parametrize("flags", [
        ("--family", "halton", "--base", "13", "--index", "7", "--count", "1", "--scale-bits", "64"),
        ("--family", "sobol", "--dim", "2", "--bits", "8", "--count", "2", "--scale-bits", "64"),
        ("--family", "halton", "--base", "13", "--count", "3", "--scale-bits", "-1"),
    ])
    def test_scale_bits_out_of_range(self, capsys, flags):
        code, out, err = run(capsys, "gen", *flags)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "bits must be in 1..62" in err

    def test_niederreiter_bits_message_names_the_spec_key(self, capsys):
        code, out, err = run(capsys, "gen", "--family", "niederreiter", "--bits", "40",
                             "--count", "1")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "bits must be in 1..32, got 40" in err
        assert "precision_bits" not in err

    def test_hammersley_pairs(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "hammersley", "--count", "2")
        assert code == 0
        assert out.splitlines() == ["0,0", "1/2,1/3"]

    @pytest.mark.parametrize("family", GEN_ORACLES)
    @settings(max_examples=12, deadline=None)
    @given(index=st.integers(0, 300), count=st.integers(1, 120), decimal=st.booleans())
    def test_matches_per_value_formatting(self, family, index, count, decimal):
        flags, oracle = GEN_ORACLES[family]
        code, out = gen_stdout(*flags, "--index", index, "--count", count,
                               *(["--decimal"] if decimal else []))
        assert code == 0
        assert out == per_value_lines(oracle(index + count)[index:], decimal)

    @pytest.mark.parametrize("family", sorted(SCALE_BITS_ORACLES))
    @settings(max_examples=8, deadline=None)
    @given(index=st.integers(0, 300), count=st.integers(1, 120), bits=st.sampled_from([1, 8, 62]))
    def test_scale_bits_is_floor_of_value(self, family, index, count, bits):
        flags, oracle = SCALE_BITS_ORACLES[family]
        code, out = gen_stdout(*flags, "--index", index, "--count", count, "--scale-bits", bits)
        assert code == 0
        assert out == per_value_lines(floor_scaled(oracle(index + count)[index:], bits), False)

    @settings(max_examples=25, deadline=None)
    @given(base=st.sampled_from([2, 4, 8, 16, 256]), bits=st.integers(1, 12),
           data=st.data(), decimal=st.booleans())
    def test_p2lsg_matches_digit_oracle(self, base, bits, data, decimal):
        index = data.draw(st.integers(0, (1 << bits) - 1))
        count = data.draw(st.integers(1, (1 << bits) - index))
        code, out = gen_stdout("--family", "p2lsg", "--base", base, "--bits", bits,
                               "--index", index, "--count", count,
                               *(["--decimal"] if decimal else []))
        assert code == 0
        assert out == "".join(f"{digit_oracle(i, bits, base)}\n"
                              for i in range(index, index + count))

    @pytest.mark.parametrize("base, bits, par", [(2, 8, 2), (16, 10, 8), (4, 7, 64)])
    def test_p2lsg_parallel_matches_digit_oracle(self, base, bits, par):
        cycles = (1 << bits) // par
        code, out = gen_stdout("--family", "p2lsg", "--base", base, "--bits", bits,
                               "--par", par, "--count", cycles)
        assert code == 0
        assert out == "".join(
            ",".join(str(digit_oracle(c * par + j, bits, base)) for j in range(par)) + "\n"
            for c in range(cycles)
        )

    @pytest.mark.parametrize("base, bits, par, scale_bits", [(2, 8, 2, 3), (16, 10, 8, 62),
                                                            (4, 7, 64, 1)])
    def test_p2lsg_parallel_scale_bits(self, base, bits, par, scale_bits):
        cycles = (1 << bits) // par
        code, out = gen_stdout("--family", "p2lsg", "--base", base, "--bits", bits,
                               "--par", par, "--count", cycles, "--scale-bits", scale_bits)
        assert code == 0
        assert out == "".join(
            ",".join(str(digit_oracle(c * par + j, bits, base) << scale_bits >> bits)
                     for j in range(par)) + "\n"
            for c in range(cycles)
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_flag_the_family_does_not_read_rejected(self, capsys, family):
        params = _REGISTRY[family].params
        argv = ("gen", "--family", family, "--count", "3",
                *(a for k, default in params.items() if default is int for a in (f"--{k}", "2")))
        assert run(capsys, *argv)[0] == 0
        unread = [("--base" if "seed" in params else "--seed", "5")]
        if family != "p2lsg":
            unread.append(("--par", "2"))
        for flag, value in unread:
            code, out, err = run(capsys, *argv, flag, value)
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and err.startswith("sclab: ")
            assert flag in err and family in err

    @pytest.mark.parametrize("argv", [
        ("gen", "--family", "halton", "--base", HEX_4000),
        ("gen", "--family", "p2lsg", "--base", HEX_4000),
        ("gen", "--family", "lfsr", "--seed", "1", "--taps", HEX_4000),
        ("bench-mul", "--seqs", f"halton:base={HEX_4000},vdc:base=2", "--lengths", "6"),
    ])
    def test_long_hex_int_is_one_short_line(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, *(["--count", "1"] if argv[0] == "gen" else []))
        assert time.perf_counter() - start < 1
        assert code in (1, 2) and out == ""
        assert err.count("\n") == 1 and len(err) <= 200

    @pytest.mark.parametrize("flags, oracle", [
        # a base whose Pascal products pass int64: object-dtype numerators
        (["--family", "halton", "--base", "3037000507"], lambda i: radical_inverse(3037000507, i)),
        (["--family", "vdc", "--base", str(10**20)], lambda i: radical_inverse(10**20, i)),
        (["--family", "faure", "--base", "3037000507", "--dim", "1"],
         lambda i: radical_inverse(3037000507, i, 1)),
        # the largest indices gen accepts, and 2^64 denominators
        (["--family", "halton", "--base", "13"], lambda i: radical_inverse(13, i)),
        (["--family", "hammersley"], hammersley_pair),
        (["--family", "weyl"], lambda i: weyl_oracle(FIXED64["weyl:irrational=pi"], i)),
        (["--family", "r2", "--dim", "0"], lambda i: weyl_oracle(FIXED64["r2:dim=0"], i)),
    ])
    @pytest.mark.parametrize("decimal", [False, True])
    def test_matches_per_value_formatting_at_the_extremes(self, flags, oracle, decimal):
        index = (1 << 24) - 9
        code, out = gen_stdout(*flags, "--index", index, "--count", 9,
                               *(["--decimal"] if decimal else []))
        assert code == 0
        assert out == per_value_lines([oracle(i) for i in range(index, index + 9)], decimal)

    @pytest.mark.parametrize("flags", [
        ("--family", "sobol", "--dim", "2", "--bits", "8", "--scale-bits", "8"),
        ("--family", "vdc", "--base", "2"),
        ("--family", "p2lsg", "--base", "2"),
        ("--family", "hammersley"),
        ("--family", "latin_hypercube", "--seed", "1"),
    ])
    def test_negative_index_rejected(self, capsys, flags):
        code, out, err = run(capsys, "gen", *flags, "--count", "3", "--index", "-1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--index" in err

    @pytest.mark.parametrize("flags", [
        ("--family", "weyl", "--count", str((1 << 24) + 1)),
        ("--family", "vdc", "--base", "2", "--index", str(1 << 24), "--count", "1"),
        ("--family", "p2lsg", "--base", "2", "--bits", "62", "--index", str((1 << 24) - 1),
         "--count", "2"),
        ("--family", "p2lsg", "--base", "2", "--bits", "62", "--par", str(1 << 30),
         "--count", "1"),
        # an end with more digits than str() converts is not printed
        ("--family", "vdc", "--base", "2", "--count", "9" * 4300, "--index", "9" * 4300),
        ("--family", "p2lsg", "--par", "2", "--count", "9" * 4300),
    ])
    def test_over_two_to_the_24_values_rejected(self, capsys, flags):
        code, out, err = run(capsys, "gen", *flags)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and str(1 << 24) in err

    @pytest.mark.parametrize("flags, message", [
        (("--bits", "70"), "counter_bits must be in 1..62"),
        (("--bits", "0"), "counter_bits must be in 1..62"),
        (("--par", "0"), "par must be a power of 2"),
        (("--par", "3"), "par must be a power of 2"),
    ])
    def test_p2lsg_config_checked(self, capsys, flags, message):
        code, out, err = run(capsys, "gen", "--family", "p2lsg", "--base", "16",
                             "--count", "2", *flags)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and message in err

    def test_par_rejects_a_nonzero_index(self, capsys):
        flags = ("gen", "--family", "p2lsg", "--base", "16", "--bits", "10", "--par", "8",
                 "--count", "1")
        code, out, err = run(capsys, *flags, "--index", "3")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "--index" in err
        code, out, _ = run(capsys, *flags, "--index", "0")
        assert code == 0 and out == ",".join(str(i * 64) for i in range(8)) + "\n"

    def test_large_prime_base_is_fast(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "gen", "--family", "halton", "--base", str((1 << 61) - 1),
                           "--count", "1")
        assert time.perf_counter() - start < 1
        assert code == 0 and out == "0\n"

    @pytest.mark.parametrize("family", ["halton", "faure"])
    def test_prime_base_past_2_to_the_81_rejected(self, capsys, family):
        code, out, err = run(capsys, "gen", "--family", family, "--base", str((1 << 89) - 1),
                             "--count", "1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "2^81" in err

    @pytest.mark.parametrize("flags", [
        ("--family", "weyl", "--irrational", "1e-1000000"),
        ("--family", "weyl", "--irrational", "1E+4_301"),
        ("--family", "poisson_disk", "--seed", "1", "--min-distance", "1e-1000000"),
        ("--family", "poisson_disk", "--seed", "1", "--min-distance", "5e" + "9" * 5000),
    ])
    def test_decimal_exponent_past_4300_rejected(self, capsys, flags):
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", *flags, "--count", "1")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "4300" in err

    # a weyl constant with exponent +/-4300 has no fractional bit in 64 (a
    # fractional one would need more than 4300 digits), so it is rejected by
    # test_weyl_constant_without_fractional_bits_rejected below, not here
    def test_decimal_exponent_at_4300_runs(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "poisson_disk", "--seed", "1",
                           "--min-distance", "1e-4300", "--count", "1")
        assert code == 0 and out.count("\n") == 1

    @pytest.mark.parametrize("irrational", ["2", "3/1", "1e-30", "1.0000000000000000000001",
                                            "1e-4300", "-1e-4300"])
    def test_weyl_constant_without_fractional_bits_rejected(self, capsys, irrational):
        # 1e-4300 was all zeros, and -1e-4300 a traceback from printing the Fraction
        for argv in (("gen", "--family", "weyl", f"--irrational={irrational}", "--count", "3"),
                     ("bench-mul", "--seqs", f"weyl:irrational={irrational},r2", "--lengths", "6"),
                     ("bench-add", "--seqs", f"r2,weyl:irrational={irrational}", "--lengths", "2")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err.count("\n") == 1 and err.startswith("sclab: irrational constant ")
            assert irrational in err

    @pytest.mark.parametrize("attempts", ["0", "65537", "1000000"])
    def test_max_attempts_past_2_to_the_16_rejected(self, capsys, attempts):
        code, out, err = run(capsys, "gen", "--family", "poisson_disk", "--seed", "1",
                             "--min-distance", "1/65", "--max-attempts", attempts, "--count", "64")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "max_attempts must be in 1..65536" in err

    def test_max_attempts_at_2_to_the_16_runs(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "poisson_disk", "--seed", "1",
                           "--max-attempts", "65536", "--count", "4")
        assert code == 0 and out.count("\n") == 4

    @pytest.mark.parametrize("family, flag", [("vdc", "--base"), ("halton", "--base"),
                                              ("faure", "--base"), ("p2lsg", "--base")])
    def test_base_n_rejected(self, capsys, family, flag):
        code, out, err = run(capsys, "gen", "--family", family, flag, "N", "--count", "1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1

    def test_seeded_family_needs_seed(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "latin_hypercube", "--count", "4")
        assert code == 2
        assert "seed" in err

    def test_deterministic_output(self, capsys):
        args = ("gen", "--family", "latin_hypercube", "--count", "8", "--seed", "5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


# (dtype, denominators) of the columns gen formats: int64 over 1 (integer
# output), 2^k, p^L and the power of a composite vdc base, with 2^31 and 2^32,
# where the lowest-set-bit shift meets the uint32 width, and two large primes'
# short tables of p^0..p^L; uint64 over weyl's and r2's 2^64; object numerators
# past int64
_KERNEL_COLUMNS = [
    (np.int64, [1, 2, 1 << 30, 1 << 31, 1 << 32, 1 << 36, 3**22, 1 << 62, 3**39, 13**16,
                2147483647**2, 65537**3, 10**18, 6**24]),
    (np.uint64, [1 << 64]),
    (object, [3037000507**3, (10**20) ** 2, 1 << 100]),
]


@st.composite
def kernel_cells(draw):
    """1-3 columns of numerators over their denominators, all of one length,
    with 0, the largest numerator, values just past 32 bits and 19- and
    20-digit values among them."""
    rows = draw(st.integers(1, 40))
    cells = []
    for _ in range(draw(st.integers(1, 3))):
        dtype, dens = draw(st.sampled_from(_KERNEL_COLUMNS))
        den = draw(st.sampled_from(dens))
        top = draw(st.sampled_from([1 << 34, 1 << 63])) - 1 if den == 1 else den - 1
        edges = [v for v in (0, 1, 10, 10**18 - 1, 10**18, 10**19 - 1, 10**19, top) if v <= top]
        values = st.one_of(st.sampled_from(edges), st.integers(0, top))
        cells.append((np.array(draw(st.lists(values, min_size=rows, max_size=rows)), dtype), den))
    return cells


class TestGenText:
    @settings(max_examples=300, deadline=None)
    @given(cells=kernel_cells())
    def test_kernel_prints_what_fraction_prints(self, cells):
        rows = zip(*([str(Fraction(int(n), den)) for n in num] for num, den in cells))
        assert _lines(cells, False) == "".join(",".join(row) + "\n" for row in rows)

    # fractions, decimals, and integer columns (the hammersley pair's two among
    # them) whose digit widths change from block to block
    @pytest.mark.parametrize("family", GEN_ORACLES)
    @pytest.mark.parametrize("decimal, scale_bits", [(False, None), (True, None), (False, 5)],
                             ids=["False", "True", "scale-bits-5"])
    def test_blocks_of_three_lines_join_seamlessly(self, monkeypatch, family, decimal, scale_bits):
        monkeypatch.setattr("sclab.cli._ROW_BLOCK", 3)
        blocks, lines = [], cli._lines
        monkeypatch.setattr("sclab.cli._lines", lambda *a: blocks.append(lines(*a)) or blocks[-1])
        flags, oracle = GEN_ORACLES[family]
        code, out = gen_stdout(*flags, "--index", 5, "--count", 11,
                               *(["--decimal"] if decimal else []),
                               *(["--scale-bits", scale_bits] if scale_bits else []))
        assert code == 0
        assert len(blocks) == 4 and "".join(blocks) == out and "\0" not in out
        values = oracle(16)[5:]
        assert out == per_value_lines(floor_scaled(values, scale_bits) if scale_bits else values,
                                      decimal)

    @pytest.mark.parametrize("scale_bits", [None, 3])
    def test_p2lsg_parallel_blocks_of_three_lines(self, monkeypatch, scale_bits):
        monkeypatch.setattr("sclab.cli._ROW_BLOCK", 3)
        bits = 10 if scale_bits is None else scale_bits
        code, out = gen_stdout("--family", "p2lsg", "--base", 16, "--bits", 10, "--par", 4,
                               "--count", 10,
                               *(["--scale-bits", scale_bits] if scale_bits else []))
        assert code == 0
        assert out == "".join(
            ",".join(str(digit_oracle(c * 4 + j, 10, 16) << bits >> 10) for j in range(4)) + "\n"
            for c in range(10)
        )

    # SHA-256 of gen's stdout at benchmark scale (65,536 values) for settings
    # that perfbench's goldens (p2lsg base 16, sobol, vdc base 2, halton 11) do not cover
    @pytest.mark.parametrize("flags, digest", [
        (("--family", "weyl", "--irrational", "silver", "--count", "65536"),
         "3e08db15fb430c27df2e21a60560bdad89eb420fc07a6e1af2704de3c38ca00a"),
        (("--family", "r2", "--dim", "1", "--count", "65536"),
         "7c6303a22f088e2e82a077d515461eb9ebcef91b26bbcfd70bb8e42783e3fd08"),
        (("--family", "faure", "--base", "7", "--dim", "2", "--count", "65536"),
         "baac1b802918625112ed340525c1311d93a138a822c6103d6f26bddbc1cc9f3b"),
        (("--family", "hammersley", "--count", "65536"),
         "7908d3c4168dbfcfb4b7a955e404dc0ea5f1196668bdffc26c34abd2da84e3f7"),
        (("--family", "niederreiter", "--dim", "3", "--skip", "5", "--count", "65536"),
         "2a6b8b9e22b2939441495ad0ca68ff937158817b1c3669f4fb510a64858355ca"),
        (("--family", "p2lsg", "--base", "16", "--bits", "16", "--par", "8", "--count", "8192"),
         "42cabb5c2f852dd9eeda71910842ebd130c6d41bedbddb822c019bb4c197494c"),
        # the seeded families: object numerators over 2^69, and int64 over 2^53
        (("--family", "latin_hypercube", "--seed", "4", "--count", "65536"),
         "6fcfd939833c2d1ef2fb32bcf7aaafd4e838bab83cf4df8748aa4e075437493d"),
        (("--family", "poisson_disk", "--seed", "2", "--count", "65536"),
         "6f908c177ca0db0d2617939b67daad3ce82265131abf6d2d40ff7bd1d76b7505"),
    ])
    def test_pinned_output_at_benchmark_scale(self, flags, digest):
        code, out = gen_stdout(*flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestExitCodes:
    @pytest.mark.parametrize("target,argv,error", [
        ("sequence_numerators", ("gen", "--family", "vdc", "--base", "3", "--count", "4"),
         MemoryError()),
        ("run_bench", ("bench-mul", "--seqs", "vdc", "--lengths", "6"),
         MemoryError("Unable to allocate 128. MiB for an array with shape (16777216,)")),
    ])
    def test_running_out_of_memory_is_one_line_and_exit_2(
            self, capsys, monkeypatch, target, argv, error):
        def fail(*args, **kwargs):  # what an allocation past the memory limit raises
            raise error

        monkeypatch.setattr(cli, target, fail)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"sclab: {str(error) or 'out of memory'}\n"

    @pytest.mark.parametrize("argv, code, message", [
        (("gen", "--family", "lfsr", "--seed", "1", "--bits", "63", "--count", "2"), 2,
         "bits must be in 1..62, got 63"),
        (("gen", "--family", "sobol", "--bits", "63", "--count", "2"), 2,
         "bits must be in 1..62, got 63"),
        (("gen", "--family", "hammersley", "--dim", "2", "--count", "2"), 2,
         "hammersley dim must be 0 or 1, got 2"),
        (("merge", "--bg", "bg.ppm", "--fg-dir", "bg.ppm", "--out-dir", "out"), 3,
         "bg.ppm is not a directory"),
        (("merge", "--bg", "bg.ppm", "--fg-dir", "empty", "--out-dir", "out"), 3,
         "no .ppm/.pgm frames found in empty"),
        (("merge", "--bg", "bg.ppm", "--fg-dir", "gray_frames", "--out-dir", "out"), 2,
         "foreground frame gray_frames/f1.pgm must be RGB (P6)"),
        (("merge", "--bg", "bg.ppm", "--fg-dir", "frames", "--out-dir", "out",
          "--alpha-dir", "rgb_alphas"), 2,
         "alpha map rgb_alphas/f1.pgm must be grayscale (P5)"),
        (("scc", "--a", "empty.bin", "--b", "empty.bin", "--format", "raw"), 3,
         "raw bit-stream header declares invalid length 0"),
    ], ids=["lfsr_bits", "sobol_bits", "hammersley_dim", "fg_dir_file", "no_frames", "gray_frame",
            "rgb_alpha", "raw_length_0"])
    def test_documented_error_exit(self, capsys, monkeypatch, tmp_path, argv, code, message):
        monkeypatch.chdir(tmp_path)  # short relative paths, which messages print whole
        rgb = np.zeros((4, 4, 3), dtype=np.uint8)
        write_pnm_file(tmp_path / "bg.ppm", rgb)
        for name in ("empty", "frames", "gray_frames", "rgb_alphas"):
            (tmp_path / name).mkdir()
        write_pnm_file(tmp_path / "frames" / "f1.ppm", rgb)
        write_pnm_file(tmp_path / "gray_frames" / "f1.pgm", rgb[..., 0])
        write_pnm_file(tmp_path / "rgb_alphas" / "f1.pgm", rgb)  # P6 bytes under .pgm
        (tmp_path / "empty.bin").write_bytes(bytes(8) + bytes(8))
        assert run(capsys, *argv) == (code, "", f"sclab: {message}\n")
        assert not (tmp_path / "out").exists()

    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "vdc", "--count", "1", "--nope"])
        assert exc.value.code == 1

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_malformed_numeric_flag(self, capsys, tmp_path):
        out = tmp_path / "x.pgm"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "vdc", "--count", "abc"])
        assert exc.value.code == 1
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (("bench-mul", "--lengths", "30"), "length exponents out of range in '30'"),
        (("bench-mul", "--lengths", "25"), "length exponents out of range in '25'"),
        (("bench-mul", "--lengths", "6..3"), "length exponents out of range in '6..3'"),
        (("bench-add", "--lengths", "0"), "length exponents out of range in '0'"),
        (("bench-mul", "--lengths", "x"),
         "expected length exponents such as 6..16, 8 or 6,8,10, got 'x'"),
        (("bench-mul", "--lengths", "1..30000000"),
         "length exponents out of range in '1..30000000'"),
        (("bench-add", "--lengths", "1..1000000000000000"),
         "length exponents out of range in '1..1000000000000000'"),
        (("scale", "--in", "a.pgm", "--out", "b.pgm", "--factor", "1/0"),
         "invalid Fraction value: '1/0'"),
        (("scale", "--in", "a.pgm", "--out", "b.pgm", "--factor", "nan"),
         "invalid Fraction value: 'nan'"),
        (("scale", "--in", "a.pgm", "--out", "b.pgm", "--factor", "1e4400"),
         "bad factor value: decimal exponent beyond +/-4300"),
        (("scale", "--in", "a.pgm", "--out", "b.pgm", "--factor", "1e-4000000"),
         "bad factor value: decimal exponent beyond +/-4300"),
        (("bench-add", "--lengths", "6..y"),
         "expected length exponents such as 6..16, 8 or 6,8,10, got 'y'"),
        (("gen", "--family", "p2lsg", "--count", "2", "--base", "x"),
         "expected an integer or N, got 'x'"),
        (("gen", "--family", "lfsr", "--count", "2", "--taps", "zz"),
         "expected an integer (decimal or 0x hex), got 'zz'"),
    ])
    def test_rejected_flag_value_is_one_line_usage_error(self, capsys, argv, message):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.startswith("usage: sclab ") and "Traceback" not in err
        flag = argv[-2]
        assert err.endswith(f"sclab {argv[0]}: error: argument {flag}: {message}\n")
        assert err.count(": error: ") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        for sub in ("gen", "scc", "bench-mul", "bench-add", "scale", "merge", "score"):
            with pytest.raises(SystemExit) as se:
                main([sub, "--help"])
            assert se.value.code == 0

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "scc", "--a", str(tmp_path / "nope"),
                           "--b", str(tmp_path / "nope"))
        assert code == 3

    def test_domain_error_is_exit_two(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1100\n")
        b.write_text("110010\n")
        code, _, err = run(capsys, "scc", "--a", str(a), "--b", str(b))
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("--family", "lfsr", "--seed", NINES_4300, "--count", "1"),
         "seed 9999...9999 (4300 digits) out of range for 8-bit register"),
        (("--family", "lfsr", "--seed", "1", "--taps", HEX_3500, "--count", "1"),
         "taps mask 0xffff...ffff (3500 digits) out of range for 8-bit register"),
        (("--family", "vdc", "--count", "-" + NINES_4300),
         "--count must be positive, got -9999...9999 (4300 digits)"),
    ], ids=["decimal", "hex", "negative"])
    def test_long_int_in_domain_message_is_elided(self, capsys, argv, message):
        code, _, err = run(capsys, "gen", *argv)
        assert code == 2
        assert err == f"sclab: {message}\n"

    def test_non_utf8_stream_file_is_parse_error(self, capsys, tmp_path):
        bad, ok = tmp_path / "bad.txt", tmp_path / "ok.txt"
        bad.write_bytes(b"\xff0101\n")
        ok.write_text("0101\n")
        code, out, err = run(capsys, "scc", "--a", str(bad), "--b", str(ok))
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("sclab: ") and "byte 0" in err

    def test_parse_error_is_exit_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P4\n1 1\n\x00")
        code, _, err = run(capsys, "score", "--ref", str(bad), "--test", str(bad))
        assert code == 3
        assert "P4" in err


class TestScc:
    def test_equal_files(self, capsys, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("11001010\n")
        code, out, _ = run(capsys, "scc", "--a", str(f), "--b", str(f))
        assert code == 0
        assert out == "1.000000\n"

    def test_raw_format(self, capsys, tmp_path):
        from sclab.bitstream import Bitstream, dump_stream_raw

        f = tmp_path / "s.bin"
        f.write_bytes(dump_stream_raw(Bitstream.from01("1100")))
        code, out, _ = run(capsys, "scc", "--a", str(f), "--b", str(f),
                           "--format", "raw")
        assert code == 0
        assert out == "1.000000\n"

    def test_constant_stream_prints_undefined(self, capsys, tmp_path):
        f = tmp_path / "ones.txt"
        f.write_text("1111\n")
        code, out, _ = run(capsys, "scc", "--a", str(f), "--b", str(f))
        assert code == 0
        assert out == "undefined\n"


class TestBench:
    def test_csv_known_value(self, capsys):
        code, out, _ = run(capsys, "bench-mul", "--seqs", "p2lsg2,p2lsgN",
                           "--lengths", "8", "--out", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "length,mae_percent,wall_seconds"
        assert lines[1].startswith("256,0.390625,")

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "bench-add", "--seqs", "p2lsg", "--lengths",
                           "2..4", "--out", "table")
        assert code == 0
        head, row = out.splitlines()
        assert "2^2" in head and "2^4" in head
        assert "13.40" in row

    @pytest.mark.parametrize("op, lengths", [("mul", "6..8"), ("add", "2..4")])
    def test_default_seqs_is_the_p2lsg_pair(self, capsys, op, lengths):
        code, out, _ = run(capsys, f"bench-{op}", "--lengths", lengths)
        assert code == 0
        assert out.splitlines()[1].startswith(f"p2lsg:base=2 & p2lsg:base=N ({op})")
        assert run(capsys, f"bench-{op}", "--seqs", "p2lsg2,p2lsgN", "--lengths", lengths)[1] == out

    def test_single_family_token(self, capsys):
        code, out, _ = run(capsys, "bench-mul", "--seqs", "hammersley",
                           "--lengths", "6", "--out", "csv")
        assert code == 0
        assert out.splitlines()[1].startswith("64,")

    def test_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench-mul", "--workers", "1"])
        err = capsys.readouterr().err
        assert exc.value.code == 1
        assert err.startswith("usage: sclab ") and err.count("error:") == 1
        assert err.endswith("error: unrecognized arguments: --workers 1\n")

    @pytest.mark.parametrize("bits", ["13", "16"])
    def test_input_bits_over_cap_rejected_before_sweeping(self, capsys, bits):
        start = time.perf_counter()
        code, out, err = run(capsys, "bench-mul", "--seqs", "p2lsg", "--lengths", "6",
                             "--input-bits", bits)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "input_bits must be in 1..12" in err

    def test_input_bits_at_cap_runs(self, capsys):
        code, out, _ = run(capsys, "bench-mul", "--seqs", "p2lsg", "--lengths", "6",
                           "--input-bits", "12", "--out", "csv")
        assert code == 0
        assert out.splitlines()[1].startswith("64,1.9466444849967957,")

    @pytest.mark.parametrize("op", ["mul", "add"])
    @pytest.mark.parametrize("spec", [
        "vdc:base=N", "halton:base=N", "halton:bse=13", "weyl:irrational=1e-1000000",
        "poisson_disk:seed=1,min_distance=1e-99999",
        "poisson_disk:seed=1,min_distance=1/65,max_attempts=1000000",
    ])
    def test_bad_spec_is_one_line_exit_two(self, capsys, op, spec):
        code, out, err = run(capsys, f"bench-{op}", "--seqs", f"{spec},sobol:dim=1",
                             "--lengths", "6")
        assert code == 2 and out == ""
        assert err.count("\n") == 1

    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from(FAMILIES + ("fib",)),
           items=st.lists(st.tuples(
               st.sampled_from(sorted({k for r in _REGISTRY.values() for k in r.params}) + ["bse"]),
               st.integers(-(1 << 90), 1 << 90).map(str)
               | st.sampled_from(["N", "0x71", "1/3", "1/256", "pi", "silver", "1e400", "1/0"])
               | st.text(min_size=1, max_size=6)), max_size=3),
           op=st.sampled_from(["mul", "add"]))
    def test_arbitrary_specs_exit_zero_or_two(self, family, items, op):
        spec = family + (":" + ",".join(f"{k}={v}" for k, v in items) if items else "")
        code, _, err = run_quiet(f"bench-{op}", "--seqs", f"{spec},sobol:dim=1", "--lengths", 6)
        assert code in (0, 2)
        assert err.count("\n") <= 1

    def test_bad_seqs(self, capsys):
        code, _, err = run(capsys, "bench-mul", "--seqs", "p2lsg2", "--lengths", "6")
        assert code == 2

    @pytest.mark.parametrize("seqs, lengths, message", [
        ("sobol:dim=1,bits=7,sobol:dim=2,bits=7", "6..9",
         "index 0 + count 256 exceeds the 2^7 period"),
        ("p2lsg:base=2,bits=7,p2lsg:base=128,bits=7", "6..9",
         "indices 0..255 exceed the counter period 128"),
        ("poisson_disk:seed=1,min_distance=1/100,poisson_disk:seed=2,min_distance=1/100", "6..8",
         "min distance 1/100 cannot fit 128 points in the unit interval"),
    ])
    def test_row_fails_at_its_first_failing_length(self, capsys, seqs, lengths, message):
        # a row whose longest length cannot be built names the first length that cannot
        code, out, err = run(capsys, "bench-mul", "--seqs", seqs, "--lengths", lengths)
        assert code == 2 and out == ""
        assert err == f"sclab: {message}\n"

    def test_deterministic_mae_column(self, capsys):
        args = ("bench-mul", "--seqs", "sobol:dim=1,sobol:dim=2", "--lengths",
                "6,7", "--out", "csv")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        strip = lambda text: [",".join(l.split(",")[:2]) for l in text.splitlines()]
        assert strip(out1) == strip(out2)


@pytest.fixture
def gray_file(tmp_path):
    rng = np.random.default_rng(11)
    path = tmp_path / "img.pgm"
    write_pnm_file(path, rng.integers(0, 200, (16, 16), dtype=np.uint8))
    return path


class TestMediaCommands:
    def test_scale_roundtrip(self, capsys, tmp_path, gray_file):
        out_path = tmp_path / "out.pgm"
        code, _, _ = run(capsys, "scale", "--in", str(gray_file), "--out",
                         str(out_path), "--factor", "2", "--n", "256")
        assert code == 0
        pixels, mode = read_pnm_file(out_path)
        assert mode == "gray" and pixels.shape == (32, 32)

    def test_scale_identity_factor(self, capsys, tmp_path, gray_file):
        out_path = tmp_path / "same.pgm"
        code, _, _ = run(capsys, "scale", "--in", str(gray_file), "--out",
                         str(out_path), "--factor", "1")
        assert code == 0
        original, _ = read_pnm_file(gray_file)
        scaled, _ = read_pnm_file(out_path)
        assert np.array_equal(original, scaled)

    @pytest.mark.parametrize("given", [{}, {"seq_data": "lfsr:seed=3"},
                                       {"seq_u": "halton:base=13", "seq_v": "sobol:dim=3"}])
    def test_scale_passes_only_the_given_specs(self, capsys, tmp_path, gray_file, given):
        flags = [a for k, v in given.items() for a in ("--" + k.replace("_", "-"), v)]
        code, _, _ = run(capsys, "scale", "--in", str(gray_file), "--out", str(tmp_path / "o.pgm"),
                         "--factor", "3/2", "--n", "64", *flags)
        assert code == 0
        want = scale_image_sc(GrayImage(read_pnm_file(gray_file)[0]), Fraction(3, 2), 64,
                              **{k: SequenceSpec.parse(v) for k, v in given.items()})
        assert np.array_equal(read_pnm_file(tmp_path / "o.pgm")[0], want.pixels)

    @pytest.mark.parametrize("given", [{}, {"seq_select": "sobol:dim=3"},
                                       {"seq_data": "lfsr:seed=3", "seq_select": "vdc:base=3"}])
    def test_merge_passes_only_the_given_specs(self, capsys, tmp_path, given):
        rng = np.random.default_rng(5)
        bg, fg = (rng.integers(0, 256, (5, 6, 3), dtype=np.uint8) for _ in range(2))
        alpha = rng.integers(0, 256, (5, 6), dtype=np.uint8)
        for path, pixels in (("bg.ppm", bg), ("fg/f.ppm", fg), ("al/f.pgm", alpha)):
            (tmp_path / path).parent.mkdir(exist_ok=True)
            write_pnm_file(tmp_path / path, pixels)
        flags = [a for k, v in given.items() for a in ("--" + k.replace("_", "-"), v)]
        code, _, _ = run(capsys, "merge", "--bg", str(tmp_path / "bg.ppm"),
                         "--fg-dir", str(tmp_path / "fg"), "--alpha-dir", str(tmp_path / "al"),
                         "--out-dir", str(tmp_path / "out"), "--n", "64", *flags)
        assert code == 0
        want = merge_scene_sc(RgbImage(bg), RgbImage(fg), AlphaMap(alpha), 64,
                              **{k: SequenceSpec.parse(v) for k, v in given.items()})
        assert np.array_equal(read_pnm_file(tmp_path / "out" / "f.ppm")[0], want.pixels)

    def test_merge_chroma_path(self, capsys, tmp_path):
        bg = np.zeros((8, 8, 3), dtype=np.uint8)
        write_pnm_file(tmp_path / "bg.ppm", bg)
        frames = tmp_path / "frames"
        frames.mkdir()
        frame = np.zeros((8, 8, 3), dtype=np.uint8)
        frame[:, :, 1] = 255  # all green screen
        frame[2:6, 2:6] = [200, 30, 30]  # subject block
        write_pnm_file(frames / "frame_000001.ppm", frame)
        out_dir = tmp_path / "merged"
        code, _, _ = run(capsys, "merge", "--bg", str(tmp_path / "bg.ppm"),
                         "--fg-dir", str(frames), "--out-dir", str(out_dir),
                         "--n", "256")
        assert code == 0
        merged, mode = read_pnm_file(out_dir / "frame_000001.ppm")
        assert mode == "rgb"
        assert np.array_equal(merged[0, 0], [0, 0, 0])  # keyed out -> background
        assert np.array_equal(merged[3, 3], [200, 30, 30])  # subject kept

    def test_merge_builds_its_tables_once_per_run(self, capsys, tmp_path, monkeypatch):
        rng = np.random.default_rng(6)
        write_pnm_file(tmp_path / "bg.ppm", rng.integers(0, 256, (6, 7, 3), dtype=np.uint8))
        (tmp_path / "frames").mkdir()
        for i in range(3):
            write_pnm_file(tmp_path / "frames" / f"f{i}.ppm",
                           rng.integers(0, 256, (6, 7, 3), dtype=np.uint8))
        media._merge_tables.cache_clear()
        builds, count_table = [], media.count_table
        monkeypatch.setattr(media, "count_table",
                            lambda *a, **k: builds.append(a) or count_table(*a, **k))
        code, _, _ = run(capsys, "merge", "--bg", str(tmp_path / "bg.ppm"),
                         "--fg-dir", str(tmp_path / "frames"),
                         "--out-dir", str(tmp_path / "out"), "--n", "256")
        assert code == 0 and len(list((tmp_path / "out").iterdir())) == 3
        assert len(builds) == 1
        info = media._merge_tables.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        # the pixel table is None here: at N = 256 the default data routes
        # every sample to itself
        outside, inside, routed = media._merge_tables(256, media.DATA_SPEC,
                                                      media.MERGE_SELECT_SPEC)
        assert routed is None
        for table in (outside, inside):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 1
        assert len(builds) == 1

    def test_merge_alpha_dir_path(self, capsys, tmp_path):
        bg = np.full((4, 4, 3), 10, dtype=np.uint8)
        fg = np.full((4, 4, 3), 250, dtype=np.uint8)
        write_pnm_file(tmp_path / "bg.ppm", bg)
        frames = tmp_path / "frames"
        alphas = tmp_path / "alphas"
        frames.mkdir()
        alphas.mkdir()
        write_pnm_file(frames / "f1.ppm", fg)
        write_pnm_file(alphas / "f1.pgm", np.full((4, 4), 255, dtype=np.uint8))
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "merge", "--bg", str(tmp_path / "bg.ppm"),
                         "--fg-dir", str(frames), "--out-dir", str(out_dir),
                         "--alpha-dir", str(alphas))
        assert code == 0
        merged, _ = read_pnm_file(out_dir / "f1.ppm")
        assert np.all(merged == 250)

    @pytest.mark.parametrize("n, factor", [
        ("1073741824", "2"),
        (str(1 << 25), "2"),
        ("256", "100000"),
        # factors inside the decimal exponent bound whose digits str() cannot convert
        ("256", "1e4300"),
        ("256", "1e-4300"),
    ])
    def test_scale_oversized_rejected_before_allocating(self, capsys, tmp_path, n, factor):
        write_pnm_file(tmp_path / "in.pgm", np.zeros((4, 4), dtype=np.uint8))
        code, out, err = run(capsys, "scale", "--in", str(tmp_path / "in.pgm"),
                             "--out", str(tmp_path / "out.pgm"), "--factor", factor, "--n", n)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("sclab: ") and len(err) <= 200
        assert not (tmp_path / "out.pgm").exists()

    def test_merge_oversized_length_rejected(self, capsys, tmp_path):
        write_pnm_file(tmp_path / "bg.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        (tmp_path / "frames").mkdir()
        write_pnm_file(tmp_path / "frames" / "f1.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        code, out, err = run(capsys, "merge", "--bg", str(tmp_path / "bg.ppm"),
                             "--fg-dir", str(tmp_path / "frames"),
                             "--out-dir", str(tmp_path / "out"), "--n", "1073741824")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "2^24" in err
        assert not (tmp_path / "out").exists()

    def test_merge_makes_its_output_dir_once_per_run(self, capsys, tmp_path, monkeypatch):
        write_pnm_file(tmp_path / "bg.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        (tmp_path / "frames").mkdir()
        for i in range(3):
            write_pnm_file(tmp_path / "frames" / f"f{i}.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        made, mkdir = [], pathlib.Path.mkdir
        monkeypatch.setattr(pathlib.Path, "mkdir",
                            lambda path, *a, **k: made.append(path) or mkdir(path, *a, **k))
        code, _, _ = run(capsys, "merge", "--bg", str(tmp_path / "bg.ppm"),
                         "--fg-dir", str(tmp_path / "frames"),
                         "--out-dir", str(tmp_path / "out"), "--n", "256")
        assert code == 0 and len(list((tmp_path / "out").iterdir())) == 3
        assert made == [tmp_path / "out"]

    # glibc's mallopt where the C library has it; elsewhere merge runs as it is
    @pytest.mark.parametrize("libc", ["glibc", "no mallopt", "no libc"])
    def test_merge_keeps_freed_heap_mapped(self, capsys, tmp_path, monkeypatch, libc):
        calls = []

        def cdll(name):
            if libc == "no libc":
                raise OSError(name)
            return mock.Mock(mallopt=lambda *a: calls.append(a)) if libc == "glibc" else object()

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        write_pnm_file(tmp_path / "bg.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        (tmp_path / "frames").mkdir()
        write_pnm_file(tmp_path / "frames" / "f1.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        code, out, err = run(capsys, "merge", "--bg", str(tmp_path / "bg.ppm"),
                             "--fg-dir", str(tmp_path / "frames"),
                             "--out-dir", str(tmp_path / "out"), "--n", "256")
        assert (code, out, err) == (0, "", "")
        assert (tmp_path / "out" / "f1.ppm").exists()
        assert calls == ([(-1, 1 << 30), (-3, 32 << 20)] if libc == "glibc" else [])

    @pytest.mark.parametrize("bg, n", [("bg.ppm", "3"), ("bg.pgm", "256")])
    def test_merge_rejected_run_leaves_no_output_dir(self, capsys, tmp_path, bg, n):
        write_pnm_file(tmp_path / "bg.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        write_pnm_file(tmp_path / "bg.pgm", np.zeros((4, 4), dtype=np.uint8))
        (tmp_path / "frames").mkdir()
        write_pnm_file(tmp_path / "frames" / "f1.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        code, out, err = run(capsys, "merge", "--bg", str(tmp_path / bg),
                             "--fg-dir", str(tmp_path / "frames"),
                             "--out-dir", str(tmp_path / "out"), "--n", n)
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_score(self, capsys, tmp_path, gray_file):
        code, out, _ = run(capsys, "score", "--ref", str(gray_file),
                           "--test", str(gray_file))
        assert code == 0
        assert out == "PSNR: inf dB\nSSIM: 1.0000\n"

    def test_score_differs(self, capsys, tmp_path, gray_file):
        pixels, _ = read_pnm_file(gray_file)
        other = tmp_path / "other.pgm"
        write_pnm_file(other, pixels + 1)
        code, out, _ = run(capsys, "score", "--ref", str(gray_file),
                           "--test", str(other))
        assert code == 0
        assert out.splitlines()[0] == "PSNR: 48.13 dB"


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------

# every subcommand, each right after a different one, with the flags that have
# defaults left unset (so a default one subcommand read cannot leak into the
# next), and usage errors between them
SUBCOMMAND_CYCLE = [
    ("bench-mul",),
    ("gen", "--family", "vdc", "--base", "3", "--count", "5"),
    ("scale", "--in", "gray.pgm", "--out", "scaled.pgm", "--factor", "2"),
    ("gen", "--family", "p2lsg", "--base", "4", "--count", "4"),
    ("merge", "--bg", "bg.ppm", "--fg-dir", "frames", "--out-dir", "merged"),
    ("scc", "--a", "s1.txt", "--b", "s2.txt"),
    ("bench-add",),
    ("score", "--ref", "gray.pgm", "--test", "gray.pgm"),
    ("gen",),
    ("bench-mul", "--lengths", "x"),
    ("scale", "--in", "gray.pgm", "--out", "scaled.pgm"),
    ("frobnicate",),
    (),
    ("scc", "--a", "s1.txt", "--b", "s2.txt", "--format", "raw"),
    ("merge",),
    ("gen", "--family", "vdc", "--count", "5"),
    ("gen", "--family", "weyl", "--count", "3", "--decimal"),
    ("bench-mul", "--lengths", "6"),
]


@pytest.fixture
def cycle_dir(tmp_path):
    rng = np.random.default_rng(7)
    rgb = rng.integers(0, 256, (8, 9, 3), dtype=np.uint8)
    rgb[:4, :, 1] = 255  # a green-screen half for the chroma key
    # score's SSIM window needs 8x8 pixels
    write_pnm_file(tmp_path / "gray.pgm", rng.integers(0, 256, (8, 9), dtype=np.uint8))
    write_pnm_file(tmp_path / "bg.ppm", rng.integers(0, 256, (8, 9, 3), dtype=np.uint8))
    (tmp_path / "frames").mkdir()
    write_pnm_file(tmp_path / "frames" / "f.ppm", rgb)
    (tmp_path / "s1.txt").write_text("0110" * 20 + "\n")
    (tmp_path / "s2.txt").write_text("1010" * 20 + "\n")
    return tmp_path


class TestOneParserPerProcess:
    def test_main_reuses_one_parser(self):
        assert cli._parser() is cli._parser()

    def test_each_subcommand_after_another_matches_a_fresh_parser(
        self, monkeypatch, cycle_dir
    ):
        monkeypatch.chdir(cycle_dir)
        monkeypatch.setenv("COLUMNS", "80")
        shared = [run_quiet(*argv) for argv in SUBCOMMAND_CYCLE]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_quiet(*argv) for argv in SUBCOMMAND_CYCLE]
        for argv, got, want in zip(SUBCOMMAND_CYCLE, shared, fresh):
            assert got == want, argv
        codes = [code for code, _, _ in shared]
        assert codes == [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 3, 1, 2, 0, 0]
        # the defaults of the subcommand before do not leak: bench-add sweeps
        # its own 2^2..2^9 after bench-mul's 2^6..2^16
        assert shared[6][1].split()[1:3] == ["2^2", "2^3"]

    @pytest.mark.parametrize("argv", [("gen",), ("bench-mul", "--lengths", "x"), ("merge",)])
    def test_usage_wraps_at_the_callers_columns(self, monkeypatch, argv):
        usage = {}
        for columns in ("200", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, err = run_quiet(*argv)
            assert (code, out) == (1, "")
            usage[columns] = err.splitlines()[:-1]
            with monkeypatch.context() as fresh:
                fresh.setattr(cli, "_parser", cli.build_parser)
                assert run_quiet(*argv) == (code, out, err)
        assert len(usage["40"]) > len(usage["200"])
        assert max(map(len, usage["40"])) < max(map(len, usage["200"]))


# ---------------------------------------------------------------------------
# arbitrary argv
# ---------------------------------------------------------------------------

_HUGE = ["9" * 4300, "-" + "9" * 4300, str(1 << 89)]
# text a message may echo: 3000 characters that are not an int
LONG_TEXT = "x" * 3000
# values any flag may draw: huge, negative and 4300-digit ints, and text that
# reaches a parser's edges
_ANY = ["0", "1", "-1", "N", "1e4300", "1..1000000000000000", "nan", "1/0", "", *_HUGE,
        LONG_TEXT]
_IMAGES = ["gray.pgm", "rgb.ppm", "junk.pgm", "dir", "missing.pgm"]
_SPECS = ["p2lsg:base=2", "p2lsg:base=N", "sobol:dim=2", "halton:base=N", "lfsr:seed=1",
          "weyl:irrational=silver", "vdc", "nope", f"halton:base={HEX_4000}", LONG_TEXT]
_LENGTHS = ["2", "256", "4096", "3", str(1 << 25)]
# the only flags that write files; they draw only from their own pool
_OUTPUTS = {"--out": ["out.pgm", "out.ppm", "dir", "missing/x.pgm"],
            "--out-dir": ["outdir", "gray.pgm", "new/outdir"]}
# subcommand -> ({required flag: value pool}, {optional flag: value pool}), a
# pool of None for a switch; counts stay at 64 or below unless past the 2^24
# cap, length exponents at 8 or below
_ARGV_FLAGS = {
    "gen": ({"--family": list(FAMILIES), "--count": ["1", "4", "64", str((1 << 24) + 1)]}, {
        "--index": ["3", "64", str(1 << 24)],
        "--base": ["2", "3", "7", "13", "16", "0x10", str((1 << 89) - 1), HEX_4000],
        "--bits": ["8", "10", "32", "62", "63"],
        "--par": ["2", "4", "3", str(1 << 30)],
        "--dim": ["2", "7", "8"],
        "--irrational": ["pi", "silver", "1/3", "1e-4300", "1e-1000000"],
        "--seed": ["7", "256"],
        "--min-distance": ["1/65", "1/2", "2", "1e-4300"],
        "--max-attempts": ["100", "65537"],
        "--taps": ["0x71", "0xE1", "0x1ff", HEX_4000],
        "--skip": ["5", str(1 << 63)],
        "--scale-bits": ["8", "60", "62", "63"],
        "--decimal": None,
    }),
    "scc": ({"--a": ["s1.txt", "s2.txt"], "--b": ["s1.txt", "s2.txt", "short.txt"]}, {
        "--format": ["ascii", "raw", "bits.bin"],
    }),
    **dict.fromkeys(("bench-mul", "bench-add"), ({
        "--lengths": ["2", "6", "8", "2..4", "6..8", "6,8", "25", "30", "6..3", "1..30000000",
                      "1.." + NINES_4300],
    }, {
        "--seqs": [*FAMILIES, "p2lsg2,p2lsgN", "sobol:dim=1,sobol:dim=2", "p2lsg2",
                   "halton:base=N,vdc:base=2", "weyl:irrational=1e-4300,r2:dim=1",
                   "p2lsg,sobol," + LONG_TEXT],
        "--out": ["table", "csv", "json"],
        "--input-bits": ["4", "8", "13"],
    })),
    "scale": ({"--in": _IMAGES, "--out": _OUTPUTS["--out"],
               "--factor": ["2", "3/2", "1.5", "7/3", "-2", "1/2", "100000", "1e-4300",
                            "1e4400", "1e-4000000", "inf"]}, {
        "--n": _LENGTHS,
        "--seq-data": _SPECS, "--seq-u": _SPECS, "--seq-v": _SPECS,
    }),
    "merge": ({"--bg": _IMAGES, "--fg-dir": ["frames", "mixed", "dir", "gray.pgm"],
               "--out-dir": _OUTPUTS["--out-dir"]}, {
        "--n": _LENGTHS,
        "--alpha-dir": ["alphas", "frames", "dir"],
        "--green-threshold": ["100", "255"],
        "--margin": ["50", "255"],
        "--seq-data": _SPECS, "--seq-select": _SPECS,
    }),
    "score": ({"--ref": _IMAGES, "--test": _IMAGES}, {}),
}
# none of these is a prefix of a flag, so argparse never reads one as an
# abbreviated --out or --out-dir
_JUNK_FLAGS = ["--nope", "--workers", "-z", "-h"]


@st.composite
def argvs(draw):
    """A subcommand (or junk), most of its required flags, some of its optional
    flags and at times a junk flag, in any order, each with a value from its
    pool or from _ANY."""
    command = draw(st.sampled_from([*_ARGV_FLAGS, "frobnicate", ""]))
    required, optional = _ARGV_FLAGS.get(command, ({}, {}))
    keep = st.sampled_from([True] * 7 + [False])  # roughly 7 times in 8
    # bench's --lengths is always given: its 6..16 default would be slow
    names = [f for f in required if f == "--lengths" or draw(keep)]
    names += draw(st.permutations(sorted(optional)))[: draw(st.integers(0, 4))]
    if not draw(keep):
        names.append(draw(st.sampled_from(_JUNK_FLAGS)))
    pools = {**required, **optional}
    argv = [command]
    for name in draw(st.permutations(names)):
        pool = pools.get(name, _ANY)
        argv.append(name)
        if pool is not None:
            # roughly one value in 8 comes from _ANY, except for outputs
            if name not in _OUTPUTS and not draw(keep):
                pool = _ANY
            argv.append(draw(st.sampled_from(pool)))
    return argv


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    """The files `argvs` names: tiny valid P5/P6 images, junk bytes, stream
    files, frame and alpha directories, a plain directory; missing.pgm is not
    made."""
    from sclab.bitstream import Bitstream, dump_stream_raw

    root = tmp_path_factory.mktemp("argv")
    rng = np.random.default_rng(3)
    rgb = rng.integers(0, 256, (4, 4, 3), dtype=np.uint8)
    rgb[:2, :, 1] = 255  # a green-screen half for the chroma key
    write_pnm_file(root / "gray.pgm", rng.integers(0, 256, (4, 4), dtype=np.uint8))
    write_pnm_file(root / "rgb.ppm", rgb)
    (root / "junk.pgm").write_bytes(b"P5\n4 4\n255\n\x00\xff")
    for name in ("dir", "frames", "mixed", "alphas"):
        (root / name).mkdir()
    write_pnm_file(root / "frames" / "f.ppm", rgb)
    write_pnm_file(root / "mixed" / "f.ppm", rgb)
    write_pnm_file(root / "mixed" / "g.pgm", rgb[..., 0])
    write_pnm_file(root / "alphas" / "f.pgm", rng.integers(0, 256, (4, 4), dtype=np.uint8))
    (root / "s1.txt").write_text("0110" * 4 + "\n")
    (root / "s2.txt").write_text("1010" * 4 + "\n")
    (root / "short.txt").write_text("011\n")
    (root / "bits.bin").write_bytes(dump_stream_raw(Bitstream.from01("0110" * 4)))
    return root


class TestArbitraryArgv:
    @settings(max_examples=1000, deadline=None)
    @given(argv=argvs())
    @example(argv=["bench-mul", "--lengths", "1..1000000000000000"])
    @example(argv=["bench-add", "--lengths", "1..30000000"])
    @example(argv=["scale", "--in", "gray.pgm", "--out", "out.pgm", "--factor", "1e4300"])
    @example(argv=["scale", "--in", "gray.pgm", "--out", "out.pgm", "--factor", "1e-4300"])
    @example(argv=["scale", "--in", "gray.pgm", "--out", "out.pgm", "--factor", "1e4400"])
    @example(argv=["scale", "--in", "gray.pgm", "--out", "out.pgm", "--factor", "1e-4000000"])
    @example(argv=["gen", "--family", "vdc", "--count", "9" * 4300, "--index", "9" * 4300])
    @example(argv=["gen", "--family", "p2lsg", "--par", "2", "--count", "9" * 4300])
    @example(argv=["gen", "--family", "halton", "--base", HEX_4000, "--count", "1"])
    @example(argv=["gen", "--family", "p2lsg", "--base", HEX_4000, "--count", "1"])
    @example(argv=["gen", "--family", "lfsr", "--seed", "1", "--taps", HEX_4000, "--count", "1"])
    @example(argv=["bench-mul", "--seqs", f"halton:base={HEX_4000},vdc:base=2", "--lengths", "6"])
    # domain messages that name a long int
    @example(argv=["gen", "--family", "lfsr", "--seed", NINES_4300, "--count", "1"])
    @example(argv=["gen", "--family", "sobol", "--dim", NINES_4300, "--count", "1"])
    @example(argv=["gen", "--family", "lfsr", "--seed", "1", "--taps", HEX_3500, "--count", "1"])
    @example(argv=["gen", "--family", "vdc", "--count", "-" + NINES_4300])
    # messages that echo long text, from the parsers and from the domain checks
    @example(argv=["bench-mul", "--seqs", "p2lsg,sobol," + LONG_TEXT, "--lengths", "6"])
    @example(argv=["gen", "--family", LONG_TEXT])
    @example(argv=["bench-mul", "--lengths", "1.." + NINES_4300])
    def test_exits_with_a_documented_code_and_no_traceback(self, argv_dir, argv):
        # relative paths, junk ones included, resolve inside the fixture directory;
        # usage text wraps at 80 columns whatever the terminal
        cwd = os.getcwd()
        os.chdir(argv_dir)
        try:
            with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
                code, _, err = run_quiet(*argv)
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        lines = err.splitlines()
        if code in (2, 3):
            assert len(lines) == 1 and lines[0].startswith("sclab: ")
        # a usage error prints the usage, then its message
        assert all(len(line) <= 200 for line in lines)
