import hashlib
import math
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIXED64,
    NIEDERREITER_POLYS,
    digit_oracle,
    fractions,
    lfsr_oracle,
    niederreiter_oracle,
    niederreiter_rows_oracle,
    numerators,
    pascal_matrix_oracle,
    poisson_disk_oracle,
    radical_inverse,
    sobol_direction_numbers,
    sobol_oracle,
    weyl_oracle,
)
from sclab.errors import ConfigurationError, DomainError, GenerationError
from sclab.p2lsg import P2lsgConfig, p2lsg_sequence
from sclab.sequences import (
    _REGISTRY,
    FAMILIES,
    PI_FRACTIONAL,
    SequenceSpec,
    _is_prime,
    _xorshift64star,
    default_pair,
    parse_spec_pair,
    resolve_spec,
    sequence_numerators,
    sequence_thresholds,
)


class TestVdc:
    def test_base3_index11(self):
        assert fractions("vdc:base=3", 1, 11) == [Fraction(19, 27)]

    def test_zero_index(self):
        assert fractions("vdc:base=2", 1) == [0]

    def test_base7_index7(self):
        assert fractions("vdc:base=7", 1, 7) == [radical_inverse(7, 7)] == [Fraction(1, 49)]

    def test_bad_base(self):
        with pytest.raises(ConfigurationError):
            fractions("vdc:base=1", 1, 3)

    @pytest.mark.parametrize("base,m", [(2, 6), (3, 4), (5, 3), (7, 2)])
    def test_full_block_is_permutation(self, base, m):
        n = base**m
        scaled = sorted(v * n for v in fractions(f"vdc:base={base}", n))
        assert scaled == list(range(n))


class TestWeyl:
    def test_zero_index(self):
        assert fractions("weyl:irrational=silver", 1) == [0]

    def test_one_multiple(self):
        assert abs(float(fractions("weyl:irrational=silver", 1, 1)[0]) - 0.41421356) < 1e-7

    def test_index5_against_high_precision_oracle(self):
        (got,) = fractions("weyl:irrational=silver", 1, 5)
        with localcontext() as ctx:
            ctx.prec = 40
            want = Decimal(5) * (Decimal(2).sqrt() - 1) % 1
            assert abs(Decimal(got.numerator) / Decimal(got.denominator) - want) < Decimal("1e-18")

    def test_pi_constant_against_decimal_literal(self):
        pi_frac = Decimal("0.14159265358979323846264338327950288419716939937510")
        with localcontext() as ctx:
            ctx.prec = 40
            got = Decimal(PI_FRACTIONAL.numerator) / Decimal(PI_FRACTIONAL.denominator)
            assert abs(got - pi_frac) < Decimal("1e-19")

    def test_no_drift_at_large_index(self):
        i = 1 << 16
        (got,) = fractions("weyl:irrational=silver", 1, i)
        with localcontext() as ctx:
            ctx.prec = 50
            want = (Decimal(i) * (Decimal(2).sqrt() - 1)) % 1
            # fixed-point error stays below i * 2^-64
            assert abs(Decimal(got.numerator) / Decimal(got.denominator) - want) < Decimal("1e-13")

    @pytest.mark.parametrize("text", FIXED64)
    def test_weyl_and_r2_match_fixed_point_oracle(self, text):
        for start in (0, (1 << 24) - 1000):
            want = [weyl_oracle(FIXED64[text], i) for i in range(start, start + 1000)]
            assert fractions(text, 1000, start) == want

    @pytest.mark.parametrize("text", ["weyl:irrational=pi", "weyl:irrational=silver", "r2:dim=1"])
    def test_indices_past_2_to_the_64_wrap(self, text):
        # i * alpha mod 2^64 depends only on i mod 2^64
        for k in (0, 5, 12345):
            for wraps in (1, 64):  # from 2^64 + k and 2^70 + k
                assert numerators(text, 300, (wraps << 64) + k) == numerators(text, 300, k)
        edge = 1 << 64
        across, _ = numerators(text, 300, edge - 100)
        assert across == numerators(text, 100, edge - 100)[0] + numerators(text, 200, edge)[0]
        assert fractions(text, 300, edge - 100) == [
            weyl_oracle(FIXED64[text], i) for i in range(edge - 100, edge + 200)]

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ConfigurationError):
            fractions("weyl:irrational=0", 1, 1)

    @pytest.mark.parametrize("text", ["2", "3/1", "1e-30", "1.0000000000000000000001",
                                      "1e-4300", "7.0"])
    def test_rejects_alpha_without_fractional_bits(self, text):
        # frac(alpha) * 2^64 floors to 0, so every value would be 0
        with pytest.raises(ConfigurationError, match="no fractional part in 64 bits"):
            fractions(f"weyl:irrational={text}", 4)

    def test_one_fractional_bit_in_64_is_kept(self):
        assert fractions("weyl:irrational=2.0000000000000000000543", 2) == [0, Fraction(1, 1 << 64)]


class TestR2:
    def test_zero(self):
        assert fractions("r2:dim=0", 1) == [0]

    def test_plastic_constant_by_newton(self):
        x = 1.3
        for _ in range(60):
            x -= (x**3 - x - 1) / (3 * x**2 - 1)
        assert abs(x - 1.32471795724) < 1e-10
        assert abs(float(fractions("r2:dim=0", 1, 1)[0]) - 1 / x) < 1e-15
        assert abs(float(fractions("r2:dim=1", 1, 1)[0]) - 1 / x**2) < 1e-15

    def test_first_dimension_value(self):
        assert abs(float(fractions("r2:dim=0", 1, 1)[0]) - 0.75487766) < 1e-7

    def test_dimension_limit(self):
        with pytest.raises(ConfigurationError):
            fractions("r2:dim=2", 1, 1)


class TestHalton:
    def test_single_digits(self):
        assert fractions("halton:base=11", 1, 1) == [Fraction(1, 11)]
        assert fractions("halton:base=13", 1, 1) == [Fraction(1, 13)]

    def test_two_digits(self):
        assert fractions("halton:base=11", 1, 12) == [radical_inverse(11, 12)]
        assert radical_inverse(11, 12) == Fraction(12, 121)

    def test_composite_base_rejected(self):
        with pytest.raises(ConfigurationError):
            fractions("halton:base=12", 1, 1)

    def test_equals_vdc_definitionally(self):
        assert fractions("halton:base=11", 200) == fractions("vdc:base=11", 200)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

        assert [n for n in range(5000) if _is_prime(n)] == [n for n in range(5000) if trial(n)]

    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 318665857834031151167461])
    def test_strong_pseudoprimes_rejected(self, n):
        with pytest.raises(ConfigurationError, match="must be prime"):
            fractions(f"halton:base={n}", 1, 1)

    def test_large_prime_bases_bounded(self):
        assert fractions(f"halton:base={(1 << 61) - 1}", 1, 1) == [Fraction(1, (1 << 61) - 1)]
        for family in ("halton:base", "faure:prime"):
            with pytest.raises(ConfigurationError, match="below 2\\^81"):
                sequence_thresholds(SequenceSpec.parse(f"{family}={(1 << 89) - 1}"), 4, 8)


class TestHammersley:
    def test_examples(self):
        pairs = list(zip(fractions("hammersley:dim=0", 3), fractions("hammersley:dim=1", 3)))
        assert pairs[0] == (0, 0)
        assert pairs[1] == (Fraction(1, 2), Fraction(1, 3))
        assert pairs[2] == (
            radical_inverse(2, 2),
            radical_inverse(3, 2),
        ) == (Fraction(1, 4), Fraction(2, 3))


class TestFaure:
    def test_dimension0_is_vdc(self):
        assert fractions("faure:prime=7,dim=0", 1, 7) == fractions("vdc:base=7", 1, 7) == [
            Fraction(1, 49)]

    def test_zero(self):
        assert fractions("faure:prime=7,dim=0", 1) == [0]

    def test_single_digit_fixed_by_first_column(self):
        # oracle: apply the explicit binomial matrix to the digit vector of 3
        mat = pascal_matrix_oracle(7, 1, 1)
        assert mat[0][0] == 1
        assert fractions("faure:prime=7,dim=1", 1, 3) == [Fraction(3, 7)]

    def test_matches_pascal_matrix_oracle(self):
        for dim in (1, 2):
            for index in (5, 49, 123, 300):
                want = radical_inverse(7, index, dim)
                assert fractions(f"faure:prime=7,dim={dim}", 1, index) == [want]

    def test_dimension1_full_block_is_permutation(self):
        scaled = sorted(v * 49 for v in fractions("faure:prime=7,dim=1", 49))
        assert scaled == list(range(49))

    def test_non_prime_rejected(self):
        with pytest.raises(ConfigurationError):
            fractions("faure:prime=8,dim=0", 1, 1)

def sobol_values(dim, bits, count):
    return numerators(f"sobol:dim={dim},bits={bits}", count)[0]


class TestSobol:
    def test_dimension1_equals_bit_reversal(self):
        assert sobol_values(1, 8, 4) == [0, 128, 64, 192]
        p2 = p2lsg_sequence(P2lsgConfig(2, 8), 256)
        assert sobol_values(1, 8, 256) == p2.tolist()

    def test_single_element(self):
        assert sobol_values(1, 8, 1) == [0]

    def test_direction_number_oracle_dimension2(self):
        # x + 1 with m_1 = 1: the published m_k = 1, 3, 5, 15, 17, 51, 85, 255
        dva = sobol_direction_numbers(2, 8)
        assert [v >> (8 - k) for k, v in enumerate(dva, 1)] == [1, 3, 5, 15, 17, 51, 85, 255]

    def test_dimension2_against_direct_oracle(self):
        got = sobol_values(2, 8, 64)
        assert got[:4] == [0, 128, 192, 64]
        assert got == [sobol_oracle(2, 8, i) for i in range(64)]

    @pytest.mark.parametrize("dim", [0, 11])
    def test_dimension_without_direction_numbers_rejected(self, dim):
        message = f"no direction numbers for sobol dimension {dim} "
        with pytest.raises(ConfigurationError, match=message):
            sobol_values(dim, 8, 4)

    def test_all_dimensions_against_direct_oracle(self):
        for dim in range(1, 11):
            assert sobol_values(dim, 12, 1000) == [sobol_oracle(dim, 12, i) for i in range(1000)]

    def test_full_period_permutation(self):
        for dim in (1, 2, 3):
            assert sorted(sobol_values(dim, 8, 256)) == list(range(256))


def pascal_mod2_matrix(size):
    return [
        sum((math.comb(r, j) % 2) << r for r in range(size))  # row bitmask over columns
        for j in range(size)
    ]


def niederreiter_rows(dimension, bits):
    """The package's generator matrix, stored as columns, read back as rows:
    row j, the top output bit first, as a bitmask over index bits."""
    from sclab.sequences import _niederreiter_cols

    cols = _niederreiter_cols(dimension, bits, bits)
    return [sum((c >> (bits - 1 - j) & 1) << r for r, c in enumerate(cols)) for j in range(bits)]


def niederreiter_values(text, count):
    return numerators(f"niederreiter:{text}", count)[0]


class TestNiederreiter:
    def test_dimension0_is_bit_reversal(self):
        assert niederreiter_values("dim=0,bits=8", 4) == [0, 128, 64, 192]

    def test_single(self):
        assert niederreiter_values("dim=0,bits=8", 1) == [0]

    def test_dimension1_matrix_is_pascal_mod2(self):
        # brute-force GF(2) oracle: polynomial x+1 must give binomial rows
        assert niederreiter_rows(1, 8) == pascal_mod2_matrix(8)

    @pytest.mark.parametrize("dimension", range(len(NIEDERREITER_POLYS)))
    def test_matrix_matches_laurent_oracle(self, dimension):
        # the first `bits` columns of a row do not depend on how many follow
        full = niederreiter_rows_oracle(dimension, 63)
        for bits in range(1, 64):
            want = [row & ((1 << bits) - 1) for row in full[:bits]]
            assert niederreiter_rows(dimension, bits) == want, bits

    @pytest.mark.parametrize("dimension", range(len(NIEDERREITER_POLYS)))
    def test_columns_of_the_top_rows(self, dimension):
        from sclab.sequences import _niederreiter_cols

        full = _niederreiter_cols(dimension, 63, 63)
        for n in (1, 8, 20, 32):
            assert _niederreiter_cols(dimension, 63, n) == tuple(c >> (63 - n) for c in full), n

    def test_dimension1_first_outputs(self):
        # frozen from the matrix oracle: digits of i through the Pascal rows
        rows = pascal_mod2_matrix(8)
        want = []
        for i in range(4):
            x = 0
            for j, row in enumerate(rows):
                if bin(row & i).count("1") % 2:
                    x |= 1 << (7 - j)
            want.append(x)
        assert want == [0, 128, 192, 64]
        assert niederreiter_values("dim=1,bits=8", 4) == want

    def test_unsupported_dimension(self):
        with pytest.raises(ConfigurationError):
            niederreiter_values("dim=99,bits=8", 4)

    def test_full_period_permutation_low_dims(self):
        for dim in (0, 1):
            assert sorted(niederreiter_values(f"dim={dim},bits=8", 256)) == list(range(256))

    def test_indices_past_63_bits_rejected(self):
        assert len(niederreiter_values(f"dim=2,bits=8,skip={(1 << 63) - 1}", 1)) == 1
        with pytest.raises(DomainError, match="2\\^63"):
            niederreiter_values(f"dim=2,bits=8,skip={(1 << 63) - 1}", 2)

    def test_skip_drops_prefix(self):
        base = niederreiter_values("dim=2,bits=8", 64)
        skipped = niederreiter_values("dim=2,bits=8,skip=32", 32)
        assert base[32:] == skipped


def latin_values(n_points, seed):
    """The first n_points latin_hypercube values: numerators over N * 2^53."""
    return fractions(f"latin_hypercube:seed={seed}", n_points)


def poisson_values(n_points, min_distance, seed, max_attempts=10000):
    """The first n_points poisson_disk values: numerators over 2^53."""
    spec = SequenceSpec("poisson_disk", (("seed", seed), ("min_distance", str(min_distance)),
                                         ("max_attempts", max_attempts)))
    return fractions(spec, n_points)


class TestLatinHypercube:
    def test_stratification_forced(self):
        for seed in (1, 2, 99):
            a, b = sorted(latin_values(2, seed))
            assert 0 <= a < Fraction(1, 2) <= b < 1

    def test_single_point(self):
        (v,) = latin_values(1, 5)
        assert 0 <= v < 1

    def test_exactly_one_per_stratum(self):
        n = 16
        vals = latin_values(n, 123)
        strata = sorted(int(v * n) for v in vals)
        assert strata == list(range(n))

    def test_frozen_fixture_seed42(self):
        assert latin_values(4, 42) == [
            Fraction(8755189686511543, 18014398509481984),
            Fraction(33906643930411521, 36028797018963968),
            Fraction(25542073943907321, 36028797018963968),
            Fraction(1839447601500613, 36028797018963968),
        ]

    def test_zero_points_rejected(self):
        with pytest.raises(DomainError):
            latin_values(0, 1)

    def test_deterministic(self):
        assert numerators("latin_hypercube:seed=7", 32) == numerators("latin_hypercube:seed=7", 32)


# spacings for the cell rule: none, below one 2^-53 unit, exact multiples of
# 2^-53 and each +/- one unit (cell widths 1, 2, 3, 2^33 and 3 * 2^43, and
# about 1/(2N) and 1/N for N = 60), and spacings that are no multiple of 2^-53
_UNIT = Fraction(1, 1 << 53)
_SPACINGS = [0, Fraction("1e-30"), *(
    (k + d) * _UNIT for k in (2, 1 << 33, 3 << 43, (1 << 53) // 120, (1 << 53) // 60)
    for d in (-1, 0, 1)
), Fraction(1, 3000), Fraction("0.000123"), Fraction(1, 120)]


class TestPoissonDisk:
    def test_single_point(self):
        (v,) = poisson_values(1, Fraction(1, 10), 3)
        assert 0 <= v < 1

    def test_min_distance_property(self):
        pts = poisson_values(10, Fraction(1, 50), 11)
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                assert abs(a - b) >= Fraction(1, 50)

    def test_frozen_fixture(self):
        got = poisson_values(8, Fraction(1, 20), 7)
        assert [float(v) for v in got] == pytest.approx(
            [
                0.8202466665411988,
                0.9282901565044228,
                0.08934959275158794,
                0.3745358319130615,
                0.17070585314500986,
                0.6792016658519566,
                0.9841048315913734,
                0.47017993276948344,
            ],
            abs=0,
        )

    def test_infeasible_spacing(self):
        with pytest.raises(GenerationError):
            poisson_values(30, Fraction(1, 10), 1)

    def test_attempts_exhausted(self):
        with pytest.raises(GenerationError):
            poisson_values(20, Fraction(1, 21), 1, max_attempts=2)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("spacing", _SPACINGS, ids=str)
    def test_cell_rule_matches_all_pairs_oracle(self, seed, spacing):
        # 60 points: about 1/60 apart the throws jam after 43 to 47 points, so
        # those cases end on an exhausted budget
        want = poisson_disk_oracle(60, spacing, seed, 2000)
        assert want is not None
        if isinstance(want, int):
            with pytest.raises(GenerationError, match=re.escape(
                    f"after 2000 consecutive rejections ({want}/60 points placed)")):
                poisson_values(60, spacing, seed, 2000)
        else:
            assert poisson_values(60, spacing, seed, 2000) == want

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_spacing_equal_to_a_drawn_gap(self, seed, shift):
        # the first two draws lie exactly `gap` units apart: the second is kept
        # at spacing gap - 1 and gap (|u - p| >= r) and rejected at gap + 1
        draws = _xorshift64star(seed)
        first, second = (next(draws) >> 11 for _ in range(2))
        spacing = (abs(first - second) + shift) * _UNIT
        want = poisson_disk_oracle(2, spacing, seed, 1000)
        assert (want[1] == second * _UNIT) == (shift < 1)
        assert poisson_values(2, spacing, seed, 1000) == want

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("units, n", [(0, 40), (Fraction("1e-30"), 40), (1, 40), (2, 16),
                                          (Fraction(5, 2), 12), (3, 10), (4, 8)])
    def test_cell_rule_on_clustered_draws(self, monkeypatch, seed, units, n):
        # draws in 0..47 units: repeats, neighbours and points on cell edges,
        # which 2^53-unit draws never give
        def clustered(seed):
            rng = random.Random(seed)
            while True:
                yield rng.randrange(48) << 11
        monkeypatch.setattr("sclab.sequences._xorshift64star", clustered)
        monkeypatch.setattr("conftest._xorshift64star", clustered)
        want = poisson_disk_oracle(n, units * _UNIT, seed, 300)
        assert isinstance(want, list)
        assert poisson_values(n, units * _UNIT, seed, 300) == want

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("n, spacing, attempts", [
        (11, Fraction(1, 10), 100), (2, 1, 100), (3, Fraction(1, 2), 100), (5, -_UNIT, 100),
        (30, Fraction(1, 10), 100), (1 << 20, (1 << 33) * _UNIT, 1),
        (20, Fraction(1, 21), 2), (9, Fraction(1, 9) - _UNIT, 1), (60, Fraction(1, 70), 50),
        (100, Fraction(1, 101), 1000), (200, Fraction(1, 400), 3),
    ])
    def test_infeasible_and_exhausted_match_oracle(self, seed, n, spacing, attempts):
        want = poisson_disk_oracle(n, spacing, seed, attempts)
        message = "cannot fit" if want is None else re.escape(
            f"after {attempts} consecutive rejections ({want}/{n} points placed)")
        with pytest.raises(GenerationError, match=message):
            poisson_values(n, spacing, seed, attempts)


class TestLfsr:
    def test_frozen_triple_matches_hand_step(self):
        assert lfsr_oracle(0x71, 1, 3) == [1, 128, 64]
        assert numerators("lfsr:seed=1", 3)[0] == [1, 128, 64]

    def test_matches_oracle_longer(self):
        assert numerators("lfsr:seed=1", 300)[0] == lfsr_oracle(0x71, 1, 300)

    def test_maximal_period(self):
        states = numerators("lfsr:seed=1", 256)[0]
        assert len(set(states[:255])) == 255
        assert states[255] == states[0]

    def test_never_zero(self):
        assert 0 not in numerators("lfsr:seed=1", 255)[0]

    def test_zero_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            numerators("lfsr:seed=0", 3)


def star_discrepancy(points):
    pts = sorted(float(p) for p in points)
    n = len(pts)
    return max(
        max(abs((i + 1) / n - x), abs(x - i / n)) for i, x in enumerate(pts)
    )


def test_weyl_beats_prng_discrepancy():
    for k in (6, 8, 10, 12):
        n = 1 << k
        weyl = fractions("weyl:irrational=silver", n)
        draws = _xorshift64star(12345)
        prng = [Fraction(next(draws) >> 11, 1 << 53) for _ in range(n)]
        assert star_discrepancy(weyl) < star_discrepancy(prng)


# spec values that describe() prints and parse() reads back: integers for
# integer parameters (and p2lsg's base=N), else text without the `,` that
# separates parameters or the spaces parse() strips
_SPEC_TEXT = st.text(st.characters(blacklist_characters=",", blacklist_categories=("Cs",)),
                     min_size=1).map(str.strip).filter(bool)


@st.composite
def registered_specs(draw):
    family = draw(st.sampled_from(FAMILIES))
    declared = _REGISTRY[family].params
    params = []
    for key in draw(st.lists(st.sampled_from(list(declared)), unique=True)):
        if declared[key] is int or isinstance(declared[key], int):
            values = st.integers() | st.just("N") if (family, key) == ("p2lsg", "base") else st.integers()
        else:
            values = _SPEC_TEXT
        params.append((key, draw(values)))
    return SequenceSpec(family, tuple(params))


def readme_family_table():
    """{family: [defaults, required, stream-length rules, pair]} as the
    backquoted tokens of README's family table."""
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| family | parameters (default) | required | from stream length N "
                        "| default pair |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [re.findall(r"`([^`]*)`", cell) for cell in line.strip("|").split("|")]
        rows[cells[0][0]] = cells[1:]
    return rows


class TestSequenceSpec:
    @settings(max_examples=200, deadline=None)
    @given(spec=registered_specs())
    def test_parse_describe_round_trip(self, spec):
        assert SequenceSpec.parse(spec.describe()) == spec

    @pytest.mark.parametrize("text", ["halton:bse=13", "sobol:dim=2,seed=1", "p2lsg:base=2,prime=3"])
    def test_undeclared_key_names_the_family_parameters(self, text):
        family = text.partition(":")[0]
        known = ", ".join(_REGISTRY[family].params)
        with pytest.raises(ConfigurationError, match=re.escape(f"(known: {known})")):
            SequenceSpec.parse(text)

    @pytest.mark.parametrize("text", ["vdc:base=N", "halton:base=N", "faure:prime=N",
                                      "sobol:bits=N", "lfsr:seed=N", "p2lsg:bits=N"])
    def test_n_is_only_p2lsg_base(self, text):
        with pytest.raises(ConfigurationError, match="is not an integer"):
            SequenceSpec.parse(text)

    @pytest.mark.parametrize("text, key", [
        ("vdc", "base"), ("p2lsg:bits=4", "base"), ("latin_hypercube", "seed"),
        ("poisson_disk", "seed"), ("lfsr:taps=0x71", "seed"),
    ])
    def test_required_parameter_checked(self, text, key):
        given = SequenceSpec.parse(text)
        # a stream length fills the alias base=N, never a missing base
        for spec in (given, resolve_spec(given, 16)):
            with pytest.raises(ConfigurationError, match=f"{given.family} spec needs {key}="):
                sequence_thresholds(spec, 16, 8)

    def test_unresolved_base_n_rejected(self):
        with pytest.raises(ConfigurationError, match="power of 2"):
            sequence_thresholds(SequenceSpec.parse("p2lsgN"), 16, 8)

    def test_resolve_rejects_lengths_past_2_to_the_24(self):
        assert resolve_spec(SequenceSpec.parse("p2lsgN"), 1 << 24).get("bits") == 24
        with pytest.raises(ConfigurationError, match=re.escape("2..2^24, got 33554432")):
            resolve_spec(SequenceSpec.parse("p2lsgN"), 1 << 25)

    def test_get_reads_family_defaults(self):
        assert SequenceSpec.parse("halton").get("base") == 11
        assert SequenceSpec.parse("weyl").get("irrational") == "pi"
        assert SequenceSpec.parse("lfsr:seed=3").get("taps") == 0x71

    def test_resolve_fills_only_what_the_spec_leaves_out(self):
        assert resolve_spec(SequenceSpec.parse("poisson_disk:seed=1"), 64).get("min_distance") == "1/256"
        assert resolve_spec(SequenceSpec.parse("sobol:bits=5"), 64).get("bits") == 5
        assert resolve_spec(SequenceSpec.parse("lfsr:seed=1"), 64) == SequenceSpec.parse("lfsr:seed=1")

    def test_readme_family_table_matches_registry(self):
        rows = readme_family_table()
        assert list(rows) == list(FAMILIES)
        rules = {"N": lambda n: n, "log2(N)": lambda n: n.bit_length() - 1,
                 "1/(4N)": lambda n: f"1/{4 * n}"}
        for family, (defaults, required, sized, pair) in rows.items():
            record = _REGISTRY[family]
            documented = {}
            for token in defaults:
                key, eq, value = token.partition("=")
                documented[key] = (int(value, 0) if value.isdigit() or value.startswith("0x")
                                   else value) if eq else None
            assert documented == {k: v for k, v in record.params.items() if v is not int}
            assert required == [k for k, v in record.params.items() if v is int]
            assert pair == list(record.pair)
            assert [token.partition("=")[0] for token in sized] == list(record.sized)
            for token in sized:  # each documented rule is what resolve_spec does
                key, _, rule = token.partition("=")
                spec = SequenceSpec(family, ((key, "N"),) if record.params[key] is int else ())
                for n in (64, 4096):
                    assert resolve_spec(spec, n).get(key) == rules[rule](n)

    def test_parse_with_params(self):
        spec = SequenceSpec.parse("p2lsg:base=16,bits=8")
        assert spec.family == "p2lsg"
        assert spec.get("base") == 16
        assert spec.get("bits") == 8

    def test_aliases(self):
        assert SequenceSpec.parse("p2lsg2").get("base") == 2
        assert SequenceSpec.parse("p2lsgN").get("base") == "N"

    def test_unknown_family(self):
        with pytest.raises(ConfigurationError):
            SequenceSpec.parse("fibonacci")

    def test_malformed_param(self):
        with pytest.raises(ConfigurationError):
            SequenceSpec.parse("p2lsg:base")

    def test_pair_splitting_reattaches_params(self):
        a, b = parse_spec_pair("p2lsg:base=16,bits=8,p2lsg:base=2,bits=8")
        assert a.describe() == "p2lsg:base=16,bits=8"
        assert b.describe() == "p2lsg:base=2,bits=8"

    def test_resolve_base_n(self):
        spec = resolve_spec(SequenceSpec.parse("p2lsgN"), 1 << 10)
        assert spec.get("base") == 1 << 10
        assert spec.get("bits") == 10

    @pytest.mark.parametrize("family", ["nope", "p2lsgN", "VDC"])
    def test_default_pair_of_an_unknown_family(self, family):
        with pytest.raises(ConfigurationError,
                           match=f"^no default sequence pair for family '{family}'$"):
            default_pair(family)

    def test_default_pairs_resolve(self):
        for family in FAMILIES:
            a, b = default_pair(family, 256)
            ta = sequence_thresholds(a, 64, 8)
            tb = sequence_thresholds(b, 64, 8)
            assert len(ta) == len(tb) == 64
            assert int(ta.max()) < 256 and int(ta.min()) >= 0


class TestThresholds:
    def test_p2lsg_thresholds_scale(self):
        spec = resolve_spec(SequenceSpec.parse("p2lsg:base=2"), 16)  # bits=4
        thr = sequence_thresholds(spec, 16, 8)
        assert list(thr[:4]) == [0, 128, 64, 192]

    def test_threshold_equals_floor_of_scaled_fraction(self):
        for text in ("vdc:base=3", "halton:base=11", "faure:prime=7,dim=1",
                     "weyl:irrational=silver", "r2:dim=1"):
            spec = SequenceSpec.parse(text)
            thr = sequence_thresholds(spec, 50, 8)
            vals = fractions(spec, 50)
            for t, v in zip(thr, vals):
                assert t == (v.numerator * 256) // v.denominator

    @pytest.mark.parametrize("text,oracle", [
        ("halton:base=11", lambda i: radical_inverse(11, i)),
        ("halton:base=13", lambda i: radical_inverse(13, i)),
        ("vdc:base=2", lambda i: radical_inverse(2, i)),
        ("vdc:base=3", lambda i: radical_inverse(3, i)),
        ("hammersley:dim=0", lambda i: radical_inverse(2, i)),
        ("hammersley:dim=1", lambda i: radical_inverse(3, i)),
        # at p = 2 the sums are XORs: of disjoint bits, and of digits taken mod 2
        ("faure:prime=2,dim=1", lambda i: radical_inverse(2, i, 1)),
        ("faure:prime=2,dim=3", lambda i: radical_inverse(2, i, 3)),
        ("faure:prime=7,dim=0", lambda i: radical_inverse(7, i)),
        ("faure:prime=7,dim=1", lambda i: radical_inverse(7, i, 1)),
        ("faure:prime=7,dim=2", lambda i: radical_inverse(7, i, 2)),
        ("faure:prime=7,dim=3", lambda i: radical_inverse(7, i, 3)),
        ("faure:prime=7,dim=7", lambda i: radical_inverse(7, i, 7)),  # C^7 = I mod 7
    ])
    def test_digit_thresholds_match_radical_inverse_oracle(self, text, oracle):
        spec = SequenceSpec.parse(text)
        for count in (1, 50, 1000, 2500):  # none a power of 2, 3, 7, 11 or 13
            want = [oracle(i) for i in range(count)]
            for bits in (1, 8, 62):
                got = sequence_thresholds(spec, count, bits).tolist()
                assert got == [(v.numerator << bits) // v.denominator for v in want]
            assert fractions(spec, count, start=1) == want[1:] + [oracle(count)]

    @pytest.mark.parametrize("text,oracle", [
        ("p2lsg:base=16,bits=8",
         lambda end: [Fraction(digit_oracle(i, 8, 16), 256) for i in range(end)]),
        ("sobol:dim=3,bits=8",
         lambda end: [Fraction(sobol_oracle(3, 8, i), 256) for i in range(end)]),
        ("niederreiter:dim=2,skip=7",
         lambda end: [Fraction(niederreiter_oracle(2, 8, i + 7), 256) for i in range(end)]),
        ("lfsr:seed=5", lambda end: [Fraction(v, 256) for v in lfsr_oracle(0x71, 5, end)]),
        ("weyl:irrational=silver",
         lambda end: [weyl_oracle(FIXED64["weyl:irrational=silver"], i) for i in range(end)]),
        ("r2:dim=1", lambda end: [weyl_oracle(FIXED64["r2:dim=1"], i) for i in range(end)]),
        ("hammersley", lambda end: [radical_inverse(2, i) for i in range(end)]),
        ("faure:prime=5,dim=2", lambda end: [radical_inverse(5, i, 2) for i in range(end)]),
        ("latin_hypercube:seed=5", lambda end: latin_values(end, 5)),
        ("poisson_disk:seed=3", lambda end: poisson_disk_oracle(end, Fraction(1, 4 * end), 3)),
    ])
    def test_every_family_from_any_start_matches_oracles(self, text, oracle):
        spec = SequenceSpec.parse(text)
        want = oracle(40)
        for start in (0, 1, 17):
            assert fractions(spec, 40 - start, start=start) == want[start:]
            for bits in (3, 62):
                got = sequence_thresholds(spec, 40 - start, bits, start=start).tolist()
                assert got == [(v.numerator << bits) // v.denominator for v in want[start:]]

    def test_negative_start_rejected(self):
        for text in ("p2lsg:base=2,bits=8", "vdc:base=2", "weyl", "sobol:dim=2,bits=8"):
            with pytest.raises(DomainError, match="non-negative"):
                sequence_numerators(SequenceSpec.parse(text), 4, start=-1)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("count, start, message", [
        (0, 0, "count must be positive, got 0"),
        (-3, 0, "count must be positive, got -3"),
        (4, -1, "index must be non-negative, got -1"),
    ])
    def test_one_run_check_for_every_family(self, family, count, start, message):
        # the default pairs' first specs; poisson_disk's, without min_distance,
        # would space its points 1/(4 * (start + count))
        spec = default_pair(family)[0]
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            sequence_numerators(spec, count, start)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            sequence_thresholds(spec, count, 8, start)

    def test_faure_negative_dimension_rejected(self):
        with pytest.raises(ConfigurationError, match="dimension"):
            sequence_thresholds(SequenceSpec.parse("faure:prime=7,dim=-1"), 4, 8)

    @pytest.mark.parametrize("text,oracle", [
        ("vdc:base=100000000000000000000", lambda i: radical_inverse(10**20, i)),
        ("faure:prime=3037000507,dim=1", lambda i: radical_inverse(3037000507, i, 1)),
    ])
    def test_digit_thresholds_past_int64(self, text, oracle):
        # p^L >= 2^62, or a Pascal product past 2^63, runs in Python integers
        got = sequence_thresholds(SequenceSpec.parse(text), 6, 62).tolist()
        assert got == [(oracle(i).numerator << 62) // oracle(i).denominator for i in range(6)]

    @pytest.mark.parametrize("bits", [0, -1, 63, 64])
    def test_bits_out_of_range_rejected(self, bits):
        for text in ("halton:base=13", "sobol:dim=2,bits=8", "weyl"):
            with pytest.raises(ConfigurationError, match="bits must be in 1..62"):
                sequence_thresholds(SequenceSpec.parse(text), 4, bits)

    def test_seeded_family_requires_seed(self):
        with pytest.raises(ConfigurationError):
            sequence_thresholds(SequenceSpec.parse("latin_hypercube"), 16, 8)

    def test_determinism(self):
        for text in ("p2lsg:base=4,bits=8", "sobol:dim=2,bits=8",
                     "latin_hypercube:seed=9", "poisson_disk:seed=9,min_distance=1/64"):
            spec = SequenceSpec.parse(text)
            a = sequence_thresholds(spec, 32, 8)
            b = sequence_thresholds(spec, 32, 8)
            assert np.array_equal(a, b)


class TestRandomAccess:
    """`sequence_numerators(spec, count, start)` from starts on either side of
    the edges of `digital_outputs`' tables and of its tables' tables: 2^12
    for sobol, niederreiter and p2lsg, the largest p^m <= 4096 for the digit
    families."""

    # (spec, oracle of index i, starts at chunk edges, count)
    SCALAR = [
        ("vdc:base=2", lambda i: radical_inverse(2, i), (4095, 4096, 4096**2 - 1, 4096**2), 4500),
        ("vdc:base=3", lambda i: radical_inverse(3, i), (2186, 2187, 2187**2 - 1, 2187**2), 2500),
        ("halton:base=11", lambda i: radical_inverse(11, i),
         (1330, 1331, 1331**2 - 1, 1331**2), 1500),
        ("hammersley:dim=1", lambda i: radical_inverse(3, i), (2186, 2187), 2500),
        ("faure:prime=7,dim=0", lambda i: radical_inverse(7, i), (2400, 2401, 2401**2 - 1), 2500),
        ("faure:prime=7,dim=1", lambda i: radical_inverse(7, i, 1), (2400, 2401), 2500),
        ("faure:prime=5,dim=3", lambda i: radical_inverse(5, i, 3), (624, 625), 700),
        ("sobol:dim=3,bits=24",
         lambda i: Fraction(sobol_oracle(3, 24, i), 1 << 24),
         (255, 256, 4095, 4096, 65535, 65536), 1000),
        ("p2lsg:base=16,bits=24", lambda i: Fraction(digit_oracle(i, 24, 16), 1 << 24),
         (255, 256, 4095, 4096, 65535, 65536), 1000),
        ("p2lsg:base=8,bits=40", lambda i: Fraction(digit_oracle(i, 40, 8), 1 << 40),
         ((1 << 32) - 1, 1 << 32), 1500),
    ]

    @pytest.mark.parametrize("text,oracle,starts,count", SCALAR)
    def test_matches_scalar_oracles(self, text, oracle, starts, count):
        spec = SequenceSpec.parse(text)
        for start in starts:
            assert fractions(spec, count, start) == [oracle(i) for i in range(start, start + count)]

    @pytest.mark.parametrize("text,oracle", [
        ("vdc:base=2", lambda i: radical_inverse(2, i)),
        ("vdc:base=3", lambda i: radical_inverse(3, i)),
        ("vdc:base=10", lambda i: radical_inverse(10, i)),
        ("halton:base=13", lambda i: radical_inverse(13, i)),
        ("hammersley:dim=1", lambda i: radical_inverse(3, i)),
        ("faure:prime=7,dim=0", lambda i: radical_inverse(7, i)),
        ("faure:prime=7,dim=1", lambda i: radical_inverse(7, i, 1)),
        ("faure:prime=3,dim=2", lambda i: radical_inverse(3, i, 2)),
        ("faure:prime=5,dim=3", lambda i: radical_inverse(5, i, 3)),
        ("faure:prime=4099,dim=1", lambda i: radical_inverse(4099, i, 1)),
        ("sobol:dim=3,bits=16", lambda i: Fraction(sobol_oracle(3, 16, i), 1 << 16)),
        ("niederreiter:dim=4,bits=12,skip=4096",
         lambda i: Fraction(niederreiter_oracle(4, 12, 4096 + i), 1 << 12)),
        ("p2lsg:base=8,bits=16", lambda i: Fraction(digit_oracle(i, 16, 8), 1 << 16)),
    ])
    def test_tiny_tables_cross_edges_at_every_level(self, monkeypatch, text, oracle):
        # tables of one base-p digit (two bits for p = 2), and none for p >= 5,
        # whose lowest digits are peeled from the run itself: the runs cross
        # table or digit edges at several levels of digital_outputs
        monkeypatch.setattr("sclab.p2lsg.TABLE_SIZE", 4)
        spec = SequenceSpec.parse(text)
        for start, count in ((0, 300), (1000, 300), (4093, 4), (12345, 1)):
            assert fractions(spec, count, start) == [
                oracle(i) for i in range(start, start + count)], (start, count)

    @pytest.mark.parametrize("text,start,count", [
        ("vdc:base=2", 4095, 4500),
        ("vdc:base=3", 2186, 2500),
        ("halton:base=13", 2196, 2500),
        ("hammersley:dim=0", 4096, 4500),
        ("faure:prime=7,dim=0", 2400, 2500),
        ("faure:prime=3,dim=2", 728, 800),
        ("sobol:dim=2,bits=20", 65535, 1000),
        ("niederreiter:dim=3,bits=10,skip=5", 255, 1000),
        ("niederreiter:dim=2,skip=4096", 65535, 1000),
        ("p2lsg:base=4,bits=20", 65536, 1000),
        ("weyl:irrational=pi", 4095, 100),
        ("r2:dim=1", 4096, 100),
        ("lfsr:seed=5", 255, 300),
        # past int64: p^L >= 2^62, or a Pascal product past 2^63, in Python integers
        ("vdc:base=100000000000000000000", 9, 6),
        ("faure:prime=3037000507,dim=1", 9, 6),
    ])
    def test_matches_the_slice_of_a_run_from_zero(self, text, start, count):
        spec = SequenceSpec.parse(text)
        whole, den = sequence_numerators(spec, start + count)
        num, den_from_start = sequence_numerators(spec, count, start)
        assert den_from_start == den and num.dtype == whole.dtype
        assert num.tolist() == whole[start:].tolist()

    def test_object_dtype_tables_cross_a_chunk_edge(self):
        # 3^43 > 2^62: int64 cannot hold the numerators, and the run crosses the
        # edge (3^7)^6 of the base-3 tables
        spec = SequenceSpec.parse("vdc:base=3")
        start = 3**42 - 1200
        num, _ = sequence_numerators(spec, 2500, start)
        assert num.dtype == object
        want = [radical_inverse(3, i) for i in range(start, start + 2500)]
        assert fractions(spec, 2500, start) == want

    # (spec, p, m): p^m is the digit families' table, the largest p^m <= 4096
    DIGIT_TABLES = [("vdc:base=3", 3, 7), ("halton:base=13", 13, 3),
                    ("hammersley:dim=0", 2, 12), ("faure:prime=7,dim=0", 7, 4)]

    @pytest.mark.parametrize("text,p,m", DIGIT_TABLES)
    def test_runs_either_side_of_one_table(self, text, p, m):
        # counts p^m - 1, p^m and p^m + 1 from starts inside a table's span:
        # each run spans two values of index // p^m
        q = p**m
        spec = SequenceSpec.parse(text)
        for start in (5 * q + q // 2, q * q + q // 2 + 1):
            for count in (q - 1, q, q + 1):
                want = [radical_inverse(p, i) for i in range(start, start + count)]
                assert fractions(spec, count, start) == want, (start, count)

    @pytest.mark.parametrize("text,p,m", DIGIT_TABLES)
    def test_runs_with_a_single_high_part(self, text, p, m):
        q = p**m
        spec = SequenceSpec.parse(text)
        # every index of the run shares index // p^m
        assert fractions(spec, q - 3, 9 * q + 2) == [
            radical_inverse(p, i) for i in range(9 * q + 2, 10 * q - 1)]
        # the high parts have one digit: the indices need m + 1 digits
        assert fractions(spec, q + 7, q // 3) == [
            radical_inverse(p, i) for i in range(q // 3, q // 3 + q + 7)]

    @pytest.mark.parametrize("start,dtype", [
        (3**39 - 2500, np.int64),  # ends at 3^39 - 1: 39 digits, 3^39 < 2^62
        (3**39 - 1250, object),  # crosses 3^39: 40 digits, 3^40 > 2^62
        (3**40 - 2500, object),
        (3**40 - 1250, object),  # crosses 3^40: 41 digits
    ])
    def test_vdc3_either_side_of_the_int64_boundary(self, start, dtype):
        spec = SequenceSpec.parse("vdc:base=3")
        num, _ = sequence_numerators(spec, 2500, start)
        assert num.dtype == dtype
        assert fractions(spec, 2500, start) == [
            radical_inverse(3, i) for i in range(start, start + 2500)]

    def test_sobol_and_niederreiter_from_deep_in_the_period(self):
        # from index 0 these runs would take 2^40 values
        start = (1 << 40) - 3
        num, den = sequence_numerators(SequenceSpec.parse("sobol:dim=5,bits=40"), 3, start)
        assert den == 1 << 40
        assert num.tolist() == [sobol_oracle(5, 40, i) for i in range(start, start + 3)]
        # 32 of the 40 bits the indices need, through the Laurent-series rows
        rows = [row & ((1 << 40) - 1) for row in niederreiter_rows_oracle(4, 63)[:40]]
        want = [sum((bin(i & row).count("1") & 1) << (39 - j) for j, row in enumerate(rows)) >> 8
                for i in range(start, start + 3)]
        assert want == [niederreiter_oracle(4, 32, i) for i in range(start, start + 3)]
        num, den = sequence_numerators(SequenceSpec.parse("niederreiter:dim=4,bits=32"), 3, start)
        assert den == 1 << 32 and num.tolist() == want

    def test_negative_niederreiter_skip_still_rejected_with_a_start(self):
        spec = SequenceSpec.parse("niederreiter:dim=2,skip=-3")
        with pytest.raises(DomainError, match="skip must be non-negative"):
            sequence_numerators(spec, 4, start=10)

    def test_sobol_end_past_the_period_rejected(self):
        spec = SequenceSpec.parse("sobol:dim=2,bits=8")
        assert sequence_numerators(spec, 6, 250)[0].size == 6
        with pytest.raises(DomainError, match="2\\^8 period"):
            sequence_numerators(spec, 7, 250)


# Every linear family's route through sequence_numerators, and every check it
# runs, in one SHA-256: digit bases either side of the 4096-entry tables and of
# int64 (object numerators), Faure's scrambled digit vectors (p = 2 sums by
# XOR), sobol to 62 bits, niederreiter with 63-bit index columns from skips
# near 2^63, p2lsg, and one spec for each message.  Each cell hashes the
# numerators' dtype and denominator, their bytes as <i8 (repr(tolist()) for
# object arrays) and the 8-bit thresholds, or the error's type and text.
# To re-record it, run from the repository root
#     PYTHONPATH=src:tests python3 -c "import test_sequences as t; print(t.linear_grid_digest())"
# on the parent commit for a refactor, or on the change itself for an
# intended change of values or messages.
LINEAR_GRID = (
    "vdc:base=2", "vdc:base=3", "vdc:base=10", "vdc:base=4097", "vdc:base=65537",
    "vdc:base=4611686018427387847", "halton:base=13", "halton:base=4099",
    f"halton:base={(1 << 61) - 1}", "hammersley:dim=0", "hammersley:dim=1",
    "faure:prime=2,dim=0", "faure:prime=2,dim=1", "faure:prime=2,dim=3",
    "faure:prime=3,dim=3", "faure:prime=5,dim=2", "faure:prime=7,dim=1",
    "faure:prime=4099,dim=1", "faure:prime=4099,dim=2",
    "faure:prime=1000003,dim=0", "faure:prime=1000003,dim=1",
    "sobol:dim=3,bits=20", "sobol:dim=7,bits=62", "sobol:dim=11,bits=4",
    "niederreiter:dim=2,skip=4096", "niederreiter:dim=4,bits=3",
    f"niederreiter:dim=5,bits=32,skip={(1 << 63) - (1 << 41)}",
    f"niederreiter:dim=7,bits=20,skip={(1 << 63) - 4096}",
    "p2lsg:base=2,bits=62", "p2lsg:base=8,bits=20", "p2lsg:base=16,bits=62",
    # the checks, each before the next in its family's order
    "vdc", "vdc:base=1", "vdc:base=-3", "halton:base=12", "halton:base=1",
    f"halton:base={1 << 81}", "faure:prime=4,dim=-1", "faure:prime=7,dim=-1",
    "hammersley:dim=2", "hammersley:dim=-1", "sobol:bits=0", "sobol:dim=11,bits=63",
    "niederreiter:dim=9,bits=33,skip=-1", "niederreiter:dim=9,bits=0",
    "niederreiter:dim=9,skip=-1", f"niederreiter:dim=9,skip={1 << 63}",
    "niederreiter:dim=9", "p2lsg:base=3", "p2lsg:base=4,bits=63",
)
GRID_RUNS = ((0, 1), (0, 4096), (777, 70001), (1 << 20, 513), ((1 << 40) + 3, 100), (255, 2))
LINEAR_GRID_DIGEST = "8d6df5d130caf9480185e4e276b279ca6432b708064934ed8d183c2295c83393"


def linear_grid_digest():
    digest = hashlib.sha256()
    for text in LINEAR_GRID:
        spec = SequenceSpec.parse(text)
        for start, count in GRID_RUNS:
            try:
                num, den = sequence_numerators(spec, count, start)
                thresholds = sequence_thresholds(spec, count, 8, start)
            except (ConfigurationError, DomainError) as exc:
                digest.update(f"{type(exc).__name__}: {exc}\n".encode())
                continue
            digest.update(f"{num.dtype.str} {den}\n".encode())
            digest.update(repr(num.tolist()).encode() if num.dtype == object
                          else num.astype("<i8").tobytes())
            digest.update(thresholds.astype("<i8").tobytes())
    return digest.hexdigest()


def test_linear_grid_bytes_unchanged():
    assert linear_grid_digest() == LINEAR_GRID_DIGEST


# the scalar generators that duplicated sequence_numerators' route, the
# seeded families' former generator class, the per-family generator
# functions beside sequence_numerators, the GF(2) byte-table kernel that
# digital_outputs replaced, and the digit families' own route that
# _generator replaced
REMOVED_NAMES = ("gen_vdc", "gen_halton", "gen_hammersley_pair", "gen_faure", "_faure_digits",
                 "gen_weyl", "gen_r2", "sequence_fractions", "group_reverse", "Xorshift64Star",
                 "gen_sobol", "sobol_direction_vectors", "gen_niederreiter", "gen_lfsr",
                 "gen_latin_hypercube", "gen_poisson_disk", "gf2_outputs", "_radical_inverse",
                 "_digit_base", "_check_prime")


def test_readme_library_sketch_runs_as_written(capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    pixels = (np.arange(12 * 16).reshape(12, 16) * 7 % 256).astype(np.uint8)
    names = {"pixels": pixels}
    exec(compile(sketch, "README.md", "exec"), names)
    sclab = names["sclab"]
    assert sclab.decode_unipolar(sclab.mul_unipolar(names["x"], names["y"])) == Fraction(1, 8)
    assert names["out"].pixels.shape == (24, 32)
    header, row = capsys.readouterr().out.splitlines()[:2]
    assert header.split()[1:] == [f"2^{e}" for e in range(6, 17)]
    assert row.startswith("p2lsg:base=2 & p2lsg:base=N (mul)")
    for module in (sclab, sclab.sequences, sclab.p2lsg):
        assert [name for name in REMOVED_NAMES if hasattr(module, name)] == []
