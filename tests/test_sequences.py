import math
import re
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclab.errors import ConfigurationError, DomainError, GenerationError
from sclab.p2lsg import P2lsgConfig, group_reverse, p2lsg_sequence
from sclab.sequences import (
    _REGISTRY,
    FAMILIES,
    PI_FRACTIONAL,
    SILVER_RATIO,
    SequenceSpec,
    _is_prime,
    Xorshift64Star,
    default_pair,
    gen_faure,
    gen_halton,
    gen_hammersley_pair,
    gen_latin_hypercube,
    gen_lfsr,
    gen_niederreiter,
    gen_poisson_disk,
    gen_r2,
    gen_sobol,
    gen_vdc,
    gen_weyl,
    parse_spec_pair,
    resolve_spec,
    sequence_fractions,
    sequence_numerators,
    sequence_thresholds,
    sobol_direction_vectors,
)


def radical_inverse_oracle(base, index):
    """Digit-string route, independent of the arithmetic in the package."""
    digits = []
    while index:
        digits.append(index % base)
        index //= base
    return sum(Fraction(d, base ** (j + 1)) for j, d in enumerate(digits))


class TestVdc:
    def test_base3_index11(self):
        assert gen_vdc(3, 11) == Fraction(19, 27)

    def test_zero_index(self):
        assert gen_vdc(2, 0) == 0

    def test_base7_index7(self):
        assert gen_vdc(7, 7) == radical_inverse_oracle(7, 7) == Fraction(1, 49)

    def test_bad_base(self):
        with pytest.raises(ConfigurationError):
            gen_vdc(1, 3)

    @pytest.mark.parametrize("base,m", [(2, 6), (3, 4), (5, 3), (7, 2)])
    def test_full_block_is_permutation(self, base, m):
        n = base**m
        scaled = sorted(gen_vdc(base, i) * n for i in range(n))
        assert scaled == list(range(n))


class TestWeyl:
    def test_zero_index(self):
        assert gen_weyl(SILVER_RATIO, 0) == 0

    def test_one_multiple(self):
        assert abs(float(gen_weyl(SILVER_RATIO, 1)) - 0.41421356) < 1e-7

    def test_index5_against_high_precision_oracle(self):
        getcontext().prec = 40
        want = Decimal(5) * (Decimal(2).sqrt() - 1) % 1
        got = gen_weyl(SILVER_RATIO, 5)
        assert abs(Decimal(got.numerator) / Decimal(got.denominator) - want) < Decimal("1e-18")

    def test_pi_constant_against_decimal_literal(self):
        pi_frac = Decimal("0.14159265358979323846264338327950288419716939937510")
        got = Decimal(PI_FRACTIONAL.numerator) / Decimal(PI_FRACTIONAL.denominator)
        getcontext().prec = 40
        assert abs(got - pi_frac) < Decimal("1e-19")

    def test_no_drift_at_large_index(self):
        getcontext().prec = 50
        i = 1 << 16
        want = (Decimal(i) * (Decimal(2).sqrt() - 1)) % 1
        got = gen_weyl(SILVER_RATIO, i)
        # fixed-point error stays below i * 2^-64
        assert abs(Decimal(got.numerator) / Decimal(got.denominator) - want) < Decimal("1e-13")

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ConfigurationError):
            gen_weyl(0, 1)


class TestR2:
    def test_zero(self):
        assert gen_r2(0, 0) == 0

    def test_plastic_constant_by_newton(self):
        x = 1.3
        for _ in range(60):
            x -= (x**3 - x - 1) / (3 * x**2 - 1)
        assert abs(x - 1.32471795724) < 1e-10
        assert abs(float(gen_r2(0, 1)) - 1 / x) < 1e-15
        assert abs(float(gen_r2(1, 1)) - 1 / x**2) < 1e-15

    def test_first_dimension_value(self):
        assert abs(float(gen_r2(0, 1)) - 0.75487766) < 1e-7

    def test_dimension_limit(self):
        with pytest.raises(ConfigurationError):
            gen_r2(2, 1)


class TestHalton:
    def test_single_digits(self):
        assert gen_halton(11, 1) == Fraction(1, 11)
        assert gen_halton(13, 1) == Fraction(1, 13)

    def test_two_digits(self):
        assert gen_halton(11, 12) == radical_inverse_oracle(11, 12) == Fraction(12, 121)

    def test_composite_base_rejected(self):
        with pytest.raises(ConfigurationError):
            gen_halton(12, 1)

    def test_equals_vdc_definitionally(self):
        for i in range(200):
            assert gen_halton(11, i) == gen_vdc(11, i)

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))

        assert [n for n in range(5000) if _is_prime(n)] == [n for n in range(5000) if trial(n)]

    # strong pseudoprimes to the first 4, 9 and 12 prime bases
    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 318665857834031151167461])
    def test_strong_pseudoprimes_rejected(self, n):
        with pytest.raises(ConfigurationError, match="must be prime"):
            gen_halton(n, 1)

    def test_large_prime_bases_bounded(self):
        assert gen_halton((1 << 61) - 1, 1) == Fraction(1, (1 << 61) - 1)
        for family in ("halton:base", "faure:prime"):
            with pytest.raises(ConfigurationError, match="below 2\\^81"):
                sequence_thresholds(SequenceSpec.parse(f"{family}={(1 << 89) - 1}"), 4, 8)


class TestHammersley:
    def test_examples(self):
        assert gen_hammersley_pair(0) == (0, 0)
        assert gen_hammersley_pair(1) == (Fraction(1, 2), Fraction(1, 3))
        assert gen_hammersley_pair(2) == (
            radical_inverse_oracle(2, 2),
            radical_inverse_oracle(3, 2),
        ) == (Fraction(1, 4), Fraction(2, 3))


def pascal_matrix_oracle(p, dim, size):
    """(C^dim)_{j,r} by literal matrix exponentiation of binomials mod p."""
    c = [[math.comb(r, j) % p for r in range(size)] for j in range(size)]
    out = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(dim):
        out = [
            [sum(c[j][k] * out[k][r] for k in range(size)) % p for r in range(size)]
            for j in range(size)
        ]
    return out


class TestFaure:
    def test_dimension0_is_vdc(self):
        assert gen_faure(7, 0, 7) == gen_vdc(7, 7) == Fraction(1, 49)

    def test_zero(self):
        assert gen_faure(7, 0, 0) == 0

    def test_single_digit_fixed_by_first_column(self):
        # oracle: apply the explicit binomial matrix to the digit vector of 3
        mat = pascal_matrix_oracle(7, 1, 1)
        assert mat[0][0] == 1
        assert gen_faure(7, 1, 3) == Fraction(3, 7)

    def test_matches_pascal_matrix_oracle(self):
        size = 4
        for dim in (1, 2):
            mat = pascal_matrix_oracle(7, dim, size)
            for index in (5, 49, 123, 300):
                digits = []
                v = index
                while v:
                    digits.append(v % 7)
                    v //= 7
                digits += [0] * (size - len(digits))
                scrambled = [
                    sum(mat[j][r] * digits[r] for r in range(size)) % 7 for j in range(size)
                ]
                want = sum(Fraction(d, 7 ** (j + 1)) for j, d in enumerate(scrambled))
                assert gen_faure(7, dim, index) == want

    def test_dimension1_full_block_is_permutation(self):
        scaled = sorted(gen_faure(7, 1, i) * 49 for i in range(49))
        assert scaled == list(range(49))

    def test_non_prime_rejected(self):
        with pytest.raises(ConfigurationError):
            gen_faure(8, 0, 1)


def sobol_direct_oracle(dva, index):
    """XOR of direction numbers over the set bits of the index."""
    out = 0
    for j, v in enumerate(dva):
        if (index >> j) & 1:
            out ^= v
    return out


class TestSobol:
    def test_dimension1_equals_bit_reversal(self):
        dva = sobol_direction_vectors(1, 8)
        got = gen_sobol(dva, 4)
        assert list(got) == [0, 128, 64, 192]
        p2 = p2lsg_sequence(P2lsgConfig(2, 8), 256)
        assert np.array_equal(gen_sobol(dva, 256), p2)

    def test_single_element(self):
        assert list(gen_sobol(sobol_direction_vectors(1, 8), 1)) == [0]

    def test_dimension2_against_direct_oracle(self):
        dva = sobol_direction_vectors(2, 8)
        got = gen_sobol(dva, 64)
        assert list(got[:4]) == [0, 128, 192, 64]
        for i in range(64):
            assert got[i] == sobol_direct_oracle(dva, i)

    def test_empty_dva_rejected(self):
        with pytest.raises(ConfigurationError):
            gen_sobol([], 4)

    def test_all_dimensions_against_direct_oracle(self):
        for dim in range(1, 11):
            dva = sobol_direction_vectors(dim, 12)
            got = gen_sobol(dva, 1000).tolist()
            assert got == [sobol_direct_oracle(dva, i) for i in range(1000)]

    def test_full_period_permutation(self):
        for dim in (1, 2, 3):
            vals = gen_sobol(sobol_direction_vectors(dim, 8), 256)
            assert np.array_equal(np.sort(vals), np.arange(256))


def pascal_mod2_matrix(size):
    return [
        sum((math.comb(r, j) % 2) << r for r in range(size))  # row bitmask over columns
        for j in range(size)
    ]


# the irreducible polynomials over GF(2) of dimensions 0..7 as bitmasks:
# x, x+1, x^2+x+1, x^3+x+1, x^3+x^2+1, x^4+x+1, x^4+x^3+1, x^4+x^3+x^2+x+1
NIEDERREITER_POLYS = (0b10, 0b11, 0b111, 0b1011, 0b1101, 0b10011, 0b11001, 0b11111)


def gf2_poly_mul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
    return out


def gf2_poly_quotient(num, den):
    """Quotient of GF(2) polynomial long division, highest term first."""
    quot = 0
    while num.bit_length() >= den.bit_length():
        shift = num.bit_length() - den.bit_length()
        quot |= 1 << shift
        num ^= den << shift
    return quot


def niederreiter_rows_oracle(dimension, bits):
    """Row j (from 0) holds the Laurent coefficients of x^(e-1-u) / p(x)^(Q+1),
    j = Q*e + u: bit r is the coefficient of x^-(r+1), read as the coefficient of
    x^(bits-1-r) in the polynomial quotient of x^(e-1-u+bits) by p(x)^(Q+1)."""
    poly = NIEDERREITER_POLYS[dimension]
    e = poly.bit_length() - 1
    rows = []
    for j in range(bits):
        q, u = divmod(j, e)
        power = 1
        for _ in range(q + 1):
            power = gf2_poly_mul(power, poly)
        quot = gf2_poly_quotient(1 << (e - 1 - u + bits), power)
        rows.append(sum((quot >> (bits - 1 - r) & 1) << r for r in range(bits)))
    return rows


class TestNiederreiter:
    def test_dimension0_is_bit_reversal(self):
        assert list(gen_niederreiter(0, 4, 8)) == [0, 128, 64, 192]

    def test_single(self):
        assert list(gen_niederreiter(0, 1, 8)) == [0]

    def test_dimension1_matrix_is_pascal_mod2(self):
        # brute-force GF(2) oracle: polynomial x+1 must give binomial rows
        from sclab.sequences import _niederreiter_rows

        rows = _niederreiter_rows(1, 8)
        assert list(rows) == pascal_mod2_matrix(8)

    @pytest.mark.parametrize("dimension", range(len(NIEDERREITER_POLYS)))
    def test_matrix_matches_laurent_oracle(self, dimension):
        from sclab.sequences import _niederreiter_rows

        # the first `bits` columns of a row do not depend on how many follow
        full = niederreiter_rows_oracle(dimension, 63)
        for bits in range(1, 64):
            want = [row & ((1 << bits) - 1) for row in full[:bits]]
            assert list(_niederreiter_rows(dimension, bits)) == want, bits

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
        assert list(gen_niederreiter(1, 4, 8)) == want

    def test_unsupported_dimension(self):
        with pytest.raises(ConfigurationError):
            gen_niederreiter(99, 4, 8)

    def test_full_period_permutation_low_dims(self):
        for dim in (0, 1):
            vals = gen_niederreiter(dim, 256, 8)
            assert np.array_equal(np.sort(vals), np.arange(256))

    def test_indices_past_63_bits_rejected(self):
        assert gen_niederreiter(2, 1, 8, skip=(1 << 63) - 1).size == 1
        with pytest.raises(DomainError, match="2\\^63"):
            gen_niederreiter(2, 2, 8, skip=(1 << 63) - 1)

    def test_skip_drops_prefix(self):
        base = gen_niederreiter(2, 64, 8)
        skipped = gen_niederreiter(2, 32, 8, skip=32)
        assert np.array_equal(base[32:], skipped)


class TestLatinHypercube:
    def test_stratification_forced(self):
        for seed in (1, 2, 99):
            a, b = sorted(gen_latin_hypercube(2, seed))
            assert 0 <= a < Fraction(1, 2) <= b < 1

    def test_single_point(self):
        (v,) = gen_latin_hypercube(1, 5)
        assert 0 <= v < 1

    def test_exactly_one_per_stratum(self):
        n = 16
        vals = gen_latin_hypercube(n, 123)
        strata = sorted(int(v * n) for v in vals)
        assert strata == list(range(n))

    def test_frozen_fixture_seed42(self):
        assert gen_latin_hypercube(4, 42) == [
            Fraction(8755189686511543, 18014398509481984),
            Fraction(33906643930411521, 36028797018963968),
            Fraction(25542073943907321, 36028797018963968),
            Fraction(1839447601500613, 36028797018963968),
        ]

    def test_zero_points_rejected(self):
        with pytest.raises(DomainError):
            gen_latin_hypercube(0, 1)

    def test_deterministic(self):
        assert gen_latin_hypercube(32, 7) == gen_latin_hypercube(32, 7)


class TestPoissonDisk:
    def test_single_point(self):
        (v,) = gen_poisson_disk(1, Fraction(1, 10), 3)
        assert 0 <= v < 1

    def test_min_distance_property(self):
        pts = gen_poisson_disk(10, Fraction(1, 50), 11)
        for i, a in enumerate(pts):
            for b in pts[i + 1 :]:
                assert abs(a - b) >= Fraction(1, 50)

    def test_frozen_fixture(self):
        got = gen_poisson_disk(8, Fraction(1, 20), 7)
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
            gen_poisson_disk(30, Fraction(1, 10), 1)

    def test_attempts_exhausted(self):
        with pytest.raises(GenerationError):
            gen_poisson_disk(20, Fraction(1, 21), 1, max_attempts=2)


def lfsr_oracle(taps, seed, count, bits=8):
    """Independent bit-list simulation of the Fibonacci register."""
    state = [int(b) for b in f"{seed:0{bits}b}"[::-1]]  # state[k] = bit k
    out = []
    for _ in range(count):
        out.append(sum(b << k for k, b in enumerate(state)))
        new = 0
        for k in range(bits):
            if (taps >> k) & 1:
                new ^= state[k]
        state = state[1:] + [new]
    return out


class TestLfsr:
    def test_frozen_triple_matches_hand_step(self):
        assert lfsr_oracle(0x71, 1, 3) == [1, 128, 64]
        assert list(gen_lfsr(0x71, 1, 3)) == [1, 128, 64]

    def test_matches_oracle_longer(self):
        assert list(gen_lfsr(0x71, 1, 300)) == lfsr_oracle(0x71, 1, 300)

    def test_maximal_period(self):
        states = gen_lfsr(0x71, 1, 256)
        assert len(set(states[:255].tolist())) == 255
        assert states[255] == states[0]

    def test_never_zero(self):
        assert not np.any(gen_lfsr(0x71, 1, 255) == 0)

    def test_zero_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            gen_lfsr(0x71, 0, 3)


def star_discrepancy(points):
    pts = sorted(float(p) for p in points)
    n = len(pts)
    return max(
        max(abs((i + 1) / n - x), abs(x - i / n)) for i, x in enumerate(pts)
    )


def test_weyl_beats_prng_discrepancy():
    for k in (6, 8, 10, 12):
        n = 1 << k
        weyl = [gen_weyl(SILVER_RATIO, i) for i in range(n)]
        rng = Xorshift64Star(12345)
        prng = [Fraction(rng.next_u53(), 1 << 53) for _ in range(n)]
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
            from sclab.sequences import sequence_fractions

            vals = sequence_fractions(spec, 50)
            for t, v in zip(thr, vals):
                assert t == (v.numerator * 256) // v.denominator

    @pytest.mark.parametrize("text,oracle", [
        ("halton:base=11", lambda i: gen_vdc(11, i)),
        ("halton:base=13", lambda i: gen_vdc(13, i)),
        ("vdc:base=2", lambda i: gen_vdc(2, i)),
        ("vdc:base=3", lambda i: gen_vdc(3, i)),
        ("hammersley:dim=1", lambda i: gen_vdc(3, i)),
        ("faure:prime=7,dim=0", lambda i: gen_faure(7, 0, i)),
        ("faure:prime=7,dim=1", lambda i: gen_faure(7, 1, i)),
        ("faure:prime=7,dim=2", lambda i: gen_faure(7, 2, i)),
        ("faure:prime=7,dim=3", lambda i: gen_faure(7, 3, i)),
    ])
    def test_digit_thresholds_match_scalar_generators(self, text, oracle):
        from sclab.sequences import sequence_fractions

        spec = SequenceSpec.parse(text)
        for count in (1, 50, 1000, 2500):  # none a power of 2, 3, 7, 11 or 13
            want = [oracle(i) for i in range(count)]
            for bits in (1, 8, 62):
                got = sequence_thresholds(spec, count, bits).tolist()
                assert got == [(v.numerator << bits) // v.denominator for v in want]
            assert sequence_fractions(spec, count - 1, start=1) == want[1:]

    @pytest.mark.parametrize("text,oracle", [
        ("p2lsg:base=16,bits=8",
         lambda end: [Fraction(group_reverse(i, 8, 16), 256) for i in range(end)]),
        ("sobol:dim=3,bits=8",
         lambda end: [Fraction(int(v), 256) for v in gen_sobol(sobol_direction_vectors(3, 8), end)]),
        ("niederreiter:dim=2,skip=7",
         lambda end: [Fraction(int(v), 256) for v in gen_niederreiter(2, end, 8, skip=7)]),
        ("lfsr:seed=5", lambda end: [Fraction(int(v), 256) for v in gen_lfsr(0x71, 5, end)]),
        ("weyl:irrational=silver", lambda end: [gen_weyl(SILVER_RATIO, i) for i in range(end)]),
        ("r2:dim=1", lambda end: [gen_r2(1, i) for i in range(end)]),
        ("hammersley", lambda end: [gen_hammersley_pair(i)[0] for i in range(end)]),
        ("faure:prime=5,dim=2", lambda end: [gen_faure(5, 2, i) for i in range(end)]),
        ("latin_hypercube:seed=5", lambda end: gen_latin_hypercube(end, 5)),
        ("poisson_disk:seed=3", lambda end: gen_poisson_disk(end, Fraction(1, 4 * end), 3)),
    ])
    def test_every_family_from_any_start_matches_scalar_generators(self, text, oracle):
        spec = SequenceSpec.parse(text)
        want = oracle(40)
        for start in (0, 1, 17):
            assert sequence_fractions(spec, 40 - start, start=start) == want[start:]
            num, den = sequence_numerators(spec, 40 - start, start=start)
            assert [Fraction(n, den) for n in num.tolist()] == want[start:]
            for bits in (3, 62):
                got = sequence_thresholds(spec, 40 - start, bits, start=start).tolist()
                assert got == [(v.numerator << bits) // v.denominator for v in want[start:]]

    def test_negative_start_rejected(self):
        for text in ("p2lsg:base=2,bits=8", "vdc:base=2", "weyl", "sobol:dim=2,bits=8"):
            with pytest.raises(DomainError, match="non-negative"):
                sequence_numerators(SequenceSpec.parse(text), 4, start=-1)

    def test_faure_negative_dimension_rejected(self):
        with pytest.raises(ConfigurationError, match="dimension"):
            sequence_thresholds(SequenceSpec.parse("faure:prime=7,dim=-1"), 4, 8)

    @pytest.mark.parametrize("text,oracle", [
        ("vdc:base=100000000000000000000", lambda i: gen_vdc(10**20, i)),
        ("faure:prime=3037000507,dim=1", lambda i: gen_faure(3037000507, 1, i)),
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


def _values(spec, count, start):
    num, den = sequence_numerators(spec, count, start)
    return [Fraction(v, den) for v in num.tolist()]


class TestRandomAccess:
    """`sequence_numerators(spec, count, start)` from starts on either side of
    the chunk edges radix^c of the table paths: 256 for the byte tables of
    sobol, niederreiter and p2lsg, p^m <= 4096 for the digit families.  Each
    count is larger than the tables, so the tables are what runs."""

    # (spec, oracle of index i, starts at chunk edges, count)
    SCALAR = [
        ("vdc:base=2", lambda i: gen_vdc(2, i), (4095, 4096, 4096**2 - 1, 4096**2), 4500),
        ("vdc:base=3", lambda i: gen_vdc(3, i), (2186, 2187, 2187**2 - 1, 2187**2), 2500),
        ("halton:base=11", lambda i: gen_halton(11, i), (1330, 1331, 1331**2 - 1, 1331**2), 1500),
        ("hammersley:dim=1", lambda i: gen_hammersley_pair(i)[1], (2186, 2187), 2500),
        ("faure:prime=7,dim=0", lambda i: gen_faure(7, 0, i), (2400, 2401, 2401**2 - 1), 2500),
        ("faure:prime=7,dim=1", lambda i: gen_faure(7, 1, i), (2400, 2401), 2500),
        ("faure:prime=5,dim=3", lambda i: gen_faure(5, 3, i), (624, 625), 700),
        ("sobol:dim=3,bits=24",
         lambda i: Fraction(sobol_direct_oracle(sobol_direction_vectors(3, 24), i), 1 << 24),
         (255, 256, 65535, 65536), 1000),
        ("p2lsg:base=16,bits=24", lambda i: Fraction(group_reverse(i, 24, 16), 1 << 24),
         (255, 256, 65535, 65536), 1000),
        ("p2lsg:base=8,bits=40", lambda i: Fraction(group_reverse(i, 40, 8), 1 << 40),
         ((1 << 32) - 1, 1 << 32), 1500),
    ]

    @pytest.mark.parametrize("text,oracle,starts,count", SCALAR)
    def test_matches_scalar_oracles(self, text, oracle, starts, count):
        spec = SequenceSpec.parse(text)
        for start in starts:
            assert _values(spec, count, start) == [oracle(i) for i in range(start, start + count)]

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
        assert _values(spec, 2500, start) == [gen_vdc(3, i) for i in range(start, start + 2500)]

    def test_sobol_and_niederreiter_from_deep_in_the_period(self):
        # from index 0 these runs would take 2^40 values
        start = (1 << 40) - 3
        dva = sobol_direction_vectors(5, 40)
        num, den = sequence_numerators(SequenceSpec.parse("sobol:dim=5,bits=40"), 3, start)
        assert den == 1 << 40
        assert num.tolist() == [sobol_direct_oracle(dva, i) for i in range(start, start + 3)]
        # 32 of the 40 bits the indices need, through the Laurent-series rows
        rows = [row & ((1 << 40) - 1) for row in niederreiter_rows_oracle(4, 63)[:40]]
        want = [sum((bin(i & row).count("1") & 1) << (39 - j) for j, row in enumerate(rows)) >> 8
                for i in range(start, start + 3)]
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
