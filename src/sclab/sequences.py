"""Reference implementations of the random / low-discrepancy sequence families.

Digit-based families (vdc, halton, hammersley, faure) return exact rationals.
Additive-recurrence families (weyl, r2) run in 64-fractional-bit fixed point so
every value is an exact dyadic rational, bit-reproducible across platforms.
Binary-matrix families (sobol, niederreiter) and the lfsr emit n-bit integers.
Seeded families (latin_hypercube, poisson_disk) draw from xorshift64*.

`SequenceSpec` is the tagged description used by the CLI and the benchmark
harness; `sequence_thresholds` turns any family into the comparator-ready
integer form floor(2^bits * r_i).
"""

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError, GenerationError
from .p2lsg import P2lsgConfig, p2lsg_sequence

_M64 = (1 << 64) - 1

# floor((pi - 3) * 2^64); fractional part of pi in 64-bit fixed point
PI_FRACTIONAL = Fraction(2611923443488327891, 1 << 64)
# floor((sqrt(2) - 1) * 2^64), derived exactly from the integer square root
SILVER_RATIO = Fraction(math.isqrt(1 << 129) - (1 << 64), 1 << 64)
# 1/rho and 1/rho^2 where rho is the real root of x^3 = x + 1 (plastic constant)
_INV_PLASTIC_64 = (13925035116211876495, 10511698010929265436)

# Fibonacci LFSR recurrence mask for x^8 + x^6 + x^5 + x^4 + 1 (maximal, period 255)
LFSR_DEFAULT_TAPS = 0x71
LFSR_DEFAULT_BITS = 8

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _is_prime(n):
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    f = 17
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def rescale_integers(values, from_bits, to_bits):
    """floor(2^to_bits * v / 2^from_bits) elementwise; lossless when widening."""
    values = np.asarray(values, dtype=np.int64)
    if from_bits >= to_bits:
        return values >> (from_bits - to_bits)
    return values << (to_bits - from_bits)


# ---------------------------------------------------------------------------
# digit-reversal families
# ---------------------------------------------------------------------------

def gen_vdc(base, index):
    """Radical inverse: the base-B digits of index mirrored across the radix point."""
    if base < 2:
        raise ConfigurationError(f"vdc base must be >= 2, got {base}")
    if index < 0:
        raise DomainError(f"index must be non-negative, got {index}")
    num, den = 0, 1
    while index:
        num = num * base + index % base
        index //= base
        den *= base
    return Fraction(num, den)


def gen_halton(prime_base, index):
    """Van der Corput in a prime base; dimensions pair distinct primes."""
    if not _is_prime(prime_base):
        raise ConfigurationError(f"halton base must be prime, got {prime_base}")
    return gen_vdc(prime_base, index)


def gen_hammersley_pair(index):
    """The base-2 / base-3 radical-inverse pair."""
    return gen_vdc(2, index), gen_vdc(3, index)


@lru_cache(maxsize=None)
def _binomial_mod(p, size):
    table = [[0] * size for _ in range(size)]
    for r in range(size):
        table[r][0] = 1 % p
        for j in range(1, r + 1):
            table[r][j] = (table[r - 1][j - 1] + table[r - 1][j]) % p
    return table

def _faure_digits(digits, p, dim):
    # (C^dim)_{j,r} = C(r,j) * dim^(r-j) mod p, applied to the LSD-first digits
    k = len(digits)
    binom = _binomial_mod(p, k)
    powers = [pow(dim, e, p) for e in range(k)]
    return [
        sum(binom[r][j] * powers[r - j] * digits[r] for r in range(j, k)) % p
        for j in range(k)
    ]


def gen_faure(prime, dimension, index):
    """Faure point: dimension 0 is VDC-p, higher dimensions apply the
    binomial (Pascal) digit scrambling raised to the dimension power."""
    if not _is_prime(prime):
        raise ConfigurationError(f"faure base must be prime, got {prime}")
    if dimension < 0:
        raise ConfigurationError(f"faure dimension must be >= 0, got {dimension}")
    if index < 0:
        raise DomainError(f"index must be non-negative, got {index}")
    digits = []
    v = index
    while v:
        digits.append(v % prime)
        v //= prime
    if dimension > 0:
        digits = _faure_digits(digits, prime, dimension)
    num, den = 0, 1
    for d in digits:
        num = num * prime + d
        den *= prime
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# additive recurrences in 64-bit fixed point
# ---------------------------------------------------------------------------

def _fixed64(alpha):
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise ConfigurationError(f"irrational constant must be positive, got {alpha}")
    alpha -= int(alpha)  # only the fractional part matters mod 1
    return (alpha.numerator << 64) // alpha.denominator


def gen_weyl(alpha, index):
    """frac(index * alpha) in 64-fractional-bit fixed point."""
    if index < 0:
        raise DomainError(f"index must be non-negative, got {index}")
    return Fraction((index * _fixed64(alpha)) & _M64, 1 << 64)


def gen_r2(dimension_index, index):
    """Additive recurrence on the plastic constant: frac(index / rho^(d+1))."""
    if dimension_index not in (0, 1):
        raise ConfigurationError(f"r2 dimension must be 0 or 1, got {dimension_index}")
    if index < 0:
        raise DomainError(f"index must be non-negative, got {index}")
    a = _INV_PLASTIC_64[dimension_index]
    return Fraction((index * a) & _M64, 1 << 64)


# ---------------------------------------------------------------------------
# binary-matrix families
# ---------------------------------------------------------------------------

# Joe-Kuo direction-number parameters (s, a, m_1..m_s) for dimensions 2..10;
# dimension 1 is the identity matrix (pure bit reversal).
_JOE_KUO = {
    2: (1, 0, (1,)),
    3: (2, 1, (1, 3)),
    4: (3, 1, (1, 3, 1)),
    5: (3, 2, (1, 1, 1)),
    6: (4, 1, (1, 1, 3, 3)),
    7: (4, 4, (1, 3, 5, 13)),
    8: (5, 2, (1, 1, 5, 5, 17)),
    9: (5, 4, (1, 1, 5, 5, 5)),
    10: (5, 7, (1, 1, 7, 11, 19)),
}


def sobol_direction_vectors(dimension, bits):
    """Direction numbers V_0..V_{bits-1} for a Sobol dimension (1-based)."""
    if not 1 <= bits <= 62:
        raise ConfigurationError(f"bits must be in 1..62, got {bits}")
    if dimension == 1:
        return [1 << (bits - 1 - k) for k in range(bits)]
    if dimension not in _JOE_KUO:
        raise ConfigurationError(
            f"no direction numbers for sobol dimension {dimension} (have 1..{max(_JOE_KUO)})"
        )
    s, a, m = _JOE_KUO[dimension]
    v = [0] * (bits + 1)
    for k in range(1, min(s, bits) + 1):
        v[k] = m[k - 1] << (bits - k)
    for k in range(s + 1, bits + 1):
        v[k] = v[k - s] ^ (v[k - s] >> s)
        for t in range(1, s):
            if (a >> (s - 1 - t)) & 1:
                v[k] ^= v[k - t]
    return v[1:]


def gen_sobol(direction_vectors, count):
    """Natural-order Sobol outputs: element i is the XOR of V_j over the set
    bits j of i (the closed form of the Gray-code XOR recurrence), so
    dimension 1 reproduces plain bit reversal."""
    dva = list(direction_vectors)
    if not dva:
        raise ConfigurationError("direction vector array is empty")
    if any(not 0 < v < 1 << 63 for v in dva):
        raise ConfigurationError("direction vectors must be in 1..2^63-1")
    n = len(dva)
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    if count > (1 << n):
        raise DomainError(f"count {count} exceeds the 2^{n} period of the DVA")
    nbits = max(v.bit_length() for v in dva)
    # row j gathers bit nbits-1-j of every V_k, each placed at index bit k
    rows = [sum((v >> b & 1) << k for k, v in enumerate(dva)) for b in reversed(range(nbits))]
    return _gf2_outputs(rows, np.arange(count, dtype=np.uint64))


def _gf2_outputs(rows, idx):
    """GF(2) matrix times index bits: output bit j, counted from the most
    significant of len(rows) <= 63 bits, is the parity of idx & rows[j]."""
    out = np.zeros(idx.size, dtype=np.int64)
    for row in rows:
        out <<= 1
        out |= np.bitwise_count(idx & np.uint64(row)) & 1
    return out


# monic irreducible polynomials over GF(2) by (degree, value): x, x+1, x^2+x+1, ...
_NIED_POLYS = (0b10, 0b11, 0b111, 0b1011, 0b1101, 0b10011, 0b11001, 0b11111)


def _gf2_series_inverse(q, length):
    # power-series inverse of q(t) with q(0)=1, as a bitmask over t^r
    s = 1
    for r in range(1, length):
        bit = 0
        k = 1
        qq = q >> 1
        while qq and k <= r:
            if qq & 1 and (s >> (r - k)) & 1:
                bit ^= 1
            qq >>= 1
            k += 1
        s |= bit << r
    return s


def _gf2_series_mul(a, b, length):
    out = 0
    for k in range(length):
        if (a >> k) & 1:
            out ^= b << k
    return out & ((1 << length) - 1)


@lru_cache(maxsize=None)
def _niederreiter_rows(dimension, bits):
    # generator-matrix rows: row j holds the Laurent coefficients of
    # x^(e-1-u) / p(x)^(Q+1) with j-1 = Q*e + u, as a bitmask over columns r
    if not 0 <= dimension < len(_NIED_POLYS):
        raise ConfigurationError(
            f"niederreiter dimension must be in 0..{len(_NIED_POLYS) - 1}, got {dimension}"
        )
    poly = _NIED_POLYS[dimension]
    e = poly.bit_length() - 1
    q = 0
    for k in range(e + 1):
        if (poly >> k) & 1:
            q |= 1 << (e - k)
    length = bits + e * (bits // e + 2)
    inv = _gf2_series_inverse(q, length)
    powers = {1: inv}
    rows = []
    for j in range(1, bits + 1):
        qq, u = divmod(j - 1, e)
        if qq + 1 not in powers:
            powers[qq + 1] = _gf2_series_mul(powers[qq], inv, length)
        series = powers[qq + 1]
        shift = e * qq + u + 1
        row = 0
        for r in range(shift - 1, bits):
            if (series >> (r + 1 - shift)) & 1:
                row |= 1 << r
        rows.append(row)
    return tuple(rows)


def gen_niederreiter(dimension, count, precision_bits, skip=0):
    """Base-2 Niederreiter outputs: the generator-matrix image of the index digits.

    Dimension 0 uses polynomial x and reduces to plain bit reversal.  `skip`
    drops that many initial elements (generator programs customarily skip a
    warm-up block).
    """
    if not 1 <= precision_bits <= 32:
        raise ConfigurationError(f"precision_bits must be in 1..32, got {precision_bits}")
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    if skip < 0:
        raise DomainError(f"skip must be non-negative, got {skip}")
    total = count + skip
    nbits = max(precision_bits, max(1, (total - 1)).bit_length())
    rows = _niederreiter_rows(dimension, nbits)
    out = _gf2_outputs(rows, np.arange(skip, total, dtype=np.uint64))
    return rescale_integers(out, nbits, precision_bits)


# ---------------------------------------------------------------------------
# seeded families
# ---------------------------------------------------------------------------

class Xorshift64Star:
    """xorshift64* PRNG: shifts 12/25/27, multiplier 0x2545F4914F6CDD1D.

    Seed 0 is remapped to a fixed nonzero constant (the all-zero state is a
    fixed point of the xorshift update).
    """

    def __init__(self, seed):
        self.state = seed & _M64 or 0x9E3779B97F4A7C15

    def next_u64(self):
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) & _M64
        s ^= s >> 27
        self.state = s
        return (s * 0x2545F4914F6CDD1D) & _M64

    def next_u53(self):
        return self.next_u64() >> 11

    def shuffle(self, items):
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


def gen_latin_hypercube(n_points, seed):
    """One uniform draw per stratum [j/N, (j+1)/N), strata in seeded-shuffled order."""
    if n_points < 1:
        raise DomainError(f"n_points must be positive, got {n_points}")
    rng = Xorshift64Star(seed)
    strata = list(range(n_points))
    rng.shuffle(strata)
    scale = n_points << 53
    return [Fraction((s << 53) + rng.next_u53(), scale) for s in strata]


def gen_poisson_disk(n_points, min_distance, seed, max_attempts=10000):
    """1-D dart throwing: seeded candidates kept iff >= min_distance from all
    accepted points; fails after max_attempts consecutive rejections.

    Only the nearest accepted neighbors can violate the spacing, so the check
    runs against a sorted index (identical accept/reject decisions to the
    naive all-pairs rule).
    """
    if n_points < 1:
        raise DomainError(f"n_points must be positive, got {n_points}")
    if max_attempts < 1:
        raise DomainError(f"max_attempts must be positive, got {max_attempts}")
    r = Fraction(min_distance)
    if r < 0 or r * (n_points - 1) >= 1:
        raise GenerationError(
            f"min distance {min_distance} cannot fit {n_points} points in the unit interval"
        )
    # compare in integer units of 2^-53: |u - p| >= r  <=>  |mu - mp| * rd >= rn * 2^53
    gap_num = r.numerator << 53
    gap_den = r.denominator
    rng = Xorshift64Star(seed)
    accepted = []
    sorted_units = []
    rejects = 0
    while len(accepted) < n_points:
        m = rng.next_u53()
        pos = bisect.bisect_left(sorted_units, m)
        ok = True
        if pos > 0 and (m - sorted_units[pos - 1]) * gap_den < gap_num:
            ok = False
        if ok and pos < len(sorted_units) and (sorted_units[pos] - m) * gap_den < gap_num:
            ok = False
        if ok:
            accepted.append(Fraction(m, 1 << 53))
            sorted_units.insert(pos, m)
            rejects = 0
        else:
            rejects += 1
            if rejects >= max_attempts:
                raise GenerationError(
                    f"poisson disk gave up after {max_attempts} consecutive rejections "
                    f"({len(accepted)}/{n_points} points placed)"
                )
    return accepted


def gen_lfsr(taps, seed, count, bits=LFSR_DEFAULT_BITS):
    """Fibonacci LFSR state sequence starting at the seed state.

    Mask bit k means state bit k feeds the new top bit; the register shifts
    right.  With a maximal-length polynomial the period is 2^bits - 1 and the
    state never reaches zero.
    """
    if not 1 <= bits <= 62:
        raise ConfigurationError(f"bits must be in 1..62, got {bits}")
    if seed == 0:
        raise ConfigurationError("lfsr seed must be nonzero (zero is the lock-up state)")
    if not 0 < seed < (1 << bits):
        raise ConfigurationError(f"seed {seed} out of range for {bits}-bit register")
    if not 0 < taps < (1 << bits):
        raise ConfigurationError(f"taps mask {taps:#x} out of range for {bits}-bit register")
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    out = np.empty(count, dtype=np.int64)
    state = seed
    for i in range(count):
        out[i] = state
        new_bit = (state & taps).bit_count() & 1
        state = (state >> 1) | (new_bit << (bits - 1))
    return out


# ---------------------------------------------------------------------------
# tagged sequence descriptions
# ---------------------------------------------------------------------------

FAMILIES = (
    "vdc", "sobol", "halton", "hammersley", "faure", "niederreiter",
    "weyl", "r2", "latin_hypercube", "poisson_disk", "lfsr", "p2lsg",
)

_SEEDED = ("latin_hypercube", "poisson_disk", "lfsr")

_INT_PARAMS = ("base", "bits", "dim", "prime", "seed", "skip", "taps", "max_attempts")


@dataclass(frozen=True)
class SequenceSpec:
    """One sequence family plus its parameters, parseable from
    `family[:key=value,...]` (e.g. `p2lsg:base=16,bits=8`)."""

    family: str
    params: tuple = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown sequence family {self.family!r} (known: {', '.join(FAMILIES)})"
            )

    @classmethod
    def parse(cls, text):
        text = text.strip()
        # shorthand aliases for the benchmark pair rule
        if text == "p2lsg2":
            return cls("p2lsg", (("base", 2),))
        if text == "p2lsgN":
            return cls("p2lsg", (("base", "N"),))
        family, _, rest = text.partition(":")
        params = []
        if rest:
            for item in rest.split(","):
                key, eq, value = item.partition("=")
                if not eq or not key or not value:
                    raise ConfigurationError(f"malformed sequence parameter {item!r} in {text!r}")
                key = key.strip()
                value = value.strip()
                if key in _INT_PARAMS and not (key == "base" and value == "N"):
                    try:
                        value = int(value, 0)
                    except ValueError as exc:
                        raise ConfigurationError(f"parameter {key}={value!r} is not an integer") from exc
                params.append((key, value))
        return cls(family, tuple(params))

    def get(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default

    def with_param(self, key, value):
        kept = tuple((k, v) for k, v in self.params if k != key)
        return SequenceSpec(self.family, kept + ((key, value),))

    def describe(self):
        if not self.params:
            return self.family
        return self.family + ":" + ",".join(f"{k}={v}" for k, v in self.params)


def parse_spec_pair(text):
    """Split `specA,specB` where each spec may itself contain `key=value` commas.

    A comma starts a new spec unless the segment is a bare `key=value` pair;
    a `family:key=value` segment (colon before the first '=') opens a spec.
    """
    groups = []
    for segment in text.split(","):
        eq = segment.find("=")
        colon = segment.find(":")
        is_param = eq >= 0 and not (0 <= colon < eq)
        if is_param and groups:
            groups[-1] += "," + segment
        else:
            groups.append(segment)
    return [SequenceSpec.parse(g) for g in groups]


def resolve_spec(spec, stream_length=None):
    """Fill stream-length-dependent defaults (base=N alias, bits=log2 N)."""
    out = spec
    m = None
    if stream_length is not None:
        if stream_length < 2 or stream_length & (stream_length - 1):
            raise ConfigurationError(f"stream length must be a power of 2, got {stream_length}")
        m = stream_length.bit_length() - 1
    if spec.family == "p2lsg":
        base = spec.get("base")
        if base == "N":
            if stream_length is not None:
                out = out.with_param("base", stream_length)
        elif base is None:
            raise ConfigurationError("p2lsg spec needs base=<power of 2> (or base=N)")
        if out.get("bits") is None and m is not None:
            out = out.with_param("bits", m)
    elif spec.family in ("sobol", "niederreiter"):
        if out.get("bits") is None and m is not None:
            out = out.with_param("bits", m)
    elif spec.family == "poisson_disk":
        if out.get("min_distance") is None and stream_length is not None:
            out = out.with_param("min_distance", f"1/{4 * stream_length}")
    return out


def default_pair(family, stream_length=None):
    """The two-sequence configuration a family uses for two-input SC ops."""
    pairs = {
        "p2lsg": ("p2lsg2", "p2lsgN"),
        "sobol": ("sobol:dim=1", "sobol:dim=2"),
        "halton": ("halton:base=11", "halton:base=13"),
        "hammersley": ("vdc:base=2", "vdc:base=3"),
        "faure": ("faure:prime=7,dim=0", "faure:prime=7,dim=1"),
        "niederreiter": ("niederreiter:dim=2,skip=4096", "niederreiter:dim=4,skip=4096"),
        "weyl": ("weyl:irrational=pi", "weyl:irrational=silver"),
        "r2": ("r2:dim=0", "r2:dim=1"),
        "vdc": ("vdc:base=2", "vdc:base=3"),
        "latin_hypercube": ("latin_hypercube:seed=1", "latin_hypercube:seed=2"),
        "poisson_disk": ("poisson_disk:seed=1", "poisson_disk:seed=2"),
        "lfsr": ("lfsr:seed=1", "lfsr:seed=90"),
    }
    if family not in pairs:
        raise ConfigurationError(f"no default sequence pair for family {family!r}")
    a, b = pairs[family]
    return (
        resolve_spec(SequenceSpec.parse(a), stream_length),
        resolve_spec(SequenceSpec.parse(b), stream_length),
    )


def _weyl_alpha(spec):
    named = {"pi": PI_FRACTIONAL, "silver": SILVER_RATIO, None: PI_FRACTIONAL}
    raw = spec.get("irrational")
    if raw in named:
        return named[raw]
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"bad irrational constant {raw!r}") from exc


def _weyl_products(spec, start, count):
    """frac(i * alpha) for i in start.. in 64-bit fixed point (weyl and r2), as uint64."""
    if spec.family == "r2":
        d = spec.get("dim", 0)
        if d not in (0, 1):
            raise ConfigurationError(f"r2 dimension must be 0 or 1, got {d}")
        a = _INV_PLASTIC_64[d]
    else:
        a = _fixed64(_weyl_alpha(spec))
    if start < 0:
        raise DomainError(f"index must be non-negative, got {start}")
    with np.errstate(over="ignore"):
        return np.arange(start, start + count, dtype=np.uint64) * np.uint64(a)  # wraps mod 2^64


def _fraction_param(spec, key, default=None):
    raw = spec.get(key)
    if raw is None:
        return default
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"bad {key} value {raw!r}") from exc


def _require_seed(spec):
    seed = spec.get("seed")
    if seed is None:
        raise ConfigurationError(f"{spec.family} is a seeded family; give seed=<int>")
    return seed


def sequence_fractions(spec, count, start=0):
    """`count` exact unit-interval values of the described sequence."""
    spec = resolve_spec(spec)
    fam = spec.family
    if fam in _DIGIT_FAMILIES:
        num, den = _radical_inverse(spec, start, count)
        return [Fraction(v, den) for v in num.tolist()]
    if fam in ("weyl", "r2"):
        return [Fraction(v, 1 << 64) for v in _weyl_products(spec, start, count).tolist()]
    if fam in ("p2lsg", "sobol", "niederreiter", "lfsr"):
        bits = spec.get("bits", 8)
        scaled = sequence_thresholds(spec, start + count, bits)[start:]
        return [Fraction(int(v), 1 << bits) for v in scaled]
    if fam == "latin_hypercube":
        vals = gen_latin_hypercube(start + count, _require_seed(spec))
        return vals[start:]
    if fam == "poisson_disk":
        r = _fraction_param(spec, "min_distance", Fraction(1, 4 * (start + count)))
        vals = gen_poisson_disk(
            start + count, r, _require_seed(spec), spec.get("max_attempts", 10000)
        )
        return vals[start:]
    raise ConfigurationError(f"family {fam!r} does not produce scalar values")


def sequence_thresholds(spec, count, bits=8):
    """floor(2^bits * r_i) for the first `count` values, as an int64 array.

    This is the comparator-ready form: bit i of the stream encoding k/2^bits
    is 1 exactly when k > thresholds[i].
    """
    if not 1 <= bits <= 62:
        raise ConfigurationError(f"bits must be in 1..62, got {bits}")
    spec = resolve_spec(spec)
    fam = spec.family
    if fam == "p2lsg":
        base = spec.get("base")
        if base == "N":
            raise ConfigurationError(
                "p2lsg base=N is only meaningful with a stream length; "
                "resolve the spec against one first"
            )
        n = spec.get("bits", 8)
        cfg = P2lsgConfig(base=base, counter_bits=n)
        return rescale_integers(p2lsg_sequence(cfg, count), n, bits)
    if fam == "sobol":
        n = spec.get("bits", 8)
        dva = sobol_direction_vectors(spec.get("dim", 1), n)
        return rescale_integers(gen_sobol(dva, count), n, bits)
    if fam == "niederreiter":
        n = spec.get("bits", 8)
        vals = gen_niederreiter(spec.get("dim", 0), count, n, skip=spec.get("skip", 0))
        return rescale_integers(vals, n, bits)
    if fam == "lfsr":
        n = spec.get("bits", LFSR_DEFAULT_BITS)
        taps = spec.get("taps", LFSR_DEFAULT_TAPS)
        vals = gen_lfsr(taps, _require_seed(spec), count, n)
        return rescale_integers(vals, n, bits)
    if fam in ("weyl", "r2"):
        return (_weyl_products(spec, 0, count) >> np.uint64(64 - bits)).astype(np.int64)
    if fam in _DIGIT_FAMILIES:
        return _floor_scaled(*_radical_inverse(spec, 0, count), bits)
    # seeded fraction-valued families
    vals = sequence_fractions(spec, count)
    return np.fromiter(
        ((v.numerator << bits) // v.denominator for v in vals),
        dtype=np.int64,
        count=count,
    )


_DIGIT_FAMILIES = ("vdc", "halton", "hammersley", "faure")


def _digit_base(spec):
    """(base, Faure dimension) of a digit-reversal spec, validated."""
    fam = spec.family
    if fam == "faure":
        p, dim = spec.get("prime", 7), spec.get("dim", 0)
        if not _is_prime(p):
            raise ConfigurationError(f"faure base must be prime, got {p}")
        if dim < 0:
            raise ConfigurationError(f"faure dimension must be >= 0, got {dim}")
        return p, dim
    if fam == "hammersley":
        d = spec.get("dim", 0)
        if d not in (0, 1):
            raise ConfigurationError(f"hammersley dim must be 0 or 1, got {d}")
        return (2, 3)[d], 0
    p = spec.get("base", 11 if fam == "halton" else None)
    if p is None:
        raise ConfigurationError("vdc spec needs base=<int >= 2>")
    if fam == "halton" and not _is_prime(p):
        raise ConfigurationError(f"halton base must be prime, got {p}")
    if p < 2:
        raise ConfigurationError(f"vdc base must be >= 2, got {p}")
    return p, 0


def _radical_inverse(spec, start, count):
    """(numerators, p^L): a digit family's values at start.. over one denominator.

    Every index gets L base-p digits (zero padding mirrors to trailing zeros,
    so values do not change), Faure-scrambled by a Pascal matrix power mod p,
    in int64 unless p^L or the matrix product could overflow it.
    """
    p, dim = _digit_base(spec)
    if start < 0:
        raise DomainError(f"index must be non-negative, got {start}")
    width = 1
    while p**width < start + count:
        width += 1
    dtype = np.int64 if p**width < 1 << 62 and width * (p - 1) ** 2 < 1 << 63 else object
    idx = np.arange(start, start + count, dtype=dtype)
    digits = np.empty((width, count), dtype=dtype)  # LSD first
    for j in range(width):
        idx, digits[j] = idx // p, idx % p
    if dim > 0:
        # (C^dim)_{j,r} = C(r,j) * dim^(r-j) mod p for r >= j
        binom = _binomial_mod(p, width)
        pascal = [[binom[r][j] * pow(dim, r - j, p) % p if r >= j else 0 for r in range(width)]
                  for j in range(width)]
        digits = np.array(pascal, dtype=dtype) @ digits % p
    return np.array([p**j for j in reversed(range(width))], dtype=dtype) @ digits, p**width


def _floor_scaled(num, den, bits):
    """floor(num * 2^bits / den) for 0 <= num < den, as int64, by long division
    a few bits per step so every shifted remainder stays below 2^63."""
    step = max(1, 63 - den.bit_length())
    out = np.zeros(num.size, dtype=num.dtype)
    for done in range(0, bits, step):
        shift = min(step, bits - done)
        num = num << shift
        out = (out << shift) | (num // den)
        num = num % den
    return out.astype(np.int64)
