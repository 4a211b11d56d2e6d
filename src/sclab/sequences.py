"""The random / low-discrepancy sequence families, each computed by one route.

`sequence_numerators` gives any family's values from any index as one integer
array over a common denominator, and every command reads its values there.  It
is the one public route, and it checks each run once (start >= 0, count >= 1).
Digit-based families (vdc, halton, hammersley, faure), exact over p^L, and
binary-matrix families (sobol, niederreiter), n-bit integers, are digital
sequences: `_generator` checks the spec and gives its generator, and one
`digital_outputs` call sums it.  p2lsg, digital too, keeps its own route,
`p2lsg_sequence`, which perfbench times as the `p2lsg.sequence` span.
Additive-recurrence families (weyl, r2) run in 64-fractional-bit fixed point so
every value is an exact dyadic rational, bit-reproducible across platforms.
The lfsr emits n-bit integers.
Seeded families draw integers from one xorshift64* generator: latin_hypercube
is exact over N * 2^53, poisson_disk over 2^53.
`sequence_thresholds` turns the numerators into the comparator-ready integer
form floor(2^bits * r_i).

`SequenceSpec` is the tagged description used by the CLI and the benchmark
harness.  Each family's parameters, defaults, default pair and stream-length
rules are declared once, in the family table `_REGISTRY`, which every spec
reader uses.
"""

import contextlib
import math
import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError, GenerationError
from .p2lsg import P2lsgConfig, digital_outputs, p2lsg_sequence

_M64 = (1 << 64) - 1

# floor((pi - 3) * 2^64); fractional part of pi in 64-bit fixed point
PI_FRACTIONAL = Fraction(2611923443488327891, 1 << 64)
# floor((sqrt(2) - 1) * 2^64), derived exactly from the integer square root
SILVER_RATIO = Fraction(math.isqrt(1 << 129) - (1 << 64), 1 << 64)
_NAMED_IRRATIONALS = {"pi": PI_FRACTIONAL, "silver": SILVER_RATIO}  # weyl's irrational=
# 1/rho and 1/rho^2 where rho is the real root of x^3 = x + 1 (plastic constant)
_INV_PLASTIC_64 = (13925035116211876495, 10511698010929265436)

# Fibonacci LFSR recurrence mask for x^8 + x^6 + x^5 + x^4 + 1 (maximal, period 255)
LFSR_DEFAULT_TAPS = 0x71
LFSR_DEFAULT_BITS = 8

MAX_LENGTH = 1 << 24  # longest stream; bench._check_size says what relies on it
# largest poisson_disk rejection budget: a spacing that cannot be met fails in
# at most this many draws
MAX_ATTEMPTS = 1 << 16
# largest decimal exponent magnitude in a spec's fraction text: Fraction()
# expands 10^e exactly, so larger ones cost time without bound (4300 is
# Python's own limit on int digits)
_MAX_DECIMAL_EXPONENT = 4300
_INT_BOUND = 10**_MAX_DECIMAL_EXPONENT  # int(text, 0) reads hex ints str() cannot print
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)

# Miller-Rabin over these bases decides every n below 3.3e24 exactly
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n):
    if n < 2 or any(n % p == 0 for p in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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


@lru_cache(maxsize=None)
def _sobol_cols(dimension, bits):
    # generator-matrix columns of a Sobol dimension (1-based): the direction
    # numbers V_1..V_bits, so an output is the XOR of V_(k+1) over its index's
    # set bits k (the Gray-code recurrence's closed form)
    if dimension == 1:
        return tuple(1 << (bits - 1 - k) for k in range(bits))
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
    return tuple(v[1:])


# monic irreducible polynomials over GF(2) by (degree, value): x, x+1, x^2+x+1, ...
_NIED_POLYS = (0b10, 0b11, 0b111, 0b1011, 0b1101, 0b10011, 0b11001, 0b11111)


def _gf2_series_div(a, q, length):
    # power series a(t) / q(t) with q(0)=1, as a bitmask over t^r: GF(2) long
    # division, lowest term first
    s = 0
    for r in range(length):
        if a >> r & 1:
            s |= 1 << r
            a ^= q << r
    return s


@lru_cache(maxsize=None)
def _niederreiter_cols(dimension, bits, n):
    # generator-matrix rows: row j holds the Laurent coefficients of
    # x^(e-1-u) / p(x)^(Q+1) with j = Q*e + u, as a bitmask over columns r.
    # With q(t) = t^e p(1/t) that is t^(j+1) / q(t)^(Q+1) at t = 1/x, so row j
    # is the series of 1/q^(Q+1) shifted up by j.  Returned as the columns of
    # the top n rows: column r is the n-bit output of index bit r.
    if not 0 <= dimension < len(_NIED_POLYS):
        raise ConfigurationError(
            f"niederreiter dimension must be in 0..{len(_NIED_POLYS) - 1}, got {dimension}"
        )
    poly = _NIED_POLYS[dimension]
    e = poly.bit_length() - 1
    q = int(f"{poly:b}"[::-1], 2)
    series, rows = 1, []
    for j in range(n):
        if j % e == 0:
            series = _gf2_series_div(series, q, bits)  # now 1/q^(Q+1)
        rows.append(series << j)
    return tuple(sum((row >> r & 1) << (n - 1 - j) for j, row in enumerate(rows))
                 for r in range(bits))


# ---------------------------------------------------------------------------
# seeded families
# ---------------------------------------------------------------------------

def _xorshift64star(seed):
    """xorshift64* u64 draws: shifts 12/25/27, multiplier 0x2545F4914F6CDD1D.
    Seed 0 is remapped to a nonzero state (all-zero is the update's fixed point)."""
    s = seed & _M64 or 0x9E3779B97F4A7C15
    while True:
        s ^= s >> 12
        s ^= (s << 25) & _M64
        s ^= s >> 27
        yield (s * 0x2545F4914F6CDD1D) & _M64


def _latin_hypercube(n_points, seed):
    """One uniform draw per stratum [j/N, (j+1)/N), strata in seeded-shuffled order,
    as numerators (s << 53) + (the draw's top 53 bits) over N * 2^53 for stratum s."""
    draws = _xorshift64star(seed)
    strata = list(range(n_points))
    for i in range(n_points - 1, 0, -1):  # Fisher-Yates
        j = next(draws) % (i + 1)
        strata[i], strata[j] = strata[j], strata[i]
    return [(s << 53) + (u >> 11) for s, u in zip(strata, draws)]


def _poisson_disk(n_points, r, seed, max_attempts):
    """1-D dart throwing: seeded 53-bit draws, as numerators over 2^53, kept iff
    >= r (a Fraction) from all accepted ones; fails after max_attempts
    consecutive rejections.

    In units of 2^-53 the spacing is a rational `gap`, and cell c holds the
    accepted point in [c w, (c + 1) w) for w = max(1, floor(gap)).  Two points
    in one cell are at most w - 1 < gap apart, so a cell holds at most one (for
    gap > 0); a conflicting one is under gap < w + 1 away, so in cell c-1, c
    or c+1.  Every decision, and so every message, is the all-pairs rule's.
    """
    if not 1 <= max_attempts <= MAX_ATTEMPTS:
        raise DomainError(f"max_attempts must be in 1..{MAX_ATTEMPTS}, got {max_attempts}")
    if r < 0 or r * (n_points - 1) >= 1:
        raise GenerationError(
            f"min distance {r} cannot fit {n_points} points in the unit interval"
        )
    # |u - p| >= r  <=>  |mu - mp| * rd >= rn * 2^53, with gap = rn * 2^53 / rd
    gap_num, gap_den = r.numerator << 53, r.denominator
    width = max(1, gap_num // gap_den)
    cells = {}
    accepted = []
    rejects = 0
    for draw in _xorshift64star(seed):
        m = draw >> 11
        c = m // width
        for p in (cells.get(c - 1), cells.get(c), cells.get(c + 1)):
            if p is not None and abs(m - p) * gap_den < gap_num:
                rejects += 1
                break
        else:
            cells[c] = m  # overwrites a point only at spacing 0, where none conflicts
            accepted.append(m)
            if len(accepted) == n_points:
                return accepted
            rejects = 0
        if rejects >= max_attempts:
            raise GenerationError(
                f"poisson disk gave up after {max_attempts} consecutive rejections "
                f"({len(accepted)}/{n_points} points placed)"
            )


def _lfsr(taps, seed, count, bits):
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

# One record per family: its parameters, each mapped to its default or, when a
# spec must give it, to `int`; its default two-input pair, as spec texts; the
# parameters that a stream length N decides (see resolve_spec); and whether a
# value depends on the run's length as well as its index (latin_hypercube's
# strata are 1/count wide), so that a run is not the start of a longer one.
_Family = namedtuple("_Family", "params pair sized run_sized", defaults=((), False))
_REGISTRY = {
    "vdc": _Family({"base": int}, ("vdc:base=2", "vdc:base=3")),
    "sobol": _Family({"dim": 1, "bits": 8}, ("sobol:dim=1", "sobol:dim=2"), ("bits",)),
    "halton": _Family({"base": 11}, ("halton:base=11", "halton:base=13")),
    "hammersley": _Family({"dim": 0}, ("vdc:base=2", "vdc:base=3")),
    "faure": _Family({"prime": 7, "dim": 0}, ("faure:prime=7,dim=0", "faure:prime=7,dim=1")),
    "niederreiter": _Family({"dim": 0, "bits": 8, "skip": 0},
                            ("niederreiter:dim=2,skip=4096", "niederreiter:dim=4,skip=4096"),
                            ("bits",)),
    "weyl": _Family({"irrational": "pi"}, ("weyl:irrational=pi", "weyl:irrational=silver")),
    "r2": _Family({"dim": 0}, ("r2:dim=0", "r2:dim=1")),
    "latin_hypercube": _Family({"seed": int}, ("latin_hypercube:seed=1", "latin_hypercube:seed=2"),
                               run_sized=True),
    "poisson_disk": _Family({"seed": int, "min_distance": None, "max_attempts": 10000},
                            ("poisson_disk:seed=1", "poisson_disk:seed=2"), ("min_distance",)),
    "lfsr": _Family({"seed": int, "taps": LFSR_DEFAULT_TAPS, "bits": LFSR_DEFAULT_BITS},
                    ("lfsr:seed=1", "lfsr:seed=90")),
    "p2lsg": _Family({"base": int, "bits": 8}, ("p2lsg2", "p2lsgN"), ("base", "bits")),
}

FAMILIES = tuple(_REGISTRY)


@dataclass(frozen=True)
class SequenceSpec:
    """One sequence family plus its parameters, parseable from
    `family[:key=value,...]` (e.g. `p2lsg:base=16,bits=8`)."""

    family: str
    params: tuple = ()

    def __post_init__(self):
        if self.family not in _REGISTRY:
            raise ConfigurationError(
                f"unknown sequence family {self.family!r} (known: {', '.join(FAMILIES)})"
            )
        record = _REGISTRY[self.family]
        for key, value in self.params:
            if key not in record.params:
                raise ConfigurationError(
                    f"unknown {self.family} parameter {key!r} (known: {', '.join(record.params)})"
                )
            declared = record.params[key]
            alias = value == "N" and key in record.sized and declared is int
            if int in (declared, type(declared)) and not isinstance(value, int) and not alias:
                raise ConfigurationError(f"parameter {key}={value!r} is not an integer")
            if isinstance(value, int) and abs(value) >= _INT_BOUND:  # before a message prints it
                raise ConfigurationError(f"parameter {key} has more than 4300 digits")

    @classmethod
    def parse(cls, text):
        text = text.strip()
        # shorthand aliases for the benchmark pair rule
        if text == "p2lsg2":
            return cls("p2lsg", (("base", 2),))
        if text == "p2lsgN":
            return cls("p2lsg", (("base", "N"),))
        family, _, rest = text.partition(":")
        declared = _REGISTRY[family].params if family in _REGISTRY else {}
        params = []
        if rest:
            for item in rest.split(","):
                key, eq, value = item.partition("=")
                if not eq or not key or not value:
                    raise ConfigurationError(f"malformed sequence parameter {item!r} in {text!r}")
                key = key.strip()
                value = value.strip()
                if int in (declared.get(key), type(declared.get(key))):
                    # a value int() cannot read is left for __post_init__ to reject
                    with contextlib.suppress(ValueError):
                        value = int(value, 0)
                params.append((key, value))
        return cls(family, tuple(params))

    def get(self, key):
        """The spec's value for `key`, else the family's default; a parameter
        the family requires and the spec leaves out is an error."""
        for k, v in self.params:
            if k == key:
                return v
        default = _REGISTRY[self.family].params[key]
        if default is int:
            raise ConfigurationError(f"{self.family} spec needs {key}=<int>")
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


def check_stream_length(n):
    """Reject a stream length that is not a power of 2 in 2..MAX_LENGTH."""
    if n < 2 or n & (n - 1) or n > MAX_LENGTH:
        raise ConfigurationError(f"stream length must be a power of 2 in 2..2^24, got {n}")


def resolve_spec(spec, stream_length):
    """Fill what a power-of-2 stream length decides: each sized parameter the
    spec leaves out, and the alias base=N."""
    check_stream_length(stream_length)
    n = stream_length
    sized = {"base": n, "bits": n.bit_length() - 1, "min_distance": f"1/{4 * n}"}
    record = _REGISTRY[spec.family]
    given = dict(spec.params)
    out = spec
    for key in record.sized:
        # left out and not required, or p2lsg's alias base=N
        if given.get(key) == "N" or key not in given and record.params[key] is not int:
            out = out.with_param(key, sized[key])
    return out


def default_pair(family, stream_length=None):
    """The two-sequence configuration a family uses for two-input SC ops,
    resolved against `stream_length` when one is given."""
    if family not in _REGISTRY:
        raise ConfigurationError(f"no default sequence pair for family {family!r}")
    pair = tuple(SequenceSpec.parse(text) for text in _REGISTRY[family].pair)
    return pair if stream_length is None else tuple(resolve_spec(s, stream_length) for s in pair)


# ---------------------------------------------------------------------------
# every family's values, through sequence_numerators
# ---------------------------------------------------------------------------

def _weyl_products(spec, start, count):
    """frac(i * alpha) for i in start.. in 64-bit fixed point (weyl and r2), as uint64."""
    if spec.family == "r2":
        d = spec.get("dim")
        if d not in (0, 1):
            raise ConfigurationError(f"r2 dimension must be 0 or 1, got {d}")
        a = _INV_PLASTIC_64[d]
    else:  # a name or fraction text
        raw = spec.get("irrational")
        alpha = _NAMED_IRRATIONALS.get(raw) or _fraction(raw, "irrational")
        if alpha <= 0:
            raise ConfigurationError(f"irrational constant must be positive, got {raw}")
        a = (alpha.numerator % alpha.denominator << 64) // alpha.denominator  # of frac(alpha)
        if not a:  # every value would be 0
            raise ConfigurationError(f"irrational constant {raw} has no fractional part in 64 bits")
    # i * a mod 2^64 depends only on i mod 2^64, so the run wraps there too
    idx = np.arange(count, dtype=np.uint64)
    idx += np.uint64(start & _M64)
    idx *= np.uint64(a)
    return idx


def _fraction(raw, key):
    exponent = isinstance(raw, str) and _EXPONENT.search(raw)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > 4 or int(digits or 0) > _MAX_DECIMAL_EXPONENT:
            raise ConfigurationError(
                f"bad {key} value: decimal exponent beyond +/-{_MAX_DECIMAL_EXPONENT}"
            )
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigurationError(f"bad {key} value {raw!r}") from exc


def sequence_numerators(spec, count, start=0):
    """(numerators, denominator): the values at indices start.. of the described
    sequence as one integer array (int64, uint64 or, past int64, object) over a
    common denominator.  Every family's dispatch, and the one check of the run,
    live here."""
    fam = spec.family
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    if start < 0:
        raise DomainError(f"index must be non-negative, got {start}")
    if fam in ("vdc", "halton", "hammersley", "faure", "sobol", "niederreiter"):
        cols, p, first, den, dtype = _generator(spec, start, count)
        num = digital_outputs(cols, p, first, count, dtype)
        if num.ndim == 2:  # Faure's digit vectors: digit j, mod p, weighs p^(L-1-j)
            num %= p
            num = num @ np.array([p**t for t in reversed(range(num.shape[1]))], dtype)
        return num, den
    if fam in ("weyl", "r2"):
        return _weyl_products(spec, start, count), 1 << 64
    if fam == "p2lsg":
        cfg = P2lsgConfig(base=spec.get("base"), counter_bits=spec.get("bits"))
        return p2lsg_sequence(cfg, count, start), cfg.period
    end = start + count
    if fam == "lfsr":
        n = spec.get("bits")
        return _lfsr(spec.get("taps"), spec.get("seed"), end, n)[start:], 1 << n
    if fam == "latin_hypercube":  # its end * 2^53 passes int64 past 2^10 points
        return np.array(_latin_hypercube(end, spec.get("seed"))[start:], object), end << 53
    r = spec.get("min_distance")
    r = Fraction(1, 4 * end) if r is None else _fraction(r, "min_distance")
    draws = _poisson_disk(end, r, spec.get("seed"), spec.get("max_attempts"))
    return np.array(draws[start:], np.int64), 1 << 53


def sequence_thresholds(spec, count, bits=8, start=0):
    """floor(2^bits * r_i) for `count` values from index `start`, as an int64 array.

    This is the comparator-ready form: bit i of the stream encoding k/2^bits
    is 1 exactly when k > thresholds[i].
    """
    if not 1 <= bits <= 62:
        raise ConfigurationError(f"bits must be in 1..62, got {bits}")
    return _floor_scaled(*sequence_numerators(spec, count, start), bits)


def _generator(spec, start, count):
    """(cols, p, first, den, dtype), checked: a linear spec's run of `count`
    values from index `start` is what `digital_outputs` makes of them, over den.

    Binary-matrix families emit n-bit integers, column k the image of index bit
    k under a GF(2) matrix.  Niederreiter's dim 0 (polynomial x) is bit
    reversal, and its `skip` drops a warm-up: its run begins at skip + start.
    Digit families give every index L base-p digits (zero padding mirrors to
    trailing zeros, so values do not change), in int64 unless p^L or a Faure
    digit's sum of L terms below p^2 could overflow it.  Unscrambled, digit t
    of the index is digit L-1-t of the value: column t is the weight
    p^(L-1-t), disjoint bits at p = 2.  Faure's dimensions above 0 scramble
    the digits by the Pascal matrix power C^dim mod p, whose columns are digit
    vectors.
    """
    fam = spec.family
    if fam in ("sobol", "niederreiter"):
        n, top = spec.get("bits"), 62 if fam == "sobol" else 32
        if not 1 <= n <= top:
            raise ConfigurationError(f"bits must be in 1..{top}, got {n}")
        if fam == "sobol":
            cols = _sobol_cols(spec.get("dim"), n)
            if start + count > 1 << n:
                raise DomainError(f"index {start} + count {count} exceeds the 2^{n} period")
            return cols, 2, start, 1 << n, np.int64
        skip = spec.get("skip")
        if skip < 0:
            raise DomainError(f"skip must be non-negative, got {skip}")
        first = skip + start
        if first + count > 1 << 63:  # the index bits, and so the columns, fit in 63
            raise DomainError(f"skip + count must be at most 2^63, got {first + count}")
        cols = _niederreiter_cols(spec.get("dim"), max(n, (first + count - 1).bit_length()), n)
        return cols, 2, first, 1 << n, np.int64
    if fam == "hammersley":
        d = spec.get("dim")
        if d not in (0, 1):
            raise ConfigurationError(f"hammersley dim must be 0 or 1, got {d}")
        p, dim = (2, 3)[d], 0
    else:
        p = spec.get("prime" if fam == "faure" else "base")
        if fam != "vdc":
            if p >= 1 << 81:  # past the range where _is_prime is exact
                raise ConfigurationError(f"{fam} base must be below 2^81, got {p}")
            if not _is_prime(p):
                raise ConfigurationError(f"{fam} base must be prime, got {p}")
        if p < 2:
            raise ConfigurationError(f"vdc base must be >= 2, got {p}")
        dim = spec.get("dim") if fam == "faure" else 0
        if dim < 0:
            raise ConfigurationError(f"faure dimension must be >= 0, got {dim}")
    width = 1
    while p**width < start + count:
        width += 1
    dtype = np.int64 if p**width < 1 << 62 and width * (p - 1) ** 2 < 1 << 63 else object
    cols = [p**t for t in reversed(range(width))]
    if dim:  # column r of C^dim: entry j is C(r, j) * dim^(r-j) mod p, and 0 for j > r
        cols = np.array([[math.comb(r, j) * pow(dim, r - j, p) % p if j <= r else 0
                          for j in range(width)] for r in range(width)], dtype)
    return cols, p, start, p**width, dtype


def _floor_scaled(num, den, bits):
    """floor(num * 2^bits / den) for 0 <= num < den, as int64: a shift when den
    is a power of 2, else long division a few bits per step so every shifted
    remainder stays below 2^63."""
    if den & (den - 1) == 0:
        shift = den.bit_length() - 1 - bits
        if shift:  # an int64 run over 2^bits is returned as it is, not copied
            num = num >> shift if shift > 0 else num << -shift
        return num.astype(np.int64, copy=False)
    step = max(1, 63 - den.bit_length())
    for done in range(0, bits, step):
        shift = min(step, bits - done)
        if done:  # the last step's remainder goes on
            num -= q * den
        num = num << shift
        q = num // den
        out = (out << shift) | q if done else q
    return out.astype(np.int64, copy=False)
