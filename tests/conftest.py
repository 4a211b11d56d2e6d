"""Shared naive reference implementations, deliberately unpacked and slow.

The stream oracles work on plain Python lists of 0/1 ints so the packed-word
kernels in the package are checked against an independent route.  The
sequence oracles compute one value at a time in Python integers, one per
family, whose only route in the package is `sequence_numerators`:
`radical_inverse` for vdc, halton and hammersley, and with the literal
`pascal_matrix_oracle` for faure; `digit_oracle` for p2lsg; `weyl_oracle` with
the `FIXED64` constants for weyl and r2; `sobol_oracle`, an XOR of direction
numbers from the Bratley-Fox recurrence, for sobol; `niederreiter_oracle`,
parities under the Laurent-series rows of `niederreiter_rows_oracle`, for
niederreiter; `lfsr_oracle`, a bit-list register, for lfsr;
`poisson_disk_oracle`, the all-pairs rule, for poisson_disk.  `fractions`
reads the package's values as exact rationals to compare against them.
`parse01_oracle` is the stream-text parser that joins `str.split`'s pieces,
which the package keeps only for non-ASCII text.
"""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from sclab.bitstream import Bitstream
from sclab.sequences import _JOE_KUO, SequenceSpec, _xorshift64star, sequence_numerators


def naive_bits(stream):
    return [stream.bit(i) for i in range(len(stream))]


def from_naive(bits):
    return Bitstream.from_bits(bits)


def naive_and(a, b):
    return [x & y for x, y in zip(a, b)]


def naive_xnor(a, b):
    return [1 - (x ^ y) for x, y in zip(a, b)]


def naive_mux2(a, b, sel):
    return [y if s else x for x, y, s in zip(a, b, sel)]


def naive_mux2_sub(a, b, sel):
    return [(1 - y) if s else x for x, y, s in zip(a, b, sel)]


def naive_mux4(i11, i12, i21, i22, su, sv):
    out = []
    for a, b, c, d, u, v in zip(i11, i12, i21, i22, su, sv):
        out.append([[a, b], [c, d]][u][v])
    return out


def parse01_oracle(text, error):
    """The stream of `text`'s '0'/'1' characters with the whitespace
    `str.split` skips joined away; any other character raises `error`."""
    chars = "".join(text.split())
    codes = np.frombuffer(chars.encode("ascii", "replace"), dtype=np.uint8)
    if codes.size == 0 or np.any((codes | 1) != ord("1")):
        raise error("bit-stream text must be nonempty '0'/'1' characters")
    return Bitstream.from_bools(codes == ord("1"))


def naive_sng(numerator, rng_values):
    return [1 if numerator > r else 0 for r in rng_values]


def naive_scc(bits1, bits2):
    n = len(bits1)
    a = sum(1 for x, y in zip(bits1, bits2) if x and y)
    b = sum(1 for x, y in zip(bits1, bits2) if x and not y)
    c = sum(1 for x, y in zip(bits1, bits2) if not x and y)
    d = n - a - b - c
    ad, bc = a * d, b * c
    if ad > bc:
        den = n * min(a + b, a + c) - (a + b) * (a + c)
    else:
        den = (a + b) * (a + c) - n * max(a - d, 0)
    if den == 0:
        return None
    return Fraction(ad - bc, den)


@lru_cache(maxsize=None)
def pascal_matrix_oracle(p, dim, size):
    """(C^dim)_{j,r} by literal matrix exponentiation of binomials mod p."""
    c = [[math.comb(r, j) % p for r in range(size)] for j in range(size)]
    out = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(dim):
        out = [
            [sum(c[j][k] * out[k][r] for k in range(size)) % p for r in range(size)]
            for j in range(size)
        ]
    return tuple(map(tuple, out))


def radical_inverse(base, index, dim=0):
    """The base-`base` digits of index mirrored across the radix point; with
    dim > 0 the digit vector is first multiplied by the Pascal matrix power
    C^dim mod base (Faure's scrambling)."""
    digits = []
    while index:
        index, d = divmod(index, base)
        digits.append(d)
    if dim:
        mat = pascal_matrix_oracle(base, dim, len(digits))
        digits = [sum(m * d for m, d in zip(row, digits)) % base for row in mat]
    num = 0
    for d in digits:
        num = num * base + d
    return Fraction(num, base ** len(digits))


def digit_oracle(value, bits, base):
    """P2LSG output: the counter value's base-`base` radical inverse cut to `bits` bits."""
    r = radical_inverse(base, value)
    return (r.numerator << bits) // r.denominator


# weyl's and r2's irrationals cut to 64 fractional bits, each from its own
# 60-digit derivation: pi's decimal expansion, sqrt(2) - 1, and 1/rho and
# 1/rho^2 for the real root rho of x^3 = x + 1 by Newton's method
with localcontext() as _ctx:
    _ctx.prec = 60
    _rho = Decimal(1)
    for _ in range(12):
        _rho -= (_rho**3 - _rho - 1) / (3 * _rho**2 - 1)
    FIXED64 = {
        text: int(x % 1 * 2**64)
        for text, x in (
            ("weyl:irrational=pi", Decimal("3.14159265358979323846264338327950288419716939937510")),
            ("weyl:irrational=silver", Decimal(2).sqrt() - 1),
            ("r2:dim=0", 1 / _rho),
            ("r2:dim=1", 1 / _rho**2),
        )
    }


def weyl_oracle(alpha64, index):
    """frac(index * alpha) for an alpha of 64 fractional bits, in Python integers."""
    return Fraction(index * alpha64 % 2**64, 2**64)


@lru_cache(maxsize=None)
def sobol_direction_numbers(dim, bits):
    """V_1..V_bits of a Sobol dimension as bits-bit integers, m_k << (bits - k),
    for the Bratley-Fox integers m_k = 2 a_1 m_{k-1} ^ 4 a_2 m_{k-2} ^ ...
    ^ 2^s m_{k-s} ^ m_{k-s} from the Joe-Kuo (s, a, m_1..m_s); dimension 1 has
    every m_k = 1."""
    if dim == 1:
        m = [1] * bits
    else:
        s, a, m = _JOE_KUO[dim]
        m = list(m)
        for k in range(s, bits):  # m[k] is m_{k+1}
            new = m[k - s] ^ (m[k - s] << s)
            for t in range(1, s):  # a_t is bit s-1-t of a
                if a >> (s - 1 - t) & 1:
                    new ^= m[k - t] << t
            m.append(new)
    return tuple(m[k] << (bits - 1 - k) for k in range(bits))


def sobol_oracle(dim, bits, index):
    """The bits-bit Sobol value at `index`: the XOR of V_{j+1} over the set bits j."""
    out = 0
    for j, v in enumerate(sobol_direction_numbers(dim, bits)):
        if (index >> j) & 1:
            out ^= v
    return out


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


@lru_cache(maxsize=None)
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
    return tuple(rows)


def niederreiter_oracle(dim, bits, index):
    """The bits-bit Niederreiter value at `index` (below 2^63): output bit
    bits-1-j is the parity of the index under the 63-column row j."""
    rows = niederreiter_rows_oracle(dim, 63)[:bits]
    return sum((bin(index & row).count("1") & 1) << (bits - 1 - j) for j, row in enumerate(rows))


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


def poisson_disk_oracle(n_points, min_distance, seed, max_attempts=10000):
    """Dart throwing by its definition: each xorshift64* draw's top 53 bits, as
    a fraction of 1, is kept iff it lies at least min_distance from every point
    kept so far (all pairs, exact).  The kept points as Fractions; None when n
    points cannot be that far apart in [0, 1); else, when max_attempts draws in
    a row are rejected, the number of points placed."""
    r = Fraction(min_distance)
    if r < 0 or (n_points - 1) * r >= 1:
        return None
    kept, rejects = [], 0
    for draw in _xorshift64star(seed):
        m = draw >> 11  # |m - p| / 2^53 >= r, in integers
        if all(abs(m - p) * r.denominator >= r.numerator << 53 for p in kept):
            kept.append(m)
            rejects = 0
            if len(kept) == n_points:
                return [Fraction(p, 1 << 53) for p in kept]
        else:
            rejects += 1
            if rejects == max_attempts:
                return len(kept)


def numerators(spec, count, start=0):
    """`count` numerators of a spec (or spec text) from index `start`, as Python
    ints, and their denominator, read through the package's one route."""
    if isinstance(spec, str):
        spec = SequenceSpec.parse(spec)
    num, den = sequence_numerators(spec, count, start)
    return num.tolist(), den


def fractions(spec, count, start=0):
    """`count` exact values of a spec (or spec text) from index `start`."""
    num, den = numerators(spec, count, start)
    return [Fraction(v, den) for v in num]


def random_bit_list(rng, length):
    return [rng.randint(0, 1) for _ in range(length)]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
