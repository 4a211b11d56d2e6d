"""Shared naive reference implementations, deliberately unpacked and slow.

The stream oracles work on plain Python lists of 0/1 ints so the packed-word
kernels in the package are checked against an independent route.  The
sequence oracles compute one value at a time in Python integers, one per
family whose only route in the package is `sequence_numerators`:
`radical_inverse` for vdc, halton and hammersley, and with the literal
`pascal_matrix_oracle` for faure; `digit_oracle` for p2lsg; `weyl_oracle` with
the `FIXED64` constants for weyl and r2; `poisson_disk_oracle`, the all-pairs
rule, for poisson_disk.  `fractions` reads the package's values as exact
rationals to compare against them.
"""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import pytest

from sclab.bitstream import Bitstream
from sclab.sequences import SequenceSpec, _xorshift64star, sequence_numerators


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


def fractions(spec, count, start=0):
    """`count` exact values of a spec (or spec text) from index `start`, read
    through the package's one route."""
    if isinstance(spec, str):
        spec = SequenceSpec.parse(spec)
    num, den = sequence_numerators(spec, count, start)
    return [Fraction(v, den) for v in num.tolist()]


def random_bit_list(rng, length):
    return [rng.randint(0, 1) for _ in range(length)]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
