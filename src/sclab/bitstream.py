"""Stochastic number generation, decoding, and the SCC correlation metric.

A Bitstream packs bits into 64-bit words: bit i lives in word i // 64 at bit
position i % 64, and pad bits in the last word are always zero.  Encoding
follows the comparator rule: bit i is 1 exactly when the input numerator is
strictly greater than the i-th random number.

Stream text is '0'/'1' characters with any whitespace `str.split` skips.  One
parser reads it for `Bitstream.from01` and `load_stream_ascii` as a byte
array, and `to01` writes it as one, with no per-character Python loop.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError, DomainError, GenerationError, ParseError

WORD_BITS = 64


def _pad_mask(length):
    rem = length % WORD_BITS
    if rem == 0:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << rem) - 1)


@dataclass(frozen=True)
class FixedUnipolar:
    """An n-bit value numerator/2^n in [0, 1); the universal SC operand."""

    numerator: int
    precision_bits: int

    def __post_init__(self):
        if not 1 <= self.precision_bits <= 62:
            raise ConfigurationError(
                f"precision_bits must be in 1..62, got {self.precision_bits}"
            )
        if not 0 <= self.numerator < (1 << self.precision_bits):
            raise DomainError(
                f"numerator {self.numerator} out of range for "
                f"{self.precision_bits}-bit precision"
            )

    @property
    def value(self):
        return Fraction(self.numerator, 1 << self.precision_bits)

    def widen(self, precision_bits):
        """Lossless re-expression at a higher precision."""
        if precision_bits < self.precision_bits:
            raise ConfigurationError(
                f"cannot widen {self.precision_bits}-bit value to {precision_bits} bits"
            )
        shift = precision_bits - self.precision_bits
        return FixedUnipolar(self.numerator << shift, precision_bits)

    @classmethod
    def from_value(cls, value, precision_bits):
        """Quantize a real value in [0, 1] to n bits; 1.0 caps at (2^n-1)/2^n."""
        v = Fraction(value)
        if not 0 <= v <= 1:
            raise DomainError(f"value {value} outside [0, 1]")
        scaled = (v.numerator << precision_bits) // v.denominator
        return cls(min(scaled, (1 << precision_bits) - 1), precision_bits)


class Bitstream:
    """An immutable packed bit sequence of known length: `words` is read-only
    and shares no memory with the buffer it was built from."""

    __slots__ = ("words", "length")

    def __init__(self, words, length):
        buf = np.ascontiguousarray(words, dtype=np.uint64)
        if length >= 1 and buf.shape != (-(-length // WORD_BITS),):
            raise DomainError(
                f"word buffer shape {buf.shape} does not match length {length}"
            )
        self._seal(buf.copy() if np.may_share_memory(buf, words) else buf, length)

    def _seal(self, buf, length):
        if length < 1:
            raise DomainError(f"stream length must be >= 1, got {length}")
        buf[-1] &= _pad_mask(length)
        buf.flags.writeable = False
        self.words = buf
        self.length = length

    @classmethod
    def _adopt(cls, buf, length):
        """Wrap a word buffer of the right shape that the package itself just
        allocated: no alias check and no copy, but pad bits are still masked
        (`~` sets them) and `words` still becomes read-only."""
        stream = cls.__new__(cls)
        stream._seal(buf, length)
        return stream

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bools(cls, flags):
        flags = np.asarray(flags, dtype=bool)
        packed = np.packbits(flags, bitorder="little")
        padded = np.zeros(-(-flags.size // WORD_BITS) * 8, dtype=np.uint8)
        padded[: packed.size] = packed
        return cls._adopt(padded.view("<u8"), flags.size)

    @classmethod
    def from_bits(cls, bits):
        return cls.from_bools([bool(int(b)) for b in bits])

    @classmethod
    def from01(cls, text):
        return _parse01(text, DomainError)

    @classmethod
    def zeros(cls, length):
        return cls(np.zeros(-(-length // WORD_BITS), dtype=np.uint64), length)

    @classmethod
    def ones(cls, length):
        words = np.full(-(-length // WORD_BITS), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        return cls(words, length)

    # -- accessors ----------------------------------------------------------

    def __len__(self):
        return self.length

    def __eq__(self, other):
        if not isinstance(other, Bitstream):
            return NotImplemented
        return self.length == other.length and bool(np.array_equal(self.words, other.words))

    def __hash__(self):
        return hash((self.length, self.words.tobytes()))

    def bit(self, i):
        if not 0 <= i < self.length:
            raise DomainError(f"bit index {i} out of range for length {self.length}")
        return int(self.words[i // WORD_BITS] >> np.uint64(i % WORD_BITS)) & 1

    def bools(self):
        return np.unpackbits(
            self.words.view(np.uint8), count=self.length, bitorder="little"
        ).astype(bool)

    def to01(self):
        bits = np.unpackbits(self.words.view(np.uint8), count=self.length, bitorder="little")
        return (bits + ord("0")).tobytes().decode("ascii")

    def popcount(self):
        return int(np.bitwise_count(self.words).sum())

    def __repr__(self):
        shown = self.to01() if self.length <= 64 else self.to01()[:61] + "..."
        return f"Bitstream({shown!r}, length={self.length})"


def sng_generate(value, rng_values, length=None, rng_bits=None):
    """Comparator encoding: bit i = 1 iff value.numerator > rng_values[i].

    `rng_values` must hold integers at the same precision as `value`
    (pass rng_bits to have that checked) and must supply at least `length`
    numbers.
    """
    if rng_bits is not None and rng_bits != value.precision_bits:
        raise ConfigurationError(
            f"sequence precision {rng_bits} != value precision {value.precision_bits}"
        )
    rng_values = np.asarray(rng_values, dtype=np.int64)
    if length is None:
        length = rng_values.size
    if rng_values.size < length:
        raise GenerationError(
            f"sequence supplied {rng_values.size} values, need {length}"
        )
    rng_values = rng_values[:length]
    if rng_values.size and (
        rng_values.min() < 0 or rng_values.max() >= (1 << value.precision_bits)
    ):
        raise ConfigurationError(
            f"sequence values outside [0, 2^{value.precision_bits}) "
            "(precision mismatch?)"
        )
    return Bitstream.from_bools(rng_values < value.numerator)


def decode_unipolar(stream):
    """Ones fraction: popcount / N."""
    return Fraction(stream.popcount(), stream.length)


def decode_bipolar(stream):
    """Signed decoding: 2 * popcount / N - 1."""
    return Fraction(2 * stream.popcount() - stream.length, stream.length)


def scc_from_counts(a, b, c, d):
    """The two-branch normalized overlap statistic from the pair counts.

    Returns None when the selected denominator is zero (constant streams).
    """
    n = a + b + c + d
    ad, bc = a * d, b * c
    if ad > bc:
        den = n * min(a + b, a + c) - (a + b) * (a + c)
    else:
        den = (a + b) * (a + c) - n * max(a - d, 0)
    if den == 0:
        return None
    return Fraction(ad - bc, den)


def scc(s1, s2):
    """Stochastic cross-correlation of two equal-length streams."""
    if s1.length != s2.length:
        raise DomainError(f"length mismatch: {s1.length} vs {s2.length}")
    a = int(np.bitwise_count(s1.words & s2.words).sum())
    b = s1.popcount() - a
    c = s2.popcount() - a
    d = s1.length - a - b - c
    return scc_from_counts(a, b, c, d)


# ---------------------------------------------------------------------------
# stream files: ASCII '0'/'1' lines, or raw packed words behind a length header
# ---------------------------------------------------------------------------

def dump_stream_ascii(stream):
    bits = stream.to01()
    return "\n".join(bits[i : i + 64] for i in range(0, len(bits), 64)) + "\n"


def _parse01(text, error):
    """The stream spelled by the '0'/'1' characters of `text`, whitespace (as
    `str.split` defines it) ignored; any other character raises `error`."""
    chars = "".join(text.split())
    codes = np.frombuffer(chars.encode("ascii", "replace"), dtype=np.uint8)
    if codes.size == 0 or np.any((codes | 1) != ord("1")):
        raise error("bit-stream text must be nonempty '0'/'1' characters")
    return Bitstream.from_bools(codes == ord("1"))


def load_stream_ascii(text):
    return _parse01(text, ParseError)


def dump_stream_raw(stream):
    """8-byte little-endian length header, then little-endian packed words."""
    return stream.length.to_bytes(8, "little") + stream.words.astype("<u8").tobytes()


def load_stream_raw(data):
    if len(data) < 8:
        raise ParseError("raw bit-stream shorter than its 8-byte length header")
    length = int.from_bytes(data[:8], "little")
    if length < 1:
        raise ParseError(f"raw bit-stream header declares invalid length {length}")
    n_words = -(-length // WORD_BITS)
    body = data[8:]
    if len(body) != 8 * n_words:
        raise ParseError(
            f"raw bit-stream body is {len(body)} bytes, expected {8 * n_words}"
        )
    return Bitstream(np.frombuffer(body, dtype="<u8"), length)
