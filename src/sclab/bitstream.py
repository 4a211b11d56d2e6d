"""Stochastic number generation, decoding, and the SCC correlation metric.

A Bitstream packs bits into 64-bit words: bit i lives in word i // 64 at bit
position i % 64, and pad bits in the last word are always zero.  Encoding
follows the comparator rule: bit i is 1 exactly when the input numerator is
strictly greater than the i-th random number.

Stream text is '0'/'1' characters with any whitespace `str.split` skips.  One
parser reads it for `Bitstream.from01` and `load_stream_ascii` as a byte
array, and `to01` writes it as one, with no per-character Python loop.  ASCII
text (any file `sclab scc` reads as a stream) is encoded as bytes whose ASCII
whitespace one `bytes.translate` deletes; other text is joined from
`str.split`, which alone knows the non-ASCII whitespace.  timeit on a 2-core
Xeon (Python 3.11.7, numpy 2.4.6), 2^20 bits in 64-bit lines: 2.26 ms
through `str.split`, 1.10 ms as bytes.

Counting ones (`popcount`, `decode_*`, `scc`) takes one of two paths, and the
stream's size alone decides which.  Up to `_INT_COUNT_WORDS` words the words
become one Python int whose `int.bit_count()` is the count; above it numpy
sums `np.bitwise_count` over the words.  The int path costs one bytes copy
and no numpy dispatch, so it wins on short streams and loses on long ones.
timeit on the same Xeon, int against numpy:
one count 0.5 against 1.8 us at 16 words, 1.9 against 1.8 us at 128 and
188 against 17 us at 16384; `scc`'s three counts 1.2 against 7.0 us at 16
words, 4.6 against 6.5 us at 128 and 8.4 against 7.1 us at 256.  So the
constant is 128 words (8192 bits).  `decode_unipolar` and `decode_bipolar`
take their Fractions from one `lru_cache` of 2048 (numerator, N) pairs, since
a length has only N + 1 of each: 0.59 against 1.07 us a decode at 16 words.

`sng_generate` caches the threshold arrays it is given again, since a circuit
encodes many values against one fixed array.  An entry, keyed by the array's
`id`, length and precision, holds the int64 bytes that passed the range
check.  A call is a hit only when its bytes equal them (a memcmp, so an array
edited in place or a new one at a freed `id` is checked again), and a hit
skips only the range check.  The first hit builds a read-only table of all
2^bits streams.  Row k's first hit wraps it as a Bitstream that the entry
keeps, and every later hit at k returns that same object: streams are
immutable and their words read-only, so sharing one is safe.  An entry (N
values plus 2^bits rows of ceil(N / 64) words) is kept only within
`_ENCODER_WORDS` words, and at most `_ENCODER_ENTRIES` are kept, the oldest
dropped first.  timeit on the same Xeon: at 8 bits and N = 1024 a miss costs
4.1 us, a hit 1.0 us (1.8 when each hit sliced its array and wrapped its row
anew) and the table 19 us; at 2^14 words a table costs 15-131 us and repays
itself within 33 hits.  So the cap is 2^14 words: 128 KB an entry, 1 MB in
all.  The kept streams cost about 230 bytes a served numerator besides: 58 KB
at 8 bits, and at most 1.9 MB for the 8192 rows of a 13-bit entry.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, DomainError, GenerationError, ParseError

WORD_BITS = 64

# the last word's mask for each nonzero length % 64 (a whole last word has no
# pad bits, so entry 0 is never read)
_PAD_MASKS = tuple(np.uint64((1 << rem) - 1) for rem in range(WORD_BITS))

# the largest word count whose ones are counted through one Python int; the
# module docstring gives the measured crossover this is set from
_INT_COUNT_WORDS = 128

# the ASCII characters str.split skips (its other whitespace is not ASCII)
_ASCII_SPACE = b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"

# the encoder cache: (id, length, bits) of a threshold array -> [its checked
# int64 bytes, its stream table once the same bytes come again, else None,
# {numerator: the Bitstream of its row} for the rows hits have asked for];
# the module docstring gives the measured size cap of an entry
_ENCODERS = {}
_ENCODER_ENTRIES = 8
_ENCODER_WORDS = 1 << 14


def _ones(words):
    """Number of set bits in a word array, by the path its size selects."""
    if words.size <= _INT_COUNT_WORDS:
        return int.from_bytes(words, "little").bit_count()
    return int(np.add.reduce(np.bitwise_count(words)))


@dataclass(frozen=True, slots=True, init=False)
class FixedUnipolar:
    """An n-bit value numerator/2^n in [0, 1); the universal SC operand."""

    numerator: int
    precision_bits: int

    def __init__(self, numerator, precision_bits):
        # the fields are set past the frozen __setattr__ once both checks pass
        if not 1 <= precision_bits <= 62:
            raise ConfigurationError(f"precision_bits must be in 1..62, got {precision_bits}")
        if not 0 <= numerator < (1 << precision_bits):
            raise DomainError(
                f"numerator {numerator} out of range for {precision_bits}-bit precision"
            )
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "precision_bits", precision_bits)

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
        buf = np.array(words, dtype=np.uint64, ndmin=1)  # always a private copy
        if length < 1:
            raise DomainError(f"stream length must be >= 1, got {length}")
        if buf.shape != (-(-length // WORD_BITS),):
            raise DomainError(
                f"word buffer shape {buf.shape} does not match length {length}"
            )
        rem = length % WORD_BITS
        if rem:
            buf[-1] &= _PAD_MASKS[rem]
        buf.setflags(write=False)
        self.words, self.length = buf, length

    @classmethod
    def _wrap(cls, buf, length):
        """Wrap a word buffer of the right shape that the package itself just
        allocated and whose pad bits are already zero, as in `from_bools`'
        zero-padded packing and in any AND, XOR or select of streams' words
        (and in a `~` that one of them ANDs away): nothing is copied, masked or
        checked, `words` just becomes read-only."""
        buf.setflags(write=False)
        stream = cls.__new__(cls)
        stream.words, stream.length = buf, length
        return stream

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_bools(cls, flags):
        flags = np.asarray(flags, dtype=bool)
        if flags.size < 1:
            raise DomainError(f"stream length must be >= 1, got {flags.size}")
        # packbits returns a new array with its last byte zero-padded, so whole
        # words are viewed in place
        packed = np.packbits(flags, bitorder="little")
        if flags.size % WORD_BITS:
            padded = np.zeros(-(-flags.size // WORD_BITS) * 8, dtype=np.uint8)
            padded[: packed.size] = packed
            packed = padded
        return cls._wrap(packed.view("<u8"), flags.size)

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
        return _ones(self.words)

    def __repr__(self):
        shown = self.to01() if self.length <= 64 else self.to01()[:61] + "..."
        return f"Bitstream({shown!r}, length={self.length})"


def sng_generate(value, rng_values, length=None, rng_bits=None):
    """Comparator encoding: bit i = 1 iff value.numerator > rng_values[i].

    `rng_values` must be a 1-D array of integers (bool, signed or unsigned
    dtype) in [0, 2^precision_bits), at the precision of `value` (pass
    rng_bits to have that checked), holding at least `length` >= 1 values;
    the stream encodes the first `length` (all of them by default).  A length
    below 1 or not an int, an array of another shape, and a non-integer dtype,
    whose values int64 would truncate, each raise a one-line error instead of
    being sliced or cast; Python ints past int64 (objects) fail the range check.
    Every call runs every check but the range check, which a cache hit (see the
    module docstring) has already passed on the same bytes.
    """
    bits = value.precision_bits
    if rng_bits is not None and rng_bits != bits:
        raise ConfigurationError(
            f"sequence precision {rng_bits} != value precision {bits}"
        )
    rng_values = np.asarray(rng_values)
    if rng_values.ndim != 1:
        raise DomainError(
            f"sequence values must be a 1-D array, got shape {rng_values.shape}"
        )
    if length is None:
        length = rng_values.size
    elif isinstance(length, (int, np.integer)):
        length = int(length)  # a numpy scalar would overflow in the cache's size test
    else:
        raise ConfigurationError(f"stream length must be an integer, got {type(length).__name__}")
    if length < 1:
        raise DomainError(f"stream length must be >= 1, got {length}")
    if rng_values.size < length:
        raise GenerationError(
            f"sequence supplied {rng_values.size} values, need {length}"
        )
    values = rng_values
    if values.dtype.kind not in "biu":
        if values.dtype != object or not all(isinstance(v, int) for v in values.tolist()):
            raise ConfigurationError(
                f"sequence values must be integers, got dtype {values.dtype}"
            )
        # Python ints past int64, kept as objects: clipped, they fail the range check
        values = np.clip(values, -1, (1 << 63) - 1).astype(np.int64)
    if length < values.size or values.dtype != np.int64:
        values = np.asarray(values[:length], dtype=np.int64)
    k, key = value.numerator, (id(rng_values), length, bits)
    entry = _ENCODERS.get(key)
    if entry is not None and entry[0] == values.tobytes():  # a memcmp of checked values
        if entry[1] is None:  # the same values a second time: build the table
            entry[1] = _stream_table(values, bits)
        if isinstance(k, (int, np.integer)) and 0 <= k < len(entry[1]):
            stream = entry[2].get(k)
            if stream is None:  # row k's first hit
                stream = entry[2][k] = Bitstream._wrap(entry[1][k], length)
            return stream
    else:
        # one bare reduction: a negative value reads as 2^63 or more through uint64
        if np.maximum.reduce(values.view(np.uint64)) >> bits:
            raise ConfigurationError(
                f"sequence values outside [0, 2^{bits}) (precision mismatch?)"
            )
        if length + (-(-length // WORD_BITS) << bits) <= _ENCODER_WORDS:
            if key not in _ENCODERS and len(_ENCODERS) >= _ENCODER_ENTRIES:
                del _ENCODERS[next(iter(_ENCODERS))]  # the oldest entry
            _ENCODERS[key] = [values.tobytes(), None, {}]
    return Bitstream.from_bools(values < k)


def _stream_table(values, bits):
    """Every comparator stream of validated `values` as one read-only array
    of 2^bits rows of words: row k is the stream of numerator k.  A value v
    sets its bit in row v + 1 (the top value in none), and each row then ORs
    in every earlier row, so no 2^bits x N comparison is ever made."""
    table = np.zeros((1 << bits, -(-values.size // WORD_BITS)), "<u8")
    at = np.flatnonzero(values < (1 << bits) - 1)
    bit = (1 << (at & 7)).astype(np.uint8)
    np.bitwise_or.at(table.view(np.uint8), (values[at] + 1, at >> 3), bit)
    np.bitwise_or.accumulate(table, axis=0, out=table)
    table.setflags(write=False)
    return table


# (numerator, N) -> Fraction for both decodings, whose N + 1 values at one N
# recur across a circuit's many streams; a Fraction is immutable, so it is shared
_fraction = lru_cache(maxsize=2048)(Fraction)


def decode_unipolar(stream):
    """Ones fraction: popcount / N."""
    return _fraction(stream.popcount(), stream.length)


def decode_bipolar(stream):
    """Signed decoding: 2 * popcount / N - 1."""
    return _fraction(2 * stream.popcount() - stream.length, stream.length)


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
    w1, w2 = s1.words, s2.words
    if w1.size <= _INT_COUNT_WORDS:
        # short streams: all three counts from the same two Python ints
        x, y = int.from_bytes(w1, "little"), int.from_bytes(w2, "little")
        a, ones1, ones2 = (x & y).bit_count(), x.bit_count(), y.bit_count()
    else:
        a, ones1, ones2 = (int(np.add.reduce(np.bitwise_count(w))) for w in (w1 & w2, w1, w2))
    b = ones1 - a
    c = ones2 - a
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
    `str.split` defines it) ignored; any other character raises `error`.
    ASCII text drops `_ASCII_SPACE` as bytes; other text takes `str.split`."""
    if text.isascii():
        chars = text.encode("ascii").translate(None, _ASCII_SPACE)
    else:
        chars = "".join(text.split()).encode("ascii", "replace")
    codes = np.frombuffer(chars, dtype=np.uint8)
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
