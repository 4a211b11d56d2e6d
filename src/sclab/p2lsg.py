"""Powers-of-2 low-discrepancy sequence generator (P2LSG).

Models the counter-plus-hard-wiring construction: an n-bit up-counter value is
split into log2(B)-bit groups from the least significant bit (the last group
zero-padded on its high side), the groups are emitted in reversed order, and
the concatenation is truncated back to n bits by keeping its most significant
bits.  The result is the base-B radical inverse of the counter value scaled to
an n-bit integer, so streams compare directly against n-bit inputs without any
floating point.  When log2(B) does not divide n, the short group comes last,
its pad above its index bits, so the cut drops index bits and keeps pad zeros:
the outputs are then not a permutation (base 4 over 3 bits gives 0, 2, 4, 6,
0, 2, 4, 6).

Each output bit is the parity of the counter under one fixed mask, so, as the
low byte cycles through all 256 values under each fixed high part, a run of
counter values is the outer XOR of a low-byte table with one value per high part.

All functions are pure; configs are immutable and safe to share across threads.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError


def _log2_exact(value, what):
    if not isinstance(value, int) or value < 2 or value & (value - 1):
        raise ConfigurationError(f"{what} must be a power of 2 >= 2, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True)
class P2lsgConfig:
    """Generator parameters: power-of-2 base, counter width, parallelism degree."""

    base: int
    counter_bits: int
    par: int = 1

    def __post_init__(self):
        _log2_exact(self.base, "base")
        if not 1 <= self.counter_bits <= 62:
            raise ConfigurationError(f"counter_bits must be in 1..62, got {self.counter_bits}")
        if self.par != 1:
            if self.par < 1 or self.par & (self.par - 1):
                raise ConfigurationError(f"par must be a power of 2 >= 1, got {self.par}")
            if self.par.bit_length() - 1 >= self.counter_bits:
                raise ConfigurationError(
                    f"par={self.par} needs log2(par) < counter_bits={self.counter_bits}"
                )

    @property
    def group_bits(self):
        return self.base.bit_length() - 1

    @property
    def period(self):
        return 1 << self.counter_bits


def p2lsg_sequence(config, count, start=0):
    """`count` outputs from counter value `start`: element i splits start + i
    into log2(base)-bit groups from the LSB, the last zero-padded on its high
    side, emits the groups in reversed order and keeps the top n bits."""
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    if start < 0:
        raise DomainError(f"start must be non-negative, got {start}")
    if start + count > config.period:
        raise DomainError(
            f"indices {start}..{start + count - 1} exceed the counter period {config.period}"
        )
    n, g = config.counter_bits, config.group_bits
    rows = [0] * n  # rows[k]: the index bit of output bit n-1-k, which gf2_outputs takes
    for j in range(-(-n // g)):
        # bit t of group j lands at bit n - (j+1)*g + t; a negative one is a cut pad bit
        for t in range(max(0, (j + 1) * g - n), min(g, n - j * g)):
            rows[(j + 1) * g - 1 - t] = 1 << (j * g + t)
    return gf2_outputs(rows, start, count)


def gf2_outputs(rows, start, count):
    """GF(2) matrix times the bits of the indices start .. start + count - 1:
    output bit j, counted from the most significant of len(rows) <= 63 bits, is
    the parity of index & rows[j].  So an output is the XOR of one table entry
    per index byte, and a run is the outer XOR of the low byte's 256-entry
    table with one XOR of the higher bytes' entries per distinct index >> 8."""
    nbytes = -(-(max(rows).bit_length() or 1) // 8)
    # col[c, k]: the output of index bit 8c + k; table[c, v]: of index v << 8c,
    # filled by doubling over the bits of v
    bits = np.array(rows, dtype=np.uint64) >> np.arange(nbytes << 3, dtype=np.uint64)[:, None]
    weights = np.uint64(1) << np.arange(len(rows) - 1, -1, -1, dtype=np.uint64)
    col = ((bits & np.uint64(1)) @ weights).astype(np.int64).reshape(nbytes, 8)
    table = np.zeros((nbytes, 256), dtype=np.int64)
    for k in range(8):
        table[:, 1 << k : 2 << k] = table[:, : 1 << k] ^ col[:, k, None]
    high_idx = np.arange(start >> 8, (start + count - 1 >> 8) + 1, dtype=np.uint64)
    high = np.zeros(high_idx.size, dtype=np.int64)
    for c in range(1, nbytes):
        high ^= table[c][high_idx >> 8 * (c - 1) & 255]
    return (high[:, None] ^ table[0]).ravel()[start & 255 :][:count]


def p2lsg_parallel(config, cycles):
    """PAR outputs per cycle; cycle c yields indices c*PAR .. c*PAR+PAR-1.

    Flattening the rows reproduces p2lsg_sequence element for element.
    """
    par = config.par
    if par < 2:
        raise ConfigurationError("parallel generation needs par >= 2 in the config")
    if cycles < 1:
        raise DomainError(f"cycles must be positive, got {cycles}")
    if cycles * par > config.period:
        raise DomainError(
            f"cycles*par = {cycles * par} exceeds the counter period {config.period}"
        )
    return p2lsg_sequence(config, cycles * par).reshape(cycles, par)


def p2lsg_pair_for_length(stream_length):
    """The two mutually low-correlated configs for 2-input SC ops at length N.

    The first input uses base 2 and the second uses base N, both on a
    log2(N)-bit counter.
    """
    m = _log2_exact(stream_length, "stream length")
    return (
        P2lsgConfig(base=2, counter_bits=m),
        P2lsgConfig(base=stream_length, counter_bits=m),
    )
