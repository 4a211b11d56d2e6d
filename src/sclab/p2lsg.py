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

Output bit k is the parity of the counter under one fixed mask: the outputs
are a digital sequence over GF(2), computed by `digital_outputs` as is every
linear family, which sums by XOR over GF(2) (p = 2) and by + over Z_p.

All functions are pure; configs are immutable and safe to share across threads.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

TABLE_SIZE = 4096  # most entries in one digit table of digital_outputs


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
    # counter bit i, bit i % g of group i // g, lands at output bit b, or is cut when b < 0
    cols = [1 << b if b >= 0 else 0 for b in (n - (i // g + 1) * g + i % g for i in range(n))]
    return digital_outputs(cols, 2, start, count)


def digital_outputs(cols, p, start, count, dtype=np.int64):
    """The sums, by XOR if p = 2 and else by +, of d_t * cols[t] over the base-p
    digits d_t of each index start .. start + count - 1 (below p^len(cols)),
    least significant first; a column is a number or a vector, summed along a
    trailing axis.  The low m digits cycle through all p^m values under each
    fixed index // p^m, so a run is a table over them (entry d * p^t + v is
    entry v plus d * cols[t], grown until it covers the run or would pass
    TABLE_SIZE) combined with one sum per distinct index // p^m, which this
    function gives over the higher digits.  A p above TABLE_SIZE has no table:
    the run's lowest digits are peeled, their higher digits' sums added in place."""
    if p > TABLE_SIZE:
        low = np.arange(start, start + count, dtype=dtype)
        high = low // p
        low -= high * p
        low = np.multiply.outer(low, cols[0])
        if start + count <= p:
            return low
        high -= start // p
        rest = digital_outputs(cols[1:], p, start // p, int(high[-1]) + 1, dtype)
        return np.add(low, np.take(rest, high.astype(np.intp, copy=False), axis=0), out=low)
    add = np.bitwise_xor if p == 2 else np.add
    tail = getattr(cols[0], "shape", ())  # () for a number
    digits = np.arange(p, dtype=dtype).reshape((p, 1) + (1,) * len(tail))
    table, m = (digits * cols[0]).reshape((-1,) + tail), 1
    while len(table) < start + count and len(table) * p <= TABLE_SIZE:
        table, m = add(digits * cols[m], table).reshape((-1,) + tail), m + 1
    q = len(table)
    if start + count <= q:
        return table[start : start + count]
    first, last = start // q, (start + count - 1) // q
    high = digital_outputs(cols[m:], p, first, last - first + 1, dtype)
    return add(high[:, None], table).reshape((-1,) + tail)[start % q :][:count]


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
