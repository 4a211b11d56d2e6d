"""Powers-of-2 low-discrepancy sequence generator (P2LSG).

Models the counter-plus-hard-wiring construction: an n-bit up-counter value is
split into log2(B)-bit groups from the least significant bit (the last group
zero-padded on its high side), the groups are emitted in reversed order, and
the concatenation is truncated back to n bits by keeping its most significant
bits.  The result is the base-B radical inverse of the counter value scaled to
an n-bit integer, so streams compare directly against n-bit inputs without any
floating point.

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


def group_reverse(counter_value, counter_bits, base):
    """Reverse the log2(base)-bit groups of an n-bit counter value.

    Groups are formed from the LSB upward; a short final group is zero-padded
    on its high side.  The reversed concatenation is truncated to counter_bits
    by keeping its most significant bits, so the pad bits are what get cut.
    """
    g = _log2_exact(base, "base")
    if not 0 <= counter_value < (1 << counter_bits):
        raise DomainError(
            f"counter value {counter_value} out of range for {counter_bits} bits"
        )
    n_groups = -(-counter_bits // g)
    mask = base - 1
    out = 0
    for j in range(n_groups):
        out = (out << g) | ((counter_value >> (j * g)) & mask)
    return out >> (n_groups * g - counter_bits)


def p2lsg_sequence(config, count, start=0):
    """`count` outputs from counter value `start`: element i equals
    group_reverse(start + i, n, base)."""
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    if start < 0:
        raise DomainError(f"start must be non-negative, got {start}")
    if start + count > config.period:
        raise DomainError(
            f"indices {start}..{start + count - 1} exceed the counter period {config.period}"
        )
    n, g = config.counter_bits, config.group_bits
    idx = np.arange(start, start + count, dtype=np.int64)
    mask = (1 << min(g, n)) - 1
    out = np.zeros(count, dtype=np.int64)
    for j in range(-(-n // g)):
        # group j lands at bit n - (j+1)*g; a negative offset cuts its pad bits
        group = (idx >> (j * g)) & mask
        offset = n - (j + 1) * g
        out |= group << offset if offset >= 0 else group >> -offset
    return out


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
    flat = p2lsg_sequence(
        P2lsgConfig(config.base, config.counter_bits), cycles * par
    )
    return flat.reshape(cycles, par)


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
