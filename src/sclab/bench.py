"""Exhaustive SC accuracy benchmarks over all input pairs.

For comparator streams the circuit outputs never need simulating.  Bit i of
the stream encoding k is 1 exactly when k > thr[i], so the AND of the streams
for k1 and k2 has popcount #{i : thr_a[i] < k1, thr_b[i] < k2}: a 2-D
cumulative histogram of the two threshold arrays.  The MUX adder's count
splits by the select bit into two 1-D cumulative histograms of the data
thresholds.  Errors are exact integer sums of absolute numerator errors, so
every MAE is an exact rational, and the multiplier's runs in int32 after
dividing out gcd(N, K^2).  No count exceeds N, so the 2-D histogram's prefix
passes sum uint64 words of four uint16 lanes (N < 2^16) or two uint32: an
8-bit cell takes about 117, 130 and 727 us at N = 2^6, 2^12 and 2^16 (by
int32 and int64 cumsums 308, 330, 1147 us; timeit, 2-core Xeon, numpy 2.4.6).
The packed-word kernels in `ops` are the tests' independent oracle for counts.
"""

import contextlib
import math
import time
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, WorkbenchError
from .sequences import (_REGISTRY, MAX_LENGTH, check_stream_length, resolve_spec,
                        sequence_thresholds)

# the pair-count table has 2^(2*input_bits) cells; it is built _BLOCK_CELLS at a time
MAX_INPUT_BITS = 12
_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class BenchConfig:
    """One sweep: operation, the two sequence specs, and the lengths to visit."""

    operation: str
    sequence_pair: tuple
    lengths: tuple
    input_bits: int = 8

    def __post_init__(self):
        if self.operation not in ("mul", "add"):
            raise ConfigurationError(f"operation must be 'mul' or 'add', got {self.operation!r}")
        if list(self.lengths) != sorted(self.lengths):
            raise ConfigurationError("lengths must be ascending")
        for n in self.lengths:
            check_stream_length(n)
        _check_size(max(self.lengths, default=2), self.input_bits)


@dataclass(frozen=True)
class MaeRow:
    length: int
    mae_percent: Fraction
    wall_seconds: float


@dataclass
class MaeReport:
    operation: str
    pair_label: str
    input_bits: int
    rows: list = field(default_factory=list)

    def mae_by_length(self):
        return {row.length: row.mae_percent for row in self.rows}


def _check_size(n, input_bits):
    """Reject sweeps whose table would not fit in memory or whose sums could overflow."""
    if not 1 <= input_bits <= MAX_INPUT_BITS:
        raise ConfigurationError(f"input_bits must be in 1..{MAX_INPUT_BITS}, got {input_bits}")
    # with MAX_INPUT_BITS, MAX_LENGTH keeps every int64 error sum below 2^63
    if n > MAX_LENGTH:
        raise ConfigurationError(f"length must be at most 2^24, got {n}")


def _levels(thresholds, k_count):
    """Smallest input whose comparator bit is 1: 0 for thresholds below 0
    (always 1), k_count for thresholds >= k_count - 1 (never 1)."""
    levels = np.clip(np.asarray(thresholds, dtype=np.int64), -1, k_count - 1)
    levels += 1
    return levels


def count_table(row_level, col_level, rows, cols):
    """C[r, c] = #{i : row_level[i] <= r, col_level[i] <= c} for levels below rows
    and cols: a view of uint16 lanes (under 2^16 indices) or uint32, summed down the
    transposed bins, then down their transpose, rows padded off power-of-2 strides."""
    per_word = 4 if len(row_level) < 1 << 16 else 2
    rows_p, cols_p = ((size // per_word + 1) * per_word for size in (rows, cols))
    table = np.bincount(col_level * rows_p + row_level, minlength=cols_p * rows_p)
    table = table.astype(f"u{8 // per_word}").reshape(cols_p, rows_p)
    np.cumsum(table.view(np.uint64), axis=0, out=table.view(np.uint64))
    table = table.T.copy()
    np.cumsum(table.view(np.uint64), axis=0, out=table.view(np.uint64))
    return table[:rows, :cols]


@lru_cache(maxsize=4)
def _products(rows, k_count, scale, dtype):
    """Read-only k1*k2*scale for k1 < rows, k2 < k_count: one table per N/g."""
    ks = np.arange(k_count, dtype=dtype)
    products = np.outer(ks[:rows], ks * scale)
    products.flags.writeable = False
    return products


def mul_error_sum(thr_a, thr_b, input_bits=8):
    """Exact integer sum over all input pairs of |cnt*K^2 - k1*k2*N|.

    The per-pair MAE contribution is that numerator over N*K^2.  It is g =
    gcd(N, K^2) times |cnt*(K^2/g) - k1*k2*(N/g)|, below lcm(N, K^2) <= 2^24 for
    a power-of-2 N, so this runs in int32; in int64 only if the lcm reaches 2^31.
    """
    k_count, n = 1 << input_bits, len(thr_a)
    _check_size(n, input_bits)
    la, lb = _levels(thr_a, k_count), _levels(thr_b, k_count)
    g = math.gcd(n, k_count * k_count)
    dtype = np.int32 if k_count * k_count // g * n < 1 << 31 else np.int64
    step = max(2, _BLOCK_CELLS // k_count)
    want = _products(step, k_count, n // g, dtype)
    total, carry = 0, 0
    for r0 in range(0, k_count, step):
        rows = min(step, k_count - r0)
        # one block bins every level; level K (never 1) lands in row or column K, unread
        block = (la >= r0) & (la < r0 + rows) if rows < k_count else slice(None)
        counts = count_table(la[block] - r0 if r0 else la[block], lb[block], rows + 1, k_count + 1)
        err = np.multiply(counts[:rows, :k_count], k_count * k_count // g, dtype=dtype)
        err -= want[:rows]
        if step < k_count:  # plus the row above's error, less one row of products k2*(N/g)
            err += carry
            carry = err[-1] - want[1]
        np.abs(err, out=err)
        # int32 cells are below 2^31, at most 2^20 a block, so one int64 sum is
        # exact; int64 cells are below 2^48 under MAX_LENGTH and MAX_INPUT_BITS,
        # so their row sums stay below 2^60, but their total may not
        if dtype is np.int32:
            total += int(err.sum(dtype=np.int64))
        else:
            total += sum(err.sum(axis=1, dtype=np.int64).tolist())
    return total * g


def _sum_abs_outer(a, b):
    """sum over all i, j of |a[i] + b[j]|, without the outer array.

    The total stays below 2^63 while |a|, |b| <= 2K*N with N <= MAX_LENGTH
    and K <= 2^MAX_INPUT_BITS.
    """
    b = np.sort(b)
    prefix = np.concatenate(([0], np.cumsum(b)))
    split = np.searchsorted(b, -a)  # b[:split] < -a
    below = split * a + prefix[split]
    above = (b.size - split) * a + (prefix[-1] - prefix[split])
    return int((above - below).sum())


def add_error_sum(thr_data, thr_select, input_bits=8):
    """Exact integer sum over all pairs of |cnt*2K - (k1+k2)*N| for the MUX adder.

    Both addends come from thr_data (maximally correlated); the select stream
    encodes one half from thr_select.
    """
    k_count = 1 << input_bits
    n = len(thr_data)
    _check_size(n, input_bits)
    level = _levels(thr_data, k_count)
    select = np.asarray(thr_select, dtype=np.int64) < k_count // 2
    ks = np.arange(k_count, dtype=np.int64)
    # routed counts: cnt(k1, k2) = ones[0][k1] + ones[1][k2]
    ones = [np.bincount(level[routed], minlength=k_count + 1).cumsum()[:k_count]
            for routed in (~select, select)]
    return _sum_abs_outer(ones[0] * (2 * k_count) - ks * n, ones[1] * (2 * k_count) - ks * n)


def run_bench(config):
    """MAE-percent of the configured operation over the exhaustive input sweep.

    A spec is shared when it resolves to one spec at every length and its
    family's values do not depend on the run's length: its thresholds are
    built once, read-only, at the longest length, and each length reads their
    first N.  Every other spec is built per length.  A shared build that fails
    falls back to per-length builds, so the first failing length raises its
    own message.  The shared builds' time goes to the last row, so each row's
    wall_seconds counts the work done for it.
    """
    k_count, bits = 1 << config.input_bits, config.input_bits
    if config.operation == "mul":
        error_sum, per_pair = mul_error_sum, k_count * k_count
    else:
        error_sum, per_pair = add_error_sum, 2 * k_count
    label = " & ".join(s.describe() for s in config.sequence_pair)
    report = MaeReport(config.operation, label, bits)
    top, shared, spent = max(config.lengths, default=0), {}, 0.0
    for spec in config.sequence_pair:
        resolved = {resolve_spec(spec, n) for n in config.lengths}
        if len(resolved) != 1 or _REGISTRY[spec.family].run_sized or resolved <= shared.keys():
            continue
        (spec,) = resolved
        start = time.perf_counter()
        with contextlib.suppress(WorkbenchError, MemoryError):  # the failing length raises
            shared[spec] = sequence_thresholds(spec, top, bits)
            shared[spec].flags.writeable = False
        spent += time.perf_counter() - start
    for i, n in enumerate(config.lengths):
        start = time.perf_counter()
        # a per-length build's thresholds are freed before the next length's are built
        err = error_sum(*(shared[s][:n] if s in shared else sequence_thresholds(s, n, bits)
                          for s in (resolve_spec(spec, n) for spec in config.sequence_pair)), bits)
        mae = Fraction(100 * err, k_count * k_count * (n * per_pair))
        wall = time.perf_counter() - start + (spent if i == len(config.lengths) - 1 else 0)
        report.rows.append(MaeRow(n, mae, wall))
    return report


def mae_mul_sweep(config):
    """MAE-percent of AND multiplication over the exhaustive input sweep."""
    if config.operation != "mul":
        raise ConfigurationError("mae_mul_sweep needs operation='mul'")
    return run_bench(config)


def mae_add_sweep(config):
    """MAE-percent of MUX scaled addition over the exhaustive input sweep."""
    if config.operation != "add":
        raise ConfigurationError("mae_add_sweep needs operation='add'")
    return run_bench(config)


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

# displayed decimal places per length column, mirroring the published layout
_MUL_DECIMALS = {64: 2, 128: 2, 256: 2, 512: 3, 1024: 3, 2048: 3, 4096: 3,
                 8192: 4, 16384: 4, 32768: 4, 65536: 4}
_ADD_DECIMALS = {4: 2, 8: 2, 16: 2, 32: 2, 64: 2, 128: 2, 256: 3, 512: 2}


def display_decimals(operation, length):
    table = _MUL_DECIMALS if operation == "mul" else _ADD_DECIMALS
    return table.get(length, 4)


def round_mae(value, decimals):
    """Half-even rounding of an exact rational to a fixed-decimal string."""
    with localcontext() as ctx:
        ctx.prec = 50
        d = Decimal(value.numerator) / Decimal(value.denominator)
        return str(d.quantize(Decimal(1).scaleb(-decimals), rounding=ROUND_HALF_EVEN))


def emit_report(report, fmt):
    """CSV (length, mae_percent, wall_seconds) or a table mirroring the
    published benchmark layout (half-even rounded to column-wise decimals)."""
    if fmt == "csv":
        lines = ["length,mae_percent,wall_seconds"]
        for row in report.rows:
            lines.append(f"{row.length},{float(row.mae_percent)!r},{row.wall_seconds:.3f}")
        return "\n".join(lines) + "\n"
    if fmt == "table":
        headers = [f"2^{row.length.bit_length() - 1}" for row in report.rows]
        cells = [
            round_mae(row.mae_percent, display_decimals(report.operation, row.length))
            for row in report.rows
        ]
        label = f"{report.pair_label} ({report.operation})"
        widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
        head = "sequence".ljust(len(label)) + "  " + "  ".join(
            h.rjust(w) for h, w in zip(headers, widths)
        )
        body = label + "  " + "  ".join(c.rjust(w) for c, w in zip(cells, widths))
        return head + "\n" + body + "\n"
    raise ConfigurationError(f"unknown report format {fmt!r}")
