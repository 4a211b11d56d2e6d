"""Exhaustive SC accuracy benchmarks over all input pairs.

For comparator streams the circuit outputs never need simulating.  Bit i of
the stream encoding k is 1 exactly when k > thr[i], so the AND of the streams
for k1 and k2 has popcount #{i : thr_a[i] < k1, thr_b[i] < k2}: a 2-D
cumulative histogram of the two threshold arrays.  The MUX adder's count
splits by the select bit into two 1-D cumulative histograms of the data
thresholds.  Errors are exact integer sums of absolute numerator errors, so
every MAE is an exact rational, and the multiplier's runs in int32 after
dividing out gcd(N, K^2).  The packed-word kernels in `ops` are the
independent oracle the tests check these counts against.
"""

import math
import time
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import numpy as np

from .errors import ConfigurationError
from .sequences import MAX_LENGTH, check_stream_length, resolve_spec, sequence_thresholds

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
    return np.clip(np.asarray(thresholds, dtype=np.int64), -1, k_count - 1) + 1


def count_table(row_level, col_level, rows, cols, dtype=np.int64):
    """C[r, c] = #{i : row_level[i] <= r, col_level[i] <= c} for levels below
    rows and cols: the ones in the AND of the two comparator streams, as a
    rows x cols cumulative histogram in `dtype`."""
    table = np.bincount(row_level * cols + col_level, minlength=rows * cols)
    table = table.astype(dtype, copy=False).reshape(rows, cols)
    # counts are non-negative and below 2^31: in int32, two columns add as one int64
    lanes = table.view(np.int64) if dtype == np.int32 and cols % 2 == 0 else table
    np.cumsum(lanes, axis=0, out=lanes)
    np.cumsum(table, axis=1, out=table)
    return table


def mul_error_sum(thr_a, thr_b, input_bits=8):
    """Exact integer sum over all input pairs of |cnt*K^2 - k1*k2*N|.

    The per-pair MAE contribution is that numerator over N*K^2.  It is g =
    gcd(N, K^2) times |cnt*(K^2/g) - k1*k2*(N/g)|, below lcm(N, K^2) <= 2^24 for
    a power-of-2 N, so this runs in int32; in int64 only if the lcm reaches 2^31.
    """
    k_count = 1 << input_bits
    n = len(thr_a)
    _check_size(n, input_bits)
    la, lb = _levels(thr_a, k_count), _levels(thr_b, k_count)
    live = (la < k_count) & (lb < k_count)
    la, lb = la[live], lb[live]
    g = math.gcd(n, k_count * k_count)
    dtype = np.int32 if k_count * k_count // g * n < 1 << 31 else np.int64
    ks = np.arange(k_count, dtype=dtype)
    step = max(1, _BLOCK_CELLS // k_count)
    carry = np.zeros(k_count, dtype=dtype)  # counts for the row above the block
    total = 0
    for r0 in range(0, k_count, step):
        rows = ks[r0 : r0 + step]
        if step < k_count:
            inside = (la >= r0) & (la < r0 + rows.size)
            counts = count_table(la[inside] - r0, lb[inside], rows.size, k_count, dtype)
        else:  # one block holds every row
            counts = count_table(la, lb, k_count, k_count, dtype)
        counts += carry
        carry = counts[-1].copy()
        counts *= k_count * k_count // g
        counts -= np.outer(rows, ks * (n // g))
        np.abs(counts, out=counts)
        # cells are below 2^48 under MAX_LENGTH and MAX_INPUT_BITS, so int64
        # row sums stay below 2^60; their total may not
        total += sum(counts.sum(axis=1, dtype=np.int64).tolist())
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
    """MAE-percent of the configured operation over the exhaustive input sweep."""
    k_count = 1 << config.input_bits
    if config.operation == "mul":
        error_sum, per_pair = mul_error_sum, k_count * k_count
    else:
        error_sum, per_pair = add_error_sum, 2 * k_count
    label = " & ".join(s.describe() for s in config.sequence_pair)
    report = MaeReport(config.operation, label, config.input_bits)
    for n in config.lengths:
        start = time.perf_counter()
        thr_a, thr_b = (sequence_thresholds(resolve_spec(spec, n), n, config.input_bits)
                        for spec in config.sequence_pair)
        err = error_sum(thr_a, thr_b, config.input_bits)
        mae = Fraction(100 * err, k_count * k_count * (n * per_pair))
        report.rows.append(MaeRow(n, mae, time.perf_counter() - start))
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
