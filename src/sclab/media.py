"""SC media case studies: bilinear image scaling through a 4-to-1 MUX and
green-screen scene merging through a 2-to-1 MUX, plus PSNR/SSIM scoring.

Pixels encode value/256.  Alpha follows compositing semantics: alpha a selects
the foreground with probability a/256, except a=255 which means fully opaque
(an all-ones select stream), so binary mattes route bit-exactly.  The same
mapping defines the reference compositor.

No stream is simulated: a comparator-stream 2-to-1 MUX's ones are gathers
from one cumulative histogram C of (select, data) thresholds, and the 4-to-1
MUX splits by its v select bit into two of those.  A merged sample's ones are
`(C[256] - C)[a, bg] + C[a, fg]`, two gathers once the pre-subtracted table is
built per frame.  Counts c of N = 2^k round to 8 bits by shifts alone (see
`_counts_to_pixels`).  The packed-word circuits in `ops` are the tests'
independent oracle for these counts.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bench import MAX_LENGTH, _levels, count_table
from .errors import ConfigurationError, DomainError
from .sequences import SequenceSpec, resolve_spec, sequence_thresholds

# default sequence assignment: data from the base-2 reversal, the u select from
# the counter-order base-N generator, the v select from the binomial-scramble
# dimension; a base-2 digital-net triple, so the three comparisons stay jointly
# equidistributed off one shared counter
DATA_SPEC = SequenceSpec.parse("p2lsg:base=2")
U_SELECT_SPEC = SequenceSpec.parse("p2lsg:base=N")
V_SELECT_SPEC = SequenceSpec.parse("sobol:dim=2")
MERGE_SELECT_SPEC = SequenceSpec.parse("p2lsg:base=N")


def _as_uint8(pixels, ndim, what):
    arr = np.asarray(pixels)
    if arr.ndim != ndim or arr.size == 0:
        raise DomainError(f"{what} must be a nonempty {ndim}-D array, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        if arr.min() < 0 or arr.max() > 255:
            raise DomainError(f"{what} samples must fit 8 bits")
        arr = arr.astype(np.uint8)
    return arr


@dataclass
class GrayImage:
    """8-bit single-channel raster, row-major."""

    pixels: np.ndarray

    def __post_init__(self):
        self.pixels = _as_uint8(self.pixels, 2, "gray image")


@dataclass
class RgbImage:
    """8-bit three-channel raster, row-major RGB triples."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise DomainError(f"rgb image must have shape (H, W, 3), got {arr.shape}")
        self.pixels = _as_uint8(arr, 3, "rgb image")


@dataclass
class AlphaMap:
    """8-bit coverage map: 0 = background, 255 = foreground."""

    alpha: np.ndarray

    def __post_init__(self):
        self.alpha = _as_uint8(self.alpha, 2, "alpha map")


def image_from_array(pixels):
    arr = np.asarray(pixels)
    return GrayImage(arr) if arr.ndim == 2 else RgbImage(arr)


# ---------------------------------------------------------------------------
# quality metrics
# ---------------------------------------------------------------------------

def _metric_planes(a, b):
    pa = a.pixels if isinstance(a, (GrayImage, RgbImage)) else np.asarray(a)
    pb = b.pixels if isinstance(b, (GrayImage, RgbImage)) else np.asarray(b)
    if pa.shape != pb.shape:
        raise DomainError(f"image shape mismatch: {pa.shape} vs {pb.shape}")
    return pa.astype(np.float64), pb.astype(np.float64)


def psnr(a, b, max_value=255):
    """Peak signal-to-noise ratio in dB; math.inf when the images are identical."""
    pa, pb = _metric_planes(a, b)
    mse = float(np.mean((pa - pb) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(max_value * max_value / mse)


def _box_sums(x, w):
    integral = np.zeros((x.shape[0] + 1, x.shape[1] + 1))
    np.cumsum(np.cumsum(x, axis=0), axis=1, out=integral[1:, 1:])
    return (
        integral[w:, w:] - integral[:-w, w:] - integral[w:, :-w] + integral[:-w, :-w]
    )


def ssim(a, b, window=8):
    """Mean local SSIM over sliding 8x8 uniform windows, stride 1.

    Stabilizers C1=(0.01*255)^2, C2=(0.03*255)^2; population moments.  RGB
    inputs score as the mean over channels.
    """
    pa, pb = _metric_planes(a, b)
    if pa.ndim == 3:
        return float(np.mean([ssim(pa[..., c], pb[..., c], window) for c in range(3)]))
    if min(pa.shape) < window:
        raise DomainError(f"image {pa.shape} smaller than the {window}x{window} window")
    n = window * window
    c1 = (0.01 * 255) ** 2
    c2 = (0.03 * 255) ** 2
    mu_a = _box_sums(pa, window) / n
    mu_b = _box_sums(pb, window) / n
    var_a = _box_sums(pa * pa, window) / n - mu_a * mu_a
    var_b = _box_sums(pb * pb, window) / n - mu_b * mu_b
    cov = _box_sums(pa * pb, window) / n - mu_a * mu_b
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(score.mean())


# ---------------------------------------------------------------------------
# chroma keying
# ---------------------------------------------------------------------------

def chroma_key_alpha(frame, green_threshold=100, dominance_margin=50):
    """Binary matte: background where green is strong and dominates red/blue."""
    pix = frame.pixels.astype(np.int16)
    g = pix[..., 1]
    dominance = g - np.maximum(pix[..., 0], pix[..., 2])
    background = (g > green_threshold) & (dominance > dominance_margin)
    return AlphaMap(np.where(background, 0, 255).astype(np.uint8))


# ---------------------------------------------------------------------------
# shared SC machinery
# ---------------------------------------------------------------------------

# largest scale_image_sc output, in pixels (8192 x 8192)
MAX_OUTPUT_PIXELS = 1 << 26
# output rows gathered at a time, which bounds the int64 temporaries
_ROW_BLOCK = 32
# a v-table update adds one rectangle per new index up to this many (N up to
# about 4096), else a cumulative histogram whose cost does not grow with N
_RECT_ADDS = 16


def _check_stream_length(n):
    if n < 2 or n & (n - 1) or n > MAX_LENGTH:
        raise ConfigurationError(f"stream length must be a power of 2 in 2..2^24, got {n}")


def _stream_levels(spec, n):
    """Comparator levels of a sequence's 8-bit thresholds: the stream for k/256
    (k = 256: the fully-opaque select) has a 1 at i exactly when level[i] <= k."""
    return _levels(sequence_thresholds(resolve_spec(spec, n), n, bits=8), 256)


def _mux2_counts(table, sel_cells, d0, d1):
    """Ones of 2-to-1 MUXes routing d0 on select 0, d1 on select 1 (sel_cells =
    257 * select numerator): d0's ones outside the select plus d1's under it."""
    cells = table.ravel()
    return table[256][d0] - cells[sel_cells + d0] + cells[sel_cells + d1]


def _counts_to_pixels(counts, n):
    """Nearest 8-bit value for counts/n, ties away from zero, capped at 255.

    n = 2^k (see _check_stream_length), so round(256 c / n) is
    (c + 2^(k-9)) >> (k-8) for k > 8 and c << (8-k) otherwise; the shifts
    run in place, so `counts` must be a fresh array.
    """
    k = n.bit_length() - 1
    if k > 8:
        counts += n >> 9
        counts >>= k - 8
    else:
        counts <<= 8 - k
    return np.minimum(counts, 255, out=counts).astype(np.uint8)


def _axis_map(size, out_size):
    """Corner-aligned source mapping src = dst*(size-1)/(out_size-1) (0 for a
    single output), in exact integers: the neighbors floor(src) and
    min(floor(src)+1, size-1), the offset round((src - floor(src))*256) with
    ties to even, capped at 255, and that offset unrounded as float64."""
    den = max(out_size - 1, 1)
    base, rem = np.divmod(np.arange(out_size, dtype=np.int64) * (size - 1), den)
    off8, twice = np.divmod(rem * 512, 2 * den)
    off8 += (twice > den) | ((twice == den) & (off8 & 1 == 1))
    return base, np.minimum(base + 1, size - 1), np.minimum(off8, 255), rem / den


# ---------------------------------------------------------------------------
# bilinear scaling
# ---------------------------------------------------------------------------

def _scale_sc(pix, out_h, out_w, n, data, u_level, v_level):
    """4-to-1 MUX scaling of an (H, W, C) raster from comparator counts.

    For one v offset the indices split by the v select bit, and each half is a
    2-to-1 MUX over u.  Rows are visited in ascending v offset, so the count
    table of the half whose v bit is 1 only ever grows.
    """
    y1, y2, v8, _ = _axis_map(pix.shape[0], out_h)
    x1, x2, u8, _ = _axis_map(pix.shape[1], out_w)
    u_cells = 257 * u8[:, None]
    whole = count_table(u_level, data, 257, 257)
    upper = np.zeros_like(whole)
    by_v = np.argsort(v_level, kind="stable")
    sorted_v, added = v_level[by_v], 0
    rows_by_v = np.argsort(v8, kind="stable")
    out = np.empty((out_h, out_w, pix.shape[2]), dtype=np.uint8)
    for rows in np.split(rows_by_v, np.flatnonzero(np.diff(v8[rows_by_v])) + 1):
        stop = np.searchsorted(sorted_v, v8[rows[0]], side="right")
        new = by_v[added:stop]
        if new.size > _RECT_ADDS:
            upper += count_table(u_level[new], data[new], 257, 257)
        else:
            for i in new:
                upper[u_level[i]:, data[i]:] += 1
        added, lower = stop, whole - upper
        for r in range(0, rows.size, _ROW_BLOCK):
            block = rows[r : r + _ROW_BLOCK]
            top, bottom = (pix[y[block]].astype(np.int64) for y in (y1, y2))
            counts = (_mux2_counts(lower, u_cells, top.take(x1, 1), top.take(x2, 1))
                      + _mux2_counts(upper, u_cells, bottom.take(x1, 1), bottom.take(x2, 1)))
            out[block] = _counts_to_pixels(counts, n)
    return out


def _output_dims(h, w, factor):
    # neither the factor nor the scaled size is printed: an exact factor such
    # as 1e-4300 has more digits than str() converts
    f = Fraction(factor)
    if f < 1:
        raise DomainError("scale factor must be >= 1")
    out_h, out_w = round(h * f), round(w * f)
    if out_h * out_w > MAX_OUTPUT_PIXELS:
        raise DomainError(f"scaling the {h}x{w} image exceeds {MAX_OUTPUT_PIXELS} pixels")
    return out_h, out_w


def scale_image_sc(image, scale_factor, stream_length=256,
                   seq_data=DATA_SPEC, seq_u=U_SELECT_SPEC, seq_v=V_SELECT_SPEC):
    """Bilinear scaling with a stochastic 4-to-1 MUX.

    The four clamped neighbors feed the MUX data inputs off one shared
    sequence (mutual correlation is fine for MUX data); the fractional offsets
    u and v drive the two select streams from two further sequences.
    """
    _check_stream_length(stream_length)
    pix = image.pixels
    out_h, out_w = _output_dims(pix.shape[0], pix.shape[1], scale_factor)
    levels = [_stream_levels(spec, stream_length) for spec in (seq_data, seq_u, seq_v)]
    if isinstance(image, GrayImage):
        return GrayImage(_scale_sc(pix[..., None], out_h, out_w, stream_length, *levels)[..., 0])
    return RgbImage(_scale_sc(pix, out_h, out_w, stream_length, *levels))


def bilinear_reference(image, scale_factor):
    """Exact bilinear resampling oracle as float64, same grid convention."""
    pix = image.pixels if isinstance(image, (GrayImage, RgbImage)) else np.asarray(image)
    gray = pix.ndim == 2
    pix = pix.reshape(*pix.shape[:2], -1)
    h, w = pix.shape[:2]
    out_h, out_w = _output_dims(h, w, scale_factor)
    x1, x2, _, u = _axis_map(w, out_w)
    y1, y2, _, v = _axis_map(h, out_h)
    p = pix.astype(np.float64)
    uu, vv = u[None, :, None], v[:, None, None]
    out = (
        (1 - uu) * (1 - vv) * p[y1][:, x1]
        + (1 - uu) * vv * p[y2][:, x1]
        + uu * (1 - vv) * p[y1][:, x2]
        + uu * vv * p[y2][:, x2]
    )
    return out[..., 0] if gray else out


# ---------------------------------------------------------------------------
# scene merging
# ---------------------------------------------------------------------------

def _alpha_select_numerators(alpha):
    # alpha/256 select probability, except fully-opaque 255 -> 1.0 (row 256)
    a = alpha.astype(np.int64)
    return np.where(a == 255, 256, a)


# table cell offset 257 * numerator of each alpha byte's select stream
_SELECT_CELLS = 257 * _alpha_select_numerators(np.arange(256))


def merge_scene_sc(background, foreground, alpha, stream_length=256,
                   seq_data=DATA_SPEC, seq_select=MERGE_SELECT_SPEC):
    """Per-pixel 2-to-1 MUX compositing: select 0 routes the background.

    Background and foreground streams share one sequence; the alpha select
    stream comes from a second, uncorrelated one.
    """
    _check_stream_length(stream_length)
    bg, fg = background.pixels, foreground.pixels
    if bg.shape != fg.shape or alpha.alpha.shape != bg.shape[:2]:
        raise DomainError(
            f"dimension mismatch: bg {bg.shape}, fg {fg.shape}, alpha {alpha.alpha.shape}"
        )
    n = stream_length
    table = count_table(_stream_levels(seq_select, n), _stream_levels(seq_data, n), 257, 257)
    # a sample's ones: the background's outside the select plus the foreground's under it
    inside, outside = table.ravel(), (table[256] - table).ravel()
    out = np.empty_like(bg)
    for r in range(0, bg.shape[0], _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        sel_cells = _SELECT_CELLS[alpha.alpha[rows]][..., None]
        counts = outside.take(sel_cells + bg[rows])
        counts += inside.take(sel_cells + fg[rows])
        out[rows] = _counts_to_pixels(counts, n)
    return RgbImage(out)


def merge_reference(background, foreground, alpha):
    """Exact compositing oracle as float64, same alpha semantics as the SC path."""
    bg = background.pixels.astype(np.int64)
    fg = foreground.pixels.astype(np.int64)
    if bg.shape != fg.shape or alpha.alpha.shape != bg.shape[:2]:
        raise DomainError("dimension mismatch between frames and alpha")
    a = _alpha_select_numerators(alpha.alpha)[..., None]
    return (bg * (256 - a) + fg * a) / 256.0
