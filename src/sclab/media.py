"""SC media case studies: bilinear image scaling through a 4-to-1 MUX and
green-screen scene merging through a 2-to-1 MUX, plus PSNR/SSIM scoring.

Pixels encode value/256.  Alpha follows compositing semantics: alpha a selects
the foreground with probability a/256, except a=255 which means fully opaque
(an all-ones select stream), so binary mattes route bit-exactly.  The same
mapping defines the reference compositor.

No stream is simulated: a comparator-stream 2-to-1 MUX's ones are gathers
from one cumulative histogram C of (select, data) thresholds, and the 4-to-1
MUX splits by its v select bit into two of those.  A merged sample's ones are
`(C[256] - C)[a, bg] + C[a, fg]`, gathered, like scaling's, from flat 256x256
tables through uint16 cells `row << 8 | sample`.  The tables and counts are
int16 up to N = 2^14 and int32 above (`_count_dtype`): every partial sum a
kernel forms counts distinct indices, so none exceeds the largest count.  The
cells are built channel-contiguous: scaling works on rows of W*C samples,
merging ORs a channel-stacked select plane, so no op broadcasts over the
3-wide RGB axis.
Counts c of N = 2^k round to 8 bits by shifts, folded into the tables (see
`_rounding`), and the merge tables are built once per run of frames.  A
sample whose alpha is 0 or 255 (every chroma-keyed matte, most of an explicit
one) needs no table: alpha 0 and 255 select no index and every index, so the
MUX passes one data stream through whole, and such a sample is the
branch-free select `bg ^ ((bg ^ fg) & alpha)` mapped through one 256-entry
pixel table, exactly the two-table result; the map is skipped where it is the
identity (the default data at N >= 256).  A block of rows whose partial
pixels are at most a quarter of its pixels (`_SPARSE_SHARE`) selects so in
place in the output, then gathers the counts of those pixels alone, as 3-byte
items; a block with more gathers all its samples.  The packed-word circuits in
`ops` are the tests' independent oracle for these counts.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction

import numpy as np

from .bench import _levels, count_table
from .errors import DomainError
from .sequences import SequenceSpec, default_pair, resolve_spec, sequence_thresholds

# default sequence assignment: data from the base-2 reversal, the u select from
# the counter-order base-N generator, the v select from the binomial-scramble
# dimension; a base-2 digital-net triple, so the three comparisons stay jointly
# equidistributed off one shared counter
DATA_SPEC, U_SELECT_SPEC = default_pair("p2lsg")
V_SELECT_SPEC = SequenceSpec.parse("sobol:dim=2")
MERGE_SELECT_SPEC = U_SELECT_SPEC


def _as_uint8(pixels, ndim, what):
    """Integer samples (bool, signed, unsigned, or Python int objects) in
    0..255 as uint8; any other dtype is rejected, never cast."""
    arr = np.asarray(pixels)
    if arr.ndim != ndim or arr.size == 0:
        raise DomainError(f"{what} must be a nonempty {ndim}-D array, got shape {arr.shape}")
    if arr.dtype.kind not in "biu" and not (
            arr.dtype == object and all(isinstance(v, int) for v in arr.flat)):
        raise DomainError(f"{what} samples must be integers, got dtype {arr.dtype}")
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
    r, g, b = (frame.pixels[..., c] for c in range(3))
    dominance = np.subtract(g, np.maximum(r, b), dtype=np.int16)
    foreground = (g <= green_threshold) | (dominance <= dominance_margin)
    return AlphaMap(foreground.view(np.uint8) * np.uint8(255))


# ---------------------------------------------------------------------------
# shared SC machinery
# ---------------------------------------------------------------------------

# largest scale_image_sc output, in pixels (8192 x 8192)
MAX_OUTPUT_PIXELS = 1 << 26
# output rows gathered at a time: bounds the uint16 cell arrays and the count
# arrays, int16 up to N = 2^14 and int32 above (see `_count_dtype`)
_ROW_BLOCK = 32
# a v-table update adds one rectangle per new index up to this many, else a
# cumulative histogram whose cost does not grow with N.  A rectangle costs
# 4.6 us in int16 and 8.0 us in int32, a histogram 196-200 us (timeit, 2-core
# Xeon, numpy 2.4.6): 43 adds break even in int16, and int32 tables (N >= 2^15)
# meet groups of about N/256 >= 128 indices or more, past either crossover
_RECT_ADDS = 40


def _stream_levels(spec, n):
    """Comparator levels of a sequence's 8-bit thresholds: the stream for k/256
    (k = 256: the fully-opaque select) has a 1 at i exactly when level[i] <= k."""
    return _levels(sequence_thresholds(resolve_spec(spec, n), n, bits=8), 256)


def _rounding(n):
    """(lift, bias, drop) for N = 2^k: the nearest 8-bit value of c/N, ties up,
    is min(255, ((c << lift) + bias) >> drop), with lift = 8 - k for k <= 8, and
    bias = 2^(k-9), drop = k - 8 above.  The kernels fold lift into their count
    tables and bias into one table each count reads once; `_to_pixels` ends it."""
    k = n.bit_length() - 1
    return max(8 - k, 0), n >> 9, max(k - 8, 0)


def _count_dtype(n):
    """The kernels' table and count dtype: int16 when the largest folded count,
    (N << lift) + bias, is below 2^15 (N <= 2^14), else int32.  Nothing relies
    on wraparound: a merge adds two gathers that count distinct indices, and
    scaling sums the lower half, then the upper, each as T[256, d0] - T[u, d0]
    + T[u, d1], so every partial sum counts distinct indices plus the bias and
    lies in 0..(N << lift) + bias."""
    lift, bias, _ = _rounding(n)
    return np.int16 if (n << lift) + bias < 1 << 15 else np.int32


def _to_pixels(counts, drop):
    """Shift folded counts by `drop` and cap them at 255, in place: a count is at
    most N, so the shifted value is at most 256, and subtracting its bit 8 caps
    it, faster than np.minimum against a scalar."""
    if drop:
        counts >>= drop
    counts -= counts >> 8
    return counts


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
    2-to-1 MUX over u: d0's ones outside the u select plus d1's under it.  Rows
    are visited in ascending v offset, so the table of the v bit 1 half grows.
    Pixels are gathered as rows of W*C samples, column x's channel c at x*C + c,
    so every gather and OR runs along a whole output row.
    """
    h, w, ch = pix.shape
    y1, y2, v8, _ = _axis_map(h, out_h)
    x1, x2, u8, _ = _axis_map(w, out_w)
    cols = [(x[:, None] * ch + np.arange(ch)).ravel() for x in (x1, x2)]
    u_cells = np.repeat(u8.astype(np.uint16) << 8, ch)
    # every source row's x1 and x2 samples, gathered once for all its output rows
    near, far = (pix.reshape(h, w * ch).take(c, 1) for c in cols)
    lift, bias, drop = _rounding(n)
    dtype = _count_dtype(n)
    whole = count_table(u_level, data, 257, 257)[:, :256].astype(dtype) << lift
    whole[256] += bias  # lower[256] is read once per count
    upper, lower = np.zeros_like(whole), np.empty_like(whole)
    by_v = np.argsort(v_level, kind="stable")
    sorted_v, added = v_level[by_v], 0
    rows_by_v = np.argsort(v8, kind="stable")
    out = np.empty((out_h, out_w * ch), dtype=np.uint8)
    for rows in np.split(rows_by_v, np.flatnonzero(np.diff(v8[rows_by_v])) + 1):
        stop = np.searchsorted(sorted_v, v8[rows[0]], side="right")
        new = by_v[added:stop]
        if new.size > _RECT_ADDS:
            upper += count_table(u_level[new], data[new], 257, 257)[:, :256].astype(dtype) << lift
        else:
            for u, d in zip(u_level[new].tolist(), data[new].tolist()):
                upper[u:, d:] += 1 << lift
        added = stop
        np.subtract(whole, upper, out=lower)
        for r in range(0, rows.size, _ROW_BLOCK):
            block = rows[r : r + _ROW_BLOCK]
            # lower half, then upper, so no partial sum leaves the count dtype
            d0, d1 = near[y1[block]], far[y1[block]]
            counts = lower[256].take(d0)
            counts -= lower.ravel().take(u_cells | d0)
            counts += lower.ravel().take(u_cells | d1)
            d0, d1 = near[y2[block]], far[y2[block]]
            counts += upper[256].take(d0)
            counts -= upper.ravel().take(u_cells | d0)
            counts += upper.ravel().take(u_cells | d1)
            out[block] = _to_pixels(counts, drop)
    return out.reshape(out_h, out_w, ch)


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

# each alpha byte's select row: a/256 select probability, except fully-opaque
# 255 -> 1.0 (row 256)
_SELECT_ROWS = np.append(np.arange(255), 256)


@lru_cache(maxsize=1)
def _merge_tables(n, seq_data, seq_select):
    """(outside, inside, routed): a merged sample's ones from the background
    outside the select and from the foreground under it, as flat tables by the
    cell `alpha << 8 | sample` in `_count_dtype` (int16 up to N = 2^14), with
    the rounding folded in; and the uint8 pixel of a sample v that alpha 0 or
    255 routes whole, None when that is v itself (the default data at
    N >= 256).  One LUT serves both:
    outside[0, v] + inside[0, v'] and outside[255, v'] + inside[255, v] equal
    (C[256, v] << lift) + bias, since C's row 0 is all zeros.  Cached read-only,
    so the frames of one run build them once; one entry bounds the memory."""
    lift, bias, drop = _rounding(n)
    table = count_table(_stream_levels(seq_select, n), _stream_levels(seq_data, n), 257, 257)
    table <<= lift
    outside, inside = (t[_SELECT_ROWS, :256].astype(_count_dtype(n)).ravel()
                       for t in (table[256] + bias - table, table))
    routed = _to_pixels(outside[255 << 8:] + inside[255 << 8:], drop).astype(np.uint8)
    for t in (outside, inside, routed):
        t.flags.writeable = False
    return outside, inside, None if np.array_equal(routed, np.arange(256)) else routed


# a block with partial alpha bytes gathers those pixels alone while they are at
# most 1/_SPARSE_SHARE of its pixels, else all of its samples.  A 640x480 RGB
# frame of random partial bytes takes 2.2 ms by whole blocks at any density and
# by sparse gathers 1.5 ms at 15 %, 2.0 ms at 25 % and 2.2 ms at 30 % (int16,
# N = 1024; int32 breaks even near 40 %) (timeit, 2-core Xeon, numpy 2.4.6)
_SPARSE_SHARE = 4


def merge_scene_sc(background, foreground, alpha, stream_length=256,
                   seq_data=DATA_SPEC, seq_select=MERGE_SELECT_SPEC):
    """Per-pixel 2-to-1 MUX compositing: select 0 routes the background.

    Background and foreground streams share one sequence; the alpha select
    stream comes from a second, uncorrelated one.
    """
    bg, fg = background.pixels, foreground.pixels
    if bg.shape != fg.shape or alpha.alpha.shape != bg.shape[:2]:
        raise DomainError(
            f"dimension mismatch: bg {bg.shape}, fg {fg.shape}, alpha {alpha.alpha.shape}"
        )
    n = stream_length
    outside, inside, routed = _merge_tables(n, seq_data, seq_select)
    drop = _rounding(n)[2]
    bg, fg = np.ascontiguousarray(bg), np.ascontiguousarray(fg)
    out = np.empty(bg.shape, dtype=np.uint8)
    # each frame's pixels as 3-byte items, so a gather moves whole pixels
    bg3, fg3, out3 = (x.view("V3").ravel() for x in (bg, fg, out))
    for r in range(0, bg.shape[0], _ROW_BLOCK):
        rows = slice(r, r + _ROW_BLOCK)
        a = alpha.alpha[rows]
        partial = a + 1 > 1  # bytes 1..254 (255 wraps to 0)
        count = np.count_nonzero(partial)
        if count * _SPARSE_SHARE > partial.size:
            # each sample's alpha, laid out by channel once rather than broadcast
            sel = np.stack((a.astype(np.uint16) << 8,) * 3, axis=-1)
            counts = outside.take(bg[rows] | sel)
            counts += inside.take(fg[rows] | sel)
            out[rows] = _to_pixels(counts, drop)
            continue
        # bytes 0 and 255 are the masks that pick bg or fg whole; the partial
        # pixels' bytes are overwritten below
        b, o = bg[rows], out[rows]
        np.bitwise_xor(b, fg[rows], out=o)
        o &= np.stack((a,) * 3, axis=-1)
        o ^= b
        if routed is not None:
            routed.take(o, out=o)
        if count:
            at = np.flatnonzero(partial)
            sel = np.repeat(a.ravel().take(at).astype(np.uint16) << 8, 3)
            at += r * bg.shape[1]
            counts = outside.take(bg3.take(at).view(np.uint8) | sel)
            counts += inside.take(fg3.take(at).view(np.uint8) | sel)
            out3.put(at, _to_pixels(counts, drop).astype(np.uint8).view("V3"))
    return RgbImage(out)


def merge_reference(background, foreground, alpha):
    """Exact compositing oracle as float64, same alpha semantics as the SC path."""
    bg = background.pixels.astype(np.int64)
    fg = foreground.pixels.astype(np.int64)
    if bg.shape != fg.shape or alpha.alpha.shape != bg.shape[:2]:
        raise DomainError("dimension mismatch between frames and alpha")
    a = _SELECT_ROWS[alpha.alpha][..., None]
    return (bg * (256 - a) + fg * a) / 256.0
