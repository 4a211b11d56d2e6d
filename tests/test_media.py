import math
import re
import warnings
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from sclab import media
from sclab.bench import _levels, count_table
from sclab.bitstream import Bitstream, FixedUnipolar, sng_generate
from sclab.errors import ConfigurationError, DomainError
from sclab.media import (
    AlphaMap,
    DATA_SPEC,
    GrayImage,
    MAX_OUTPUT_PIXELS,
    MERGE_SELECT_SPEC,
    RgbImage,
    U_SELECT_SPEC,
    V_SELECT_SPEC,
    _axis_map,
    _output_dims,
    bilinear_reference,
    chroma_key_alpha,
    merge_reference,
    merge_scene_sc,
    psnr,
    scale_image_sc,
    ssim,
)
from sclab.ops import mux2, mux4
from sclab.sequences import SequenceSpec, resolve_spec, sequence_thresholds

# (data, u select, v select) triples; merging uses the first two as (data, select)
SPEC_SETS = {
    "default": (DATA_SPEC, U_SELECT_SPEC, V_SELECT_SPEC),
    "other": tuple(SequenceSpec.parse(t) for t in ("halton:base=3", "lfsr:seed=1", "weyl")),
}
ORACLE_LENGTHS = (2, 8, 64, 256, 1024)


@lru_cache(maxsize=None)
def comparator_streams(spec, n):
    """sng_generate's stream for every numerator 0..255, then the all-ones
    stream (the fully-opaque select)."""
    thr = sequence_thresholds(resolve_spec(spec, n), n)
    return [sng_generate(FixedUnipolar(k, 8), thr) for k in range(256)] + [Bitstream.ones(n)]


def table_levels(spec, n):
    """Comparator levels of a spec's 8-bit thresholds (see count_table)."""
    return _levels(sequence_thresholds(resolve_spec(spec, n), n, bits=8), 256)


def rounded_counts(counts, n):
    """Nearest 8-bit value for counts/n, ties up, capped at 255, in int64."""
    return np.minimum((counts.astype(np.int64) * 256 + n // 2) // n, 255)


def fraction_axis(size, out_size):
    """(base index, 8-bit offset) per output coordinate, from exact rationals."""
    mapped = []
    for d in range(out_size):
        s = Fraction(d * (size - 1), out_size - 1) if out_size > 1 else Fraction(0)
        base = s.numerator // s.denominator
        mapped.append((base, min(255, round((s - base) * 256))))
    return mapped


def other_layouts(pix):
    """pix's values as a [:, ::2] view of a wider array and as a Fortran-ordered
    copy, neither of them C-contiguous."""
    wide = np.empty((pix.shape[0], 2 * pix.shape[1], *pix.shape[2:]), dtype=pix.dtype)
    wide[:, ::2], wide[:, 1::2] = pix, 255 - pix
    return {"strided": wide[:, ::2], "fortran": np.asfortranarray(pix)}


class TestImageSamples:
    @pytest.mark.parametrize("pixels", [
        np.array([[1.5, 2.7]]),
        np.array([[np.nan, 1.0]]),
        np.array([[1 + 2j, 3]]),
        np.array([[1.0, 2]], dtype=object),
        np.array([["7", 2]], dtype=object),
    ], ids=["float", "nan", "complex", "object_float", "object_str"])
    def test_non_integer_samples_rejected(self, pixels):
        makers = (GrayImage, AlphaMap, lambda p: RgbImage(np.stack([p] * 3, axis=-1)))
        for make in makers:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # raised before any cast could warn
                with pytest.raises(DomainError, match="must be integers"):
                    make(pixels)

    @pytest.mark.parametrize("pixels", [
        np.array([[0, 255, 7]], dtype=object),
        np.array([[True, False, True]]),
        np.array([[0, 255, 7]], dtype=np.int64),
        np.array([[0, 255, 7]], dtype=np.uint16),
    ], ids=["object_int", "bool", "int64", "uint16"])
    def test_integer_samples_accepted(self, pixels):
        img = GrayImage(pixels)
        assert img.pixels.dtype == np.uint8
        assert img.pixels.tolist() == [[int(v) for v in pixels[0]]]

    @pytest.mark.parametrize("pixels", [
        np.array([[0, 10**40]], dtype=object),
        np.array([[-1, 0]], dtype=np.int8),
        np.array([[256, 0]], dtype=np.int64),
    ], ids=["object_huge", "negative", "nine_bits"])
    def test_out_of_range_samples_rejected(self, pixels):
        with pytest.raises(DomainError, match="fit 8 bits"):
            GrayImage(pixels)


class TestPsnr:
    def test_identical_is_infinite(self):
        img = GrayImage(np.arange(64, dtype=np.uint8).reshape(8, 8))
        assert psnr(img, img) == math.inf

    def test_off_by_one_everywhere(self):
        a = np.zeros((16, 16), dtype=np.uint8)
        assert psnr(GrayImage(a), GrayImage(a + 1)) == pytest.approx(48.1308, abs=1e-3)

    def test_full_scale_error(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.full((4, 4), 255, dtype=np.uint8)
        assert psnr(GrayImage(a), GrayImage(b)) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_single_pixel_error(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        scores = []
        for delta in (1, 5, 50):
            b = a.copy()
            b[0, 0] = delta
            scores.append(psnr(GrayImage(a), GrayImage(b)))
        assert scores[0] > scores[1] > scores[2]

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            psnr(GrayImage(np.zeros((4, 4), np.uint8)), GrayImage(np.zeros((4, 5), np.uint8)))


def ssim_window_oracle(a, b):
    """Direct formula on one 8x8 block, population moments."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    mu_a, mu_b = a.mean(), b.mean()
    var_a, var_b = a.var(), b.var()
    cov = ((a - mu_a) * (b - mu_b)).mean()
    return ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    )


class TestSsim:
    def test_identical(self):
        rng = np.random.default_rng(1)
        img = GrayImage(rng.integers(0, 256, (32, 32), dtype=np.uint8))
        assert ssim(img, img) == pytest.approx(1.0, abs=1e-12)

    def test_constant_vs_inverted_constant(self):
        a = np.full((8, 8), 100, dtype=np.uint8)
        b = 255 - a
        assert ssim(GrayImage(a), GrayImage(b)) == pytest.approx(
            ssim_window_oracle(a, b), abs=1e-12
        )

    def test_matches_windowed_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 256, (10, 9), dtype=np.uint8)
        b = rng.integers(0, 256, (10, 9), dtype=np.uint8)
        want = np.mean(
            [
                ssim_window_oracle(a[i : i + 8, j : j + 8], b[i : i + 8, j : j + 8])
                for i in range(3)
                for j in range(2)
            ]
        )
        assert ssim(GrayImage(a), GrayImage(b)) == pytest.approx(want, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = GrayImage(rng.integers(0, 256, (16, 16), dtype=np.uint8))
        b = GrayImage(rng.integers(0, 256, (16, 16), dtype=np.uint8))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-14)

    def test_too_small(self):
        with pytest.raises(DomainError):
            ssim(GrayImage(np.zeros((4, 4), np.uint8)), GrayImage(np.zeros((4, 4), np.uint8)))


class TestChromaKey:
    def test_pure_green_is_background(self):
        frame = RgbImage(np.array([[[0, 255, 0]]], dtype=np.uint8))
        assert chroma_key_alpha(frame).alpha[0, 0] == 0

    def test_red_is_foreground(self):
        frame = RgbImage(np.array([[[255, 0, 0]]], dtype=np.uint8))
        assert chroma_key_alpha(frame).alpha[0, 0] == 255

    def test_rule_boundary(self):
        frame = RgbImage(np.array([[[90, 160, 80]]], dtype=np.uint8))
        assert chroma_key_alpha(frame, 100, 50).alpha[0, 0] == 0
        # dominance exactly at the margin is foreground (strict comparison)
        frame2 = RgbImage(np.array([[[110, 160, 80]]], dtype=np.uint8))
        assert chroma_key_alpha(frame2, 100, 50).alpha[0, 0] == 255

    def test_matches_int16_formula_at_extreme_limits(self):
        # green g down the rows and max(r, b) across the columns: every pair, with
        # r and b each taking the maximum in turn
        g, m = np.mgrid[0:256, 0:256].astype(np.uint8)
        frame = RgbImage(np.stack([m, g, m // 2], axis=-1))
        frame_t = RgbImage(frame.pixels[..., ::-1].copy())
        limits = (-10**40, -40000, -1, 0, 50, 100, 255, 256, 10**40)
        for img in (frame, frame_t):
            pix = img.pixels.astype(np.int16)
            dominance = pix[..., 1] - np.maximum(pix[..., 0], pix[..., 2])
            for t in limits:
                for margin in limits:
                    background = (pix[..., 1] > t) & (dominance > margin)
                    want = np.where(background, 0, 255).astype(np.uint8)
                    got = chroma_key_alpha(img, t, margin).alpha
                    assert got.dtype == np.uint8
                    assert np.array_equal(got, want), (t, margin)


def fraction_bilinear_oracle(pix, factor):
    """Independent exact-rational bilinear evaluation (slow, small images)."""
    h, w = pix.shape
    out_h, out_w = round(h * Fraction(factor)), round(w * Fraction(factor))
    out = np.empty((out_h, out_w), dtype=float)
    for yo in range(out_h):
        sy = Fraction(yo * (h - 1), out_h - 1) if out_h > 1 else Fraction(0)
        y1, v = int(sy), sy - int(sy)
        y2 = min(y1 + 1, h - 1)
        for xo in range(out_w):
            sx = Fraction(xo * (w - 1), out_w - 1) if out_w > 1 else Fraction(0)
            x1, u = int(sx), sx - int(sx)
            x2 = min(x1 + 1, w - 1)
            val = (
                (1 - u) * (1 - v) * int(pix[y1, x1])
                + (1 - u) * v * int(pix[y2, x1])
                + u * (1 - v) * int(pix[y1, x2])
                + u * v * int(pix[y2, x2])
            )
            out[yo, xo] = float(val)
    return out


class TestScaling:
    def test_constant_image_stays_constant(self):
        img = GrayImage(np.full((6, 6), 137, dtype=np.uint8))
        out = scale_image_sc(img, 2)
        assert out.pixels.shape == (12, 12)
        assert np.all(out.pixels == 137)

    def test_factor_one_is_identity(self):
        rng = np.random.default_rng(4)
        img = GrayImage(rng.integers(0, 256, (9, 11), dtype=np.uint8))
        out = scale_image_sc(img, 1)
        assert np.array_equal(out.pixels, img.pixels)

    def test_small_gradient_within_one_of_oracle(self):
        img = GrayImage(np.array([[0, 255], [0, 255]], dtype=np.uint8))
        out = scale_image_sc(img, 2, stream_length=256)
        oracle = fraction_bilinear_oracle(img.pixels, 2)
        assert np.abs(out.pixels.astype(float) - oracle).max() <= 1.0

    def test_reference_matches_fraction_oracle(self):
        rng = np.random.default_rng(5)
        pix = rng.integers(0, 256, (5, 7), dtype=np.uint8)
        fast = bilinear_reference(GrayImage(pix), Fraction(3, 2))
        slow = fraction_bilinear_oracle(pix, Fraction(3, 2))
        assert np.abs(fast - slow).max() < 1e-9

    def test_rgb_scales_per_channel(self):
        rng = np.random.default_rng(6)
        pix = rng.integers(0, 256, (6, 6, 3), dtype=np.uint8)
        out = scale_image_sc(RgbImage(pix), 2)
        assert isinstance(out, RgbImage)
        for c in range(3):
            plane = scale_image_sc(GrayImage(pix[..., c]), 2)
            assert np.array_equal(out.pixels[..., c], plane.pixels)

    def test_output_within_neighbor_range(self):
        rng = np.random.default_rng(7)
        img = GrayImage(rng.integers(0, 256, (8, 8), dtype=np.uint8))
        out = scale_image_sc(img, 2).pixels
        # sample: every output pixel is a positional mixture of its 4 neighbors
        oracle = bilinear_reference(img, 2)
        assert np.abs(out.astype(float) - oracle).max() <= 8  # loose sanity bound

    def test_bad_stream_length(self):
        img = GrayImage(np.zeros((4, 4), np.uint8))
        for n in (100, 1 << 25):
            with pytest.raises(ConfigurationError):
                scale_image_sc(img, 2, stream_length=n)

    @pytest.mark.parametrize("shape", [(4, 4), (4, 4, 4), (4, 4, 1), (2, 2, 3, 1), (3,)])
    def test_rgb_shape_checked(self, shape):
        with pytest.raises(DomainError,
                           match=rf"^rgb image must have shape \(H, W, 3\), got {re.escape(str(shape))}$"):
            RgbImage(np.zeros(shape, np.uint8))

    def test_empty_image_rejected(self):
        with pytest.raises(DomainError):
            GrayImage(np.zeros((0, 4), np.uint8))

    def test_shrink_rejected(self):
        with pytest.raises(DomainError):
            scale_image_sc(GrayImage(np.zeros((4, 4), np.uint8)), Fraction(1, 2))

    @pytest.mark.parametrize("specs", sorted(SPEC_SETS))
    @pytest.mark.parametrize("channels", [1, 3], ids=["gray", "rgb"])
    @pytest.mark.parametrize("factor", [1, Fraction(3, 2), 2, Fraction(7, 3)],
                             ids=["x1", "x3_2", "x2", "x7_3"])
    @pytest.mark.parametrize("n", ORACLE_LENGTHS)
    def test_matches_mux4_op_per_pixel(self, n, factor, channels, specs):
        # every output pixel agrees with the circuit-level op over sng streams
        rng = np.random.default_rng(8)
        pix = rng.integers(0, 256, (3, 4, channels), dtype=np.uint8)
        img = GrayImage(pix[..., 0]) if channels == 1 else RgbImage(pix)
        out = scale_image_sc(img, factor, n, *SPEC_SETS[specs]).pixels
        out = out.reshape(*out.shape[:2], channels)
        data, sel_u, sel_v = (comparator_streams(spec, n) for spec in SPEC_SETS[specs])
        rows, cols = fraction_axis(3, out.shape[0]), fraction_axis(4, out.shape[1])
        assert out.shape[:2] == (round(3 * Fraction(factor)), round(4 * Fraction(factor)))
        for yo, (y1, v8) in enumerate(rows):
            y2 = min(y1 + 1, 2)
            for xo, (x1, u8) in enumerate(cols):
                x2 = min(x1 + 1, 3)
                for c in range(channels):
                    stream = mux4(
                        data[pix[y1, x1, c]],
                        data[pix[y2, x1, c]],
                        data[pix[y1, x2, c]],
                        data[pix[y2, x2, c]],
                        sel_u[u8],
                        sel_v[v8],
                    )
                    assert out[yo, xo, c] == min(255, (stream.popcount() * 256 + n // 2) // n)

    @pytest.mark.parametrize("n", [64, 1024, 8192])
    def test_table_update_paths_agree(self, n, monkeypatch):
        # the v-half table grows by rectangle adds or by a cumulative histogram
        rng = np.random.default_rng(12)
        img = RgbImage(rng.integers(0, 256, (5, 6, 3), dtype=np.uint8))
        results = []
        for rect_adds in (0, n):
            monkeypatch.setattr(media, "_RECT_ADDS", rect_adds)
            results.append(scale_image_sc(img, Fraction(7, 3), n).pixels)
        assert np.array_equal(*results)

    # N = 2^14 is the longest stream with int16 counts, 2^15 the shortest with int32
    @pytest.mark.parametrize("rect_adds", [0, 1 << 16], ids=["histogram", "rectangles"])
    @pytest.mark.parametrize("n", [2, 1 << 14, 1 << 15, 1 << 16])
    def test_edge_cells_match_int64_tables(self, n, rect_adds, monkeypatch):
        # 2x2 -> 257x257 puts u8 and v8 on every offset 0..255, and the channels
        # put samples 0 and 255 at each of the four neighbours; the all-255 and
        # all-0 images give every output its largest and smallest count
        monkeypatch.setattr(media, "_RECT_ADDS", rect_adds)
        images = {
            "edges": np.stack([[[0, 255], [255, 0]], [[255, 0], [0, 255]], [[0, 0], [255, 255]]],
                              axis=-1).astype(np.uint8),
            "all-255": np.full((2, 2, 3), 255, dtype=np.uint8),
            "all-0": np.zeros((2, 2, 3), dtype=np.uint8),
        }
        y1, y2, v8, _ = _axis_map(2, 257)
        x1, x2, u8, _ = _axis_map(2, 257)
        assert {0, 255} <= set(u8.tolist()) and {0, 255} <= set(v8.tolist())
        data, sel_u, sel_v = (table_levels(s, n) for s in (DATA_SPEC, U_SELECT_SPEC, V_SELECT_SPEC))
        # the v select bit is 1 at the indices whose v level is at most v8
        halves = [[count_table(sel_u[mask], data[mask], 257, 257).astype(np.int64)
                   for mask in (sel_v > v8[yo], sel_v <= v8[yo])] for yo in range(257)]
        u = u8[:, None]
        for name, pix in images.items():
            out = scale_image_sc(RgbImage(pix), Fraction(257, 2), n).pixels
            for yo in range(257):
                counts = 0
                for table, row in zip(halves[yo], (pix[y1[yo]], pix[y2[yo]])):
                    d0, d1 = row[x1], row[x2]
                    counts = counts + table[256, d0] - table[u, d0] + table[u, d1]
                assert np.array_equal(out[yo], rounded_counts(counts, n)), (name, yo)

    @pytest.mark.parametrize("n", [2, 1024])
    @pytest.mark.parametrize("channels", [1, 3], ids=["gray", "rgb"])
    def test_memory_layout_does_not_change_bytes(self, channels, n):
        rng = np.random.default_rng(13)
        pix = rng.integers(0, 256, (7, 9, 3), dtype=np.uint8)
        pix, make = (pix[..., 0], GrayImage) if channels == 1 else (pix, RgbImage)
        want = scale_image_sc(make(pix), Fraction(7, 3), n).pixels
        for layout, view in other_layouts(pix).items():
            assert np.array_equal(view, pix) and not view.flags.c_contiguous
            got = scale_image_sc(make(view), Fraction(7, 3), n).pixels
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), layout

    def test_oversized_output_rejected(self):
        assert _output_dims(4096, 4096, 2) == (8192, 8192)
        assert 8192 * 8192 == MAX_OUTPUT_PIXELS
        with pytest.raises(DomainError):
            _output_dims(8192, 8193, 1)
        with pytest.raises(DomainError):
            scale_image_sc(GrayImage(np.zeros((4, 4), np.uint8)), 100000)


def rounded_pixel(count, n):
    return min(math.floor(Fraction(256 * count, n) + Fraction(1, 2)), 255)


# the media kernels pass int16 counts for N up to 2^14 and int32 counts above;
# int64 is the widest a caller could pass
WIDE_DTYPES = (np.int32, np.int64)
COUNT_DTYPES = pytest.mark.parametrize(
    "k, dtype", [(k, d) for k in range(1, 17) for d in (np.int16, *WIDE_DTYPES)
                 if k <= 14 or d != np.int16])


def kernel_pixels(counts, n):
    """The rounding the kernels run on counts c of N: c arrives through the
    folded tables as (c << lift) + bias, then `_to_pixels` shifts and caps it and
    the result is stored into a uint8 raster."""
    lift, bias, drop = media._rounding(n)
    folded = (counts << lift) + bias
    assert folded.dtype == counts.dtype
    out = np.empty(counts.shape, dtype=np.uint8)
    out[...] = media._to_pixels(folded, drop)
    return out


class TestCountsToPixels:
    @COUNT_DTYPES
    def test_every_count_matches_fraction_rounding(self, k, dtype):
        n = 1 << k
        got = kernel_pixels(np.arange(n + 1, dtype=dtype), n)
        assert got.dtype == np.uint8
        assert got.tolist() == [rounded_pixel(c, n) for c in range(n + 1)]

    @pytest.mark.parametrize("dtype", WIDE_DTYPES)
    def test_ties_at_two_to_the_24(self, dtype):
        # 256 c / n is a half-integer at c = (2j - 1) n / 512
        n = 1 << 24
        ties = [(2 * j - 1) * (n >> 9) for j in range(1, 257)]
        counts = sorted({0, n - 1, n} | {t + d for t in ties for d in (-1, 0, 1)})
        got = kernel_pixels(np.array(counts, dtype=dtype), n)
        assert got.tolist() == [rounded_pixel(c, n) for c in counts]


class TestAxisMap:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
    def test_matches_fraction_formula(self, size):
        # out size 513 (den 512) puts odd offsets exactly halfway between 8-bit steps
        for out_size in [*range(1, 40), 257, 513]:
            base, nxt, off8, frac = _axis_map(size, out_size)
            want = fraction_axis(size, out_size)
            assert base.tolist() == [b for b, _ in want]
            assert off8.tolist() == [o for _, o in want]
            assert nxt.tolist() == [min(b + 1, size - 1) for b, _ in want]
            exact = [Fraction(d * (size - 1), max(out_size - 1, 1)) - b
                     for d, (b, _) in enumerate(want)]
            assert frac.tolist() == [float(f) for f in exact]


def assert_matches_mux2_op(bg, fg, alpha, n, seq_data, seq_select):
    """Every merged pixel equals the rounded ones fraction of the circuit-level
    2-to-1 MUX over sng streams."""
    out = merge_scene_sc(RgbImage(bg), RgbImage(fg), AlphaMap(alpha), n,
                         seq_data, seq_select).pixels
    data, select = comparator_streams(seq_data, n), comparator_streams(seq_select, n)
    for (y, x), a in np.ndenumerate(alpha):
        sel = select[256 if a == 255 else a]
        for c in range(3):
            s = mux2(data[bg[y, x, c]], data[fg[y, x, c]], sel)
            assert out[y, x, c] == min(255, (s.popcount() * 256 + n // 2) // n)


def make_scene(h=24, w=32):
    yy, xx = np.mgrid[0:h, 0:w]
    bg = np.stack(
        [(xx * 255 // max(w - 1, 1)), (yy * 255 // max(h - 1, 1)), np.full((h, w), 60)],
        axis=-1,
    ).astype(np.uint8)
    fg = np.stack(
        [np.full((h, w), 200), np.full((h, w), 30), (255 - xx * 255 // max(w - 1, 1))],
        axis=-1,
    ).astype(np.uint8)
    alpha = np.zeros((h, w), dtype=np.uint8)
    alpha[6:18, 8:24] = 255
    return RgbImage(bg), RgbImage(fg), AlphaMap(alpha)


class TestMerging:
    def test_opaque_alpha_returns_foreground(self):
        bg, fg, _ = make_scene()
        alpha = AlphaMap(np.full((24, 32), 255, dtype=np.uint8))
        out = merge_scene_sc(bg, fg, alpha)
        assert np.array_equal(out.pixels, fg.pixels)

    def test_zero_alpha_returns_background(self):
        bg, fg, _ = make_scene()
        alpha = AlphaMap(np.zeros((24, 32), dtype=np.uint8))
        out = merge_scene_sc(bg, fg, alpha)
        assert np.array_equal(out.pixels, bg.pixels)

    def test_half_alpha_midpoint(self):
        bg = RgbImage(np.zeros((8, 8, 3), dtype=np.uint8))
        fg = RgbImage(np.full((8, 8, 3), 200, dtype=np.uint8))
        alpha = AlphaMap(np.full((8, 8), 128, dtype=np.uint8))
        out = merge_scene_sc(bg, fg, alpha)
        assert np.abs(out.pixels.astype(int) - 100).max() <= 1

    def test_binary_matte_is_bit_exact(self):
        bg, fg, alpha = make_scene()
        out = merge_scene_sc(bg, fg, alpha)
        ref = merge_reference(bg, fg, alpha)
        assert np.array_equal(out.pixels.astype(float), ref)

    def test_output_within_endpoint_range(self):
        rng = np.random.default_rng(9)
        bg = RgbImage(rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
        fg = RgbImage(rng.integers(0, 256, (8, 8, 3), dtype=np.uint8))
        alpha = AlphaMap(rng.integers(0, 256, (8, 8), dtype=np.uint8))
        out = merge_scene_sc(bg, fg, alpha).pixels.astype(int)
        lo = np.minimum(bg.pixels, fg.pixels).astype(int)
        hi = np.maximum(bg.pixels, fg.pixels).astype(int)
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_deterministic(self):
        bg, fg, alpha = make_scene()
        a = merge_scene_sc(bg, fg, alpha)
        b = merge_scene_sc(bg, fg, alpha)
        assert np.array_equal(a.pixels, b.pixels)

    def test_dimension_mismatch(self):
        bg, fg, alpha = make_scene()
        with pytest.raises(DomainError):
            merge_scene_sc(bg, fg, AlphaMap(np.zeros((4, 4), np.uint8)))

    @pytest.mark.parametrize("which", ["fg", "alpha", "alpha_transposed"])
    def test_reference_dimension_mismatch(self, which):
        bg, fg, alpha = make_scene()  # 24 x 32
        if which == "fg":
            fg = RgbImage(fg.pixels[:-1])
        else:
            alpha = AlphaMap(alpha.alpha[:-1] if which == "alpha" else alpha.alpha.T)
        with pytest.raises(DomainError, match="^dimension mismatch between frames and alpha$"):
            merge_reference(bg, fg, alpha)

    @pytest.mark.parametrize("specs", sorted(SPEC_SETS))
    @pytest.mark.parametrize("alpha_value", [0, 1, 128, 254, 255])
    @pytest.mark.parametrize("n", ORACLE_LENGTHS)
    def test_matches_mux2_op_per_pixel(self, n, alpha_value, specs):
        # every output pixel agrees with the circuit-level op over sng streams
        rng = np.random.default_rng(10)
        bg, fg = (rng.integers(0, 256, (4, 5, 3), dtype=np.uint8) for _ in range(2))
        alpha = rng.integers(0, 256, (4, 5), dtype=np.uint8)
        alpha[:, ::2] = alpha_value
        assert_matches_mux2_op(bg, fg, alpha, n, *SPEC_SETS[specs][:2])

    @pytest.mark.parametrize("n", [2, 512])
    def test_matches_mux2_op_across_row_blocks(self, n):
        # 70 rows span three row blocks, the last one partial; at n = 512 the
        # rounding adds n >> 9 = 1 before its shift
        rng = np.random.default_rng(11)
        bg, fg = (rng.integers(0, 256, (70, 5, 3), dtype=np.uint8) for _ in range(2))
        alpha = rng.integers(0, 256, (70, 5), dtype=np.uint8)
        alpha[::3] = 255
        alpha[1::3, ::2] = 0
        assert 2 * media._ROW_BLOCK < 70 < 3 * media._ROW_BLOCK
        assert_matches_mux2_op(bg, fg, alpha, n, DATA_SPEC, MERGE_SELECT_SPEC)

    @pytest.mark.parametrize("specs", sorted(SPEC_SETS))
    @pytest.mark.parametrize("n", [2, 8, 64, 1024])
    def test_matches_mux2_op_in_binary_blocks(self, n, specs):
        # row block 0 holds only alpha 0 and 255, block 1 one partial sample,
        # and the short last block only 0 and 255 again, so both routes run
        rng = np.random.default_rng(12)
        bg, fg = (rng.integers(0, 256, (70, 5, 3), dtype=np.uint8) for _ in range(2))
        alpha = np.where(rng.random((70, 5)) < 0.5, 0, 255).astype(np.uint8)
        alpha[40, 3] = 77
        assert 2 * media._ROW_BLOCK < 70 < 3 * media._ROW_BLOCK
        assert_matches_mux2_op(bg, fg, alpha, n, *SPEC_SETS[specs][:2])

    @pytest.mark.parametrize("n, specs", [(64, "default"), (1024, "default"), (1024, "other")])
    def test_matches_mux2_op_on_every_block_route(self, n, specs):
        # 8-wide row blocks of 256 pixels: all 0/255; a few partial pixels,
        # the block's first and last among them; exactly a quarter partial
        # (the last block to gather its partial pixels alone) and one more;
        # then a short block of partial bytes only (whole-block gathers)
        seq_data, seq_select = SPEC_SETS[specs][:2]
        identity = media._merge_tables(n, seq_data, seq_select)[2] is None
        assert identity == (n == 1024 and specs == "default")
        block = media._ROW_BLOCK * 8
        assert block // media._SPARSE_SHARE == 64
        rng = np.random.default_rng(15)
        bg, fg = (rng.integers(0, 256, (150, 8, 3), dtype=np.uint8) for _ in range(2))
        alpha = np.where(rng.random((150, 8)) < 0.5, 0, 255).astype(np.uint8).ravel()
        for b, partial in enumerate([[], [0, 9, 100, 255], rng.permutation(256)[:64],
                                     rng.permutation(256)[:65]]):
            alpha[b * block + np.asarray(partial, dtype=np.int64)] = rng.integers(1, 255, len(partial))
        alpha[4 * block:] = rng.integers(1, 255, alpha.size - 4 * block)
        assert 4 * block < alpha.size < 5 * block
        assert_matches_mux2_op(bg, fg, alpha.reshape(150, 8), n, seq_data, seq_select)

    @pytest.mark.parametrize("specs", sorted(SPEC_SETS))
    @pytest.mark.parametrize("n", [2, 8, 64, 256, 1024, 1 << 14, 1 << 16])
    def test_pixel_table_is_none_exactly_at_the_identity(self, n, specs):
        seq_data, seq_select = SPEC_SETS[specs][:2]
        routed = media._merge_tables(n, seq_data, seq_select)[2]
        table = count_table(table_levels(seq_select, n), table_levels(seq_data, n), 257, 257)
        want = rounded_counts(table[256, :256], n)
        if np.array_equal(want, np.arange(256)):
            assert routed is None
        else:
            assert np.array_equal(routed, want) and not routed.flags.writeable

    # N = 2^14 is the longest stream with int16 counts, 2^15 the shortest with int32
    @pytest.mark.parametrize("n", [2, 256, 1 << 14, 1 << 15, 1 << 16])
    def test_edge_cells_match_int64_table(self, n):
        # alpha takes every byte down the rows, bg every byte across the columns
        # and fg its mirror, so every cell of both gathered tables is read; the
        # all-255 and all-0 frames give every alpha its largest and smallest count
        alpha, col = np.mgrid[0:256, 0:256].astype(np.uint8)
        ramps = [np.repeat(v[..., None], 3, axis=-1) for v in (col, 255 - col)]
        table = count_table(table_levels(MERGE_SELECT_SPEC, n), table_levels(DATA_SPEC, n),
                            257, 257).astype(np.int64)
        a = np.where(alpha == 255, 256, alpha.astype(np.int64))[..., None]
        for bg, fg in (ramps, [np.full_like(ramps[0], 255)] * 2, [np.zeros_like(ramps[0])] * 2):
            out = merge_scene_sc(RgbImage(bg), RgbImage(fg), AlphaMap(alpha), n).pixels
            counts = table[256, bg] - table[a, bg] + table[a, fg]
            assert np.array_equal(out, rounded_counts(counts, n))

    def test_count_dtype_is_int16_up_to_two_to_the_14(self):
        # the largest folded count, (N << lift) + bias, is 16416 at N = 2^14
        # and 32832 at 2^15
        for k in range(1, 25):
            assert media._count_dtype(1 << k) == (np.int16 if k <= 14 else np.int32), k
        for n, dtype in ((1 << 14, np.int16), (1 << 15, np.int32)):
            outside, inside, _ = media._merge_tables(n, DATA_SPEC, MERGE_SELECT_SPEC)
            assert outside.dtype == inside.dtype == dtype

    @pytest.mark.parametrize("n", [2, 1024])
    def test_memory_layout_does_not_change_bytes(self, n):
        rng = np.random.default_rng(14)
        bg, fg = (rng.integers(0, 256, (40, 9, 3), dtype=np.uint8) for _ in range(2))
        alpha = rng.integers(0, 256, (40, 9), dtype=np.uint8)
        alpha[::4] = 255
        want = merge_scene_sc(RgbImage(bg), RgbImage(fg), AlphaMap(alpha), n).pixels
        views = [other_layouts(a) for a in (bg, fg, alpha)]
        for layout in views[0]:
            b, f, a = (v[layout] for v in views)
            got = merge_scene_sc(RgbImage(b), RgbImage(f), AlphaMap(a), n).pixels
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), layout

    def test_reference_alpha_semantics(self):
        bg = RgbImage(np.zeros((1, 3, 3), dtype=np.uint8))
        fg = RgbImage(np.full((1, 3, 3), 200, dtype=np.uint8))
        alpha = AlphaMap(np.array([[0, 128, 255]], dtype=np.uint8))
        ref = merge_reference(bg, fg, alpha)
        assert ref[0, 0, 0] == 0
        assert ref[0, 1, 0] == 100
        assert ref[0, 2, 0] == 200
