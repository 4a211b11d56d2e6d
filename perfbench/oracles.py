"""Output checks that do not call the code under test.

The media oracles restate the conventions sclab documents (pixels encode
value/256, corner-aligned bilinear grid, alpha 255 fully opaque, the chroma-key
rule) and the quality gates of acceptance criteria 8 and 9.  The SCC oracle
restates the two-branch statistic from its four pair counts.
"""

import math
from fractions import Fraction

import numpy as np

# acceptance criterion 8: 2x SC scaling; criterion 9: SC scene merge
SCALE_GATES = {"psnr": 40.0, "ssim": 0.98, "p99_error": 2.0}
MERGE_GATES = {"psnr": 45.0, "ssim": 0.99}


def read_pnm(data):
    """Parse the binary P5/P6 sclab writes; returns an (H, W[, 3]) uint8 array."""
    tokens, pos = [], 0
    while len(tokens) < 4:
        while data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    magic, width, height, maxval = tokens[0], int(tokens[1]), int(tokens[2]), int(tokens[3])
    if magic not in (b"P5", b"P6") or maxval != 255:
        raise ValueError(f"unexpected PNM header {tokens!r}")
    shape = (height, width) if magic == b"P5" else (height, width, 3)
    body = data[pos + 1 :]
    if len(body) != math.prod(shape):
        raise ValueError(f"PNM body is {len(body)} bytes, header says {shape}")
    return np.frombuffer(body, dtype=np.uint8).reshape(shape)


def psnr(a, b):
    mse = float(np.mean((np.asarray(a, np.float64) - np.asarray(b, np.float64)) ** 2))
    return math.inf if mse == 0 else 10 * math.log10(255 * 255 / mse)


def _window_means(x, w):
    integral = np.zeros((x.shape[0] + 1, x.shape[1] + 1))
    np.cumsum(np.cumsum(x, 0), 1, out=integral[1:, 1:])
    return (integral[w:, w:] - integral[:-w, w:] - integral[w:, :-w] + integral[:-w, :-w]) / (w * w)


def ssim(a, b, window=8):
    """Mean SSIM over 8x8 uniform windows, stride 1; RGB is the channel mean."""
    a = np.asarray(a, np.float64)
    b = np.asarray(b, np.float64)
    if a.ndim == 3:
        return float(np.mean([ssim(a[..., c], b[..., c], window) for c in range(a.shape[2])]))
    c1, c2 = (0.01 * 255) ** 2, (0.03 * 255) ** 2
    mu_a, mu_b = _window_means(a, window), _window_means(b, window)
    var_a = _window_means(a * a, window) - mu_a * mu_a
    var_b = _window_means(b * b, window) - mu_b * mu_b
    cov = _window_means(a * b, window) - mu_a * mu_b
    score = ((2 * mu_a * mu_b + c1) * (2 * cov + c2)) / (
        (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
    )
    return float(score.mean())


def _axis(size, out_size):
    if out_size == 1:
        return np.zeros(1, np.int64), np.zeros(1)
    num = np.arange(out_size, dtype=np.int64) * (size - 1)
    base = num // (out_size - 1)
    return base, (num - base * (out_size - 1)) / (out_size - 1)


def bilinear(pixels, factor):
    """Exact corner-aligned bilinear resampling as float64."""
    pix = pixels[..., None] if pixels.ndim == 2 else pixels
    h, w = pix.shape[:2]
    factor = Fraction(factor)
    x1, u = _axis(w, round(w * factor))
    y1, v = _axis(h, round(h * factor))
    x2, y2 = np.minimum(x1 + 1, w - 1), np.minimum(y1 + 1, h - 1)
    p = pix.astype(np.float64)
    uu, vv = u[None, :, None], v[:, None, None]
    out = (
        (1 - uu) * (1 - vv) * p[y1][:, x1]
        + (1 - uu) * vv * p[y2][:, x1]
        + uu * (1 - vv) * p[y1][:, x2]
        + uu * vv * p[y2][:, x2]
    )
    return out[..., 0] if pixels.ndim == 2 else out


def chroma_key(fg, green_threshold=100, margin=50):
    """The `merge` default key: background where green is strong and dominant."""
    pix = fg.astype(np.int16)
    dominance = pix[..., 1] - np.maximum(pix[..., 0], pix[..., 2])
    background = (pix[..., 1] > green_threshold) & (dominance > margin)
    return np.where(background, 0, 255).astype(np.uint8)


def composite(bg, fg, alpha):
    """Exact compositing: alpha a selects fg with weight a/256, 255 meaning 1."""
    a = np.where(alpha == 255, 256, alpha.astype(np.int64))[..., None]
    return (bg.astype(np.int64) * (256 - a) + fg.astype(np.int64) * a) / 256.0


def scale_problems(source, factor, out):
    """Criterion-8 gates for one SC-scaled image; an empty list means it passes."""
    ref = bilinear(source, factor)
    if out.shape != ref.shape:
        return [f"shape {out.shape} != {ref.shape}"]
    problems = []
    p, s = psnr(out, ref), ssim(out, ref)
    p99 = float(np.percentile(np.abs(out - ref), 99))
    if p < SCALE_GATES["psnr"]:
        problems.append(f"PSNR {p:.2f} dB")
    if s < SCALE_GATES["ssim"]:
        problems.append(f"SSIM {s:.4f}")
    if p99 > SCALE_GATES["p99_error"]:
        problems.append(f"p99 error {p99:.2f}")
    return problems


def merge_problems(bg, fg, alpha, out):
    """Criterion-9 gates for one SC-merged frame; an empty list means it passes."""
    if out.shape != bg.shape:
        return [f"shape {out.shape} != {bg.shape}"]
    ref = composite(bg, fg, alpha)
    problems = []
    p, s = psnr(out, ref), ssim(out, ref)
    if p < MERGE_GATES["psnr"]:
        problems.append(f"PSNR {p:.2f} dB")
    if s < MERGE_GATES["ssim"]:
        problems.append(f"SSIM {s:.4f}")
    if not np.array_equal(out[alpha == 0], bg[alpha == 0]):
        problems.append("alpha=0 region not bit-exact")
    if not np.array_equal(out[alpha == 255], fg[alpha == 255]):
        problems.append("alpha=255 region not bit-exact")
    return problems


def scc_from_counts(a, b, c, d):
    """Two-branch normalised overlap of counts (11, 10, 01, 00); None if undefined."""
    n = a + b + c + d
    if a * d > b * c:
        den = n * min(a + b, a + c) - (a + b) * (a + c)
    else:
        den = (a + b) * (a + c) - n * max(a - d, 0)
    return None if den == 0 else Fraction(a * d - b * c, den)


def pair_counts(x, y):
    """(11, 10, 01, 00) counts of two equal-length bool arrays, along the last axis."""
    both = (x & y).sum(-1)
    return both, x.sum(-1) - both, y.sum(-1) - both, x.shape[-1] - x.sum(-1) - y.sum(-1) + both


def scc_stdout(x, y):
    """The exact stdout `sclab scc` must print for streams x and y."""
    value = scc_from_counts(*(int(v) for v in pair_counts(x, y)))
    return "undefined\n" if value is None else f"{float(value):.6f}\n"


def loop_expected(thr_a, thr_b, thr_sel, pairs, select_numerator):
    """Per pair: (AND product, MUX sum, SCC) of the comparator streams, exactly."""
    n = thr_a.size
    a = thr_a[None, :] < pairs[:, :1]
    b = thr_b[None, :] < pairs[:, 1:]
    sel = (thr_sel < select_numerator)[None, :]
    prod = (a & b).sum(1)
    mux = ((a & ~sel) | (b & sel)).sum(1)
    counts = np.stack(pair_counts(a, b), axis=1)
    return [
        (Fraction(int(p), n), Fraction(int(m), n), scc_from_counts(*(int(v) for v in c)))
        for p, m, c in zip(prod, mux, counts)
    ]
