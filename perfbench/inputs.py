"""Seeded input synthesis for the sclab benchmark.

Every generator draws from a numpy Generator derived from the workload seed and
a label, so one seed always yields the same bytes and adding an input never
shifts the others.  Files are encoded here, not by sclab, so the program under
test only ever receives finished files and arrays.
"""

import zlib

import numpy as np


def rng_for(seed, label):
    """An independent random stream per (seed, input label)."""
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def _to_u8(x):
    return np.clip(np.rint(x), 0, 255).astype(np.uint8)


def _box_blur(x, radius):
    padded = np.pad(x.astype(np.float64), radius, mode="edge")
    integral = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1))
    np.cumsum(np.cumsum(padded, 0), 1, out=integral[1:, 1:])
    side = 2 * radius + 1
    h, w = x.shape
    sums = (
        integral[side : side + h, side : side + w]
        - integral[:h, side : side + w]
        - integral[side : side + h, :w]
        + integral[:h, :w]
    )
    return sums / (side * side)


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------

def gradient(rng, h, w):
    """Linear ramp at a random angle between two random end levels."""
    angle = rng.uniform(0, 2 * np.pi)
    yy, xx = np.mgrid[0:h, 0:w]
    t = xx * np.cos(angle) + yy * np.sin(angle)
    t = (t - t.min()) / max(t.max() - t.min(), 1e-9)
    lo, hi = rng.uniform(0, 40), rng.uniform(215, 255)
    return _to_u8(lo + (hi - lo) * t)


def radial(rng, h, w):
    """Smooth radial falloff around a random centre."""
    cy, cx = rng.uniform(0.3, 0.7) * h, rng.uniform(0.3, 0.7) * w
    yy, xx = np.mgrid[0:h, 0:w]
    r = np.hypot(yy - cy, xx - cx) / max(h, w)
    return _to_u8(255 * np.clip(1.0 - rng.uniform(1.2, 1.8) * r, 0, 1))


def texture(rng, h, w, radius=4):
    """Box-blurred uniform noise: band-limited detail in every region."""
    return _to_u8(_box_blur(rng.integers(0, 256, (h, w)), radius))


def rgb_image(rng, h, w):
    """Gradient, radial and texture planes as R, G and B."""
    return np.stack([gradient(rng, h, w), radial(rng, h, w), texture(rng, h, w)], axis=-1)


def gray_image(rng, h, w):
    """Texture laid over a radial falloff."""
    return _to_u8(0.5 * radial(rng, h, w) + 0.5 * texture(rng, h, w))


# ---------------------------------------------------------------------------
# green-screen scene
# ---------------------------------------------------------------------------

def green_screen(rng, count, h, w, border=3.0):
    """Background, plus `count` (foreground, alpha) frames of one subject.

    The subject is a textured, non-green ellipse that moves along a random line
    across a noisy green screen.  Its matte is 255 inside, 0 outside and
    partial over a `border`-pixel band, and the foreground pixels in that band
    blend subject and screen by the same coverage.
    """
    background = rgb_image(rng, h, w)
    yy, xx = np.mgrid[0:h, 0:w]
    semi_x, semi_y = rng.uniform(0.10, 0.18) * w, rng.uniform(0.15, 0.25) * h
    start = np.array([rng.uniform(0.25, 0.4) * w, rng.uniform(0.35, 0.65) * h])
    stop = np.array([rng.uniform(0.6, 0.75) * w, rng.uniform(0.35, 0.65) * h])
    subject = np.stack(
        [
            150 + 0.4 * texture(rng, h, w),
            20 + 0.25 * texture(rng, h, w),
            60 + 0.5 * texture(rng, h, w),
        ],
        axis=-1,
    )
    frames = []
    for i in range(count):
        cx, cy = start + (stop - start) * (i / max(count - 1, 1))
        screen = np.stack(
            [
                rng.integers(0, 50, (h, w)),
                rng.integers(180, 231, (h, w)),
                rng.integers(0, 50, (h, w)),
            ],
            axis=-1,
        )
        # approximate signed distance to the ellipse edge, in pixels
        dist = (np.hypot((xx - cx) / semi_x, (yy - cy) / semi_y) - 1.0) * min(semi_x, semi_y)
        cover = np.clip(0.5 - dist / border, 0.0, 1.0)
        fg = _to_u8(screen * (1 - cover[..., None]) + subject * cover[..., None])
        frames.append((fg, _to_u8(255 * cover)))
    return background, frames


# ---------------------------------------------------------------------------
# bit streams
# ---------------------------------------------------------------------------

def stream_pair(rng, n):
    """Two partly correlated Bernoulli bit vectors of length n."""
    pa, pb, shared = rng.uniform(0.2, 0.8, 3)
    a = rng.random(n) < pa
    b = np.where(rng.random(n) < shared, a, rng.random(n) < pb)
    return a, b


def bit_reverse(values, bits):
    out = np.zeros_like(values)
    for j in range(bits):
        out |= ((values >> j) & 1) << (bits - 1 - j)
    return out


# ---------------------------------------------------------------------------
# file encoders
# ---------------------------------------------------------------------------

def encode_pnm(pixels):
    magic = b"P5" if pixels.ndim == 2 else b"P6"
    return b"%s\n%d %d\n255\n" % (magic, pixels.shape[1], pixels.shape[0]) + pixels.tobytes()


def encode_stream_ascii(bits):
    """'0'/'1' characters, 64 per line."""
    chars = (bits.astype(np.uint8) + ord("0")).tobytes()
    return b"".join(chars[i : i + 64] + b"\n" for i in range(0, len(chars), 64))


def encode_stream_raw(bits):
    """8-byte little-endian length, then little-endian 64-bit words."""
    packed = np.packbits(bits, bitorder="little").tobytes()
    pad = -len(packed) % 8
    return len(bits).to_bytes(8, "little") + packed + b"\0" * pad
