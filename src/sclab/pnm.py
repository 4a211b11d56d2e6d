"""Binary PNM raster I/O: P5 (grayscale) and P6 (RGB), maxval 255 only.

Header comments are tolerated on read and never emitted on write.  Parse
failures raise PnmError carrying the byte offset of the offending data.
"""

import os
import re
import stat

import numpy as np

from .errors import PnmError

_WHITESPACE = b" \t\r\n\v\f"
# whitespace and `#` comments (to the end of their line), then one token,
# possibly empty; the match is always the first attempt, so it never backtracks
_TOKEN = re.compile(rb"(?:[ \t\r\n\v\f]|#[^\n]*\n?)*([^ \t\r\n\v\f#]*)")


def _read_int(data, pos, what):
    """(value, end) of the integer token after pos; errors point at the token,
    or at pos when it does not parse."""
    match = _TOKEN.match(data, pos)
    token = match[1]
    if not token:
        raise PnmError("unexpected end of header", offset=match.start(1))
    try:
        return int(token), match.end()
    except ValueError:
        raise PnmError(f"{what} is not an integer: {token!r}", offset=pos) from None


def read_pnm(data):
    """Parse P5/P6 bytes into an (H, W) or (H, W, 3) uint8 array plus mode.

    Returns (pixels, mode) with mode 'gray' or 'rgb'.
    """
    magic = data[:2]
    if magic not in (b"P5", b"P6"):
        raise PnmError(f"unsupported format magic {magic!r} (need P5 or P6)", offset=0)
    width, pos = _read_int(data, 2, "width")
    height, pos = _read_int(data, pos, "height")
    if width < 1 or height < 1:
        raise PnmError(f"invalid dimensions {width}x{height}", offset=2)
    maxval, end = _read_int(data, pos, "maxval")
    if maxval != 255:
        raise PnmError(f"unsupported maxval {maxval} (need 255)", offset=pos)
    # exactly one whitespace byte separates the header from the raster
    if end >= len(data) or data[end : end + 1] not in _WHITESPACE:
        raise PnmError("missing whitespace after maxval", offset=end)
    pos = end + 1
    channels = 1 if magic == b"P5" else 3
    need = width * height * channels
    if len(data) - pos < need:
        raise PnmError(
            f"truncated raster: need {need} bytes, have {len(data) - pos}", offset=len(data)
        )
    # the raster's one copy, straight out of the file's bytes
    pixels = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos).copy()
    if channels == 1:
        return pixels.reshape(height, width), "gray"
    return pixels.reshape(height, width, 3), "rgb"


def _with_header(pixels):
    """(P5/P6 header, uint8 raster) of an (H, W) or (H, W, 3) array."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim == 2:
        magic = b"P5"
    elif pixels.ndim == 3 and pixels.shape[2] == 3:
        magic = b"P6"
    else:
        raise PnmError(f"cannot serialize array of shape {pixels.shape}")
    return b"%s\n%d %d\n255\n" % (magic, pixels.shape[1], pixels.shape[0]), pixels


def write_pnm(pixels):
    """Serialize an (H, W) or (H, W, 3) uint8 array as binary P5/P6."""
    header, pixels = _with_header(pixels)
    return header + pixels.tobytes()


def read_pnm_file(path):
    with open(path, "rb") as fh:
        return read_pnm(fh.read())


def write_pnm_file(path, pixels):
    """Write what write_pnm returns, the raster straight from its buffer.

    An existing file is overwritten in place and then cut to the written
    length, which costs a tenth of truncating it first (freeing and
    reallocating its blocks); a device, pipe or FIFO is written as it is."""
    header, pixels = _with_header(pixels)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(pixels))
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.flush()
            os.ftruncate(fd, len(header) + pixels.nbytes)
