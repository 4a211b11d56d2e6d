import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclab.cli import main
from sclab.errors import PnmError
from sclab.pnm import read_pnm, write_pnm, write_pnm_file


class TestRead:
    def test_minimal_gray(self):
        pixels, mode = read_pnm(b"P5\n2 2\n255\n\x00\x01\x02\x03")
        assert mode == "gray"
        assert pixels.tolist() == [[0, 1], [2, 3]]

    def test_minimal_rgb(self):
        body = bytes(range(12))
        pixels, mode = read_pnm(b"P6\n2 2\n255\n" + body)
        assert mode == "rgb"
        assert pixels.shape == (2, 2, 3)
        assert pixels[1, 1].tolist() == [9, 10, 11]

    def test_comments_tolerated(self):
        data = b"P5 # magic\n# a comment line\n2 # width\n 1\n255\n\xaa\xbb"
        pixels, _ = read_pnm(data)
        assert pixels.tolist() == [[170, 187]]

    def test_unsupported_magic(self):
        with pytest.raises(PnmError, match="P4"):
            read_pnm(b"P4\n2 2\n\x00")

    def test_bad_maxval(self):
        with pytest.raises(PnmError, match="maxval"):
            read_pnm(b"P5\n2 2\n65535\n\x00\x00\x00\x00")

    def test_truncated_body_reports_offset(self):
        with pytest.raises(PnmError) as err:
            read_pnm(b"P5\n2 2\n255\n\x00\x01")
        assert err.value.offset == 13  # header is 11 bytes + 2 raster bytes

    def test_non_integer_header(self):
        with pytest.raises(PnmError):
            read_pnm(b"P5\nxx 2\n255\n\x00")

    def test_zero_dimension(self):
        with pytest.raises(PnmError):
            read_pnm(b"P5\n0 2\n255\n")


# (data, message, offset) for each kind of header or raster error
HEADER_ERRORS = [
    (b"", "unsupported format magic {magic} (need P5 or P6)", 0),
    (b"P4\n2 2\n\x00", "unsupported format magic {magic} (need P5 or P6)", 0),
    (b"P5", "unexpected end of header", 2),
    (b"P5 2", "unexpected end of header", 4),
    (b"P5\n2 2\n", "unexpected end of header", 7),
    (b"P5 # no newline", "unexpected end of header", 15),
    (b"P5\nxx 2\n255\n\x00", "width is not an integer: b'xx'", 2),
    (b"P5 2 y 255\n", "height is not an integer: b'y'", 4),
    (b"P5 2 2 2.5\n", "maxval is not an integer: b'2.5'", 6),
    # an offset is where the token's search began, before any comment
    (b"P5 # c\n2 # d\nzz 255\n", "height is not an integer: b'zz'", 8),
    (b"P5 2#w\n3 # x\n#y\n255#z\n", "missing whitespace after maxval", 19),
    (b"P5\n2 2\n65535\n\x00\x00\x00\x00", "unsupported maxval 65535 (need 255)", 6),
    (b"P5 1 1 #m\n 0\n\x00", "unsupported maxval 0 (need 255)", 6),
    (b"P5 1 1 255", "missing whitespace after maxval", 10),
    (b"P5 1 1 255#x\n\x00", "missing whitespace after maxval", 10),
    (b"P5\n0 2\n255\n", "invalid dimensions 0x2", 2),
    (b"P6 3 -1 255\n", "invalid dimensions 3x-1", 2),
    (b"P5\n2 2\n255\n\x00\x01", "truncated raster: need 4 bytes, have 2", 13),
    (b"P6 1 1#c\n255\n\x00", "truncated raster: need 3 bytes, have 1", 14),
]

# headers that reach each parsing step, for the fuzz property below
HEADER_PREFIXES = [b"", b"P5", b"P6", b"P5 2", b"P6 1 1", b"P5 2 2 255", b"P5 #c\n3 1\n255\n"]


class TestHeaderErrors:
    @pytest.mark.parametrize("kind", [bytes, bytearray])
    @pytest.mark.parametrize("data, message, offset", HEADER_ERRORS)
    def test_message_and_offset(self, kind, data, message, offset):
        data = kind(data)
        with pytest.raises(PnmError) as err:
            read_pnm(data)
        message = message.format(magic=repr(data[:2]))
        assert str(err.value) == f"{message} (byte offset {offset})"
        assert err.value.offset == offset

    @pytest.mark.parametrize("kind", [bytes, bytearray])
    def test_comments_between_every_token(self, kind):
        data = kind(b"P5#m\n2#w\n#x\n 1#h\n255\n\xaa\xbb")
        pixels, mode = read_pnm(data)
        assert mode == "gray" and pixels.tolist() == [[170, 187]]

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(HEADER_PREFIXES), st.binary(max_size=24),
           st.sampled_from([bytes, bytearray]))
    def test_arbitrary_bytes_parse_or_raise_pnm_error(self, prefix, tail, kind):
        try:
            pixels, mode = read_pnm(kind(prefix + tail))
        except PnmError as err:
            assert type(err.offset) is int
        else:
            assert mode in ("gray", "rgb") and pixels.dtype == np.uint8
            assert pixels.ndim == (2 if mode == "gray" else 3)


class TestWrite:
    def test_roundtrip_gray(self):
        img = np.arange(30, dtype=np.uint8).reshape(5, 6)
        back, mode = read_pnm(write_pnm(img))
        assert mode == "gray"
        assert np.array_equal(back, img)

    def test_roundtrip_rgb(self):
        rng = np.random.default_rng(3)
        img = rng.integers(0, 256, (4, 7, 3), dtype=np.uint8)
        back, mode = read_pnm(write_pnm(img))
        assert mode == "rgb"
        assert np.array_equal(back, img)

    def test_no_comments_emitted(self):
        data = write_pnm(np.zeros((2, 2), dtype=np.uint8))
        assert b"#" not in data
        assert data.startswith(b"P5\n2 2\n255\n")

    def test_bad_shape(self):
        with pytest.raises(PnmError):
            write_pnm(np.zeros((2, 2, 4), dtype=np.uint8))

    @pytest.mark.parametrize("pixels", [
        np.arange(96, dtype=np.uint8).reshape(4, 8, 3)[:, ::2],  # strided view
        np.asfortranarray(np.arange(24, dtype=np.uint8).reshape(4, 6)),
        np.arange(12).reshape(3, 4) % 2 == 1,
        np.arange(36, dtype=np.int64).reshape(2, 6, 3) * 7,
    ], ids=["strided", "fortran", "bool", "int64"])
    def test_file_holds_write_pnm_bytes(self, pixels, tmp_path):
        write_pnm_file(tmp_path / "out.pnm", pixels)
        assert (tmp_path / "out.pnm").read_bytes() == write_pnm(pixels)

    @pytest.mark.parametrize("shape", [(2, 2, 4), (5,), (2, 3, 3, 1)])
    def test_file_bad_shape_same_error(self, shape, tmp_path):
        pixels = np.zeros(shape, dtype=np.uint8)
        with pytest.raises(PnmError) as want:
            write_pnm(pixels)
        with pytest.raises(PnmError) as got:
            write_pnm_file(tmp_path / "out.pnm", pixels)
        assert str(got.value) == str(want.value)
        assert not (tmp_path / "out.pnm").exists()

    @pytest.mark.parametrize("old_size", [0, 10, 100_000])
    def test_file_rewritten_in_place_to_exactly_write_pnm_bytes(self, old_size, tmp_path):
        # an existing file shorter or longer than the new bytes: overwritten
        # in place, then cut to their length
        pixels = np.arange(300, dtype=np.uint8).reshape(10, 10, 3)
        path = tmp_path / "out.ppm"
        path.write_bytes(b"\xee" * old_size)
        write_pnm_file(path, pixels)
        assert path.read_bytes() == write_pnm(pixels)

    def test_file_to_devnull(self):
        write_pnm_file(os.devnull, np.zeros((2, 3), dtype=np.uint8))

    def test_cli_out_directory_exits_3_with_one_line(self, capsys, tmp_path):
        write_pnm_file(tmp_path / "in.pgm", np.zeros((4, 4), dtype=np.uint8))
        (tmp_path / "out").mkdir()
        code = main(["scale", "--in", str(tmp_path / "in.pgm"), "--out", str(tmp_path / "out"),
                     "--factor", "2"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("sclab: ") and captured.err.count("\n") == 1
        assert list((tmp_path / "out").iterdir()) == []
