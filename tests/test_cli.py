import time

import numpy as np
import pytest

from sclab.cli import main
from sclab.pnm import read_pnm_file, write_pnm_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_vdc_fraction(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "vdc", "--base", "3",
                           "--count", "1", "--index", "11")
        assert code == 0
        assert out == "19/27\n"

    def test_vdc_decimal(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "vdc", "--base", "3",
                           "--count", "1", "--index", "11", "--decimal")
        assert code == 0
        assert out.startswith("0.703703703703")

    def test_p2lsg_serial(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "p2lsg", "--base", "16",
                           "--bits", "8", "--count", "4")
        assert code == 0
        assert out.split() == ["0", "16", "32", "48"]

    def test_p2lsg_parallel_lines(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "p2lsg", "--base", "2",
                           "--bits", "8", "--par", "2", "--count", "2")
        assert code == 0
        assert out.splitlines() == ["0,128", "64,192"]

    def test_scaled_integers(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "vdc", "--base", "2",
                           "--count", "4", "--scale-bits", "8")
        assert code == 0
        assert out.split() == ["0", "128", "64", "192"]

    def test_scale_bits_exact_at_60(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "halton", "--base", "13", "--count", "3",
                           "--index", "100000", "--scale-bits", "60")
        assert code == 0
        assert out.split() == ["419543407310238298", "508229676895380373", "596915946480522448"]

    @pytest.mark.parametrize("flags", [
        ("--family", "halton", "--base", "13", "--index", "7", "--count", "1", "--scale-bits", "64"),
        ("--family", "sobol", "--dim", "2", "--bits", "8", "--count", "2", "--scale-bits", "64"),
        ("--family", "halton", "--base", "13", "--count", "3", "--scale-bits", "-1"),
    ])
    def test_scale_bits_out_of_range(self, capsys, flags):
        code, out, err = run(capsys, "gen", *flags)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "bits must be in 1..62" in err

    def test_hammersley_pairs(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "hammersley", "--count", "2")
        assert code == 0
        assert out.splitlines() == ["0,0", "1/2,1/3"]

    def test_seeded_family_needs_seed(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "latin_hypercube", "--count", "4")
        assert code == 2
        assert "seed" in err

    def test_deterministic_output(self, capsys):
        args = ("gen", "--family", "latin_hypercube", "--count", "8", "--seed", "5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "vdc", "--count", "1", "--nope"])
        assert exc.value.code == 1

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_malformed_numeric_flag(self, capsys, tmp_path):
        out = tmp_path / "x.pgm"
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--family", "vdc", "--count", "abc"])
        assert exc.value.code == 1
        assert not out.exists()

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        for sub in ("gen", "scc", "bench-mul", "bench-add", "scale", "merge", "score"):
            with pytest.raises(SystemExit) as se:
                main([sub, "--help"])
            assert se.value.code == 0

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "scc", "--a", str(tmp_path / "nope"),
                           "--b", str(tmp_path / "nope"))
        assert code == 3

    def test_domain_error_is_exit_two(self, capsys, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("1100\n")
        b.write_text("110010\n")
        code, _, err = run(capsys, "scc", "--a", str(a), "--b", str(b))
        assert code == 2

    def test_parse_error_is_exit_three(self, capsys, tmp_path):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P4\n1 1\n\x00")
        code, _, err = run(capsys, "score", "--ref", str(bad), "--test", str(bad))
        assert code == 3
        assert "P4" in err


class TestScc:
    def test_equal_files(self, capsys, tmp_path):
        f = tmp_path / "s.txt"
        f.write_text("11001010\n")
        code, out, _ = run(capsys, "scc", "--a", str(f), "--b", str(f))
        assert code == 0
        assert out == "1.000000\n"

    def test_raw_format(self, capsys, tmp_path):
        from sclab.bitstream import Bitstream, dump_stream_raw

        f = tmp_path / "s.bin"
        f.write_bytes(dump_stream_raw(Bitstream.from01("1100")))
        code, out, _ = run(capsys, "scc", "--a", str(f), "--b", str(f),
                           "--format", "raw")
        assert code == 0
        assert out == "1.000000\n"

    def test_constant_stream_prints_undefined(self, capsys, tmp_path):
        f = tmp_path / "ones.txt"
        f.write_text("1111\n")
        code, out, _ = run(capsys, "scc", "--a", str(f), "--b", str(f))
        assert code == 0
        assert out == "undefined\n"


class TestBench:
    def test_csv_known_value(self, capsys):
        code, out, _ = run(capsys, "bench-mul", "--seqs", "p2lsg2,p2lsgN",
                           "--lengths", "8", "--out", "csv", "--workers", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "length,mae_percent,wall_seconds"
        assert lines[1].startswith("256,0.390625,")

    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "bench-add", "--seqs", "p2lsg", "--lengths",
                           "2..4", "--out", "table", "--workers", "1")
        assert code == 0
        head, row = out.splitlines()
        assert "2^2" in head and "2^4" in head
        assert "13.40" in row

    def test_single_family_token(self, capsys):
        code, out, _ = run(capsys, "bench-mul", "--seqs", "hammersley",
                           "--lengths", "6", "--out", "csv", "--workers", "1")
        assert code == 0
        assert out.splitlines()[1].startswith("64,")

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_rejected(self, capsys, workers):
        code, out, err = run(capsys, "bench-mul", "--seqs", "p2lsg", "--lengths", "6",
                             "--workers", workers)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "workers must be >= 1" in err

    @pytest.mark.parametrize("bits", ["13", "16"])
    def test_input_bits_over_cap_rejected_before_sweeping(self, capsys, bits):
        start = time.perf_counter()
        code, out, err = run(capsys, "bench-mul", "--seqs", "p2lsg", "--lengths", "6",
                             "--input-bits", bits)
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "input_bits must be in 1..12" in err

    def test_input_bits_at_cap_runs(self, capsys):
        code, out, _ = run(capsys, "bench-mul", "--seqs", "p2lsg", "--lengths", "6",
                           "--input-bits", "12", "--out", "csv")
        assert code == 0
        assert out.splitlines()[1].startswith("64,1.9466444849967957,")

    def test_bad_seqs(self, capsys):
        code, _, err = run(capsys, "bench-mul", "--seqs", "p2lsg2", "--lengths", "6")
        assert code == 2

    def test_deterministic_mae_column(self, capsys):
        args = ("bench-mul", "--seqs", "sobol:dim=1,sobol:dim=2", "--lengths",
                "6,7", "--out", "csv", "--workers", "2")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        strip = lambda text: [",".join(l.split(",")[:2]) for l in text.splitlines()]
        assert strip(out1) == strip(out2)


@pytest.fixture
def gray_file(tmp_path):
    rng = np.random.default_rng(11)
    path = tmp_path / "img.pgm"
    write_pnm_file(path, rng.integers(0, 200, (16, 16), dtype=np.uint8))
    return path


class TestMediaCommands:
    def test_scale_roundtrip(self, capsys, tmp_path, gray_file):
        out_path = tmp_path / "out.pgm"
        code, _, _ = run(capsys, "scale", "--in", str(gray_file), "--out",
                         str(out_path), "--factor", "2", "--n", "256")
        assert code == 0
        pixels, mode = read_pnm_file(out_path)
        assert mode == "gray" and pixels.shape == (32, 32)

    def test_scale_identity_factor(self, capsys, tmp_path, gray_file):
        out_path = tmp_path / "same.pgm"
        code, _, _ = run(capsys, "scale", "--in", str(gray_file), "--out",
                         str(out_path), "--factor", "1")
        assert code == 0
        original, _ = read_pnm_file(gray_file)
        scaled, _ = read_pnm_file(out_path)
        assert np.array_equal(original, scaled)

    def test_merge_chroma_path(self, capsys, tmp_path):
        bg = np.zeros((8, 8, 3), dtype=np.uint8)
        write_pnm_file(tmp_path / "bg.ppm", bg)
        frames = tmp_path / "frames"
        frames.mkdir()
        frame = np.zeros((8, 8, 3), dtype=np.uint8)
        frame[:, :, 1] = 255  # all green screen
        frame[2:6, 2:6] = [200, 30, 30]  # subject block
        write_pnm_file(frames / "frame_000001.ppm", frame)
        out_dir = tmp_path / "merged"
        code, _, _ = run(capsys, "merge", "--bg", str(tmp_path / "bg.ppm"),
                         "--fg-dir", str(frames), "--out-dir", str(out_dir),
                         "--n", "256")
        assert code == 0
        merged, mode = read_pnm_file(out_dir / "frame_000001.ppm")
        assert mode == "rgb"
        assert np.array_equal(merged[0, 0], [0, 0, 0])  # keyed out -> background
        assert np.array_equal(merged[3, 3], [200, 30, 30])  # subject kept

    def test_merge_alpha_dir_path(self, capsys, tmp_path):
        bg = np.full((4, 4, 3), 10, dtype=np.uint8)
        fg = np.full((4, 4, 3), 250, dtype=np.uint8)
        write_pnm_file(tmp_path / "bg.ppm", bg)
        frames = tmp_path / "frames"
        alphas = tmp_path / "alphas"
        frames.mkdir()
        alphas.mkdir()
        write_pnm_file(frames / "f1.ppm", fg)
        write_pnm_file(alphas / "f1.pgm", np.full((4, 4), 255, dtype=np.uint8))
        out_dir = tmp_path / "out"
        code, _, _ = run(capsys, "merge", "--bg", str(tmp_path / "bg.ppm"),
                         "--fg-dir", str(frames), "--out-dir", str(out_dir),
                         "--alpha-dir", str(alphas))
        assert code == 0
        merged, _ = read_pnm_file(out_dir / "f1.ppm")
        assert np.all(merged == 250)

    @pytest.mark.parametrize("n, factor", [
        ("1073741824", "2"),
        (str(1 << 25), "2"),
        ("256", "100000"),
    ])
    def test_scale_oversized_rejected_before_allocating(self, capsys, tmp_path, n, factor):
        write_pnm_file(tmp_path / "in.pgm", np.zeros((4, 4), dtype=np.uint8))
        code, out, err = run(capsys, "scale", "--in", str(tmp_path / "in.pgm"),
                             "--out", str(tmp_path / "out.pgm"), "--factor", factor, "--n", n)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("sclab: ")
        assert not (tmp_path / "out.pgm").exists()

    def test_merge_oversized_length_rejected(self, capsys, tmp_path):
        write_pnm_file(tmp_path / "bg.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        (tmp_path / "frames").mkdir()
        write_pnm_file(tmp_path / "frames" / "f1.ppm", np.zeros((4, 4, 3), dtype=np.uint8))
        code, out, err = run(capsys, "merge", "--bg", str(tmp_path / "bg.ppm"),
                             "--fg-dir", str(tmp_path / "frames"),
                             "--out-dir", str(tmp_path / "out"), "--n", "1073741824")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and "2^24" in err
        assert not (tmp_path / "out" / "f1.ppm").exists()

    def test_score(self, capsys, tmp_path, gray_file):
        code, out, _ = run(capsys, "score", "--ref", str(gray_file),
                           "--test", str(gray_file))
        assert code == 0
        assert out == "PSNR: inf dB\nSSIM: 1.0000\n"

    def test_score_differs(self, capsys, tmp_path, gray_file):
        pixels, _ = read_pnm_file(gray_file)
        other = tmp_path / "other.pgm"
        write_pnm_file(other, pixels + 1)
        code, out, _ = run(capsys, "score", "--ref", str(gray_file),
                           "--test", str(other))
        assert code == 0
        assert out.splitlines()[0] == "PSNR: 48.13 dB"
