"""The four benchmark workloads: fixed operation lists over seeded inputs.

Each workload writes its inputs as files under a work directory (`setup`, the
timed set-up, run in a helper process so its memory stays out of the measured
process), builds its op list from those files (`prepare`, untimed) and exposes
`ops`, the operation list one pass runs.  Checks read the inputs back from the
files after the timed passes.  An op is one CLI invocation, run in-process
through `sclab.cli.main(argv)` with stdout captured, or the library loop, whose
every input pair counts as one op.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np

import inputs
import oracles

DEFAULT_SEED = 1

TABLE_FAMILIES = ("p2lsg", "sobol", "halton", "hammersley", "faure", "niederreiter")

SIZES = {
    "full": {
        "mul_lengths": "6..16", "add_lengths": "2..9",
        "rgb_side": 512, "gray_side": 256,
        "frames": 8, "frame_w": 640, "frame_h": 480,
        "stream_bits": 1 << 20, "gen_count": 1 << 16, "loop_pairs": 4096,
    },
    "tiny": {
        "mul_lengths": "6..8", "add_lengths": "2..4",
        "rgb_side": 128, "gray_side": 64,
        "frames": 2, "frame_w": 64, "frame_h": 48,
        "stream_bits": 1 << 12, "gen_count": 1 << 10, "loop_pairs": 64,
    },
}


def _span(text):
    """Number of exponents in a `lo..hi` length range."""
    lo, _, hi = text.partition("..")
    return int(hi) - int(lo) + 1


def run_cli(cli, argv):
    """One in-process CLI invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliOp:
    """A CLI invocation whose stdout and output files are digested after each
    pass and checked once, after the timed passes, by `check`."""

    weight = 1

    def __init__(self, name, argv, outputs=(), check=None, seeded=True):
        self.name = name
        self.argv = [str(a) for a in argv]
        self.outputs = [Path(p) for p in outputs]  # files or directories
        self.check = check
        self.seeded = seeded  # output depends on the workload seed
        self.stdout = None

    def execute(self, sclab):
        return run_cli(sclab.cli, self.argv)

    def _files(self):
        for path in self.outputs:
            yield from sorted(path.iterdir()) if path.is_dir() else [path]

    def settle(self, result):
        """Digest one execution's output; returns (digest, failed, note)."""
        code, out, err = result
        if code != 0:
            return None, 1, f"exit {code}: {err.strip()}"
        digest = hashlib.sha256(out.encode())
        for path in self._files():
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        self.stdout = out
        return digest.hexdigest(), 0, None

    def verify(self, digest, golden, seed):
        """Problems with the last pass's output; an empty list means it passes."""
        problems = list(self.check(self.stdout)) if self.check else []
        if self.name in golden.get("stdout", {}):
            if self.stdout != golden["stdout"][self.name]:
                problems.append("stdout differs from the recorded golden table")
        elif (not self.seeded or seed == DEFAULT_SEED) and self.name in golden.get("sha256", {}):
            if digest != golden["sha256"][self.name]:
                problems.append("output bytes differ from the recorded golden digest")
        return problems


class LoopOp:
    """Library loop over seeded (k1, k2) pairs at one stream length:
    sng_generate -> mul_unipolar / mux2 -> decode_unipolar / scc."""

    name = "library-loop"
    SELECT = 128  # the MUX select encodes 1/2

    def __init__(self, thr_a, thr_b, thr_sel, pairs):
        self.thr_a, self.thr_b, self.thr_sel = thr_a, thr_b, thr_sel
        self.pairs = [(int(k1), int(k2)) for k1, k2 in pairs]
        self.weight = len(self.pairs)
        self.results = None

    def execute(self, sclab):
        value = sclab.FixedUnipolar
        sel = sclab.sng_generate(value(self.SELECT, 8), self.thr_sel)
        results = []
        for k1, k2 in self.pairs:
            a = sclab.sng_generate(value(k1, 8), self.thr_a)
            b = sclab.sng_generate(value(k2, 8), self.thr_b)
            results.append((
                sclab.decode_unipolar(sclab.mul_unipolar(a, b)),
                sclab.decode_unipolar(sclab.mux2(a, b, sel)),
                sclab.scc(a, b),
            ))
        return results

    def settle(self, results):
        self.results = results
        return hashlib.sha256(repr(results).encode()).hexdigest(), 0, None

    def verify(self, digest, golden, seed):
        expected = oracles.loop_expected(
            self.thr_a, self.thr_b, self.thr_sel, np.array(self.pairs), self.SELECT
        )
        if len(self.results) != len(expected):
            return [f"{len(self.results)} results for {len(expected)} pairs"]
        bad = sum(got != want for got, want in zip(self.results, expected))
        return [f"{bad} of {self.weight} pairs wrong"] if bad else []


class Workload:
    """Base: subclasses set `work_name` and define `setup` and `prepare`."""

    work_name = "ops"

    def __init__(self, size, seed, root):
        self.size = SIZES[size]
        self.seed = seed
        self.inputs = Path(root) / "in"
        self.outputs = Path(root) / "out"
        self.ops = []

    def setup(self):
        """Synthesise and write the inputs (the timed set-up)."""

    def prepare(self):
        """Build the op list from the written inputs (untimed)."""

    @property
    def work_per_pass(self):
        return sum(op.weight for op in self.ops)

    def _write(self, relpath, data):
        path = self.inputs / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)

    def _read_pnm(self, relpath):
        return oracles.read_pnm((self.inputs / relpath).read_bytes())


class Tables(Workload):
    """The paper's exhaustive MAE table: six multiplication rows and the
    p2lsg addition row.  Seed-independent by design."""

    work_name = "mae_cells"

    def prepare(self):
        mul, add = self.size["mul_lengths"], self.size["add_lengths"]
        self.ops = [
            CliOp(f"bench-mul-{fam}",
                  ["bench-mul", "--seqs", fam, "--lengths", mul, "--out", "table"], seeded=False)
            for fam in TABLE_FAMILIES
        ]
        self.ops.append(CliOp(
            "bench-add-p2lsg",
            ["bench-add", "--seqs", "p2lsg", "--lengths", add, "--out", "table"], seeded=False,
        ))

    @property
    def work_per_pass(self):
        return len(TABLE_FAMILIES) * _span(self.size["mul_lengths"]) + _span(self.size["add_lengths"])


class Upscale(Workload):
    """4-to-1 MUX bilinear scaling: RGB by 2 at N=256, gray by 3/2 at N=1024."""

    work_name = "out_mpix"
    JOBS = (("rgb.ppm", Fraction(2), 256), ("gray.pgm", Fraction(3, 2), 1024))

    def setup(self):
        rng = inputs.rng_for(self.seed, "upscale")
        side, gside = self.size["rgb_side"], self.size["gray_side"]
        self._write("rgb.ppm", inputs.encode_pnm(inputs.rgb_image(rng, side, side)))
        self._write("gray.pgm", inputs.encode_pnm(inputs.gray_image(rng, gside, gside)))

    def _check(self, name, factor, out):
        scaled = oracles.read_pnm(out.read_bytes()).astype(np.float64)
        return oracles.scale_problems(self._read_pnm(name), factor, scaled)

    def prepare(self):
        self.outputs.mkdir(parents=True, exist_ok=True)
        self.ops, self.mpix = [], 0.0
        for name, factor, n in self.JOBS:
            out = self.outputs / f"scaled-{name}"
            self.ops.append(CliOp(
                f"scale-{name}",
                ["scale", "--in", self.inputs / name, "--out", out, "--factor", str(factor),
                 "--n", n],
                outputs=[out],
                check=lambda stdout, name=name, factor=factor, out=out: self._check(name, factor, out),
            ))
            h, w = self._read_pnm(name).shape[:2]
            self.mpix += round(h * factor) * round(w * factor) / 1e6

    @property
    def work_per_pass(self):
        return self.mpix


class Merge(Workload):
    """2-to-1 MUX scene merging over a green-screen frame directory: chroma key
    at N=256, then partial-coverage P5 mattes at N=1024."""

    work_name = "frames"

    def setup(self):
        rng = inputs.rng_for(self.seed, "merge")
        s = self.size
        bg, frames = inputs.green_screen(rng, s["frames"], s["frame_h"], s["frame_w"])
        self._write("bg.ppm", inputs.encode_pnm(bg))
        for i, (fg, alpha) in enumerate(frames):
            self._write(f"frames/f{i:03d}.ppm", inputs.encode_pnm(fg))
            self._write(f"mattes/f{i:03d}.pgm", inputs.encode_pnm(alpha))

    def _check(self, out_dir, keyed):
        bg = self._read_pnm("bg.ppm")
        problems = []
        for frame in self.frames:
            fg = self._read_pnm(f"frames/{frame}.ppm")
            matte = oracles.chroma_key(fg) if keyed else self._read_pnm(f"mattes/{frame}.pgm")
            out = oracles.read_pnm((out_dir / f"{frame}.ppm").read_bytes())
            problems += [f"{frame}: {p}" for p in oracles.merge_problems(bg, fg, matte, out)]
        return problems

    def prepare(self):
        self.frames = sorted(p.stem for p in (self.inputs / "frames").iterdir())
        common = ["merge", "--bg", self.inputs / "bg.ppm", "--fg-dir", self.inputs / "frames"]
        keyed, matte = self.outputs / "keyed", self.outputs / "matte"
        self.ops = [
            CliOp("merge-keyed", common + ["--out-dir", keyed, "--n", 256], outputs=[keyed],
                  check=lambda stdout: self._check(keyed, keyed=True)),
            CliOp("merge-matte",
                  common + ["--out-dir", matte, "--alpha-dir", self.inputs / "mattes", "--n", 1024],
                  outputs=[matte], check=lambda stdout: self._check(matte, keyed=False)),
        ]

    @property
    def work_per_pass(self):
        return 2 * len(self.frames)


class Streams(Workload):
    """The public stream API: `scc` on ASCII and raw files, `gen` of 2^16 values
    for four families, and the library loop at N=1024."""

    LOOP_BITS = 10  # N = 1024

    def setup(self):
        rng = inputs.rng_for(self.seed, "streams")
        a, b = inputs.stream_pair(rng, self.size["stream_bits"])
        self._write("a.txt", inputs.encode_stream_ascii(a))
        self._write("b.txt", inputs.encode_stream_ascii(b))
        self._write("a.bin", inputs.encode_stream_raw(a))
        self._write("b.bin", inputs.encode_stream_raw(b))
        # the paper's base-2 / base-N p2lsg pair at N=1024, as 8-bit thresholds
        counter = np.arange(1 << self.LOOP_BITS, dtype=np.int64)
        shift = self.LOOP_BITS - 8
        loop = io.BytesIO()
        np.savez(
            loop,
            thr_a=inputs.bit_reverse(counter, self.LOOP_BITS) >> shift,
            thr_b=counter >> shift,
            thr_sel=rng.integers(0, 256, counter.size),
            pairs=rng.integers(0, 256, (self.size["loop_pairs"], 2)),
        )
        self._write("loop.npz", loop.getvalue())

    def _bits(self, name):
        data = (self.inputs / name).read_bytes()
        n = int.from_bytes(data[:8], "little")
        return np.unpackbits(np.frombuffer(data[8:], np.uint8), count=n, bitorder="little").astype(bool)

    def _check_scc(self, stdout):
        want = oracles.scc_stdout(self._bits("a.bin"), self._bits("b.bin"))
        return [] if stdout == want else [f"printed {stdout!r}, want {want!r}"]

    def prepare(self):
        count = str(self.size["gen_count"])
        gens = {
            "gen-p2lsg16": ["--family", "p2lsg", "--base", "16", "--bits", "16"],
            "gen-sobol": ["--family", "sobol", "--dim", "2", "--bits", "16", "--scale-bits", "16"],
            "gen-vdc": ["--family", "vdc", "--base", "2"],
            "gen-halton": ["--family", "halton", "--base", "11"],
        }
        loop = np.load(self.inputs / "loop.npz")
        self.ops = [
            CliOp("scc-ascii", ["scc", "--a", self.inputs / "a.txt", "--b", self.inputs / "b.txt"],
                  check=self._check_scc),
            CliOp("scc-raw", ["scc", "--a", self.inputs / "a.bin", "--b", self.inputs / "b.bin",
                              "--format", "raw"], check=self._check_scc),
            *(CliOp(name, ["gen", *flags, "--count", count], seeded=False)
              for name, flags in gens.items()),
            LoopOp(loop["thr_a"], loop["thr_b"], loop["thr_sel"], loop["pairs"]),
        ]


WORKLOADS = {"tables": Tables, "upscale": Upscale, "merge": Merge, "streams": Streams}
