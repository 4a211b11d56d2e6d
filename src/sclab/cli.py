"""Command-line workbench: sequence generation, SCC measurement, exhaustive
benchmarks, SC image scaling, scene merging, and quality scoring.

Exit codes: 0 success, 1 usage error, 2 runtime/domain error, 3 I/O or parse
error.  Data goes to stdout, diagnostics to stderr; output is deterministic
for fixed inputs (the benchmark CSV wall_seconds column is the one measured,
run-dependent field).
"""

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .bench import BenchConfig, emit_report, run_bench
from .bitstream import load_stream_ascii, load_stream_raw, scc
from .errors import ConfigurationError, DomainError, ParseError, WorkbenchError
from .media import (
    AlphaMap,
    DATA_SPEC,
    MERGE_SELECT_SPEC,
    RgbImage,
    U_SELECT_SPEC,
    V_SELECT_SPEC,
    chroma_key_alpha,
    image_from_array,
    merge_scene_sc,
    psnr,
    scale_image_sc,
    ssim,
)
from .p2lsg import P2lsgConfig, group_reverse, p2lsg_parallel
from .pnm import read_pnm_file, write_pnm_file
from .sequences import (
    FAMILIES,
    SequenceSpec,
    default_pair,
    parse_spec_pair,
    sequence_fractions,
    sequence_thresholds,
)

_SPEC_GRAMMAR = (
    "sequence specs use `family[:key=value,...]`, e.g. `p2lsg:base=16,bits=8`, "
    "`sobol:dim=2`, `weyl:irrational=silver`, `lfsr:seed=1,taps=0x71`; "
    "`p2lsg2`/`p2lsgN` abbreviate the base-2 / base-N pair rule"
)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_lengths(text):
    exponents = []
    for part in text.split(","):
        if ".." in part:
            lo, _, hi = part.partition("..")
            exponents.extend(range(int(lo), int(hi) + 1))
        else:
            exponents.append(int(part))
    if not exponents or any(e < 1 or e > 24 for e in exponents):
        raise ConfigurationError(f"length exponents out of range in {text!r}")
    return tuple(1 << e for e in exponents)


def _parse_seq_pair(text):
    if "," not in text and ":" not in text and text in FAMILIES:
        return "family-default", text
    specs = parse_spec_pair(text)
    if len(specs) != 2:
        raise ConfigurationError(
            f"--seqs needs exactly two sequence specs, got {len(specs)} in {text!r}"
        )
    return "pair", tuple(specs)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _gen_spec_from_flags(args):
    params = []
    if args.base is not None:
        params.append(("base", args.base))
    if args.family == "faure" and args.base is not None:
        params = [("prime", args.base)]
    if args.bits is not None:
        params.append(("bits", args.bits))
    if args.dim is not None:
        params.append(("dim", args.dim))
    if args.irrational is not None:
        params.append(("irrational", args.irrational))
    if args.seed is not None:
        params.append(("seed", args.seed))
    if args.min_distance is not None:
        params.append(("min_distance", args.min_distance))
    if args.max_attempts is not None:
        params.append(("max_attempts", args.max_attempts))
    if args.taps is not None:
        params.append(("taps", args.taps))
    if args.skip:
        params.append(("skip", args.skip))
    return SequenceSpec(args.family, tuple(params))


def _cmd_gen(args):
    if args.count < 1:
        raise DomainError(f"--count must be positive, got {args.count}")
    if args.family == "p2lsg":
        if args.base is None or args.base == "N":
            raise ConfigurationError("gen --family p2lsg needs --base <power of 2>")
        bits = args.bits if args.bits is not None else 8
        if args.par and args.par > 1:
            cfg = P2lsgConfig(base=args.base, counter_bits=bits, par=args.par)
            for row in p2lsg_parallel(cfg, args.count):
                print(",".join(str(int(v)) for v in row))
        else:
            n = 1 << bits
            if args.index + args.count > n:
                raise DomainError(
                    f"indices {args.index}..{args.index + args.count - 1} exceed the "
                    f"counter period {n}"
                )
            for i in range(args.index, args.index + args.count):
                print(group_reverse(i, bits, args.base))
        return 0

    spec = _gen_spec_from_flags(args)
    if args.scale_bits is not None:
        values = sequence_thresholds(spec, args.index + args.count, args.scale_bits)
        for v in values[args.index :]:
            print(int(v))
        return 0
    if args.family == "hammersley" and spec.get("dim") is None:
        from .sequences import gen_hammersley_pair

        for i in range(args.index, args.index + args.count):
            a, b = gen_hammersley_pair(i)
            print(f"{_fmt_fraction(a, args.decimal)},{_fmt_fraction(b, args.decimal)}")
        return 0
    for v in sequence_fractions(spec, args.count, start=args.index):
        print(_fmt_fraction(v, args.decimal))
    return 0


def _fmt_fraction(v, as_decimal):
    return repr(float(v)) if as_decimal else str(v)


# ---------------------------------------------------------------------------
# scc
# ---------------------------------------------------------------------------

def _load_stream(path, fmt):
    if fmt == "raw":
        return load_stream_raw(Path(path).read_bytes())
    return load_stream_ascii(Path(path).read_text())


def _cmd_scc(args):
    s1 = _load_stream(args.a, args.format)
    s2 = _load_stream(args.b, args.format)
    value = scc(s1, s2)
    print("undefined" if value is None else f"{float(value):.6f}")
    return 0


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def _cmd_bench(args, operation):
    kind, parsed = _parse_seq_pair(args.seqs)
    lengths = args.lengths if isinstance(args.lengths, tuple) else _parse_lengths(args.lengths)
    if kind == "family-default":
        pair = default_pair(parsed)
    else:
        pair = parsed
    config = BenchConfig(
        operation=operation,
        sequence_pair=pair,
        lengths=lengths,
        input_bits=args.input_bits,
        workers=args.workers,
    )
    report = run_bench(config)
    sys.stdout.write(emit_report(report, args.out))
    return 0


# ---------------------------------------------------------------------------
# media
# ---------------------------------------------------------------------------

def _read_image(path):
    pixels, _ = read_pnm_file(path)
    return image_from_array(pixels)


def _spec_or_default(text, default):
    return default if text is None else SequenceSpec.parse(text)


def _cmd_scale(args):
    image = _read_image(args.infile)
    result = scale_image_sc(
        image,
        args.factor,
        stream_length=args.n,
        seq_data=_spec_or_default(args.seq_data, DATA_SPEC),
        seq_u=_spec_or_default(args.seq_u, U_SELECT_SPEC),
        seq_v=_spec_or_default(args.seq_v, V_SELECT_SPEC),
    )
    write_pnm_file(args.out, result.pixels)
    return 0


def _frame_paths(directory):
    root = Path(directory)
    if not root.is_dir():
        raise ParseError(f"{directory} is not a directory")
    frames = sorted(
        p for p in root.iterdir() if p.suffix.lower() in (".ppm", ".pgm") and p.is_file()
    )
    if not frames:
        raise ParseError(f"no .ppm/.pgm frames found in {directory}")
    return frames


def _cmd_merge(args):
    bg = _read_image(args.bg)
    if not isinstance(bg, RgbImage):
        raise DomainError("--bg must be an RGB (P6) image")
    seq_data = _spec_or_default(args.seq_data, DATA_SPEC)
    seq_select = _spec_or_default(args.seq_select, MERGE_SELECT_SPEC)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for frame_path in _frame_paths(args.fg_dir):
        fg = _read_image(frame_path)
        if not isinstance(fg, RgbImage):
            raise DomainError(f"foreground frame {frame_path} must be RGB (P6)")
        if args.alpha_dir is not None:
            alpha_path = Path(args.alpha_dir) / (frame_path.stem + ".pgm")
            pixels, mode = read_pnm_file(alpha_path)
            if mode != "gray":
                raise DomainError(f"alpha map {alpha_path} must be grayscale (P5)")
            alpha = AlphaMap(pixels)
        else:
            alpha = chroma_key_alpha(
                fg, green_threshold=args.green_threshold, dominance_margin=args.margin
            )
        merged = merge_scene_sc(
            bg, fg, alpha, stream_length=args.n, seq_data=seq_data, seq_select=seq_select
        )
        write_pnm_file(out_dir / frame_path.name, merged.pixels)
    return 0


def _cmd_score(args):
    ref = _read_image(args.ref)
    test = _read_image(args.test)
    p = psnr(ref, test)
    s = ssim(ref, test)
    print(f"PSNR: {'inf' if p == float('inf') else format(p, '.2f')} dB")
    print(f"SSIM: {s:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(
        prog="sclab",
        description="Low-discrepancy sequence generators and a stochastic-computing workbench.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    gen = sub.add_parser(
        "gen", parents=[], help="emit sequence values",
        description="Emit sequence values, one per line. " + _SPEC_GRAMMAR,
    )
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--count", type=int, required=True,
                     help="values to emit (p2lsg parallel mode: cycles, one line per cycle)")
    gen.add_argument("--index", type=int, default=0, help="starting index (default 0)")
    gen.add_argument("--base", type=lambda s: s if s == "N" else int(s, 0),
                     help="radix (vdc/halton/p2lsg) or prime (faure)")
    gen.add_argument("--bits", type=int, help="generator precision bits")
    gen.add_argument("--par", type=int, default=1,
                     help="p2lsg parallelism; emits PAR comma-separated values per line")
    gen.add_argument("--dim", type=int, help="dimension index (sobol/niederreiter/r2/faure)")
    gen.add_argument("--irrational", help="weyl constant: pi, silver, or a number")
    gen.add_argument("--seed", type=int, help="seed for seeded families (required there)")
    gen.add_argument("--min-distance", help="poisson_disk minimum spacing (fraction)")
    gen.add_argument("--max-attempts", type=int, help="poisson_disk rejection budget")
    gen.add_argument("--taps", type=lambda s: int(s, 0), help="lfsr recurrence mask")
    gen.add_argument("--skip", type=int, default=0, help="niederreiter warm-up skip")
    gen.add_argument("--scale-bits", type=int,
                     help="emit floor(2^bits * value) integers instead of fractions")
    gen.add_argument("--decimal", action="store_true", help="print decimals, not fractions")
    gen.set_defaults(func=_cmd_gen)

    sccp = sub.add_parser("scc", help="stochastic cross-correlation of two bit-stream files")
    sccp.add_argument("--a", required=True, help="first bit-stream file")
    sccp.add_argument("--b", required=True, help="second bit-stream file")
    sccp.add_argument("--format", choices=("ascii", "raw"), default="ascii",
                      help="ascii '0'/'1' lines or raw packed words behind a length header")
    sccp.set_defaults(func=_cmd_scc)

    for op, deflen in (("mul", "6..16"), ("add", "2..9")):
        b = sub.add_parser(
            f"bench-{op}",
            help=f"exhaustive SC {'multiplication' if op == 'mul' else 'scaled addition'} MAE sweep",
            description=f"Sweep every 8-bit input pair through the SC {op} circuit. "
            + _SPEC_GRAMMAR
            + "; --seqs takes `specA,specB` (params bind to the spec on their left) "
            "or a single family name for its default pair.",
        )
        b.add_argument("--seqs", default="p2lsg2,p2lsgN")
        b.add_argument("--lengths", default=deflen, type=_parse_lengths,
                       help="length exponents: `6..16`, `8`, or `6,8,10` (powers of 2)")
        b.add_argument("--out", choices=("table", "csv"), default="table")
        b.add_argument("--input-bits", type=int, default=8)
        b.add_argument("--workers", type=int, default=None,
                       help="accepted for compatibility, no effect: the sweep counts each "
                       "pair's ones from cumulative threshold histograms in one thread")
        b.set_defaults(func=lambda a, _op=op: _cmd_bench(a, _op))

    sc = sub.add_parser("scale", help="SC bilinear image scaling")
    sc.add_argument("--in", dest="infile", required=True, help="input .pgm/.ppm")
    sc.add_argument("--out", required=True, help="output path")
    sc.add_argument("--factor", required=True, type=Fraction,
                    help="scale factor >= 1 (e.g. 2, 1.5, or 3/2)")
    sc.add_argument("--n", type=int, default=256, help="bit-stream length (power of 2)")
    sc.add_argument("--seq-data", help="data stream sequence spec")
    sc.add_argument("--seq-u", help="u select sequence spec")
    sc.add_argument("--seq-v", help="v select sequence spec")
    sc.set_defaults(func=_cmd_scale)

    mg = sub.add_parser("merge", help="SC green-screen scene merging over frame directories")
    mg.add_argument("--bg", required=True, help="background .ppm")
    mg.add_argument("--fg-dir", required=True, help="directory of foreground frames")
    mg.add_argument("--out-dir", required=True, help="directory for merged frames")
    mg.add_argument("--n", type=int, default=256, help="bit-stream length (power of 2)")
    mg.add_argument("--alpha-dir", help="directory of .pgm alpha maps (else chroma key)")
    mg.add_argument("--green-threshold", type=int, default=100)
    mg.add_argument("--margin", type=int, default=50)
    mg.add_argument("--seq-data", help="data stream sequence spec")
    mg.add_argument("--seq-select", help="alpha select sequence spec")
    mg.set_defaults(func=_cmd_merge)

    sr = sub.add_parser("score", help="PSNR and SSIM between two images")
    sr.add_argument("--ref", required=True)
    sr.add_argument("--test", required=True)
    sr.set_defaults(func=_cmd_score)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"sclab: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"sclab: {exc}", file=sys.stderr)
        return 3
    except WorkbenchError as exc:
        print(f"sclab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
