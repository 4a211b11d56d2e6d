"""Command-line workbench: sequence generation, SCC measurement, exhaustive
benchmarks, SC image scaling, scene merging, and quality scoring.

Exit codes: 0 success, 1 usage error, 2 runtime/domain error, 3 I/O or parse
error.  Data goes to stdout, diagnostics to stderr; output is deterministic
for fixed inputs (the benchmark CSV wall_seconds column is the one measured,
run-dependent field).  Every error message goes through one formatter that
elides over-long ints and tokens, so it stays one short line.  `gen` writes
its text in blocks of lines, each the non-NUL bytes of one uint8 matrix.
"""

import argparse
import ctypes
import functools
import re
import sys
from pathlib import Path

import numpy as np

from .bench import BenchConfig, emit_report, run_bench
from .bitstream import load_stream_ascii, load_stream_raw, scc
from .errors import ConfigurationError, DomainError, ParseError, WorkbenchError
from .media import (
    AlphaMap,
    RgbImage,
    chroma_key_alpha,
    image_from_array,
    merge_scene_sc,
    psnr,
    scale_image_sc,
    ssim,
)
from .p2lsg import P2lsgConfig
from .pnm import read_pnm_file, write_pnm_file
from .sequences import (
    _REGISTRY,
    FAMILIES,
    MAX_LENGTH,
    SequenceSpec,
    _fraction,
    _is_prime,
    default_pair,
    parse_spec_pair,
    sequence_numerators,
    sequence_thresholds,
)

_SPEC_GRAMMAR = (
    "sequence specs use `family[:key=value,...]`, e.g. `p2lsg:base=16,bits=8`, "
    "`sobol:dim=2`, `weyl:irrational=silver`, `lfsr:seed=1,taps=0x71`; "
    "`p2lsg2`/`p2lsgN` abbreviate the base-2 / base-N pair rule"
)


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit 1 instead of 2, with the
    message through the same formatter as every other error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        # the usage line lists every choice, so the message does not repeat them
        message = re.sub(r" \(choose from .*\)\Z", "", message)
        self.exit(1, f"{self.prog}: error: {_short(message)}\n")


def _integer(text, form="an integer (decimal or 0x hex)", base=0):
    """int(text, base), or a usage error that names the expected `form`."""
    try:
        return int(text, base)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None


def _parse_lengths(text):
    ranges, form = [], "length exponents such as 6..16, 8 or 6,8,10"
    for part in text.split(","):
        lo, dots, hi = part.partition("..")
        ranges.append(range(_integer(lo, form, 10), _integer(hi if dots else lo, form, 10) + 1))
    # bounds are checked before any range is expanded, so `1..10**15` costs nothing
    top = MAX_LENGTH.bit_length() - 1
    if not any(ranges) or any(r and (r[0] < 1 or r[-1] > top) for r in ranges):
        raise argparse.ArgumentTypeError(f"length exponents out of range in {text!r}")
    return tuple(1 << e for r in ranges for e in r)


def _parse_factor(text):
    # argparse turns only ValueError and ArgumentTypeError into usage errors.
    # _fraction bounds the decimal exponent, whose 10^e Fraction() would expand
    # without limit; its other failures (nan, 1/0) keep argparse's wording
    try:
        return _fraction(text, "factor")
    except ConfigurationError as exc:
        message = str(exc) if exc.__cause__ is None else f"invalid Fraction value: {text!r}"
        raise argparse.ArgumentTypeError(message) from None


def _parse_seq_pair(text):
    if text in FAMILIES:
        return default_pair(text)
    specs = parse_spec_pair(text)
    if len(specs) != 2:
        raise ConfigurationError(
            f"--seqs needs exactly two sequence specs, got {len(specs)} in {text!r}"
        )
    return tuple(specs)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

# gen's flag (argparse dest) for each family parameter: its name, but --base for faure's prime
_GEN_FLAGS = {k: "base" if k == "prime" else k for r in _REGISTRY.values() for k in r.params}


def _cmd_gen(args):
    """Validate, compute every value as an exact integer array, then format and
    write _ROW_BLOCK lines at a time, so the text never outgrows one block."""
    if args.count < 1:
        raise DomainError(f"--count must be positive, got {args.count}")
    if args.index < 0:
        raise DomainError(f"--index must be non-negative, got {args.index}")
    reads = {_GEN_FLAGS[k]: k for k in _REGISTRY[args.family].params}  # flag -> parameter
    given = {f: getattr(args, f) for f in dict.fromkeys(_GEN_FLAGS.values())
             if getattr(args, f) is not None}
    unread = [f"--{f.replace('_', '-')}" for f in given if f not in reads]
    if args.par != 1 and args.family != "p2lsg":
        unread.append("--par")
    if unread:
        raise DomainError(f"gen --family {args.family} does not read {', '.join(unread)}")
    # p2lsg's parallel mode emits --par values per cycle, always from index 0
    if args.par > 1 and args.index:
        raise DomainError(f"--index must be 0 with --par {args.par}, got {args.index}")
    count = args.count * args.par
    if args.index + count > MAX_LENGTH:
        # the run's end is not printed: it may have more digits than str() allows
        raise DomainError(f"gen stops at index 2^24 ({MAX_LENGTH}); this run would pass it")
    spec = SequenceSpec(args.family, tuple((reads[f], v) for f, v in given.items()))
    bits = args.scale_bits
    if args.family == "p2lsg":  # it prints its counter values: integers at the counter width
        cfg = P2lsgConfig(spec.get("base"), spec.get("bits"), args.par)
        bits = cfg.counter_bits if bits is None else bits
    if args.scale_bits is not None and not 1 <= bits <= 62:  # --bits has this range too
        raise ConfigurationError(f"--scale-bits must be in 1..62, got {bits}")
    pair = args.family == "hammersley" and args.dim is None  # both dimensions, a column each
    specs = [spec.with_param("dim", d) for d in (0, 1)] if pair else [spec]
    columns = [(sequence_thresholds(s, count, bits, args.index), 1) if bits is not None
               else sequence_numerators(s, count, args.index) for s in specs]
    par, step = args.par, _ROW_BLOCK * args.par  # a block is whole lines of PAR values
    for lo in range(0, count, step):
        cells = [(num[lo + j : lo + step : par], den) for num, den in columns for j in range(par)]
        sys.stdout.write(_lines(cells, args.decimal and bits is None))
    return 0


# lines `gen` formats and writes at a time
_ROW_BLOCK = 1 << 16


def _lines(cells, decimal):
    """One line per row of `cells`, a list of (numerators, denominator)
    columns: each value n / den printed as str(Fraction) prints it or, with
    `decimal`, as repr(n / den), the correctly rounded float; a comma between
    columns.  Outside the per-value path (decimals, numerators past 64 bits)
    every field is a uint8 matrix of ASCII bytes in which NUL means "nothing
    printed here", so a block's text is its non-NUL bytes in row order."""
    if decimal or any(num.dtype == object for num, _ in cells):  # per value
        columns = [_value_texts(num, den, decimal) for num, den in cells]
        return "".join(",".join(row) + "\n" for row in zip(*columns))
    comma, newline = (np.full((len(cells[0][0]), 1), ord(c), np.uint8) for c in ",\n")
    ends = [comma] * (len(cells) - 1) + [newline]  # the byte after each column
    chars = np.hstack([f for cell, end in zip(cells, ends) for f in (*_value_fields(*cell), end)])
    return chars[chars != 0].tobytes().decode("ascii")


def _value_texts(num, den, decimal=False):
    """Each num[i] / den as str(Fraction) prints it or, with `decimal`, as
    repr(float(Fraction)), which is the correctly rounded n / den."""
    if decimal:
        return [repr(n / den) for n in num.tolist()]
    if den >= 1 << 63:
        num = num.astype(object)
    g = np.gcd(num, den)
    return [f"{n}/{d}" if d != 1 else str(n)
            for n, d in zip((num // g).tolist(), (den // g).tolist())]


def _value_fields(num, den):
    """The fields of n / den as str(Fraction) prints it, for int64 or uint64 n."""
    num = num.astype(np.uint32 if max(int(num.max()), den - 1) < 1 << 32 else np.uint64)
    if den == 1:
        return [_digits(num)]
    root = _prime_root(den)
    if root is None:
        g = np.gcd(num, den)
        shown = (g != den)[:, None]
        return [_digits(num // g), shown * np.uint8(ord("/")), _digits(den // g) * shown]
    p, width = root
    if p == 2:  # the gcd is n's lowest set bit (den for n = 0)
        zeros = np.minimum(np.bitwise_count((num & -num) - 1), width)
        num, exp = num >> zeros, width - zeros
    else:
        num, exp = _strip_prime(num, p, width)
    # n / den reduces to num / p^exp, and "/" p^exp, where p^exp may be 2^64,
    # prints from the texts of p^0..p^width, left-aligned in NUL padding ("" for p^0)
    table = np.array([b""] + [b"/%d" % p**e for e in range(1, width + 1)])
    return [_digits(num), table.view(np.uint8).reshape(width + 1, -1)[exp]]


def _prime_root(den):
    """(p, L) when den = p^L for a prime p, else None."""
    for width in range(den.bit_length() - 1, 0, -1):
        p = den if width == 1 else round(den ** (1 / width))
        if p**width == den and _is_prime(p):
            return p, width
    return None


def _strip_prime(num, p, width):
    """(n // g, e) for each n, g = gcd(n, p^width) and p^e = p^width // g, p
    prime: g is p to the number of trailing zero base-p digits of n (all
    `width` for 0), so only the multiples of p are divided, each once per
    trailing zero."""
    out, exp = num.copy(), np.full(num.shape, width, np.uint8)
    at, rest = np.arange(num.size), num
    for _ in range(width):
        q = rest // p
        hit = rest == q * p
        at, rest = at[hit], q[hit]
        out[at] = rest
        exp[at] -= 1
    return out, exp


def _digits(v):
    """The decimal digits of non-negative integers, one right-aligned row of
    ASCII bytes per value, NUL in the places before its first digit."""
    width = len(str(v.max()))
    chars = np.empty((len(v), width), np.uint8)
    for j in reversed(range(width)):
        q = v // 10  # a division by a constant, far cheaper than % or divmod
        chars[:, j] = v - q * 10 + 48
        if j < width - 1:  # 0 prints as "0"
            chars[:, j] *= v != 0
        v = q
    return chars


# ---------------------------------------------------------------------------
# scc
# ---------------------------------------------------------------------------

def _load_stream(path, fmt):
    if fmt == "raw":
        return load_stream_raw(Path(path).read_bytes())
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not a text bit-stream file ({exc.reason} at byte {exc.start})"
        ) from exc
    return load_stream_ascii(text)


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
    config = BenchConfig(
        operation=operation,
        sequence_pair=_parse_seq_pair(args.seqs),
        lengths=args.lengths,
        input_bits=args.input_bits,
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


def _given_specs(args, *names):
    """The `--seq-*` specs the user gave, by keyword; media's signatures hold
    the defaults of the rest."""
    return {name: SequenceSpec.parse(getattr(args, name))
            for name in names if getattr(args, name) is not None}


def _cmd_scale(args):
    image = _read_image(args.infile)
    specs = _given_specs(args, "seq_data", "seq_u", "seq_v")
    result = scale_image_sc(image, args.factor, stream_length=args.n, **specs)
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


def _keep_heap():
    """Under glibc, keep freed heap memory mapped (no top trim below 1 GiB, heap
    blocks up to 32 MiB): by default the heap's layout decides whether each frame's
    buffers fault in again: 0.039-0.053 s a perfbench `merge` pass, 0.036-0.040 with it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc
        return
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def _cmd_merge(args):
    _keep_heap()
    bg = _read_image(args.bg)
    if not isinstance(bg, RgbImage):
        raise DomainError("--bg must be an RGB (P6) image")
    specs = _given_specs(args, "seq_data", "seq_select")
    out_dir, made = Path(args.out_dir), False
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
        merged = merge_scene_sc(bg, fg, alpha, stream_length=args.n, **specs)
        if not made:  # once a frame has merged, so a rejected run leaves no directory
            out_dir.mkdir(parents=True, exist_ok=True)
            made = True
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
    gen.add_argument("--base", type=lambda s: s if s == "N" else _integer(s, "an integer or N"),
                     help="radix (vdc/halton/p2lsg) or prime (faure)")
    gen.add_argument("--bits", type=int, help="generator precision bits")
    gen.add_argument("--par", type=int, default=1,
                     help="p2lsg parallelism; emits PAR comma-separated values per line")
    gen.add_argument("--dim", type=int,
                     help="dimension index (sobol/niederreiter/r2/faure/hammersley)")
    gen.add_argument("--irrational", help="weyl constant: pi, silver, or a number")
    gen.add_argument("--seed", type=int, help="seed for seeded families (required there)")
    gen.add_argument("--min-distance", help="poisson_disk minimum spacing (fraction)")
    gen.add_argument("--max-attempts", type=int, help="poisson_disk rejection budget")
    gen.add_argument("--taps", type=_integer, help="lfsr recurrence mask")
    gen.add_argument("--skip", type=int, help="niederreiter warm-up skip")
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
        b.add_argument("--seqs", default="p2lsg")
        b.add_argument("--lengths", default=deflen, type=_parse_lengths,
                       help="length exponents: `6..16`, `8`, or `6,8,10` (powers of 2)")
        b.add_argument("--out", choices=("table", "csv"), default="table")
        b.add_argument("--input-bits", type=int, default=8)
        b.set_defaults(func=lambda a, _op=op: _cmd_bench(a, _op))

    sc = sub.add_parser("scale", help="SC bilinear image scaling")
    sc.add_argument("--in", dest="infile", required=True, help="input .pgm/.ppm")
    sc.add_argument("--out", required=True, help="output path")
    sc.add_argument("--factor", required=True, type=_parse_factor,
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


# a message names the value it rejects, but an int (decimal, or hex after 0x)
# of 33 or more digits shows only its first and last four digits and its
# length, and any other run of 65 or more non-blank characters (a path, a
# spec, a flag value) its first and last twelve characters and its length
_LONG_INT = re.compile(r"(?<=0x)[0-9a-f]{33,}|\d{33,}")
_LONG_TOKEN = re.compile(r"\S{65,}")


def _short(message):
    """`message` with every over-long int or token elided: one short line."""
    message = _LONG_INT.sub(lambda m: _elide(m[0], 4, "digits"), message)
    return _LONG_TOKEN.sub(lambda m: _elide(m[0], 12, "characters"), message)


def _elide(text, keep, unit):
    return f"{text[:keep]}...{text[-keep:]} ({len(text)} {unit})"


@functools.cache
def _parser():
    """The parser `main` reuses for the whole process.  `parse_args` keeps no
    state between calls, and argparse measures the terminal when it prints,
    so usage text still wraps at the caller's COLUMNS."""
    return build_parser()


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (WorkbenchError, OSError, MemoryError) as exc:
        print("sclab: " + _short(str(exc) or "out of memory"), file=sys.stderr)
        return 3 if isinstance(exc, (ParseError, OSError)) else 2


if __name__ == "__main__":
    sys.exit(main())
