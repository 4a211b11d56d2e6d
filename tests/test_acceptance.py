"""Acceptance gates, one printed pass/fail line per criterion.

Reference MAE rows are frozen from the published benchmark tables; tolerances
are applied in exact rational arithmetic.  Run with `pytest -s` to see the
per-criterion lines.
"""

import random
from fractions import Fraction

import numpy as np

from conftest import (
    naive_and,
    naive_bits,
    naive_mux2,
    naive_mux2_sub,
    naive_mux4,
    naive_xnor,
)
from sclab.bench import BenchConfig, mae_add_sweep, mae_mul_sweep
from sclab.bitstream import (
    Bitstream,
    FixedUnipolar,
    decode_unipolar,
    scc,
    sng_generate,
)
from sclab.media import (
    AlphaMap,
    GrayImage,
    RgbImage,
    bilinear_reference,
    merge_reference,
    merge_scene_sc,
    psnr,
    scale_image_sc,
    ssim,
)
from sclab.ops import min_correlated, mul_bipolar, mul_unipolar, mux2, mux2_sub, mux4
from sclab.p2lsg import (
    P2lsgConfig,
    p2lsg_pair_for_length,
    p2lsg_parallel,
    p2lsg_sequence,
)
from sclab.sequences import SequenceSpec, default_pair, sequence_numerators

MUL_LENGTHS = tuple(1 << e for e in range(6, 17))
ADD_LENGTHS = tuple(1 << e for e in range(2, 10))

# published MAE-percent rows, kept as strings so each entry carries its
# printed decimal places
REFERENCE_MUL = {
    "p2lsg": "1.76 0.88 0.39 0.170 0.073 0.030 0.012 0.0045 0.0015 0.0003 0.0000",
    "sobol": "0.92 0.45 0.19 0.092 0.041 0.019 0.009 0.0035 0.0013 0.0003 0.0000",
    "halton": "3.31 1.42 1.14 0.780 0.380 0.150 0.093 0.0570 0.0330 0.0150 0.0083",
    "hammersley": "1.31 0.85 0.37 0.200 0.120 0.061 0.030 0.0170 0.0098 0.0043 0.0019",
    "faure": "2.60 1.40 0.88 0.480 0.210 0.110 0.077 0.0360 0.0136 0.0113 0.0040",
    "niederreiter": "0.95 0.51 0.34 0.130 0.072 0.032 0.019 0.0067 0.0039 0.0015 0.0011",
}
REFERENCE_ADD_P2LSG = "13.40 6.63 3.24 1.55 0.71 0.29 0.097 0.00"


def entries(row):
    return [
        (tok, Fraction(tok), Fraction(1, 10 ** len(tok.partition(".")[2])))
        for tok in row.split()
    ]


def report(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    for line in failures:
        print(f"         {line}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def mul_row(family, lengths=MUL_LENGTHS):
    config = BenchConfig("mul", default_pair(family), lengths)
    return [row.mae_percent for row in mae_mul_sweep(config).rows]


def test_criterion_1_mul_reference_row():
    maes = mul_row("p2lsg")
    failures = []
    for n, mae, (tok, ref, tol) in zip(MUL_LENGTHS, maes, entries(REFERENCE_MUL["p2lsg"])):
        if abs(mae - ref) > tol:
            failures.append(f"2^{n.bit_length()-1}: got {float(mae):.6f}, want {tok} +/- {float(tol)}")
    if maes[-1] != 0:
        failures.append(f"2^16 entry must be exactly 0, got {float(maes[-1]):.8f}")
    report(1, "exhaustive multiply MAE row (last-decimal tolerance, exact 0 at 2^16)", failures)


def test_criterion_2_add_reference_row():
    config = BenchConfig("add", default_pair("p2lsg"), ADD_LENGTHS)
    maes = [row.mae_percent for row in mae_add_sweep(config).rows]
    failures = []
    for n, mae, (tok, ref, tol) in zip(ADD_LENGTHS, maes, entries(REFERENCE_ADD_P2LSG)):
        if abs(mae - ref) > tol:
            failures.append(f"2^{n.bit_length()-1}: got {float(mae):.6f}, want {tok} +/- {float(tol)}")
    if maes[-1] != 0:
        failures.append(f"2^9 entry must be exactly 0, got {float(maes[-1]):.8f}")
    report(2, "scaled-addition MAE row (last-decimal tolerance, exact 0 at 2^9)", failures)


def test_criterion_3_other_family_rows():
    failures = []
    budgets = {"halton": Fraction(1, 20), "hammersley": Fraction(1, 20),
               "faure": Fraction(1, 20), "sobol": Fraction(1, 2),
               "niederreiter": Fraction(1, 2)}
    # an entry is only as precise as its last printed place: the table
    # truncates (the p2lsg row prints 0.170898 as 0.170, 0.00038147 as
    # 0.0003), so a relative band narrower than one printed unit would demand
    # digits the table does not give
    for family, rel in budgets.items():
        maes = mul_row(family)
        for n, mae, (tok, ref, unit) in zip(MUL_LENGTHS, maes, entries(REFERENCE_MUL[family])):
            tol = max(ref * rel, unit)
            if abs(mae - ref) > tol:
                failures.append(
                    f"{family} 2^{n.bit_length()-1}: got {float(mae):.6f}, "
                    f"want {tok} +/- {float(tol):.6f}"
                )
    dim1, _ = sequence_numerators(SequenceSpec.parse("sobol:dim=1,bits=16"), 1 << 16)
    p2 = p2lsg_sequence(P2lsgConfig(2, 16), 1 << 16)
    if not np.array_equal(dim1, p2):
        failures.append("dimension-1 sobol stream differs from the base-2 generator")
    report(3, "remaining family rows within max(budget, one printed unit) "
              "(5% digit families, 50% matrix families)", failures)


def test_criterion_4_exact_encoding():
    failures = []
    for base in (2, 4, 16, 256):
        seq = p2lsg_sequence(P2lsgConfig(base, 8), 256)
        for k in range(256):
            got = decode_unipolar(sng_generate(FixedUnipolar(k, 8), seq))
            if got != Fraction(k, 256):
                failures.append(f"base {base}, value {k}/256 decoded to {got}")
                break
    report(4, "full-period encoding is exact for bases 2/4/16/256 at N=256", failures)


def test_criterion_5_bijectivity():
    failures = []
    checked = 0
    for group_bits in range(1, 17):
        for counter_bits in range(group_bits, 17, group_bits):
            seq = p2lsg_sequence(P2lsgConfig(1 << group_bits, counter_bits), 1 << counter_bits)
            if not np.array_equal(np.sort(seq), np.arange(1 << counter_bits)):
                failures.append(f"base 2^{group_bits}, n={counter_bits} is not a permutation")
            checked += 1
    report(5, f"full-period bijectivity for all divisible (base, n), n <= 16 ({checked} configs)",
           failures)


def test_criterion_6_parallel_equals_serial():
    failures = []
    for par in (2, 4, 8):
        for base in (2, 4, 16):
            rows = p2lsg_parallel(P2lsgConfig(base, 8, par=par), 256 // par)
            serial = p2lsg_sequence(P2lsgConfig(base, 8), 256)
            if not np.array_equal(rows.reshape(-1), serial):
                failures.append(f"base {base}, par {par} flattening differs from serial")
    report(6, "parallel output flattens to the serial sequence (PAR 2/4/8, bases 2/4/16)",
           failures)


def test_criterion_7_scc():
    failures = []
    if scc(Bitstream.from01("1100"), Bitstream.from01("1100")) != 1:
        failures.append("(1100,1100) != +1")
    if scc(Bitstream.from01("1100"), Bitstream.from01("0011")) != -1:
        failures.append("(1100,0011) != -1")
    if scc(Bitstream.from01("1010"), Bitstream.from01("1100")) != 0:
        failures.append("(1010,1100) != 0")

    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randrange(4, 100)
        s1 = Bitstream.from_bits([rng.randint(0, 1) for _ in range(n)])
        s2 = Bitstream.from_bits([rng.randint(0, 1) for _ in range(n)])
        if scc(s1, s2) != scc(s2, s1):
            failures.append(f"symmetry broken at n={n}")
            break

    # |scc| <= 0.05 for the base-2 / base-N pair over every 8-bit value pair,
    # at N = 2^16, the length where criterion 1 needs the pair's product to be
    # exact.  At N = 256 no two streams can meet the bound: 1/256 is a single
    # 1, so for (k1, k2) = (1, 1) the overlap is 0 or 1 and SCC is -1 or +1.
    n = 1 << 16
    cfg_a, cfg_b = p2lsg_pair_for_length(n)
    thr_a = p2lsg_sequence(cfg_a, n) >> 8  # 8-bit thresholds of 16-bit values
    thr_b = p2lsg_sequence(cfg_b, n) >> 8
    hist = np.zeros((256, 256), dtype=np.int64)
    np.add.at(hist, (thr_a, thr_b), 1)
    cum = hist.cumsum(0).cumsum(1)
    a = np.zeros((256, 256), dtype=np.int64)
    a[1:, 1:] = cum[:-1, :-1]
    ones = np.arange(256, dtype=np.int64) * n // 256
    b = ones[:, None] - a
    c = ones[None, :] - a
    d = n - ones[:, None] - ones[None, :] + a
    ad, bc = a * d, b * c
    apb, apc = a + b, a + c
    den = np.where(ad > bc, n * np.minimum(apb, apc) - apb * apc,
                   apb * apc - n * np.maximum(a - d, 0))
    num = ad - bc
    defined = den != 0
    # exact rational check: |num/den| <= 1/20
    violating = defined & (20 * np.abs(num) > den)
    sample = random.Random(1)
    for _ in range(60):  # the vectorized counts must agree with the scc() op
        k1, k2 = sample.randrange(256), sample.randrange(256)
        direct = scc(
            sng_generate(FixedUnipolar(k1, 8), thr_a),
            sng_generate(FixedUnipolar(k2, 8), thr_b),
        )
        vector = (
            None if not defined[k1, k2] else Fraction(int(num[k1, k2]), int(den[k1, k2]))
        )
        assert direct == vector
    if violating.any():
        vi, vj = np.where(violating)
        worst = np.argmax(np.abs(num[violating]) / den[violating])
        failures.append(
            f"|scc| <= 0.05 fails for {violating.sum()} of {int(defined.sum())} defined "
            f"value pairs, e.g. ({vi[worst]},{vj[worst]}) -> "
            f"{num[vi[worst], vj[worst]] / den[vi[worst], vj[worst]]:+.3f}"
        )
    report(7, "SCC unit vectors, symmetry, and the cross-pair magnitude bound at N=2^16",
           failures)


def box_blur(a, radius):
    padded = np.pad(a.astype(float), radius, mode="edge")
    integral = np.zeros((padded.shape[0] + 1, padded.shape[1] + 1))
    np.cumsum(np.cumsum(padded, 0), 1, out=integral[1:, 1:])
    side = 2 * radius + 1
    h, w = a.shape
    sums = (
        integral[side : side + h, side : side + w]
        - integral[:h, side : side + w]
        - integral[side : side + h, :w]
        + integral[:h, :w]
    )
    return np.clip(np.round(sums / (side * side)), 0, 255).astype(np.uint8)


def acceptance_images():
    yy, xx = np.mgrid[0:128, 0:128]
    rng = np.random.default_rng(2024)
    return {
        "ramp": ((xx + yy) * 255 // 254).astype(np.uint8),
        "radial": np.clip(255 - 2.2 * np.hypot(xx - 64, yy - 64), 0, 255).astype(np.uint8),
        "texture": box_blur(rng.integers(0, 256, (128, 128)).astype(np.uint8), 5),
    }


def test_criterion_8_scaling_quality():
    failures = []
    for name, pixels in acceptance_images().items():
        image = GrayImage(pixels)
        out = scale_image_sc(image, 2, stream_length=256).pixels.astype(float)
        oracle = bilinear_reference(image, 2)
        err = np.abs(out - oracle)
        p = psnr(out, oracle)
        s = ssim(out, oracle)
        p99 = float(np.percentile(err, 99))
        if p < 40:
            failures.append(f"{name}: PSNR {p:.2f} < 40 dB")
        if s < 0.98:
            failures.append(f"{name}: SSIM {s:.4f} < 0.98")
        if p99 > 2:
            failures.append(f"{name}: 99th-percentile error {p99:.2f} > 2")
    report(8, "2x SC scaling at N=256: PSNR >= 40 dB, SSIM >= 0.98, p99 error <= 2", failures)


def merge_frames():
    h = w = 64
    yy, xx = np.mgrid[0:h, 0:w]
    bg = np.stack([xx * 4, yy * 4, (xx + yy) * 2], axis=-1).astype(np.uint8)
    frames = []
    for step in (0, 10, 20):
        fg = np.zeros((h, w, 3), dtype=np.uint8)
        alpha = np.zeros((h, w), dtype=np.uint8)
        fg[10 + step : 26 + step, 8 + step : 24 + step] = [230, 40, 90]
        alpha[10 + step : 26 + step, 8 + step : 24 + step] = 255
        frames.append((RgbImage(fg), AlphaMap(alpha)))
    return RgbImage(bg), frames


def test_criterion_9_merge_quality():
    failures = []
    bg, frames = merge_frames()
    for idx, (fg, alpha) in enumerate(frames):
        out = merge_scene_sc(bg, fg, alpha, stream_length=256)
        ref = merge_reference(bg, fg, alpha)
        p = psnr(out.pixels.astype(float), ref)
        s = ssim(out.pixels.astype(float), ref)
        if p < 45:
            failures.append(f"frame {idx}: PSNR {p:.2f} < 45 dB")
        if s < 0.99:
            failures.append(f"frame {idx}: SSIM {s:.4f} < 0.99")
        mask0 = alpha.alpha == 0
        mask1 = alpha.alpha == 255
        if not np.array_equal(out.pixels[mask0], bg.pixels[mask0]):
            failures.append(f"frame {idx}: alpha=0 region not bit-exact")
        if not np.array_equal(out.pixels[mask1], fg.pixels[mask1]):
            failures.append(f"frame {idx}: alpha=255 region not bit-exact")
    report(9, "synthetic scene merge at N=256: PSNR >= 45 dB, SSIM >= 0.99, exact mattes",
           failures)


def test_criterion_10_packed_vs_naive():
    failures = []
    rng = random.Random(0xACCE97)
    ops = {
        "and": (2, lambda s, b: (mul_unipolar(s[0], s[1]), naive_and(b[0], b[1]))),
        "xnor": (2, lambda s, b: (mul_bipolar(s[0], s[1]), naive_xnor(b[0], b[1]))),
        "min": (2, lambda s, b: (min_correlated(s[0], s[1]), naive_and(b[0], b[1]))),
        "mux2": (3, lambda s, b: (mux2(*s), naive_mux2(*b))),
        "mux2_sub": (3, lambda s, b: (mux2_sub(*s), naive_mux2_sub(*b))),
        "mux4": (6, lambda s, b: (mux4(*s), naive_mux4(*b))),
    }
    for name, (arity, run) in ops.items():
        for i in range(10000):
            n = rng.randrange(1, 129)
            # each stream's n bits come from one n-bit draw
            bits = [list(map(int, f"{rng.getrandbits(n):0{n}b}")) for _ in range(arity)]
            streams = [Bitstream.from_bits(x) for x in bits]
            packed, naive = run(streams, bits)
            if naive_bits(packed) != naive:
                failures.append(f"{name} diverges from the naive reference at instance {i}")
                break
    report(10, "packed-word kernels match the unpacked reference on 10,000 cases per op",
           failures)
