#!/usr/bin/env bash
# The installed `sclab` console script, end to end; both CI jobs run it from
# the repository root.  It installs the package and runs README's first
# example, then thirty-one large `gen` runs, five `bench-mul` routes the
# benchmark never runs (two as tables, the text of their rounded cells) and
# three rows that share a spec's thresholds across their lengths, whose stdout
# must keep its recorded SHA-256 (the CSV's run-dependent wall_seconds column
# cut), then README's streams example against the installed package (not
# ./src) with every numerator encoded twice over one array, `scc` on one stream
# pair as CRLF text with \x1c separators and as raw words (one recorded value),
# then an RGB `scale` at N = 1024, a chroma-keyed
# `merge` at 256 (run twice, the second time over longer files, which it must
# rewrite to the same bytes), a matted `merge` at 64 (one all-0/255 row block,
# whose pixel table is not the identity there) and mattes with a 1-pixel
# partial border at 64 and 1024 (row blocks that gather their few partial
# pixels alone), all on the kernels' int16 counts, and an RGB `scale` and a
# matted `merge` at N = 2^15, the shortest stream on int32 counts, whose
# output bytes keep theirs.
set -eo pipefail
python -m pip install .
out="$(sclab gen --family vdc --base 3 --count 1 --index 11)"
test "$out" = "19/27"
sum="$(sclab gen --family vdc --base 3 --count 1048576 | sha256sum)"
test "${sum%% *}" = 29ada672127da0734ee975da4498c342a732bbbd60caf20f309da978466644ee
sum="$(sclab gen --family weyl --irrational pi --count 65536 | sha256sum)"
test "${sum%% *}" = 51db1f30f4b757e1c151339bd6b4ee3cd1ac8a3ea28aa1317a7e7e897c6ef3b6
# runs from unaligned starts, with 20-bit rows for the GF(2) families
sum="$(sclab gen --family sobol --dim 5 --bits 20 --count 300000 --index 12345 | sha256sum)"
test "${sum%% *}" = 62a59cb3ec9cc75131080c43cc5285950fd95046a8f28092be38e3bc0ade9bda
sum="$(sclab gen --family niederreiter --dim 4 --skip 4096 --bits 20 --count 300000 --index 777 | sha256sum)"
test "${sum%% *}" = 41597f82f7a1fe0893fc83270d1977ee0c6b46af08d82e0c40a18c43e0add336
sum="$(sclab gen --family p2lsg --base 8 --bits 20 --count 300000 --index 100001 | sha256sum)"
test "${sum%% *}" = 3bd4cc1fa61c2704e0a52eebf87298a5767f013ed770f9a0d74199eef12c1ecf
sum="$(sclab gen --family halton --base 13 --count 300000 --index 1000 | sha256sum)"
test "${sum%% *}" = d2f55c29c1d4803a0de54dc5147bcb6303854d9a4bea9c132173d61df0810131
sum="$(sclab gen --family hammersley --dim 1 --count 300000 --index 4095 | sha256sum)"
test "${sum%% *}" = dc31d8854060fd0919b0d51863fcec6013c07a8ad6b4afb659b81516db4e44fa
sum="$(sclab gen --family r2 --dim 1 --count 300000 --index 4321 | sha256sum)"
test "${sum%% *}" = 476478f7df90ac49f957ec4dcde42a69f8f2705449007997e5f2a66c5ec4aec3
# a Faure-scrambled prime power (7^7) and a composite base (10^6), whose
# text reduces by np.gcd
sum="$(sclab gen --family faure --base 7 --dim 2 --count 300000 --index 4321 | sha256sum)"
test "${sum%% *}" = bd57c0d4797e04de86d4db688fdb139362310f22c101000bd3690d2377a46909
sum="$(sclab gen --family vdc --base 10 --count 300000 --index 999 | sha256sum)"
test "${sum%% *}" = ff4d8de131a2e5f3528890c5654aec6609c1877eb7223458fd1785db22a9bae9
# the lfsr from a seed state; tap mask 0x100b has period 65535, so the first
# run wraps the register's period
sum="$(sclab gen --family lfsr --seed 12345 --bits 16 --taps 0x100b --count 200000 --index 999 | sha256sum)"
test "${sum%% *}" = e98d6d4d2f36913c6ff50dfbb10b36cf2027504219ef0eb7e977d6e19f96a330
sum="$(sclab gen --family lfsr --seed 90 --count 65536 --index 77 | sha256sum)"
test "${sum%% *}" = ce2d3e025c5c7c701e53a20bb2f1ce44d25303c58b995f7632017095077f8517
# the seeded families: object numerators over 2^69 and int64 ones over 2^53
sum="$(sclab gen --family latin_hypercube --seed 4 --count 65536 | sha256sum)"
test "${sum%% *}" = 6fcfd939833c2d1ef2fb32bcf7aaafd4e838bab83cf4df8748aa4e075437493d
sum="$(sclab gen --family poisson_disk --seed 2 --count 65536 | sha256sum)"
test "${sum%% *}" = 6f908c177ca0db0d2617939b67daad3ce82265131abf6d2d40ff7bd1d76b7505
# digital_outputs' tables over two levels (sobol), to 16 base-3 digits
# (vdc ending at 2^24), and either side of the 4096-entry table limit (halton)
sum="$(sclab gen --family sobol --dim 3 --bits 24 --count 300000 --index 16000000 | sha256sum)"
test "${sum%% *}" = 2809401750fe68fc8bc52463d8d9f8d72d84875d8230fc18df3b1e4ea915e93f
sum="$(sclab gen --family vdc --base 3 --count 300000 --index 16477216 | sha256sum)"
test "${sum%% *}" = a8d136d3c548c23aa5f8592ed24dfc80631ee351d7062b473f0b693ebfafd956
sum="$(sclab gen --family halton --base 4093 --count 300000 | sha256sum)"
test "${sum%% *}" = d4eda2e74ba87328def4b0daa389a75eed0a8dea08a8aa997d1d58ef47ff62ee
sum="$(sclab gen --family halton --base 4099 --count 300000 | sha256sum)"
test "${sum%% *}" = dcceb779a12627cd1647598591c33c6b6a6c8c738c0460c49f7210c5197ce340
# Faure's scrambled digit vectors up to 2^22 values, and bases above the
# 4096-entry table limit, whose digits are peeled from the run itself
sum="$(sclab gen --family faure --base 7 --dim 2 --count 4194304 | sha256sum)"
test "${sum%% *}" = 6d9b641b6df4f8c4d8d73735bd828f98920b54d671e7ad99b7213f04498161c5
sum="$(sclab gen --family faure --base 7 --dim 1 --count 1048576 --index 12345 | sha256sum)"
test "${sum%% *}" = 7a8b713d471d829ab3618a7c5833d966fadbc983c85b9a29d58da16c04db039e
sum="$(sclab gen --family vdc --base 65537 --count 1048576 --index 12345 | sha256sum)"
test "${sum%% *}" = 312b9d3041c9747590aba0536531a5e47752de11c7167a32f09712d43c2cb981
sum="$(sclab gen --family faure --base 4099 --dim 1 --count 300000 --index 777 | sha256sum)"
test "${sum%% *}" = 84494d300e7dbd4e39e34397dc791a323e07cde88cf94a3e6ecadc7dfcd2f6a7
# base-2 digit families, whose sums are XORs: disjoint bits (vdc, both
# hammersley columns) and Faure digits taken mod 2
sum="$(sclab gen --family vdc --base 2 --count 1048576 --index 777 | sha256sum)"
test "${sum%% *}" = 309e06a5b30e20e0bf871adfed3e5efb99169641027267d0b075bf3561ae1803
sum="$(sclab gen --family faure --base 2 --dim 3 --count 300000 --index 12345 | sha256sum)"
test "${sum%% *}" = e3bef8ec959bf610de91e07e5a7f15c924245fcbb56fef0434fe9e9b4f8c4f95
sum="$(sclab gen --family hammersley --count 300000 --index 4095 | sha256sum)"
test "${sum%% *}" = 95e95ec6701affe3c84967e7a8560fa29f6ad1ca18f7a66d4edbd2964e57eb88
# the text kernel's multi-column and integer routes: p2lsg's --par columns,
# --scale-bits integers, and the hammersley pair's two den-1 columns
sum="$(sclab gen --family p2lsg --base 16 --bits 20 --par 4 --count 262144 | sha256sum)"
test "${sum%% *}" = d88a00ea19219f5c07747007640ccf67e4bb9686fc47cc1132067659335cc4ab
sum="$(sclab gen --family p2lsg --base 4 --bits 12 --par 8 --count 512 --scale-bits 20 | sha256sum)"
test "${sum%% *}" = bbc5df5ee1ded485339bf36f0bf13572d4dced70e844762f322437de14e321c1
sum="$(sclab gen --family sobol --dim 3 --bits 20 --scale-bits 12 --count 300000 --index 777 | sha256sum)"
test "${sum%% *}" = 894c8321b4777adee1ab338008214663cafd52614b3ec9c1df36600d863221ac
sum="$(sclab gen --family hammersley --scale-bits 10 --count 300000 --index 99 | sha256sum)"
test "${sum%% *}" = 789c50d7837b7c22c351febe9fbfdaf41eb96ea22cd9617f5bc566c3b69276cc
# niederreiter's index columns at 63 bits (a skip near 2^63), and a vdc base
# just below 2^62, whose numerators are Python ints
sum="$(sclab gen --family niederreiter --dim 5 --bits 32 --skip 9223372036854000000 --count 300000 | sha256sum)"
test "${sum%% *}" = 19b4d0ed80a80247ee61ce66851fcd9566c6c254556495d1897d3015dbf753aa
sum="$(sclab gen --family vdc --base 4611686018427387847 --count 100000 --index 777 | sha256sum)"
test "${sum%% *}" = 29bf41cb232204ece43c5bf5af2324e83930247d1d22f9463629d0227c31e90b
# bench-mul past the benchmark's rows: N > K^2 (uint32 count lanes, nonzero
# MAE), row blocks at 12 input bits, and 4 input bits
sum="$(sclab bench-mul --seqs halton --lengths 17..20 --out csv | cut -d, -f1,2 | sha256sum)"
test "${sum%% *}" = e51e038c89239afb6484030eb51b2ff4f11d101bb7fb1ac18ad99f5f957796c1
sum="$(sclab bench-mul --seqs halton --lengths 6..12 --input-bits 12 --out csv | cut -d, -f1,2 | sha256sum)"
test "${sum%% *}" = 09673fde8a2355d939b90854de3b07c385125d4be92aece0368c303d2fa822c0
sum="$(sclab bench-mul --seqs lfsr --lengths 6..16 --input-bits 4 --out csv | cut -d, -f1,2 | sha256sum)"
test "${sum%% *}" = 91452ee1da74146821088a0c2d88426439e3eadc772357a8f2d4ce6d9c520d65
# the same routes as tables: each exact MAE rounded half to even
sum="$(sclab bench-mul --seqs halton --lengths 17..22 --out table | sha256sum)"
test "${sum%% *}" = 56d9cfe9cba30631573cfd65aed436616824ca510ff83f162de2c9a4be27c24a
sum="$(sclab bench-mul --seqs sobol --lengths 6..14 --input-bits 12 --out table | sha256sum)"
test "${sum%% *}" = efc42bf68da3c7fd2fc0fccdc442860cf96aa0487e1302dfc18ee0b010fc5aab
# rows whose specs resolve the same at every length: one shared and one built
# per length, both shared at explicit bits, and a shared add row
sum="$(sclab bench-mul --seqs halton:base=11,p2lsgN --lengths 6..16 --out csv | cut -d, -f1,2 | sha256sum)"
test "${sum%% *}" = 0e12099ab450cfa5d8b44cc9827ccdea56d0385881de04ea9126208230e8c76b
sum="$(sclab bench-mul --seqs sobol:dim=1,bits=16,sobol:dim=2,bits=16 --lengths 6..16 --out csv | cut -d, -f1,2 | sha256sum)"
test "${sum%% *}" = a9f06676c5af019899414a944e890023c8cb7cb63c3003e17531a5ccbeb4a520
sum="$(sclab bench-add --seqs halton,vdc:base=2 --lengths 2..12 --out csv | cut -d, -f1,2 | sha256sum)"
test "${sum%% *}" = ea1309fa25fb4c64508c98f4ec3375c910821336d185bebd1650ce0b0b248a00
cd "$RUNNER_TEMP"
python - <<'EOF'
# README's "streams and arithmetic" example; the scc value was
# recorded when every count still went through numpy
from fractions import Fraction
import sclab
assert "site-packages" in sclab.__file__, sclab.__file__
cfg_a, cfg_b = sclab.p2lsg_pair_for_length(256)
ra = sclab.p2lsg_sequence(cfg_a, 256)
rb = sclab.p2lsg_sequence(cfg_b, 256)
x = sclab.sng_generate(sclab.FixedUnipolar(64, 8), ra)
y = sclab.sng_generate(sclab.FixedUnipolar(128, 8), rb)
assert sclab.decode_unipolar(sclab.mul_unipolar(x, y)) == Fraction(1, 8)
assert sclab.scc(x, y) == Fraction(0)
# every numerator twice over one array: the second round reads the
# encoder cache's table, and each stream must be the comparator's
import numpy as np
for _ in range(2):
    for k in range(256):
        want = sclab.Bitstream.from_bools(np.asarray(ra) < k)
        assert sclab.sng_generate(sclab.FixedUnipolar(k, 8), ra) == want, k
EOF
python - <<'EOF'
# one stream pair as ASCII text (CRLF line ends, a \x1c inside each line),
# which `scc` parses as bytes, and as raw words
from pathlib import Path
import numpy as np
import sclab
from sclab.bitstream import dump_stream_raw
i = np.arange(1000)
for name, flags in (("sa", i * 7 % 11 < 5), ("sb", i * 5 % 13 < 6)):
    text = "".join("01"[f] for f in flags.tolist())
    lines = (text[j:j + 32] + "\x1c" + text[j + 32:j + 64] for j in range(0, len(text), 64))
    Path(f"{name}.txt").write_bytes("\r\n".join(lines).encode() + b"\r\n")
    Path(f"{name}.bin").write_bytes(dump_stream_raw(sclab.Bitstream.from_bools(flags)))
EOF
out="$(sclab scc --a sa.txt --b sb.txt)"
test "$out" = 0.001032
out="$(sclab scc --a sa.bin --b sb.bin --format raw)"
test "$out" = 0.001032
python - <<'EOF'
# media inputs from np.arange patterns, the same bytes on every numpy
from pathlib import Path
import numpy as np
def pnm(path, pix):
    Path(path).parent.mkdir(exist_ok=True)
    magic = b"P6" if pix.ndim == 3 else b"P5"
    Path(path).write_bytes(b"%s\n%d %d\n255\n" % (magic, pix.shape[1], pix.shape[0]) + pix.tobytes())
i = np.arange(60 * 80 * 3).reshape(60, 80, 3)
pnm("img.ppm", (i * 7 % 256).astype(np.uint8))
pnm("bg.ppm", (i * 5 % 251).astype(np.uint8))
for f in range(3):
    fg = ((i + f) * 11 % 256).astype(np.uint8)
    fg[10:40, 20:60] = (30, 220, 40)  # a green-screen block
    pnm(f"frames/f{f}.ppm", fg)
    # solid 0 and 255 regions (rows 0..31 are one all-binary row
    # block) and a band of partial alpha in the second block
    matte = np.zeros((60, 80), dtype=np.uint8)
    matte[:, 30 + 5 * f:] = 255
    matte[40:48] = (np.arange(8 * 80).reshape(8, 80) * 13 + f) % 256
    pnm(f"mattes/f{f}.pgm", matte)
    # 255 inside a rectangle, 0 outside and partial bytes 1..254 on its
    # 1-pixel border, across both row blocks
    border = np.zeros((60, 80), dtype=np.uint8)
    border[10:50, 15 + 5 * f:65 + 5 * f] = (np.arange(40 * 50).reshape(40, 50) * 29 + f) % 254 + 1
    border[11:49, 16 + 5 * f:64 + 5 * f] = 255
    pnm(f"borders/f{f}.pgm", border)
EOF
sclab scale --in img.ppm --out big.ppm --factor 3/2 --n 1024
sum="$(sha256sum < big.ppm)"
test "${sum%% *}" = e157882ff47ebcddd5edde6a9628481982f76406bb6d0071965658c0dc59153d
sclab merge --bg bg.ppm --fg-dir frames --out-dir merged --n 256
sum="$(cat merged/f0.ppm merged/f1.ppm merged/f2.ppm | sha256sum)"
test "${sum%% *}" = b7581fe867811abe94be40a586eea68f47c494ec02ea5b9a750c181baba0e5fe
# outputs are rewritten in place, so each must still be cut to its length
for f in 0 1 2; do head -c 20000 /dev/urandom > "merged/f$f.ppm"; done
sclab merge --bg bg.ppm --fg-dir frames --out-dir merged --n 256
sum="$(cat merged/f0.ppm merged/f1.ppm merged/f2.ppm | sha256sum)"
test "${sum%% *}" = b7581fe867811abe94be40a586eea68f47c494ec02ea5b9a750c181baba0e5fe
sclab merge --bg bg.ppm --fg-dir frames --alpha-dir mattes --out-dir matted --n 64
sum="$(cat matted/f0.ppm matted/f1.ppm matted/f2.ppm | sha256sum)"
test "${sum%% *}" = cebf761d09d9f3363899974c73b73147d98dda0594e52eec6e033ac79d2bb80d
sclab merge --bg bg.ppm --fg-dir frames --alpha-dir borders --out-dir bordered --n 64
sum="$(cat bordered/f0.ppm bordered/f1.ppm bordered/f2.ppm | sha256sum)"
test "${sum%% *}" = b34c459d81d216431078e4c7a4e091e36916040fb95533bdb4959ce1c890e257
sclab merge --bg bg.ppm --fg-dir frames --alpha-dir borders --out-dir bordered1k --n 1024
sum="$(cat bordered1k/f0.ppm bordered1k/f1.ppm bordered1k/f2.ppm | sha256sum)"
test "${sum%% *}" = 887482aacd5090c2e46f7bc19bac27da905c5c1ba37ffc3fa97aef59313054b4
# N = 2^15: the largest folded count no longer fits int16, so the kernels
# count in int32
sclab scale --in img.ppm --out big32k.ppm --factor 3/2 --n 32768
sum="$(sha256sum < big32k.ppm)"
test "${sum%% *}" = 285defedb8d1b2261925a14f073c9b3b8a27f12503d134ec762ea965f99050be
sclab merge --bg bg.ppm --fg-dir frames --alpha-dir mattes --out-dir matted32k --n 32768
sum="$(cat matted32k/f0.ppm matted32k/f1.ppm matted32k/f2.ppm | sha256sum)"
test "${sum%% *}" = 2ae2c880ff28c07eb2dc3b1e79ced4d70608abaa082d025fe9d6052a28e6e2d4
