#!/usr/bin/env bash
# The installed `sclab` console script, end to end; both CI jobs run it from
# the repository root.  It installs the package and runs README's first
# example, then twelve large `gen` runs whose stdout must keep its recorded
# SHA-256, then README's streams example against the installed package (not
# ./src), then an RGB `scale`, a chroma-keyed `merge` and a matted `merge` at
# N = 64 (one all-0/255 row block, whose pixel table is not the identity
# there) whose output bytes keep theirs.
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
EOF
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
EOF
sclab scale --in img.ppm --out big.ppm --factor 3/2 --n 1024
sum="$(sha256sum < big.ppm)"
test "${sum%% *}" = e157882ff47ebcddd5edde6a9628481982f76406bb6d0071965658c0dc59153d
sclab merge --bg bg.ppm --fg-dir frames --out-dir merged --n 256
sum="$(cat merged/f0.ppm merged/f1.ppm merged/f2.ppm | sha256sum)"
test "${sum%% *}" = b7581fe867811abe94be40a586eea68f47c494ec02ea5b9a750c181baba0e5fe
sclab merge --bg bg.ppm --fg-dir frames --alpha-dir mattes --out-dir matted --n 64
sum="$(cat matted/f0.ppm matted/f1.ppm matted/f2.ppm | sha256sum)"
test "${sum%% *}" = cebf761d09d9f3363899974c73b73147d98dda0594e52eec6e033ac79d2bb80d
