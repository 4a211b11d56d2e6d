"""Low-discrepancy sequence generators and a stochastic-computing workbench."""

from .bench import BenchConfig, MaeReport, emit_report, mae_add_sweep, mae_mul_sweep
from .bitstream import (
    Bitstream,
    FixedUnipolar,
    decode_bipolar,
    decode_unipolar,
    scc,
    sng_generate,
)
from .errors import (
    ConfigurationError,
    DomainError,
    GenerationError,
    ParseError,
    PnmError,
    WorkbenchError,
)
from .media import (
    AlphaMap,
    GrayImage,
    RgbImage,
    bilinear_reference,
    chroma_key_alpha,
    merge_reference,
    merge_scene_sc,
    psnr,
    scale_image_sc,
    ssim,
)
from .ops import min_correlated, mul_bipolar, mul_unipolar, mux2, mux2_sub, mux4
from .p2lsg import P2lsgConfig, p2lsg_pair_for_length, p2lsg_parallel, p2lsg_sequence
from .pnm import read_pnm, write_pnm
from .sequences import SequenceSpec, sequence_thresholds

__version__ = "0.1.0"
