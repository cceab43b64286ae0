"""Tensor trains, train-based Tucker decompositions, and MERA compression.

The package is organised bottom-up:

- :mod:`ttmera.dense` -- dense tensors with 1-based multi-indices and the
  reshape/permute/unfold/mode-product vocabulary,
- :mod:`ttmera.kernels` -- deterministic truncated SVD, thin QR, and the
  orthogonal Procrustes solver,
- :mod:`ttmera.train` -- tensor trains: construction, orthogonalization,
  rounding, interface matrices,
- :mod:`ttmera.tucker` -- Tucker decompositions whose core stays a train,
  plus the dense sequentially-truncated baseline,
- :mod:`ttmera.mera` -- MERA layers, the iterative disentangler search,
  and conversions in both directions,
- :mod:`ttmera.formats` -- binary tensor/train/MERA files, PGM images, CSV,
- :mod:`ttmera.heat` -- the finite-difference heat-equation generator,
- :mod:`ttmera.experiments` -- reproducible experiment drivers behind the
  command line interface.

All numeric payloads are 64-bit floats; flattening follows the
first-index-fastest convention throughout.
"""

from .dense import DenseTensor, MultiIndex, linear_index, multi_index_from_linear
from .errors import CapacityError, ConfigError, FormatError, NumericError
from .kernels import TruncatedSvd, procrustes_solve, qr_thin, svd_full, svd_trunc
from .mera import (
    Disentangler,
    DisentanglerReport,
    Isometry,
    Mera,
    MeraLayer,
    disentangler_positions,
    find_disentangler,
    isometry_positions,
    mera_relative_error,
    mera_storage,
    mera_to_tt,
    shuf,
    shuf_inv,
    tt_to_mera,
)
from .train import (
    InterfaceMatrices,
    TensorTrain,
    interface_matrices,
    merge_cores,
    orthogonalize,
    split_core,
    tt_contract,
    tt_norm,
    tt_round,
    tt_storage,
    tt_svd,
)
from .tucker import (
    TuckerTT,
    compression_ratio,
    sthosvd_dense,
    tt_to_hosvd,
    tucker_reconstruct_tt,
    tucker_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "DenseTensor",
    "MultiIndex",
    "linear_index",
    "multi_index_from_linear",
    "CapacityError",
    "ConfigError",
    "FormatError",
    "NumericError",
    "TruncatedSvd",
    "svd_trunc",
    "svd_full",
    "qr_thin",
    "procrustes_solve",
    "TensorTrain",
    "tt_svd",
    "tt_norm",
    "tt_round",
    "tt_contract",
    "tt_storage",
    "orthogonalize",
    "merge_cores",
    "split_core",
    "InterfaceMatrices",
    "interface_matrices",
    "TuckerTT",
    "tt_to_hosvd",
    "tucker_sweep",
    "tucker_reconstruct_tt",
    "sthosvd_dense",
    "compression_ratio",
    "Isometry",
    "Disentangler",
    "MeraLayer",
    "Mera",
    "DisentanglerReport",
    "shuf",
    "shuf_inv",
    "find_disentangler",
    "disentangler_positions",
    "isometry_positions",
    "tt_to_mera",
    "mera_to_tt",
    "mera_storage",
    "mera_relative_error",
    "__version__",
]
