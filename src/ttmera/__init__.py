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

The package namespace holds the ``__all__`` names of ``dense``,
``errors``, ``kernels``, ``train``, ``tucker`` and ``mera``, which export
disjoint sets.  All numeric payloads are 64-bit floats; flattening follows
the first-index-fastest convention throughout.
"""

from . import dense, errors, kernels, mera, train, tucker
from .dense import *
from .errors import *
from .kernels import *
from .mera import *
from .train import *
from .tucker import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += dense.__all__
__all__ += errors.__all__
__all__ += kernels.__all__
__all__ += train.__all__
__all__ += tucker.__all__
__all__ += mera.__all__
