"""Tucker decompositions whose core stays in tensor-train form.

A Tucker decomposition writes an order-``D`` tensor as a small core tensor
multiplied along every mode by an orthonormal factor matrix
``U_d (I_d x S_d)``.  Keeping the core as a tensor train instead of a dense
array makes the conversion from a train cheap: only the ``D`` small core
unfoldings ``(I_d x R_d R_{d+1})`` are ever factored, never the full tensor.

The discarded energies are exact: the squared Frobenius error of the
converted decomposition equals the sum over modes of the squared singular
values dropped at that mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import DenseTensor
from .kernels import _svd_trunc, qr_thin
from .train import TensorTrain, orthogonalize, tt_norm

__all__ = [
    "TuckerTT",
    "tt_to_hosvd",
    "tucker_sweep",
    "tucker_reconstruct_tt",
    "sthosvd_dense",
    "compression_ratio",
]


@dataclass(frozen=True)
class TuckerTT:
    """Tucker factors plus a train-form core.

    ``factors[d]`` has orthonormal columns and shape ``(I_d, S_d)``;
    ``core`` has free dimensions ``(S_1, ..., S_D)``.  ``mode_discarded[d]``
    is the energy dropped when mode ``d+1`` was truncated, one entry per
    mode.
    """

    factors: list[np.ndarray]
    core: TensorTrain
    mode_discarded: np.ndarray

    def __post_init__(self):
        if len(self.factors) != self.core.order:
            raise ValueError(
                f"{len(self.factors)} factors for an order-{self.core.order} core"
            )
        for d, (U, s) in enumerate(zip(self.factors, self.core.dims)):
            if U.ndim != 2 or U.shape[1] != s:
                raise ValueError(
                    f"factor {d + 1} must be I_{d + 1} x {s}, got {U.shape}"
                )

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(U.shape[0] for U in self.factors)

    @property
    def multilinear_rank(self) -> tuple[int, ...]:
        return self.core.dims

    @property
    def storage_count(self) -> int:
        """Stored entries: factors plus train-form core."""
        return sum(U.size for U in self.factors) + sum(
            c.size for c in self.core.cores
        )


def tt_to_hosvd(tt: TensorTrain, epsilon: float) -> TuckerTT:
    """Convert a train to a truncated Tucker decomposition.

    Sweeps modes ``1..D`` in order.  At mode ``d``, the core's
    ``(I_d, R_d R_{d+1})`` unfolding is truncated at
    ``delta = epsilon * |tt|_F / sqrt(D)``; its left factor becomes the
    Tucker factor and the rest is pushed back into the train, with a QR step
    keeping the sweep site-mixed-canonical.  The total squared error is
    exactly ``sum(mode_discarded)``, hence at most ``(epsilon |tt|_F)^2``.
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    tt = orthogonalize(tt, 1)
    delta = epsilon * tt_norm(tt) / math.sqrt(tt.order)
    factors, core, discarded = tucker_sweep(tt, delta)
    return TuckerTT(factors=factors, core=core, mode_discarded=discarded)


def tucker_sweep(
    tt: TensorTrain, delta: float, max_rank: int | None = None
) -> tuple[list[np.ndarray], TensorTrain, np.ndarray]:
    """One left-to-right factor-extraction sweep at a fixed tolerance.

    First orthogonalizes to site 1 from the train's canonical tag, which
    costs nothing for a site-1 train; each center unfolding then carries
    the exact singular values of the corresponding mode of the represented
    tensor, so the discarded energies are exact mode errors.  ``max_rank``
    optionally caps the kept rank of every mode regardless of the
    tolerance; energy cut by the cap is charged to that mode's discarded
    entry, so the error accounting stays exact.
    """
    D = tt.order
    if max_rank is not None and max_rank < 1:
        raise ValueError(f"rank cap must be positive, got {max_rank}")
    tt = orthogonalize(tt, 1)
    cores = list(tt.cores)
    factors: list[np.ndarray] = []
    discarded = np.zeros(D)
    out: list[np.ndarray] = []
    for d in range(D):
        r, _, s = cores[d].shape
        f = _svd_trunc(cores[d], delta)
        if f.rank == 0:
            raise ValueError(f"mode {d + 1} fully truncated; epsilon too large")
        keep = f.rank
        extra = 0.0
        if max_rank is not None and max_rank < keep:
            keep = max_rank
            extra = float(np.sum(f.sigma[keep:] ** 2))
        factors.append(f.U[:, :keep])
        discarded[d] = f.discarded_energy + extra
        T = f.rest[:, :keep]
        if d == D - 1:
            out.append(T)
        else:
            Q, R = qr_thin(np.reshape(T, (r * keep, s), order="F"))
            out.append(np.reshape(Q, (r, keep, Q.shape[1]), order="F"))
            cores[d + 1] = np.tensordot(R, cores[d + 1], axes=([1], [0]))
    return factors, TensorTrain._wrap(out, D), discarded


def tucker_reconstruct_tt(t: TuckerTT) -> TensorTrain:
    """Expand the factors back into the core's free indices.

    The result is a train with the original dimensions and the core's ranks.
    """
    cores = []
    for U, c in zip(t.factors, t.core.cores):
        cores.append(np.einsum("rks,ik->ris", c, U, optimize=True))
    return TensorTrain(cores)


def sthosvd_dense(
    t: DenseTensor, epsilon: float
) -> tuple[list[np.ndarray], DenseTensor, np.ndarray]:
    """Sequentially truncated Tucker decomposition of a dense tensor.

    Processes modes in index order, shrinking the working core after each
    factor is split off; each truncation gets budget
    ``epsilon * |t|_F / sqrt(D)``.  Returns ``(factors, core,
    mode_discarded)``.  A tensor of zero norm is refused.

    Mode ``d`` is truncated on the core viewed as an ``(a, I_d, b)``
    array, ``a`` and ``b`` the products of the dimensions before and after
    ``d``, by the private form of ``svd_trunc``.  Its Gram route reads the
    core in place and stores the projected core first-index-fastest; its
    wide R-SVD and direct SVD routes copy a middle mode's unfolding, and
    the next view copies their projection.  An input not stored
    first-index-fastest is copied once.  The returned core is the last
    projection, not copied: first-index-fastest unless the last mode took
    the wide or direct route, which stores the last index fastest.
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    D = t.order
    norm = t.norm()
    if norm == 0.0:
        raise ValueError("tensor has zero norm")
    delta = epsilon * norm / math.sqrt(D)
    core = t.to_array()
    factors: list[np.ndarray] = []
    discarded = np.zeros(D)
    for d in range(D):
        dims = core.shape
        a, n, b = math.prod(dims[:d]), dims[d], math.prod(dims[d + 1:])
        # ``rest`` comes back as the (a, r, b) array of U.T @ unfold(core),
        # so a reshape of it is the next core.
        X = np.reshape(core, (a, n, b), order="F")
        # Mode 1 unfolds the input itself, whose Gram matrix it keeps.
        f = _svd_trunc(X, delta, t._leading_gram(X) if d == 0 else None)
        if f.rank == 0:
            raise ValueError(f"mode {d + 1} fully truncated; epsilon too large")
        factors.append(f.U)
        discarded[d] = f.discarded_energy
        core = np.reshape(f.rest, dims[:d] + (f.rank,) + dims[d + 1:], order="F")
    return factors, DenseTensor._wrap(core), discarded


def compression_ratio(original_entries: int, stored_entries: int) -> float:
    """How many original entries each stored entry stands for."""
    if original_entries < 1 or stored_entries < 1:
        raise ValueError("entry counts must be positive")
    return original_entries / stored_entries
