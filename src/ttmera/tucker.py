"""Tucker decompositions whose core stays in tensor-train form.

A Tucker decomposition writes an order-``D`` tensor as a small core tensor
multiplied along every mode by an orthonormal factor matrix
``U_d (I_d x S_d)``.  Keeping the core as a tensor train instead of a dense
array makes the conversion from a train cheap: only the ``D`` small core
unfoldings ``(I_d x R_d R_{d+1})`` are ever factored, never the full tensor.

The discarded energies add up to the squared error of the converted
decomposition: to rounding on the SVD routes of ``svd_trunc``, and within
the proven charge of its Gram route there (at most 1e-8 delta^2 off on
every Gram call of the heat tensors' conversions at 1e-3 and 1e-7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dense import DenseTensor
from .kernels import (
    _gram_for,
    _group_end,
    _partial_trace,
    _project_run,
    _run_decisions,
    _svd_trunc,
    qr_thin,
)
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
    keeping the sweep site-mixed-canonical.  The total squared error,
    ``sum(mode_discarded)`` as the module docstring states, is at most
    ``(epsilon |tt|_F)^2``.
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
    tensor, so the discarded energies are that mode's errors, as the module
    docstring states.  ``max_rank`` optionally caps the kept rank of every
    mode regardless of the tolerance; the energy of the ``rest`` rows the
    cap cuts is charged to that mode's discarded entry, so the accounting
    holds as it does for the tolerance.
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
        f, _ = _svd_trunc(cores[d], delta)
        if f.rank == 0:
            raise ValueError(f"mode {d + 1} fully truncated; epsilon too large")
        keep = f.rank if max_rank is None else min(f.rank, max_rank)
        cut = f.rest[:, keep:]
        factors.append(f.U[:, :keep])
        discarded[d] = f.discarded_energy + float(np.vdot(cut, cut))
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
    factor is split off; each truncation gets budget ``delta = epsilon
    |t|_F / sqrt(D)``.  Returns ``(factors, core, mode_discarded)``.  A
    tensor of zero norm is refused.

    **Runs.**  The modes are taken in runs of consecutive modes.  From mode
    ``d`` the group is the longest run of modes whose sizes multiply to at
    most ``kernels._GROUP_MAX_ROWS`` = 50, or mode ``d`` alone if it is
    larger (``kernels._group_end``).  The core is viewed as an ``(a, N,
    b)`` array, ``N`` the group's size and ``a`` and ``b`` the products of
    the dimensions before and after it, and one Gram pass gives the Gram
    matrix of the group's unfolding; the input keeps it for its leading
    group.  The Gram matrix of each member's own unfolding is a partial
    trace of it.  The members are decided in order by the Gram route of
    ``svd_trunc`` (``kernels._run_decisions``): a member kept whole, by
    the first pass or by the second, is deferred with no projection, and
    its second pass reads the run's starting core.  The run ends at its
    first member that truncates, which is its last, at the group's end, or
    at a member the route refuses or whose charges below do not fit, which
    is left out.  Then one projection applies all of the run's factors,
    by ``K = kron(U_L, ..., U_1)``.  A mode that opens no run (below the
    route's size gate, at ``delta = 0``, or not within the charges), and a
    mode the route refused inside a run, once that run is projected, are
    decided one at a time by ``svd_trunc``'s rules.

    **The deferral keeps the sequential algorithm.**  Let ``X_0`` be the
    run's starting core, ``M_k`` the unfolding of member ``k`` of ``X_0``,
    and ``U_j`` the factors decided before it, all square.  Given these
    factors, the sequential algorithm decides member ``k`` on ``X_{k-1} =
    X_0 x_1 U_1^T ... x_{k-1} U_{k-1}^T``, whose unfolding is ``M_k' = M_k
    K_k`` for the square ``K_k``, the Kronecker product of those ``U_j``
    with identities (exact arithmetic throughout).  Each ``U_j`` is
    charged its measured departure from orthogonality, ``omega_j >= |U_j^T
    U_j - I|_2`` (``kernels._departure``), so every eigenvalue of ``K_k
    K_k^T`` lies in ``[1 - Omega_k, 1 + Omega_k]`` for the skew ``Omega_k
    = prod_{j<k} (1 + omega_j) - 1``.  Hence ``sigma_i(M_k')^2`` lies
    within ``[1 - Omega_k, 1 + Omega_k]`` times ``sigma_i(M_k)^2``, and
    the discard of any ``U`` on ``M_k'`` is at most ``1 + Omega_k`` times
    its discard on ``M_k``.  The member's decision is charged exactly that
    (``kernels._svd_trunc_gram`` and ``_svd_trunc_tail`` with ``skew =
    Omega_k``): the first pass keeps a direction outright only if ``(1 -
    Omega_k) (lambda_i - mu - c) > delta^2``, which proves ``sigma_i(M_k')
    > delta``, so every rank the rule allows on the sequential core keeps
    it; and a factor is accepted only if ``1 + Omega_k`` times its proven
    discard bound on ``M_k``, first pass or second, is at most
    ``delta^2``.  So the decisions made on the run's starting core are
    ones the rank rule makes on the sequential core, with the same ranks
    wherever the rule's own charges leave no doubt, and each member's
    discard on the sequential core is proven at most ``delta^2``.

    In exact arithmetic the run's one projection ``K^T`` of ``X_0`` is the
    sequential algorithm's ``L`` projections.  Its rounding is charged as
    ``_svd_trunc_tail`` charges ``rho``: each entry of the new core sums
    ``N`` products of ``X_0`` with entries of the computed ``K``, each a
    product of ``L`` factor entries, so the core is off by at most
    ``gamma_{N+L} |K|_F |X_0|_F`` with ``|K|_F^2 = prod q_j``, ``q_j =
    tr(U_j^T U_j)``; reconstructing through ``K`` multiplies that by at
    most ``|K|_2 <= sqrt(prod (1 + omega_j))``.  Twice that, ``rho``, with
    ``|X_0|_F`` read from the trace of the group's Gram matrix, is charged
    to the member that would end the run: it joins only if ``sqrt(bound) +
    rho <= delta``.  Every member's error on the sequential core, its
    discard plus the rounding charged to it, is thus at most ``delta``,
    and the ``epsilon`` guarantee follows as for the sequential algorithm:
    the ``D`` errors are orthogonal, and their squares add up to at most
    ``D delta^2 = (epsilon |t|_F)^2``.

    **Memory.**  The Gram route reads the core in place and stores each
    projection first-index-fastest; the wide R-SVD and direct SVD routes
    copy a middle mode's unfolding, and the next view copies their
    projection.  An input not stored first-index-fastest is copied once.
    The returned core is the last projection, not copied:
    first-index-fastest unless the last mode took the wide or direct
    route, which stores the last index fastest.
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
    d, alone = 0, False
    while d < D:
        dims = core.shape
        e = d + 1 if alone else _group_end(dims, d)
        a, sizes = math.prod(dims[:d]), dims[d:e]
        # Every projection comes back as the (a, R, b) array of
        # K.T @ unfold(X), so a reshape of it is the next core.
        X = np.reshape(core, (a, math.prod(sizes), -1), order="F")
        run, G = [], None
        if not alone:
            # The input keeps the Gram matrix of its leading group.
            G = t._leading_gram(X) if d == 0 else _gram_for(X)
            if G is not None:
                run, alone = _run_decisions(X, sizes, G, delta)
        if run:
            X = np.reshape(X, (a, math.prod(sizes[: len(run)]), -1), order="F")
            Us, rest = _project_run([c.U for c in run], X)
            energies = [c.discarded_energy for c in run]
        else:
            # A mode that opens no run, and one the Gram route refused in
            # a run, is decided as svd_trunc decides it.
            X = np.reshape(X, (a, sizes[0], -1), order="F")
            f, _ = _svd_trunc(X, delta, None if G is None else _partial_trace(G, sizes, 0))
            Us, rest, energies, alone = [f.U], f.rest, [f.discarded_energy], False
        # Only a run's last mode truncates.
        if Us[-1].shape[1] == 0:
            raise ValueError(f"mode {d + len(Us)} fully truncated; epsilon too large")
        ranks = tuple(U.shape[1] for U in Us)
        core = np.reshape(rest, dims[:d] + ranks + dims[d + len(Us):], order="F")
        factors += Us
        discarded[d : d + len(Us)] = energies
        d += len(Us)
    return factors, DenseTensor._wrap(core), discarded


def compression_ratio(original_entries: int, stored_entries: int) -> float:
    """How many original entries each stored entry stands for."""
    if original_entries < 1 or stored_entries < 1:
        raise ValueError("entry counts must be positive")
    return original_entries / stored_entries
