"""Tensor trains: decomposition, canonical forms, rounding, and interfaces.

A tensor train represents an order-``D`` tensor through 3-way cores
``G_d`` of shape ``(R_d, I_d, R_{d+1})`` with ``R_1 = R_{D+1} = 1``:

    t(i_1, ..., i_D) = sum over ranks of
        G_1(1, i_1, r_2) G_2(r_2, i_2, r_3) ... G_D(r_D, i_D, 1).

Core ``d`` is left-orthogonal when its ``(R_d I_d, R_{d+1})`` reshape has
orthonormal columns and right-orthogonal when its ``(R_d, I_d R_{d+1})``
reshape has orthonormal rows.  A train is site-``d``-mixed-canonical when
cores ``1..d-1`` are left-orthogonal and cores ``d+1..D`` right-orthogonal;
the full Frobenius norm then lives in core ``d``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dense import DenseTensor, _unfold
from .errors import CapacityError, NumericError
from .kernels import _svd_trunc, qr_thin, svd_trunc

__all__ = [
    "TensorTrain",
    "InterfaceMatrices",
    "tt_svd",
    "orthogonalize",
    "tt_contract",
    "tt_norm",
    "tt_round",
    "merge_cores",
    "split_core",
    "interface_matrices",
    "tt_storage",
]

DENSE_ENTRY_BUDGET = 10**8


def _check_budget(entries: int, what: str) -> None:
    """Refuse to allocate more than ``DENSE_ENTRY_BUDGET`` entries."""
    if entries > DENSE_ENTRY_BUDGET:
        raise CapacityError(
            f"{what} would create {entries} entries (budget {DENSE_ENTRY_BUDGET})"
        )


class TensorTrain:
    """Immutable chain of 3-way cores, optionally tagged with its canonical site.

    ``canonical_site`` is trusted metadata: an operation sets it when the form
    is guaranteed (a sweep, or a merge or split that keeps the centre), and
    ``orthogonalize`` moves the centre from it.  Without a tag, no form is
    assumed.

    The constructor checks what enters from outside (user arrays, file
    loads): float64 3-way cores, no empty axis, finite entries, a matching
    rank chain with unit boundaries.  A train the package builds from
    checked cores is taken over by ``_wrap`` instead, with no scan and no
    shape check: its caller guarantees those properties and the tag.
    Either way the cores are marked read-only, not copied.
    """

    __slots__ = ("_cores", "_site")

    def __init__(
        self, cores: Sequence[np.ndarray], canonical_site: int | None = None
    ):
        if not cores:
            raise ValueError("a tensor train needs at least one core")
        checked = []
        for d, c in enumerate(cores):
            c = np.asarray(c, dtype=np.float64)
            if c.ndim != 3:
                raise ValueError(f"core {d + 1} must be 3-way, got {c.ndim} axes")
            if 0 in c.shape:
                raise ValueError(f"core {d + 1} has an empty axis: shape {c.shape}")
            if not np.all(np.isfinite(c)):
                raise NumericError(f"core {d + 1} contains non-finite entries")
            checked.append(c)
        if checked[0].shape[0] != 1:
            raise ValueError(f"leading rank must be 1, got {checked[0].shape[0]}")
        if checked[-1].shape[2] != 1:
            raise ValueError(f"trailing rank must be 1, got {checked[-1].shape[2]}")
        for d in range(len(checked) - 1):
            if checked[d].shape[2] != checked[d + 1].shape[0]:
                raise ValueError(
                    f"rank mismatch between cores {d + 1} and {d + 2}: "
                    f"{checked[d].shape[2]} vs {checked[d + 1].shape[0]}"
                )
        if canonical_site is not None and not 1 <= canonical_site <= len(checked):
            raise ValueError(f"canonical site {canonical_site} outside 1..{len(checked)}")
        for c in checked:
            c.setflags(write=False)
        self._cores = tuple(checked)
        self._site = canonical_site

    @classmethod
    def _wrap(cls, cores: Sequence[np.ndarray], site: int | None) -> TensorTrain:
        """Take over float64 cores that already form a valid train with
        finite entries, tagged ``site``: no scan and no copy, only marked
        read-only."""
        tt = object.__new__(cls)
        for c in cores:
            c.setflags(write=False)
        tt._cores = tuple(cores)
        tt._site = site
        return tt

    @property
    def cores(self) -> tuple[np.ndarray, ...]:
        return self._cores

    def core(self, d: int) -> np.ndarray:
        """Core at 1-based position ``d``."""
        if not 1 <= d <= self.order:
            raise ValueError(f"core index {d} outside 1..{self.order}")
        return self._cores[d - 1]

    @property
    def order(self) -> int:
        return len(self._cores)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self._cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        """All ``D+1`` ranks including the unit boundaries."""
        return tuple(c.shape[0] for c in self._cores) + (1,)

    @property
    def canonical_site(self) -> int | None:
        return self._site

    def __repr__(self) -> str:  # pragma: no cover
        return f"TensorTrain(dims={self.dims}, ranks={self.ranks})"


def tt_storage(tt: TensorTrain) -> int:
    """Number of stored entries, ``sum_d R_d * I_d * R_{d+1}``."""
    return sum(c.size for c in tt.cores)


def _left_mat(core: np.ndarray) -> np.ndarray:
    r, n, s = core.shape
    return np.reshape(core, (r * n, s), order="F")


def _right_mat(core: np.ndarray) -> np.ndarray:
    r, n, s = core.shape
    return np.reshape(core, (r, n * s), order="F")


def _from_left(M: np.ndarray, r: int, n: int) -> np.ndarray:
    return np.reshape(M, (r, n, M.shape[1]), order="F")


def _from_right(M: np.ndarray, n: int, s: int) -> np.ndarray:
    return np.reshape(M, (M.shape[0], n, s), order="F")


def tt_svd(t: DenseTensor, epsilon: float) -> TensorTrain:
    """Decompose a dense tensor with relative accuracy ``epsilon``.

    Each of the ``D-1`` sequential truncations gets an equal share
    ``epsilon * |t|_F / sqrt(D-1)`` of the error budget, so the result
    satisfies ``|t - reconstruction|_F <= epsilon * |t|_F``.  The returned
    train is site-``D``-mixed-canonical; ``epsilon=0`` truncates only
    numerically zero singular values.  A tensor of zero norm has no train
    and is refused.
    """
    return _tt_svd_sweep(t, epsilon)[0]


def _tt_svd_sweep(t: DenseTensor, epsilon: float) -> tuple[TensorTrain, float]:
    """``tt_svd`` plus the energy its truncations discarded.

    Every truncation acts on the orthogonal complement of the left-orthogonal
    cores kept so far, so the discards add up exactly:
    ``|t - reconstruction|_F^2 == discarded``.
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    D = t.order
    dims = t.dims
    norm = t.norm()
    if norm == 0.0:
        raise ValueError("tensor has zero norm")
    delta = epsilon * norm / math.sqrt(max(1, D - 1))
    cores = []
    discarded = 0.0
    C = t.data.reshape(dims[0], -1, order="F")
    # The first unfolding is the tensor's own, whose Gram matrix it keeps.
    G = t._leading_gram(C[None])
    r = 1
    for d in range(D - 1):
        f = _svd_trunc(C[None], delta, G)
        G = None
        if f.rank == 0:
            raise ValueError(f"mode {d + 1} fully truncated; epsilon too large")
        cores.append(_from_left(f.U, r, dims[d]))
        discarded += f.discarded_energy
        r = f.rank
        C = f.rest[0]
        if d < D - 2:
            C = np.reshape(C, (r * dims[d + 1], -1), order="F")
    cores.append(C.reshape(r, dims[D - 1], 1))
    return TensorTrain._wrap(cores, D), discarded


def orthogonalize(tt: TensorTrain, d: int) -> TensorTrain:
    """Return an equivalent train in site-``d``-mixed-canonical form.

    A tagged train is already canonical around its tag, so only the cores
    between the tag and ``d`` take a QR step; an untagged one is swept whole.
    """
    if not 1 <= d <= tt.order:
        raise ValueError(f"site {d} outside 1..{tt.order}")
    if tt.canonical_site == d:
        return tt
    tag = tt.canonical_site
    lo, hi = (0, tt.order - 1) if tag is None else (tag - 1, tag - 1)
    cores = list(tt.cores)
    for k in range(lo, d - 1):
        Q, R = qr_thin(_left_mat(cores[k]))
        cores[k] = _from_left(Q, cores[k].shape[0], cores[k].shape[1])
        cores[k + 1] = np.tensordot(R, cores[k + 1], axes=([1], [0]))
    for k in range(hi, d - 1, -1):
        Q, R = qr_thin(_right_mat(cores[k]).T)
        cores[k] = _from_right(Q.T, cores[k].shape[1], cores[k].shape[2])
        cores[k - 1] = np.tensordot(cores[k - 1], R.T, axes=([2], [0]))
    return TensorTrain._wrap(cores, d)


def tt_norm(tt: TensorTrain) -> float:
    """Frobenius norm of the represented tensor: the norm of the centre
    core of a tagged train, the R-only sweep :func:`_r_norm` of an untagged
    one."""
    site = tt.canonical_site
    if site is None:
        return _r_norm(tt.cores)
    return float(np.linalg.norm(tt.core(site).ravel()))


def _r_norm(cores: Sequence[np.ndarray]) -> float:
    """Frobenius norm of the train with these cores, from a right-to-left
    QR sweep that carries only ``R``.

    With ``R`` the triangular factor of everything right of core ``d``, the
    transposed right unfolding of core ``d`` with ``R^T`` absorbed is split
    ``Q R'``.  ``Q``'s columns are orthonormal, so the norm passes to
    ``R'``; past the first core ``R'`` is ``1 x 1`` and holds the norm.
    This is the sweep of ``orthogonalize(tt, 1)``, but no ``Q`` is formed
    and no signs are fixed, since neither changes a norm.
    """
    R = np.ones((1, 1))
    for c in reversed(cores):
        r, n, s = c.shape
        X = np.reshape(R @ np.reshape(c.T, (s, n * r)), (-1, r))
        R = np.linalg.qr(X, mode="r")
    return float(abs(R[0, 0]))


def tt_contract(tt: TensorTrain) -> DenseTensor:
    """Materialize the represented tensor.

    Refuses to allocate more than ``DENSE_ENTRY_BUDGET`` entries.
    """
    _check_budget(math.prod(tt.dims), "contraction")
    return DenseTensor.from_flat(_chain(tt.cores).ravel(order="F"), tt.dims)


def tt_round(tt: TensorTrain, epsilon: float) -> TensorTrain:
    """Recompress a train to relative accuracy ``epsilon``.

    Right-orthogonalizes, then sweeps left to right truncating each core at
    ``epsilon * |tt|_F / sqrt(D-1)``.  Result is site-``D``-mixed-canonical.
    ``epsilon=0`` removes only numerically zero singular values.
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    tt = orthogonalize(tt, 1)
    delta = epsilon * tt_norm(tt) / math.sqrt(max(1, tt.order - 1))
    cores = list(tt.cores)
    for d in range(tt.order - 1):
        f = svd_trunc(_left_mat(cores[d]), delta)
        if f.rank == 0:
            raise ValueError(f"mode {d + 1} fully truncated; epsilon too large")
        cores[d] = _from_left(f.U, cores[d].shape[0], cores[d].shape[1])
        cores[d + 1] = np.tensordot(f.rest, cores[d + 1], axes=([1], [0]))
    return TensorTrain._wrap(cores, tt.order)


def merge_cores(tt: TensorTrain, d: int) -> TensorTrain:
    """Contract cores ``d`` and ``d+1`` into one supercore.

    The merged free index is the fused pair ``[i_d i_{d+1}]`` with ``i_d``
    fastest, so the result represents the same tensor reshaped.  A canonical
    tag is kept on the same core.

    Refuses to allocate more than ``DENSE_ENTRY_BUDGET`` entries.
    """
    if not 1 <= d <= tt.order - 1:
        raise ValueError(f"cannot merge at {d}: need cores {d} and {d + 1}")
    a, b = tt.cores[d - 1], tt.cores[d]
    total = a.shape[0] * a.shape[1] * b.shape[1] * b.shape[2]
    _check_budget(total, f"merging cores {d} and {d + 1}")
    cores = list(tt.cores[: d - 1]) + [_chain([a, b])] + list(tt.cores[d + 1 :])
    site = tt.canonical_site
    if site is not None and site > d:
        site -= 1
    return TensorTrain._wrap(cores, site)


def split_core(tt: TensorTrain, d: int, left_dim: int, right_dim: int) -> TensorTrain:
    """Split core ``d`` (free dimension ``left_dim * right_dim``) in two.

    The supercore is matricized as ``(R_d * left_dim, right_dim * R_{d+2})``
    and its transpose is factored without loss by :func:`svd_trunc` at
    ``delta = 0``: the orthonormal ``U`` of the transpose becomes the new
    right core, and ``rest`` transposed the left one.  (Normalizing ``rest``
    of the untransposed matrix instead would lose orthonormality in the
    directions with small singular values.)  Splitting the canonical centre
    leaves it on core ``d``; splitting any other core drops the tag.
    """
    core = tt.core(d)
    r, n, s = core.shape
    if left_dim * right_dim != n:
        raise ValueError(
            f"split {left_dim}x{right_dim} does not match free dimension {n} "
            f"of core {d}"
        )
    f = svd_trunc(np.reshape(core, (r * left_dim, right_dim * s), order="F").T, 0.0)
    if f.rank == 0:
        raise ValueError(f"core {d} is zero and cannot be split")
    left = _from_left(f.rest.T, r, left_dim)
    right = _from_right(f.U.T, right_dim, s)
    cores = list(tt.cores[: d - 1]) + [left, right] + list(tt.cores[d:])
    return TensorTrain._wrap(cores, d if tt.canonical_site == d else None)


@dataclass(frozen=True)
class InterfaceMatrices:
    """The three matricizations attached to site ``d`` of a train.

    ``left`` is ``R_d x (I_1 ... I_{d-1})``, ``right`` is
    ``R_{d+1} x (I_{d+1} ... I_D)``, and ``center`` is the core's
    ``I_d x (R_d R_{d+1})`` unfolding with ``r_d`` fastest.  The mode-``d``
    matricization of the represented tensor factors as
    ``center @ kron(right, left)``.
    """

    left: np.ndarray
    right: np.ndarray
    center: np.ndarray


def _chain(cores: Sequence[np.ndarray]) -> np.ndarray:
    """Contract a run of cores into ``(R_first, prod free dims, R_last)``,
    free indices first-index-fastest; an empty run is the unit ``(1, 1, 1)``
    and a one-core run is that core.

    Each pairwise product is one GEMM: the ``(r n, m t)`` unfolding of the
    result is ``A B`` (``A`` the ``(r n, s)`` unfolding of the run so far,
    ``B`` the next core's ``(s, m t)``), written as ``B^T A^T`` straight
    into the transpose of a Fortran-ordered result.  Fortran-ordered cores
    enter as views.
    """
    T = cores[0] if cores else np.ones((1, 1, 1))
    for c in cores[1:]:
        r, n, s = T.shape
        m, t = c.shape[1:]
        out = np.empty((r, n * m, t), order="F")
        np.matmul(
            _right_mat(c).T,
            _left_mat(T).T,
            out=np.reshape(out, (r * n, m * t), order="F").T,
        )
        T = out
    return T


def interface_matrices(tt: TensorTrain, d: int) -> InterfaceMatrices:
    """Interface matrices at site ``d``, from the chains of the cores on each
    side; an empty side is the unit ``1 x 1``."""
    if not 1 <= d <= tt.order:
        raise ValueError(f"site {d} outside 1..{tt.order}")
    dims = tt.dims
    left_size = math.prod(dims[: d - 1]) * tt.ranks[d - 1]
    right_size = math.prod(dims[d:]) * tt.ranks[d]
    _check_budget(max(left_size, right_size), f"interface at site {d}")
    left = _chain(tt.cores[: d - 1])[0].T
    right = _chain(tt.cores[d:])[:, :, 0]
    return InterfaceMatrices(left=left, right=right, center=_unfold(tt.core(d), 1))
