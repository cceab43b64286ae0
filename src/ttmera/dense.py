"""Dense tensors with a fixed linearization convention.

Every flat view in this package orders entries first-index-fastest: the
multi-index ``(i_1, ..., i_D)`` (1-based) of a tensor with dimensions
``(I_1, ..., I_D)`` sits at linear position

    [i_1 i_2 ... i_D] = i_1 + sum_{k=2}^{D} (i_k - 1) * prod_{l<k} I_l.

Reshapes reinterpret that flat order without moving data; permutations move
data.  All public indices are 1-based; conversion to 0-based happens only
inside this module.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import NumericError

__all__ = [
    "MultiIndex",
    "DenseTensor",
    "linear_index",
    "multi_index_from_linear",
]


class MultiIndex(tuple):
    """A 1-based index tuple locating one entry of a tensor."""

    def __new__(cls, indices: Sequence[int]):
        ixs = tuple(int(i) for i in indices)
        if not ixs:
            raise ValueError("multi-index must have at least one component")
        for k, i in enumerate(ixs):
            if i < 1:
                raise ValueError(f"index {i} at mode {k + 1} is not positive")
        return super().__new__(cls, ixs)

    @property
    def order(self) -> int:
        return len(self)


def _check_dims(dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise ValueError("dimension vector must be non-empty")
    for k, d in enumerate(dims):
        if d < 1:
            raise ValueError(f"dimension {d} at mode {k + 1} is not positive")
    return dims


def linear_index(m: Sequence[int], dims: Sequence[int]) -> int:
    """Map a 1-based multi-index to its 1-based flat position.

    Raises ``ValueError`` naming the first mode whose component is out of
    bounds.
    """
    dims = _check_dims(dims)
    m = MultiIndex(m)
    if len(m) != len(dims):
        raise ValueError(
            f"multi-index has {len(m)} components, tensor has order {len(dims)}"
        )
    pos = 0
    stride = 1
    for k, (i, d) in enumerate(zip(m, dims)):
        if i > d:
            raise ValueError(f"index {i} exceeds dimension {d} at mode {k + 1}")
        pos += (i - 1) * stride
        stride *= d
    return pos + 1


def multi_index_from_linear(pos: int, dims: Sequence[int]) -> MultiIndex:
    """Inverse of :func:`linear_index`; both sides 1-based."""
    dims = _check_dims(dims)
    total = math.prod(dims)
    if not 1 <= pos <= total:
        raise ValueError(f"linear position {pos} outside 1..{total}")
    rem = pos - 1
    out = []
    for d in dims:
        out.append(rem % d + 1)
        rem //= d
    return MultiIndex(out)


class DenseTensor:
    """An order-``D`` array of 64-bit reals with 1-based index semantics.

    The wrapped values are immutable; operations return new tensors.
    Constructors reject non-finite entries.  The check is the norm pass of
    :meth:`norm`, whose result is kept: a finite norm proves every entry
    finite.  An array not stored contiguously in some order of its modes,
    and one whose norm overflows, gets an entry scan instead, which
    accepts finite entries whose squares overflow, with no warning and no
    norm kept.  Reshapes and permutations re-wrap entries already checked,
    without a second pass.  A float64 array is taken over, not copied, and
    marked read-only; a caller that still holds a writable alias of its
    memory must not write through it.

    Two facts that do not depend on a tolerance are computed once per
    tensor and kept: the norm, which views of the same memory share, and
    the Gram matrix ``M M^T`` of the unfolding ``M`` of the leading group
    of modes (``kernels._group_end``): the modes from the first whose
    sizes multiply to at most ``kernels._GROUP_MAX_ROWS``, or mode 1 alone
    if it is larger.  ``sthosvd_dense`` decides its first run of modes
    from it, and ``tt_svd`` truncates mode 1 on its partial trace.  It is
    kept only when ``svd_trunc`` would form it, for a wide ``M`` of ``N_g``
    rows with ``N / N_g >= 2 N_g``, so it holds at most ``N / 2`` entries
    for a tensor of ``N``.
    """

    __slots__ = ("_a", "_norm", "_gram")

    def __init__(self, array: np.ndarray | Sequence):
        a = np.asarray(array, dtype=np.float64)
        if a.ndim == 0:
            a = a.reshape(1)
        _check_dims(a.shape)
        norm = _checked_norm(a)
        a.setflags(write=False)
        self._a = a
        self._norm = norm
        self._gram = None

    @classmethod
    def _wrap(cls, a: np.ndarray, norm: float | None = None) -> DenseTensor:
        """Take over a float64 array of order one or more whose entries are
        already known finite: no scan and no copy, only marked read-only.
        ``norm``, if given, is the value :meth:`norm` returns for it."""
        t = object.__new__(cls)
        a.setflags(write=False)
        t._a = a
        t._norm = norm
        t._gram = None
        return t

    @classmethod
    def from_flat(cls, data: Sequence, dims: Sequence[int]) -> DenseTensor:
        """Build from a flat buffer laid out first-index-fastest."""
        dims = _check_dims(dims)
        flat = np.asarray(data, dtype=np.float64).reshape(-1)
        if flat.size != math.prod(dims):
            raise ValueError(
                f"flat buffer has {flat.size} entries, dimensions require "
                f"{math.prod(dims)}"
            )
        return cls(flat.reshape(dims, order="F"))

    # -- views ---------------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        return self._a.shape

    @property
    def order(self) -> int:
        return self._a.ndim

    @property
    def size(self) -> int:
        return self._a.size

    @property
    def data(self) -> np.ndarray:
        """Flat entries, first index fastest (a view if stored that way)."""
        return self._a.ravel(order="F")

    def to_array(self) -> np.ndarray:
        """Read-only ndarray view (0-based indexing)."""
        return self._a

    def entry(self, m: Sequence[int]) -> float:
        """Entry at a 1-based multi-index, checked by :func:`linear_index`."""
        pos = linear_index(m, self.dims) - 1
        return float(self._a[np.unravel_index(pos, self.dims, order="F")])

    def __repr__(self) -> str:  # pragma: no cover
        return f"DenseTensor(dims={self.dims})"

    # -- operations ----------------------------------------------------

    def reshape(self, new_dims: Sequence[int]) -> DenseTensor:
        """Reinterpret the flat entry order under new dimensions."""
        new_dims = _check_dims(new_dims)
        if math.prod(new_dims) != self.size:
            raise ValueError(
                f"cannot reshape {self.dims} ({self.size} entries) to "
                f"{new_dims} ({math.prod(new_dims)} entries)"
            )
        a = np.reshape(self._a, new_dims, order="F")
        # A view holds the same entries in the same memory order, so it has
        # the same norm; a copy is stored first-index-fastest and sums anew.
        return DenseTensor._wrap(
            a, self._norm if np.may_share_memory(a, self._a) else None
        )

    def permute(self, perm: Sequence[int]) -> DenseTensor:
        """Reorder modes; ``perm`` is a 1-based permutation of ``1..D``.

        Mode ``k`` of the result is mode ``perm[k]`` of the input.
        """
        perm = tuple(int(p) for p in perm)
        if sorted(perm) != list(range(1, self.order + 1)):
            raise ValueError(
                f"{perm} is not a permutation of 1..{self.order}"
            )
        a = np.transpose(self._a, tuple(p - 1 for p in perm))
        return DenseTensor._wrap(a, self._norm)

    def unfold(self, d: int) -> np.ndarray:
        """Mode-``d`` matricization, shape ``(I_d, prod of the rest)``.

        Columns run over the remaining modes in their original order,
        earliest mode fastest.
        """
        if not 1 <= d <= self.order:
            raise ValueError(f"mode {d} outside 1..{self.order}")
        return _unfold(self._a, d - 1)

    def mode_product(self, d: int, U: np.ndarray) -> DenseTensor:
        """Contract matrix ``U`` against mode ``d``: ``unfold(out, d) = U @ unfold(self, d)``."""
        U = np.asarray(U, dtype=np.float64)
        if U.ndim != 2:
            raise ValueError("mode product expects a matrix")
        if U.shape[1] != self.dims[d - 1]:
            raise ValueError(
                f"matrix has {U.shape[1]} columns, mode {d} has dimension "
                f"{self.dims[d - 1]}"
            )
        return self.fold(d, U @ self.unfold(d))

    def fold(self, d: int, M: np.ndarray) -> DenseTensor:
        """Inverse of :meth:`unfold` with a new mode-``d`` dimension: the
        tensor whose mode-``d`` matricization is ``M``, whose columns run
        over this tensor's other modes."""
        if not 1 <= d <= self.order:
            raise ValueError(f"mode {d} outside 1..{self.order}")
        return DenseTensor(_fold(np.asarray(M, dtype=np.float64), d - 1, self.dims))

    def norm(self) -> float:
        """Frobenius norm, summed in memory order (no copy): one dot product
        per 4096-entry block, the blocks added exactly by ``math.fsum``, so
        only the rounding within a block depends on the BLAS kernels.  The
        whole blocks go through one ``np.vecdot`` and the tail through one
        ``np.dot``; both take the same BLAS dot for every block.

        A finite norm is kept, so the pass runs once per tensor; the
        constructor's entry check is that pass.  An overflowing sum warns
        and returns ``inf``, or raises ``OverflowError`` from ``fsum``, on
        every call."""
        if self._norm is None:
            norm = _block_norm(self._a.ravel(order="K"))
            if math.isfinite(norm):
                self._norm = norm
            return norm
        return self._norm

    def _leading_gram(self, X: np.ndarray) -> np.ndarray | None:
        """``kernels._gram_for(X)`` of the caller's ``(1, N_g, N / N_g)``
        array ``X`` of the unfolding of the leading group of modes, formed
        by the first call and kept read-only.  It is formed from the array
        the caller already holds, so an input not stored first-index-fastest
        is not copied again.  Two threads that form it at once store the
        same bits."""
        if self._gram is None:
            from .kernels import _gram_for  # kernels imports this module

            G = _gram_for(X)
            if G is not None:
                G.setflags(write=False)
            self._gram = G
        return self._gram


def _block_norm(flat: np.ndarray) -> float:
    """The Frobenius norm of the 1-D ``flat`` as :meth:`DenseTensor.norm`
    sums it."""
    whole = flat.size - flat.size % 4096
    blocks = np.reshape(flat[:whole], (-1, 4096))
    tail = flat[whole:]
    sums = [*np.vecdot(blocks, blocks).tolist(), float(np.dot(tail, tail))]
    return math.sqrt(math.fsum(sums))


def _checked_norm(a: np.ndarray) -> float | None:
    """The constructor's entry check: the norm of ``a``, or ``None`` where
    an entry scan decided.  Squares of finite doubles are finite or
    ``+inf``, and a NaN or an infinity carries through the dot products
    and ``fsum``, so a finite norm proves every entry finite.  The norm
    pass is taken only where the flat view of ``a`` costs no copy."""
    flat = a.ravel(order="K")
    if np.may_share_memory(flat, a):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                norm = _block_norm(flat)
        except OverflowError:
            norm = math.inf
        if math.isfinite(norm):
            return norm
    if not np.all(np.isfinite(a)):
        raise NumericError("tensor entries must be finite")
    return None


# Unchecked array versions of the unfolding and its inverse, with 0-based
# modes: the package's one mode unfolding of arrays, cores and supercores.
# An explicit transpose costs half of a generic axis move on small arrays.


def _unfold(a: np.ndarray, axis: int) -> np.ndarray:
    perm = (axis, *range(axis), *range(axis + 1, a.ndim))
    return a.transpose(perm).reshape((a.shape[axis], -1), order="F")


def _fold(M: np.ndarray, axis: int, dims: tuple[int, ...]) -> np.ndarray:
    """The array whose ``axis`` unfolding is ``M`` and whose other modes
    are those of ``dims``."""
    rest = dims[:axis] + dims[axis + 1:]
    folded = M.reshape((M.shape[0],) + rest, order="F")
    return folded.transpose((*range(1, axis + 1), 0, *range(axis + 1, len(dims))))
