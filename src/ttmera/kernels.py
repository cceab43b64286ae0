"""Dense matrix factorizations with a deterministic sign convention.

Singular vectors and Q columns are only defined up to sign, which would make
downstream decompositions run-to-run unstable.  Convention used by every
factorization returned here (``svd_trunc``, ``svd_full``, ``qr_thin``): in
each left singular vector (or Q column) the entry of largest magnitude is
made non-negative, ties resolved toward the lowest row index, and the
compensating sign is pushed into the right factor: ``svd_trunc``'s
``rest``, ``svd_full``'s ``Vt``, ``qr_thin``'s ``R``.  The wide and Gram
routes of ``svd_trunc`` (all only for wide inputs, ``n >= 2m``) form
``rest = U.T @ M`` from the sign-fixed ``U``, which carries the
compensation by construction.
Every route takes ``U`` from an orthogonal factorization, not from
``M V / sigma``, so it is orthonormal to rounding.
``procrustes_solve`` applies no convention: it returns the product
``P @ Q.T``, in which the sign of each singular-vector pair cancels exactly.
The CholeskyQR2 split ``_cholesky_qr2``, and the certified tall split
``_certified_qr`` built on it, follow the QR convention instead: ``R`` has
a positive diagonal, which fixes the sign of each of ``Q``'s columns.

Squaring ``M`` into ``M M^T`` halves the usable precision, so the Gram
route charges every decision the rounding of ``M M^T`` and of its
eigensolver.  At ``delta > 0`` one rule decides every call: it keeps the
eigenvalues' own rank if the tail plus one charge per dropped direction
fits ``delta^2``, and every row if each eigenvalue clears ``delta^2`` by
the charge.  Otherwise the directions that clear it are kept and a second
Gram pass decides the trailing eigenblock at its own scale, as CholeskyQR2
repeats its Gram step on what the first left (Yamamoto et al., ETNA 44,
2015); the call takes the wide R-SVD route only when that charged tail
does not fit either.  At ``delta = 0`` the call keeps every row once full
row rank is proven, by a ladder of proofs, cheapest first:

1. the smallest Gram eigenvalue, less both charges, above the squared rank
   floor proves ``sigma_min`` above it, reading nothing more of ``M``;
2. failing that, an eigenvalue at or below the squared rank floor marks a
   numerically rank-deficient input, refused at once;
3. otherwise the rows of ``U.T @ M`` are nearly orthogonal, and
   ``_sigma_min_bound`` of their Gram matrix scaled to a unit diagonal
   gives the smallest singular value to relative accuracy (after Demmel &
   Veselic, SIAM J. Matrix Anal. Appl. 13(4), 1992) at the price of one
   more pass;
4. failing that, the call takes the wide R-SVD route.

Dense ST-HOSVD truncates the mode-2 unfolding of its core viewed as an
``(a, n, b)`` array, through the private ``_svd_trunc``; a matrix is the
case ``a = 1``.  The Gram route reads that array in place: its Gram
matrices and projections are formed from one ``(a n, b)`` view of it, of
which a matrix is the one-slab case, or from runs of its ``b`` slabs, so
it copies no more than a run.  The wide R-SVD and direct SVD routes build
the 2-D unfolding with ``dense._unfold``, a view of the array only when
``a = 1`` or ``b = 1``, and fold back by ``_fold``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dense import _fold, _unfold
from .errors import NumericError

__all__ = ["TruncatedSvd", "svd_trunc", "svd_full", "qr_thin", "procrustes_solve"]


def _as_matrix(M: np.ndarray, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got {M.ndim} axes")
    if M.size == 0:
        raise ValueError(f"{name} must be non-empty")
    return M


def _require_finite(M: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(M)):
        raise NumericError(f"{name} contains non-finite entries")


def _require_matrix(M: np.ndarray, name: str) -> np.ndarray:
    M = _as_matrix(M, name)
    _require_finite(M, name)
    return M


def _fix_signs(U: np.ndarray, W: np.ndarray) -> None:
    """Flip columns of ``U`` (rows of ``W``) so the largest-magnitude entry
    of each ``U`` column is non-negative.  In place.

    The column's maximum and minimum decide, unless their magnitudes tie:
    then the lower-index one wins, and an all-zero column never flips.
    Only the leading rows ``W`` shares with ``U``'s columns flip: ``W`` has
    more rows for ``svd_full`` with ``m < n`` and fewer with ``m > n``,
    where ``U``'s extra columns multiply zero singular values.
    """
    # max/min reduce a C-ordered U without copying it; argmax along axis 0
    # would copy all of U.
    pos = U.max(axis=0)
    neg = -U.min(axis=0)
    flip = neg > pos
    for j in np.flatnonzero((neg == pos) & (pos > 0.0)):
        flip[j] = U[int(np.argmax(np.abs(U[:, j]))), j] < 0.0
    # Multiplying by 1.0 changes no bit and by -1.0 is exact negation, so
    # one in-place pass flips exactly the chosen columns and rows.
    signs = np.where(flip, -1.0, 1.0)
    U *= signs
    k = min(signs.size, W.shape[0])
    W[:k] *= signs[:k, None]


@dataclass(frozen=True)
class TruncatedSvd:
    """Rank-``r`` factorization ``M ~ U @ rest``.

    ``U`` has orthonormal columns and ``rest = U.T @ M = diag(sigma) @ V.T``;
    the right singular vectors ``V`` are never formed.  ``rest`` has
    orthogonal rows of norms ``sigma``.  A caller that needs an orthonormal
    right factor factors ``M.T`` and takes ``U.T``, because ``rest / sigma``
    amplifies rounding by ``sigma_1 / sigma_r``.  ``discarded_energy`` is the
    sum of squared singular values dropped by the truncation, so
    ``|M - U @ rest|_F^2 == discarded_energy``.
    """

    U: np.ndarray
    sigma: np.ndarray
    rest: np.ndarray
    discarded_energy: float

    @property
    def rank(self) -> int:
        return self.sigma.size


# Large wide matrices go through an eigendecomposition of ``M M^T`` instead
# of a QR: far less memory traffic and arithmetic when m is small.  The Gram
# matrix also stands in for the finiteness scan of M.  Timed against the
# wide R-SVD (2 cores, OpenBLAS, m = 8 to 500, best of five), the truncating
# route was 3 to 7 times faster at every size from 2^18 entries up, but it
# decides the rank on squared values, within a margin of m eps sigma_1^2 of
# the R-SVD's rule.  It serves inputs from 2^20 entries, where it saves at
# least 9 ms a call (11 -> 2 ms at m = 8, 83 -> 25 ms at m = 500); the many
# smaller truncations of train arithmetic keep the R-SVD.  Every wide call
# from 2^20 entries forms M M^T, whatever its delta: a tight delta that
# cannot afford the first pass's charge is decided by the second pass over
# the trailing eigenblock, which still beats the R-SVD: the 44 x 62,500 and
# 195 x 12,500 unfoldings of the 12-way desk tensor at 1e-7, which keep 39
# and 71 rows, took 47 and 83 ms against 92 and 115 ms (2 cores, OpenBLAS,
# median of three runs).
_GRAM_MIN_ENTRIES = 1 << 20
# An m x n input with n >= _WIDE_RATIO * m is reduced to the m x m triangular
# factor of a QR of its transpose before the SVD.
_WIDE_RATIO = 2
# The Gram route reads an (a, n, b) array as one (a n, b) view when a = 1 or
# up to this many rows, and in runs of whole slabs of at most _SLAB_STACK
# entries beyond.  Timed on the modes of the 12-way desk tensor (2 cores,
# OpenBLAS): the view beats the slab runs at a n = 50 and loses at
# a n = 100, and the slab runs time alike from 2^14 entries up.
_VIEW_MAX_ROWS = 64
_SLAB_STACK = 1 << 16


def svd_trunc(M: np.ndarray, delta: float) -> TruncatedSvd:
    """Truncated SVD keeping the smallest rank whose discarded tail satisfies
    ``sqrt(sum of squared dropped singular values) <= delta``.

    ``delta=0`` keeps every numerically nonzero singular value, using the
    threshold ``max(m, n) * machine_eps * sigma_1``.

    Three routes, chosen from the input, give the same contract:

    - **Gram** (``n >= 2m``, at least ``_GRAM_MIN_ENTRIES`` = 2^20
      entries): the eigenpairs of ``M M^T`` stand in for the left singular
      vectors and squared singular values.  Every decision is charged the
      rounding of ``M M^T`` and of its eigensolver, so a first-pass
      discard is proven at most ``delta^2``, and one that keeps every row
      proves each singular value above ``delta``.  A call that cannot
      afford the charge keeps the directions that clear ``delta^2`` by it
      and decides the trailing eigenblock by a second Gram pass at the
      tail's own scale, by its eigenvalues' own rank, with the discard
      proven by ``sqrt(discard) <= omega |M|_F + (1 + omega) sqrt(tail' +
      mu' + (k - r') c') + rho`` (``_svd_trunc_tail``); one whose charged
      tail does not fit there either takes the wide route.  At ``delta =
      0`` a rigorous bound proves each singular value above the rank
      floor, so the rank is the one the SVD would keep (the module
      docstring's ladder).  The split ``M = U @ (U.T @ M)`` is exact
      whatever the bound says, so the discard of ``0`` never depends on
      it.
    - **Wide** (``n >= 2m``): the R-SVD of T. F. Chan (ACM TOMS 8(1),
      1982).  ``M.T = Q R`` gives ``M = R.T Q.T``, so the ``m x m`` factor
      ``R.T`` has the singular values and left singular vectors of ``M``;
      ``Q`` and ``V`` are never formed, and ``rest`` is one projection
      ``U.T @ M``.
    - **Otherwise** (square-ish or tall): LAPACK's divide and conquer SVD,
      with ``rest = diag(sigma) @ V.T``.  A tall input must form its
      ``m x r`` left factor anyway, and its right factor is the small side,
      so reducing it first saves nothing.
    """
    f = _svd_trunc(_as_matrix(M, "M")[None], delta)
    return replace(f, rest=f.rest[0])


def _svd_trunc(
    X: np.ndarray, delta: float, G: np.ndarray | None = None
) -> TruncatedSvd:
    """:func:`svd_trunc` of the mode-2 unfolding ``M`` of the non-empty
    float ``(a, m, b)`` array ``X``: the ``m x a b`` matrix whose column
    ``i + a k`` is ``X[i, :, k]``.  ``rest`` comes back as the ``(a, r,
    b)`` array whose unfolding is ``U.T @ M``.

    The Gram route reads ``X`` in place, fast when it is stored
    first-index-fastest, and stores ``rest`` that way; a matrix, ``a = 1``,
    is the one-slab case of its ``(a n, b)`` view.  The wide and direct
    routes build ``M`` by ``_unfold``, a copy unless ``a = 1`` or ``b = 1``,
    and return the ``_fold`` view of their 2-D ``rest``.  ``G``, if given,
    is ``_gram_for(X)`` already formed, which the call does not form again.
    """
    if not delta >= 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    a, m, b = X.shape
    n = a * b
    wide = n >= _WIDE_RATIO * m
    if G is None:
        G = _gram_for(X)
    # A non-finite entry of M reaches the diagonal of M M^T, so a finite
    # Gram matrix proves M finite.  A finite M whose Gram matrix overflowed
    # passes the scan and takes the routes below.
    if G is None or not np.all(np.isfinite(G)):
        _require_finite(X, "M")
    else:
        f = _svd_trunc_gram(X, G, delta)
        if f is not None:
            return f
    # A view of X when a = 1 or b = 1, else a copy.
    M = _unfold(X, 1)
    if wide:
        # LAPACK reads its input by columns: a Fortran-ordered copy of M.T
        # is cheaper to hand over than the strided C-ordered view.
        U, s, _ = np.linalg.svd(np.linalg.qr(np.asfortranarray(M.T), mode="r").T)
    else:
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
    # Squared at the scale of s[0], so no square overflows and one that
    # underflows is negligible next to s[0]^2.  Scaling by a power of two
    # is exact: where the unscaled squares were representable, the rank and
    # the energy keep every bit.
    e = int(np.frexp(s[0])[1])
    tails = np.concatenate([np.cumsum(np.ldexp(s[::-1], -e) ** 2)[::-1], [0.0]])
    if delta == 0.0:
        thresh = max(m, n) * np.finfo(np.float64).eps * s[0]
        r = int(np.count_nonzero(s > thresh))
    else:
        # An overflowing budget exceeds every tail: rank 0 is right.
        with np.errstate(over="ignore"):
            r = int(np.argmax(tails <= np.ldexp(delta, -e) ** 2))
    if wide:
        U, rest = _project(U[:, :r], M[None])
        rest = rest[0]
    else:
        U = U[:, :r].copy()
        # Stored first-index-fastest, like the projection.
        rest = np.multiply(s[:r, None], Vt[:r], order="F")
        _fix_signs(U, rest)
    rest = _fold(rest, 1, X.shape)
    # An energy beyond the float range is reported as inf.
    with np.errstate(over="ignore"):
        energy = float(np.ldexp(tails[r], 2 * e))
    return TruncatedSvd(U=U, sigma=s[:r].copy(), rest=rest, discarded_energy=energy)


def _full_row_rank(M: np.ndarray, delta: float) -> bool:
    """Whether :func:`svd_trunc` at ``delta`` provably keeps every singular
    value of the finite ``m x n`` matrix ``M``, ``m <= n``.

    A certificate, not a factorization: :func:`_row_rank_bound` takes one
    inverse and one residual of an ``m x m`` matrix, and its bound must
    exceed the floor of :func:`_rank_floor`.  ``mera_to_tt`` asks this of
    every wide or square bond with no disentangler at its group end, and of
    a gated one that the product rung of its three small factors
    (``mera._gate_bound``) did not prove.  ``False`` means unproven
    (including an exactly singular ``M``), not rank deficient.
    """
    return bool(_row_rank_bound(M) > _rank_floor(M.shape, delta, np.linalg.norm(M)))


def _row_rank_bound(M: np.ndarray) -> float:
    """Lower bound on the smallest singular value of the ``m x n`` matrix
    ``M``, ``m <= n``; ``0.0`` when unproven.

    :func:`_sigma_min_bound` of ``A``: ``M`` if square, else the ``m x m``
    factor ``R.T`` of a QR of ``M.T``, which has the singular values of
    ``M``.
    """
    m, n = M.shape
    A = M if m == n else np.linalg.qr(M.T, mode="r").T
    return _sigma_min_bound(A)


def _certified_qr(
    M: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """Split ``M = Q @ R`` of the finite tall ``m x n`` matrix ``M``,
    ``m > n``, if :func:`svd_trunc` at ``delta`` provably keeps all ``n``
    of its singular values, else ``None``.

    The split is :func:`_cholesky_qr2`'s, whose analysis the certificate
    does not trust.  With its measured ``omega >= |Q^T Q - I|_F`` and
    ``rho >= |M - Q R|_F``, and ``ell`` the bound of
    :func:`_sigma_min_bound` on ``R``, Weyl's inequality gives
    ``sigma_min(M) >= sqrt(1 - omega) ell - rho``.  The split is returned
    when ``omega < 1/2`` and that exceeds the floor of :func:`_rank_floor`,
    above which the rank rule keeps every value.  ``mera_to_tt`` takes this
    split for a tall bond it formed; the tall bond just inside a group it
    splits from that bond's small factors instead (``mera._inner_split``).
    """
    split = _cholesky_qr2(M)
    if split is None:
        return None
    Q, R, omega, rho = split
    if not omega < 0.5:
        return None
    bound = np.sqrt(1.0 - omega) * _sigma_min_bound(R) - rho
    return (Q, R) if bound > _rank_floor(M.shape, delta, np.linalg.norm(M)) else None


def _cholesky_qr2(
    M: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float, float] | None:
    """``(Q, R, omega, rho)`` with ``M = Q @ R`` for the finite ``m x n``
    matrix ``M``, ``m >= n``, or ``None`` on a Cholesky breakdown.

    CholeskyQR2 (Fukaya, Nakatsukasa, Yanagisawa & Yamamoto, ScalA 2014):
    ``R1 = chol(M^T M)^T``, ``Q1 = M R1^-1``, ``R2 = chol(Q1^T Q1)^T``,
    ``Q = Q1 R2^-1`` and ``R = R2 R1``.  It is all Gram products and
    triangular inverses, and it gives ``Q`` orthonormal to rounding while
    the condition number stays below about 1e7 (Yamamoto et al., ETNA 44,
    2015).  ``R`` is upper triangular with a positive diagonal, which fixes
    ``Q``'s signs.  Nothing is assumed of that analysis: ``omega`` and
    ``rho`` are the measured ``|Q^T Q - I|_F`` and ``|M - Q R|_F``, each
    charged twice the first-order bound of its rounding, so they bound the
    exact quantities.  Every product is formed transposed, so ``Q`` and
    ``R`` are stored first-index-fastest and their reshapes are views.
    """
    m, n = M.shape
    eps = np.finfo(np.float64).eps
    try:
        R1 = np.linalg.cholesky(M.T @ M).T
        Q = (np.linalg.inv(R1).T @ M.T).T
        R2 = np.linalg.cholesky(Q.T @ Q).T
    except np.linalg.LinAlgError:
        return None
    Q = (np.linalg.inv(R2).T @ Q.T).T
    R = (R1.T @ R2.T).T
    W = Q.T @ Q
    q2 = float(np.trace(W))
    W[np.diag_indices(n)] -= 1.0
    omega = float(np.linalg.norm(W)) + 2.0 * m * eps * q2
    E = (R.T @ Q.T).T
    E -= M
    rho = float(np.linalg.norm(E)) + 2.0 * n * eps * np.sqrt(q2) * np.linalg.norm(R)
    return Q, R, omega, rho


def _sigma_min_bound(A: np.ndarray) -> float:
    """Lower bound on the smallest singular value of the square ``A``;
    ``0.0`` when unproven.

    With ``X = inv(A)`` and ``F = A X - I``, ``|F| < 1`` gives ``sigma_min
    >= (1 - |F|_F) / |X|_F`` (a Neumann-series bound, nothing squared).
    The bound is taken only for ``|F|_F < 1/2``, which leaves room for the
    rounding of the computed residual.  An exactly singular ``A`` gives
    ``0.0``.
    """
    try:
        X = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        return 0.0
    F = A @ X
    F[np.diag_indices(A.shape[0])] -= 1.0
    residual = np.linalg.norm(F)
    return (1.0 - residual) / np.linalg.norm(X) if residual < 0.5 else 0.0


def _rank_floor(shape: tuple[int, int], delta: float, norm: float) -> float:
    """Singular values above this are all kept by the rank rule of
    :func:`svd_trunc` at ``delta`` for a matrix of ``shape`` and Frobenius
    norm ``norm``.  It is the larger of ``delta`` and ``max(m, n) * eps *
    norm``, which bounds the ``delta=0`` threshold ``max(m, n) * eps *
    sigma_1`` from above."""
    return max(delta, max(shape) * np.finfo(np.float64).eps * norm)


def _gamma(k: int) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)`` for the unit roundoff ``u =
    eps / 2``, which bounds the relative rounding of a sum of ``k`` products
    (Accuracy and Stability of Numerical Algorithms, Thm. 3.5); ``inf`` once
    ``k u >= 1``, where no such bound holds."""
    ku = k * np.finfo(np.float64).eps / 2.0
    return ku / (1.0 - ku) if ku < 1.0 else np.inf


def _gram_for(X: np.ndarray) -> np.ndarray | None:
    """:func:`_gram` of the ``(a, m, b)`` array ``X`` where
    :func:`_svd_trunc` forms it: for a wide unfolding, ``a b >= _WIDE_RATIO
    m``, of at least ``_GRAM_MIN_ENTRIES`` entries; else ``None``.  An
    overflow leaves a non-finite matrix, with no warning."""
    a, m, b = X.shape
    if a * b < _WIDE_RATIO * m or X.size < _GRAM_MIN_ENTRIES:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        return _gram(X)


def _gram(X: np.ndarray) -> np.ndarray:
    """``M M^T`` of the mode-2 unfolding ``M`` of the ``(a, n, b)`` array
    ``X``, from ``X`` in place.

    With ``a = 1`` or ``a n <= _VIEW_MAX_ROWS`` it is the sum over ``i`` of
    the diagonal blocks ``(i, i)`` of ``Y Y^T`` for the ``(a n, b)`` view
    ``Y``: one BLAS call at ``a`` times the arithmetic.  A matrix is the
    one-slab case: ``Y`` is ``M`` itself, and the sum over one block copies
    ``M M^T`` exactly.  Otherwise it is summed over runs of whole slabs
    ``X[:, :, k]`` of at most ``_SLAB_STACK`` entries: with ``a >= n`` as
    the slabs' own Gram matrices, and with ``a < n``, where those would
    outsize the slabs, as the Gram matrix of the run's unfolding, a copy of
    the run (on a ``(6, 100, 10000)`` array, 26 ms against 132 ms for the
    slab Gram matrices).
    """
    a, n, b = X.shape
    if a == 1 or a * n <= _VIEW_MAX_ROWS:
        Y = np.reshape(X, (a * n, b), order="F")
        blocks = np.reshape(Y @ Y.T, (a, n, a, n), order="F")
        return np.trace(blocks, axis1=0, axis2=2)
    step = max(1, _SLAB_STACK // (a * n))
    G = np.zeros((n, n))
    for k in range(0, b, step):
        S = X[:, :, k : k + step]
        if a < n:
            W = _unfold(S, 1)
            G += W @ W.T
        else:
            S = S.transpose(2, 1, 0)
            G += np.sum(S @ S.transpose(0, 2, 1), axis=0)
    return G


def _project(U: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign-fixed copy of the orthonormal ``U`` and the ``(a, r, b)`` array
    whose mode-2 unfolding is ``U.T @ M`` for the unfolding ``M`` of the
    ``(a, n, b)`` array ``X``, stored first-index-fastest.

    Fixing the signs first means ``rest`` needs no compensation.  With
    ``a = 1`` or ``a n <= _VIEW_MAX_ROWS`` it is ``kron(U, I_a)`` applied
    to the ``(a n, b)`` view of ``X``, which for a matrix is ``(M.T @
    U).T`` with an exact copy of ``U``; otherwise ``X[:, :, k] @ U``
    written slab by slab into place.
    """
    U = np.ascontiguousarray(U)
    _fix_signs(U, np.zeros((U.shape[1], 0)))
    a, n, b = X.shape
    r = U.shape[1]
    if a == 1 or a * n <= _VIEW_MAX_ROWS:
        Y = np.reshape(X, (a * n, b), order="F")
        rest = (Y.T @ np.kron(U, np.eye(a))).T
        return U, np.reshape(rest, (a, r, b), order="F")
    rest = np.empty((a, r, b), order="F")
    np.matmul(U.T, X.transpose(2, 1, 0), out=rest.transpose(2, 1, 0))
    return U, rest


def _eigen_rank(
    G: np.ndarray, delta: float
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray, int]:
    """``(lam, P, mu, tails, r)`` for a Gram matrix ``G`` of order ``m``:
    its eigenvalues in descending order, clipped at zero, and eigenvectors,
    the eigensolver's margin ``mu = m eps lambda_1``, ``tails[r] =
    lambda_{r+1} + ... + lambda_m``, and the eigenvalues' own rank ``r``,
    the smallest with ``tails[r] <= delta^2 - mu``, or ``m`` if ``delta^2 <
    mu``."""
    lam, P = np.linalg.eigh(G)
    lam = np.clip(lam[::-1], 0.0, None)
    m = lam.size
    margin = m * np.finfo(np.float64).eps * lam[0]
    budget = delta * delta - margin
    tails = np.concatenate([np.cumsum(lam[::-1])[::-1], [0.0]])
    # tails[m] = 0, so a rank exists unless the budget is negative.
    r = int(np.argmax(tails <= budget)) if budget >= 0.0 else m
    return lam, P[:, ::-1], margin, tails, r


def _svd_trunc_gram(
    X: np.ndarray, G: np.ndarray, delta: float
) -> TruncatedSvd | None:
    """Gram route of :func:`svd_trunc` for the wide mode-2 unfolding ``M``
    of ``X``, given the finite ``G = fl(M M^T)``; ``None`` sends the call
    to the wide R-SVD route.

    The eigenpairs of ``G``, ``lambda_1 >= ... >= lambda_m``, stand in for
    the squared singular values and left singular vectors of ``M``, and
    ``rest`` is one projection ``U.T @ M``.  Every decision is charged two
    roundings.  Each entry of ``G`` sums ``n`` products, so ``E = G - M
    M^T`` has ``|E|_2 <= gamma_n |M|_F^2`` (:func:`_gamma`; Higham, Thm.
    3.5), which ``c = 2 gamma_n tr(G)`` covers together with the rounding
    of the trace.  The one analysis the route trusts is the backward-stable
    symmetric eigensolver's (LAPACK Users' Guide, section 4.7): its
    eigenvectors are orthonormal to rounding, and ``mu = m eps lambda_1``
    bounds the error of ``lambda_m`` and of any tail ``tail(r) = lambda_{r+1}
    + ... + lambda_m`` as the energy of ``G`` outside the first ``r``
    eigenvectors.  The rank ``r`` is the smallest with ``tail(r) <= delta^2
    - mu``, or ``m`` if ``delta^2 < mu``.

    At ``delta > 0``, with ``P`` the ``m - r`` dropped eigenvectors and
    ``U`` the kept ones, the discard is ``|M - U U^T M|_F^2 = tr(P^T M M^T
    P) = tr(P^T G P) - tr(P^T E P)``: at most ``tail(r) + mu`` plus ``(m -
    r) |E|_2 <= (m - r) c``.  So ``U`` is kept if ``tail(r) + (m - r) c <=
    delta^2 - mu``, which proves the discard at most ``delta^2``; the
    reported ``tail(r)`` lies within ``(m - r) c + mu`` of it.  By Weyl's
    inequality ``sigma_i(M)^2 >= lambda_i - mu - c``, so the first ``k0``
    eigenvectors, those with ``lambda_i - mu - c > delta^2``, have
    ``sigma_i > delta`` and belong to every rank the rule allows.  With
    ``k0 = m`` (then ``r = m``) ``U`` keeps every eigenvector.  A call
    that has neither is never given a higher rank: it keeps the first
    ``k0`` and :func:`_svd_trunc_tail` decides the rest by a second Gram
    pass, proving ``sqrt(discard) <= omega |M|_F + (1 + omega) sqrt(tail'
    + mu' + (k - r') c') + rho <= delta``.

    At ``delta = 0``, ``r = m``.  Once ``lambda_m - mu - c`` exceeds the
    squared floor of :func:`_rank_floor`, above which the rank rule keeps
    every value, ``U`` keeps every eigenvector with ``sigma =
    sqrt(lambda)``.  Otherwise ``lambda_m`` at or below the squared floor
    marks a numerically rank-deficient input, refused at once, and
    :func:`_certified_sigma` decides the rest from the Gram matrix of
    ``rest``, with that matrix's row norms as ``sigma``.
    """
    a, m, b = X.shape
    n = a * b
    trace = float(np.trace(G))
    # A product below the smallest normal number keeps only the absolute
    # accuracy 2^-1074, so the m n of them in G can swamp eps |M|^2 unless
    # |M|^2 exceeds m n times that number.
    if not trace > m * n * np.finfo(np.float64).tiny:
        return None
    norm = float(np.sqrt(trace))
    lam, P, margin, tails, r = _eigen_rank(G, delta)
    charge = 2.0 * _gamma(n) * trace
    if delta > 0.0:
        k0 = int(np.count_nonzero(lam - margin - charge > delta * delta))
        fits = r < m and tails[r] + (m - r) * charge <= delta * delta - margin
        if not fits and k0 < m:
            return _svd_trunc_tail(X, P, lam, k0, delta, norm)
        U, rest = _project(P[:, :r], X)
        return TruncatedSvd(
            U=U, sigma=np.sqrt(lam[:r]), rest=rest, discarded_energy=float(tails[r]),
        )
    floor = _rank_floor((m, n), 0.0, norm) ** 2
    if lam[-1] <= floor:
        return None
    U, rest = _project(P, X)
    proven = lam[-1] - margin - charge > floor
    sigma = np.sqrt(lam) if proven else _certified_sigma(_gram(rest), n, norm)
    if sigma is None:
        return None
    return TruncatedSvd(U=U, sigma=sigma, rest=rest, discarded_energy=0.0)


def _svd_trunc_tail(
    X: np.ndarray, P: np.ndarray, lam: np.ndarray, k0: int, delta: float, norm: float
) -> TruncatedSvd | None:
    """Second Gram pass of :func:`_svd_trunc_gram`: keep the first ``k0``
    columns ``P1`` of the eigenvectors ``P = [P1, B]`` of ``fl(M M^T)``,
    of eigenvalues ``lam`` and trace ``norm^2``, and decide the trailing
    ``k = m - k0`` directions ``B`` at their own scale; ``None`` sends the
    call to the wide R-SVD route.

    ``Y = fl(B^T M)`` has ``k`` rows, and the eigenvalues ``lambda'`` of
    ``H = fl(Y Y^T)`` give the rank ``r'`` by :func:`_eigen_rank`, with
    ``mu' = k eps lambda'_1``.  With ``W_keep`` their first ``r'``
    eigenvectors, ``U = [P1, fl(B W_keep)]``, sign-fixed, and ``rest =
    fl(U^T M)``, formed once ``Y`` is gone.  Up to the rounding of the
    three products, ``M - U rest = (I - P P^T) M + B W_d W_d^T Y`` for the
    dropped eigenvectors ``W_d``, so

        sqrt(discard) <= omega |M|_F
                         + (1 + omega) sqrt(tail' + mu' + (k - r') c') + rho

    charges every rounding unsquared or at the block's own scale:
    ``omega`` is the measured ``|P^T P - I|_F`` plus ``2 gamma_m tr(P^T
    P)`` for its rounding; ``c' = 2 gamma_n tr(H)`` covers the rounding of
    ``H`` as ``c`` does for ``G``; ``rho = 4 (m + sqrt(m)) gamma_m (1 +
    omega)^2 |M|_F`` is twice the first-order bound of the products'
    rounding; ``|M|_F`` is read as ``(1 + gamma_n) norm``.  ``U`` is kept
    if the bound is at most ``delta``.  On the heat tensors' unfoldings at
    ``epsilon = 1e-7``, ``omega |M|_F + rho`` came to 1e-6 of ``delta`` at
    ``m = 5`` and 1e-2 at ``m = 1000``, growing as ``m^2``.  The reported
    discard is ``tail'(r')``, and ``sigma`` is the row norms of ``rest``:
    a kept value near the first pass's charge has them to relative
    accuracy, where ``sqrt(lam)`` would not (4.6e-8 off at 5e-5 |M|_F).
    """
    a, m, b = X.shape
    n = a * b
    k = m - k0
    B, Y = _project(P[:, k0:], X)
    H = _gram(Y)
    del Y
    _, W, margin, tails, r = _eigen_rank(H, delta)
    # Floored at k n times the smallest normal number, so that it covers
    # the subnormal products of H as the first pass's guard does for G.
    charge = 2.0 * _gamma(n) * max(float(np.trace(H)), k * n * np.finfo(np.float64).tiny)
    F = P.T @ P
    q2 = float(np.trace(F))
    F[np.diag_indices(m)] -= 1.0
    omega = float(np.linalg.norm(F)) + 2.0 * _gamma(m) * q2
    big = (1.0 + _gamma(n)) * norm
    rho = 4.0 * (m + np.sqrt(m)) * _gamma(m) * (1.0 + omega) ** 2 * big
    tail = (1.0 + omega) * np.sqrt(tails[r] + margin + (k - r) * charge)
    if not omega * big + tail + rho <= delta:
        return None
    U, rest = _project(np.concatenate((P[:, :k0], B @ W[:, :r]), axis=1), X)
    sigma = np.sqrt(np.einsum("ijk,ijk->j", rest, rest))
    return TruncatedSvd(U=U, sigma=sigma, rest=rest, discarded_energy=float(tails[r]))


def _certified_sigma(H: np.ndarray, n: int, norm: float) -> np.ndarray | None:
    """Row norms of ``rest = U.T @ M`` if they prove that every singular
    value of ``M`` exceeds the ``delta = 0`` rank floor, else ``None``.

    ``U`` is the square orthogonal ``m x m`` matrix of ``M``'s Gram
    eigenvectors, ``H = rest rest^T`` is the Gram matrix of ``rest``,
    ``rest`` has ``n`` columns, and ``norm`` is ``|M|_F``.  With ``d_i``
    the row norms and ``H = D A D``, the unit-diagonal ``A`` has
    ``sigma_min(A) >= ell - m n eps``: ``ell`` is the bound of
    :func:`_sigma_min_bound` on the computed ``A``, and ``m n eps`` charges
    the rounding of ``H``.  So ``sigma_min(rest)^2 >= (ell - m n eps) (1 -
    n eps) min d_i^2``, a bound relative to each row rather than to
    ``|M|``: eigenvector noise of size ``eps |M|^2`` in ``H_ij`` costs
    ``A`` only ``eps |M|^2 / (d_i d_j)``.  The projection's rounding and
    ``U``'s departure from orthogonality are charged ``m (sqrt(m) + 2) eps
    |M|_F``, twice their first-order bound.  What is left must exceed the
    floor of :func:`_rank_floor`.  Sorted, the row norms match the
    singular values of ``rest`` to a relative ``|A - I|_2``; they come in
    the descending order of the Gram eigenvalues, which a tie may swap
    within rounding.
    """
    m = H.shape[0]
    eps = np.finfo(np.float64).eps
    floor = _rank_floor((m, n), 0.0, norm)
    d = np.sqrt(np.diag(H))
    d_min = float(d.min())
    # The bound never exceeds d_min; this also keeps zero rows out of the
    # scaling below.
    if d_min <= floor:
        return None
    ell = (_sigma_min_bound(H / np.outer(d, d)) - m * n * eps) * (1.0 - n * eps)
    bound = np.sqrt(max(ell, 0.0)) * d_min - m * (np.sqrt(m) + 2.0) * eps * norm
    return d if bound > floor else None


def svd_full(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full SVD ``M = U diag(s) Vt`` with square orthogonal ``U`` and ``Vt``
    and the package sign convention applied to ``U``'s columns.

    Sign flips beyond ``min(m, n)`` columns have no right factor to
    compensate into; they are legitimate because those columns multiply
    zero singular values.
    """
    M = _require_matrix(M, "M")
    U, s, Vt = np.linalg.svd(M, full_matrices=True)
    U = np.ascontiguousarray(U)
    _fix_signs(U, Vt)
    return U, s, Vt


def qr_thin(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR with the package sign convention applied to Q's columns."""
    M = _require_matrix(M, "M")
    Q, R = np.linalg.qr(M)
    Q = np.ascontiguousarray(Q)
    _fix_signs(Q, R)
    return Q, R


def procrustes_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Orthogonal matrix minimizing ``|V @ A - B|_F``.

    Solution ``V = P @ Q.T`` where ``B @ A.T = P diag(s) Q.T`` is a full SVD.
    Zero singular values keep the factors LAPACK produced, so the result is
    deterministic for a given input.
    """
    A = _require_matrix(A, "A")
    B = _require_matrix(B, "B")
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch: A is {A.shape}, B is {B.shape}")
    return _procrustes(A, B)


def _procrustes(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """:func:`procrustes_solve` without input checks, for same-shaped finite
    matrices built inside the package.

    No sign convention is applied: negating column ``j`` of ``P`` together
    with row ``j`` of ``Q.T`` leaves every bit of ``P @ Q.T`` unchanged,
    because negation is exact.
    """
    P, _, Qt = np.linalg.svd(B @ A.T, full_matrices=True)
    return P @ Qt
