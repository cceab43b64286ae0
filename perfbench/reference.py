"""Computations made apart from the ttmera package, and the checks built on them.

Everything here works on plain NumPy arrays: train cores ``(r, n, s)``,
factor matrices, and duck-typed MERA objects (``.layers``, ``.top``, each
layer with ``.isometries`` and ``.disentanglers`` as ``(position, obj)``
pairs, each constituent with ``.data``).  Only NumPy's own linear algebra is
used, never a ttmera function, so a fault in the package cannot hide itself
by also corrupting the reference.

Fused indices follow the package's documented layout, first index fastest.
Each ``check_*`` function raises :class:`CheckFailed` with a message naming
the violated property.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

EPS = np.finfo(np.float64).eps
ORTHO_TOL = 1e-12
# Column chunk for streamed differences: at most this many entries per slab.
SLAB_ENTRIES = 1 << 21


class CheckFailed(AssertionError):
    """A timed call returned a result that violates a required property."""


# ---------------------------------------------------------------------------
# dense data


def digest(a: np.ndarray) -> str:
    """Hash of the entries in first-index-fastest order and their shape."""
    flat = np.ravel(a, order="F")
    h = hashlib.blake2b(repr(a.shape).encode(), digest_size=32)
    h.update(np.ascontiguousarray(flat).view(np.uint8))
    return h.hexdigest()


def fro(a: np.ndarray) -> float:
    return float(np.linalg.norm(np.ravel(a)))


# ---------------------------------------------------------------------------
# trains


def train_ranks(cores) -> tuple[int, ...]:
    """Internal link ranks ``R_2..R_D``."""
    return tuple(int(c.shape[2]) for c in cores[:-1])


def train_entries(cores) -> int:
    return int(sum(c.size for c in cores))


def contract_run(cores) -> np.ndarray:
    """Contract consecutive cores into ``(r_first, n_1, ..., n_k, r_last)``."""
    T = np.asarray(cores[0])
    for c in cores[1:]:
        T = np.tensordot(T, c, axes=([T.ndim - 1], [0]))
    return T


def train_dense(cores) -> np.ndarray:
    """Full tensor with one axis per mode."""
    T = contract_run(cores)
    return T.reshape(T.shape[1:-1])


def train_norm(cores) -> float:
    """Frobenius norm by a left-to-right sweep of R-only QR factorizations.

    Each step keeps only the triangular factor of the running left
    unfolding, so the result is backward stable at about ``D * eps`` of the
    norm itself; no Gram matrix squares the condition.
    """
    R = np.ones((1, 1))
    for c in cores:
        r, n, s = c.shape
        M = np.tensordot(R, c, axes=([1], [0])).reshape(-1, s)
        R = np.linalg.qr(M, mode="r") if M.shape[0] > s else M
    return fro(R)


def train_difference(a_cores, b_cores) -> list[np.ndarray]:
    """Cores of ``a - b`` by block concatenation."""
    D = len(a_cores)
    if D != len(b_cores) or D < 2:
        raise CheckFailed(f"orders {D} and {len(b_cores)}: need equal and at least 2")
    out = []
    for d, (ca, cb) in enumerate(zip(a_cores, b_cores)):
        ra, n, sa = ca.shape
        rb, nb, sb = cb.shape
        if n != nb:
            raise CheckFailed(f"mode {d + 1} sizes differ: {n} vs {nb}")
        if d == 0:
            out.append(np.concatenate([ca, -cb], axis=2))
        elif d == D - 1:
            out.append(np.concatenate([ca, cb], axis=0))
        else:
            block = np.zeros((ra + rb, n, sa + sb))
            block[:ra, :, :sa] = ca
            block[ra:, :, sa:] = cb
            out.append(block)
    return out


def _split_point(dims, ranks) -> int:
    """Cut ``1 <= k < D`` that keeps both halves of the train smallest."""
    best, best_k = None, 1
    for k in range(1, len(dims)):
        cost = (math.prod(dims[:k]) + math.prod(dims[k:])) * ranks[k]
        if best is None or cost < best:
            best, best_k = cost, k
    return best_k


def _streamed_error(X: np.ndarray, left: np.ndarray, right: np.ndarray) -> float:
    """``|X - left @ right|_F``, formed one column slab at a time."""
    P, Q = X.shape
    step = max(1, SLAB_ENTRIES // max(P, 1))
    total = 0.0
    for j in range(0, Q, step):
        diff = X[:, j : j + step] - left @ right[:, j : j + step]
        total += float(np.einsum("ij,ij->", diff, diff))
    return math.sqrt(total)


def train_error(t: np.ndarray, cores) -> float:
    """``|t - train|_F`` streamed slab by slab, never forming the train."""
    dims = t.shape
    if tuple(c.shape[1] for c in cores) != dims or len(dims) < 2:
        raise CheckFailed(f"train dimensions do not match the input {dims}")
    ranks = (1,) + train_ranks(cores) + (1,)
    k = _split_point(dims, ranks)
    left = contract_run(cores[:k]).reshape(-1, ranks[k], order="F")
    right = contract_run(cores[k:]).reshape(ranks[k], -1, order="F")
    X = np.reshape(t, (left.shape[0], right.shape[1]), order="F")
    return _streamed_error(X, left, right)


def tucker_error(t: np.ndarray, factors, core: np.ndarray) -> float:
    """``|t - core x_1 U_1 ... x_D U_D|_F``, streamed along the last mode."""
    A = np.asarray(core)
    D = A.ndim
    if len(factors) != D:
        raise CheckFailed(f"{len(factors)} factors for an order-{D} core")
    for d in range(D - 1):
        A = np.moveaxis(np.tensordot(factors[d], A, axes=([1], [d])), 0, d)
    left = A.reshape(-1, A.shape[-1], order="F")
    X = np.reshape(t, (left.shape[0], -1), order="F")
    return _streamed_error(X, left, np.asarray(factors[-1]).T)


def tucker_as_train(factors, core_cores) -> list[np.ndarray]:
    """Train cores of a Tucker decomposition whose core is a train."""
    return [np.einsum("rks,ik->ris", c, U) for U, c in zip(factors, core_cores)]


# ---------------------------------------------------------------------------
# MERA, dense and projected


def _expand_axis(x: np.ndarray, axis: int, W: np.ndarray, in_dims) -> np.ndarray:
    """Replace ``axis`` (an isometry output) by its fused input indices."""
    W = np.asarray(W).reshape(tuple(in_dims) + (W.shape[1],), order="F")
    y = np.tensordot(x, W, axes=([axis], [W.ndim - 1]))
    k = len(in_dims)
    return np.moveaxis(y, list(range(y.ndim - k, y.ndim)), list(range(axis, axis + k)))


def _mix_pair(x: np.ndarray, axis: int, V: np.ndarray, transpose: bool) -> np.ndarray:
    """Apply ``V`` (or ``V.T``) to the fused pair ``(axis, axis + 1)``."""
    a, b = x.shape[axis], x.shape[axis + 1]
    V4 = np.asarray(V).reshape(a, b, a, b, order="F")
    src = [0, 1] if transpose else [2, 3]
    y = np.tensordot(x, V4, axes=([axis, axis + 1], src))
    return np.moveaxis(y, [y.ndim - 2, y.ndim - 1], [axis, axis + 1])


def mera_dense(m, from_layer: int = 0) -> np.ndarray:
    """Dense tensor of a MERA, one axis per index of layer ``from_layer``."""
    x = np.asarray(m.top.to_array())
    for layer in reversed(m.layers[from_layer:]):
        isos = sorted(layer.isometries, key=lambda p: p[0])
        if x.ndim != len(isos):
            raise CheckFailed(f"{x.ndim} indices feed {len(isos)} isometries")
        for j in reversed(range(len(isos))):
            iso = isos[j][1]
            x = _expand_axis(x, j, iso.data, iso.input_dims)
        for pos, dis in sorted(layer.disentanglers, key=lambda p: p[0]):
            x = _mix_pair(x, pos - 1, dis.data, transpose=True)
    return x


def project_train_first_layer(cores, layer) -> np.ndarray:
    """Adjoint of a brick-pattern, arity-2 layer applied to a train.

    Sweeps the sites left to right, applying each disentangler to its pair
    and each isometry's transpose to its group as soon as their indices are
    absorbed; the result has one axis per isometry output.
    """
    D = len(cores)
    isos = sorted(layer.isometries, key=lambda p: p[0])
    dis = dict(layer.disentanglers)
    if [p for p, _ in isos] != list(range(1, D + 1, 2)):
        raise CheckFailed("layer is not arity-2 brick pattern")
    if any(p % 2 or p >= D for p in dis):
        raise CheckFailed("disentangler off a group boundary")
    B = np.asarray(cores[0])[0]  # (i_1, r)
    for p, iso in isos:
        # cores[p] is site p + 1, the group's second index
        B = np.tensordot(B, cores[p], axes=([B.ndim - 1], [0]))  # (..., i_p, i_p+1, r)
        if (p + 1) in dis:
            B = np.tensordot(B, cores[p + 1], axes=([B.ndim - 1], [0]))
            B = _mix_pair(B, B.ndim - 3, dis[p + 1].data, transpose=False)
        a, b = iso.input_dims
        W = np.asarray(iso.data).reshape(a, b, iso.output_dim, order="F")
        lead = B.ndim - (4 if (p + 1) in dis else 3)
        B = np.tensordot(B, W, axes=([lead, lead + 1], [0, 1]))
        B = np.moveaxis(B, B.ndim - 1, lead)
    return B.reshape(B.shape[:-1])


# ---------------------------------------------------------------------------
# checks


def check_bits_equal(expected_digest: str, got: np.ndarray) -> None:
    if digest(got) != expected_digest:
        raise CheckFailed("loaded tensor differs from the generated one")


def check_orthonormal_columns(Us, what: str) -> None:
    for k, U in enumerate(Us):
        U = np.asarray(U)
        if U.ndim != 2 or U.shape[1] > U.shape[0]:
            raise CheckFailed(f"{what} {k + 1} has shape {U.shape}")
        dev = float(np.max(np.abs(U.T @ U - np.eye(U.shape[1]))))
        if not dev <= ORTHO_TOL:
            raise CheckFailed(f"{what} {k + 1} is off orthonormal by {dev:.2e}")


def check_relative_error(err: float, norm: float, eps: float, what: str) -> None:
    rel = err / norm
    if not rel <= eps:
        raise CheckFailed(f"{what}: relative error {rel:.3e} exceeds {eps:.0e}")


def check_conversion(tt_cores, factors, core_cores, mode_discarded, eps: float) -> None:
    """Tucker-from-train error equals the summed discards and fits ``eps |tt|``.

    The difference is measured in train arithmetic, so the precision of the
    measurement is a small multiple of ``D * eps_machine * |tt|``.
    """
    norm = train_norm(tt_cores)
    err = train_norm(train_difference(tt_cores, tucker_as_train(factors, core_cores)))
    claimed = math.sqrt(float(np.sum(mode_discarded)))
    precision = 100 * len(tt_cores) * EPS * norm
    if not abs(err - claimed) <= precision + 1e-6 * claimed:
        raise CheckFailed(
            f"conversion error {err:.6e} does not match sqrt(sum discarded) "
            f"{claimed:.6e} (precision {precision:.1e})"
        )
    if not err <= eps * norm + precision:
        raise CheckFailed(f"conversion error {err / norm:.3e} exceeds {eps:.0e}")


def pair_spectrum(tensor: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Singular values of ``(i1 i2) x (i3 i4)`` after ``V`` mixes ``(i2, i3)``."""
    I1, I2, I3, I4 = tensor.shape
    mixed = _mix_pair(tensor, 1, V, transpose=False)
    return np.linalg.svd(mixed.reshape(I1 * I2, I3 * I4, order="F"), compute_uv=False)


def rank_at_energy(s: np.ndarray, share: float) -> int:
    """Smallest rank whose discarded tail holds at most ``share`` of the energy."""
    e = s**2
    tails = np.concatenate([np.cumsum(e[::-1])[::-1], [0.0]])
    return int(np.argmax(tails <= share * tails[0]))


def check_planted(tensor: np.ndarray, V: np.ndarray, rprime: int,
                  reported_rank: int) -> int:
    """A returned disentangler drops the plant's middle-pair rank to ``rprime``.

    Criterion 4: singular values past ``rprime`` hold at most 1e-9 of the
    energy, and the rank at that share is exactly ``rprime``.
    """
    check_orthonormal_columns([V], "disentangler")
    if V.shape[0] != V.shape[1]:
        raise CheckFailed(f"disentangler is not square: {V.shape}")
    s = pair_spectrum(tensor, V)
    achieved = rank_at_energy(s, 1e-9)
    if achieved != rprime:
        raise CheckFailed(f"achieved rank {achieved}, planted {rprime}")
    if reported_rank != rprime:
        raise CheckFailed(f"search reports rank {reported_rank}, planted {rprime}")
    return achieved


def check_mera_constituents(m) -> None:
    for ell, layer in enumerate(m.layers, start=1):
        for pos, dis in layer.disentanglers:
            if dis.data.shape[0] != dis.data.shape[1]:
                raise CheckFailed(f"layer {ell} disentangler at {pos} not square")
            check_orthonormal_columns([dis.data], f"layer {ell} disentangler at {pos}")
        for pos, iso in layer.isometries:
            check_orthonormal_columns([iso.data], f"layer {ell} isometry at {pos}")


def mera_entries(m) -> int:
    count = int(np.asarray(m.top.to_array()).size)
    for layer in m.layers:
        count += sum(int(d.data.size) for _, d in layer.disentanglers)
        count += sum(int(w.data.size) for _, w in layer.isometries)
    return count


def check_dense_match(a: np.ndarray, b: np.ndarray, tol: float, what: str) -> None:
    if a.shape != b.shape:
        raise CheckFailed(f"{what}: shapes {a.shape} and {b.shape} differ")
    rel = fro(a - b) / fro(a)
    if not rel <= tol:
        raise CheckFailed(f"{what}: relative difference {rel:.3e} exceeds {tol:.0e}")


def check_ranks(cores, expected, what: str) -> None:
    got = train_ranks(cores)
    if got != tuple(expected):
        raise CheckFailed(f"{what}: link ranks {got}, expected {tuple(expected)}")


def check_norm(cores, expected: float, what: str) -> None:
    n = train_norm(cores)
    if not abs(n - expected) <= 1e-10 * expected:
        raise CheckFailed(f"{what}: norm {n:.15e} differs from {expected:.15e}")


def mera_error_by_projection(m, cores) -> float:
    """``|train - mera| / |train|`` from norms and one projected inner product.

    ``|mera| = |top|`` holds because the constituents are orthogonal (checked
    separately); the inner product pushes the train through the first
    layer's adjoint and meets the dense expansion of the layers above.
    Cancellation limits the precision to about ``sqrt(eps)``, so this only
    measures errors far above that, such as a capped conversion's.
    """
    a = train_norm(cores)
    upper = mera_dense(m, from_layer=1)
    inner = float(np.sum(project_train_first_layer(cores, m.layers[0]) * upper))
    b = fro(np.asarray(m.top.to_array()))
    return math.sqrt(max(a * a - 2 * inner + b * b, 0.0)) / a


def plant_ranks(I: int, S: int) -> tuple[int, ...]:
    """Link ranks of a generic 12-site, 2-layer, arity-2 plant's train.

    Each is the product of the bonds a cut after that site must cross.
    """
    return (I, I * I, I * S, I * I * S, I * S * S, I * I * S * S,
            I * S * S, I * I * S, I * S, I * I, I)


def capped_entries(m, cap: int) -> int:
    """Entries of a MERA of the same layout whose isometries all output ``cap``."""
    d = m.layers[0].isometries[0][1].input_dims[0]
    count = 0
    for layer in m.layers:
        n_dis, n_iso = len(layer.disentanglers), len(layer.isometries)
        out = min(cap, d * d)
        count += n_dis * (d * d) ** 2 + n_iso * d * d * out
        d = out
    return count + d ** m.top.order


def check_capped(m, cap: int) -> int:
    """Every isometry outputs ``cap`` and the storage is what that layout needs."""
    outs = {iso.output_dim for layer in m.layers for _, iso in layer.isometries}
    if outs != {cap}:
        raise CheckFailed(f"capped isometry outputs {sorted(outs)}, cap {cap}")
    entries = mera_entries(m)
    if entries != capped_entries(m, cap):
        raise CheckFailed(f"capped MERA stores {entries}, its layout needs "
                          f"{capped_entries(m, cap)}")
    return entries


def check_reported_error(reported: float, own: float) -> None:
    if not abs(reported - own) <= 1e-9 * max(1.0, own):
        raise CheckFailed(f"reported error {reported:.12e}, measured {own:.12e}")
