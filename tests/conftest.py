"""Shared corpus builders.

Plain Gaussian trains have nearly flat link spectra and refuse to truncate
at practical tolerances, which would make every error-accounting test
vacuous.  ``decaying_train`` scales each core geometrically along its right
link index so rounding and Tucker sweeps have real energy to shed.
"""

from __future__ import annotations

import numpy as np

from ttmera import dense, train
from ttmera.dense import DenseTensor
from ttmera.kernels import qr_thin
from ttmera.rng import standard_normal, stream
from ttmera.train import TensorTrain


def random_dense(seed: int, dims) -> DenseTensor:
    return DenseTensor(standard_normal(stream(seed), tuple(dims)))


def decaying_train(
    seed: int, dims, max_rank: int = 8, decay: float = 0.5
) -> TensorTrain:
    dims = tuple(int(d) for d in dims)
    gen = stream(seed, 77)
    ranks = [1]
    for _ in range(len(dims) - 1):
        ranks.append(int(gen.integers(2, max_rank + 1)))
    ranks.append(1)
    cores = []
    for d, n in enumerate(dims):
        g = standard_normal(stream(seed, d + 1), (ranks[d], n, ranks[d + 1]))
        cores.append(g * decay ** np.arange(ranks[d + 1]))
    return TensorTrain(cores)


# Shapes of 2^20 entries or more whose mode-1 unfolding is wide, so that
# svd_trunc forms its Gram matrix, which the tensor keeps: a wide 3-way
# shape and a 12-way one.
KEPT_GRAM_DIMS = [(20, 200, 300), (2, 2, 2, 2) + (4,) * 8]


def kept_gram_input(dims, order: str) -> np.ndarray:
    """A dense array of a decaying train, stored ``order``-ordered."""
    return np.asarray(train.tt_contract(decaying_train(5, dims)).to_array(), order=order)


def forget_kept_gram(monkeypatch) -> None:
    """Make every tensor report no kept Gram matrix, so that each call
    forms its own, as it would without the memo."""
    monkeypatch.setattr(DenseTensor, "_leading_gram", lambda self, X: None)


def count_qr(monkeypatch) -> list:
    """Record the shape of every ``qr_thin`` call the train module makes."""
    calls = []

    def counted(A):
        calls.append(A.shape)
        return qr_thin(A)

    monkeypatch.setattr(train, "qr_thin", counted)
    return calls


def record_scans(monkeypatch) -> list:
    """Record every array an entry check is asked to read: the dense
    constructor's norm pass (``dense._checked_norm``) and every
    ``np.isfinite`` scan, which includes that check's fallback.  A
    constructor that checks an ndarray checks that very object, so a test
    asks whether an array was scanned by identity."""
    scanned = []
    real = np.isfinite
    checked_norm = dense._checked_norm

    def recorded(a, *args, **kwargs):
        scanned.append(a)
        return real(a, *args, **kwargs)

    def recorded_norm(a):
        scanned.append(a)
        return checked_norm(a)

    monkeypatch.setattr(np, "isfinite", recorded)
    monkeypatch.setattr(dense, "_checked_norm", recorded_norm)
    return scanned


def scan_count(scanned: list, a: np.ndarray) -> int:
    """How many times ``a`` itself was among the scanned arrays."""
    return sum(x is a for x in scanned)


def record_searches(monkeypatch, module) -> list:
    """Record the ``(supercore, transformed supercore)`` arrays of every
    ``find_disentangler`` call that ``module`` makes."""
    searched = []
    search = module.find_disentangler

    def recorded(supercore, *args, **kwargs):
        out = search(supercore, *args, **kwargs)
        searched.append((supercore.to_array(), out[1].to_array()))
        return out

    monkeypatch.setattr(module, "find_disentangler", recorded)
    return searched


def _record_linalg(monkeypatch, name: str) -> list:
    """Record the input shape of every ``np.linalg.<name>`` call."""
    calls = []
    fn = getattr(np.linalg, name)

    def recorded(a, *args, **kwargs):
        calls.append(np.shape(a))
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recorded)
    return calls


def record_svd(monkeypatch) -> list:
    """Record the input shape of every ``np.linalg.svd`` call."""
    return _record_linalg(monkeypatch, "svd")


def record_qr(monkeypatch) -> list:
    """Record the input shape of every ``np.linalg.qr`` call."""
    return _record_linalg(monkeypatch, "qr")


def loop_fix_signs(U: np.ndarray, W: np.ndarray) -> None:
    """The package sign convention as a per-column loop, the reference the
    kernels' vectorized version must match flip for flip.  In place; a
    column of ``U`` with no matching row of ``W`` flips alone."""
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0.0:
            U[:, j] = -U[:, j]
            if j < W.shape[0]:
                W[j, :] = -W[j, :]


def sign_fixed_procrustes(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Procrustes solve built from sign-fixed SVD factors.  The package
    applies no sign convention there, and its product must match this one
    bit for bit."""
    P, _, Qt = np.linalg.svd(B @ A.T, full_matrices=True)
    P = np.ascontiguousarray(P)
    Qt = np.ascontiguousarray(Qt)
    loop_fix_signs(P, Qt)
    return P @ Qt
