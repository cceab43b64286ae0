"""Multiscale entanglement renormalization ansatz built from tensor trains.

A MERA layer coarse-grains ``D`` incoming indices to ``D/K`` outgoing ones.
Each *isometry* fuses ``K`` consecutive indices into one smaller index
through a matrix ``W ((I_1 ... I_K) x S)`` with orthonormal columns.  Each
*disentangler* is an orthogonal matrix acting on the fused pair of indices
straddling two neighbouring isometry groups; it is rank-reducing
bookkeeping, never a source of error.  Stacked layers end in a small dense
top tensor, and since every constituent is orthogonal the norm of the
represented tensor equals the norm of the top.

Layer layout is the brick pattern: isometries cover ``(1..K), (K+1..2K),
...`` and disentanglers sit at the group boundaries ``(K, K+1), (2K, 2K+1),
...``; boundary cores get no disentangler.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .dense import DenseTensor, _fold, _unfold
from .errors import NumericError
from .kernels import (
    _certified_qr,
    _cholesky_qr2,
    _full_row_rank,
    _gamma,
    _procrustes,
    _rank_floor,
    _row_rank_bound,
    _sigma_min_bound,
    svd_full,
    svd_trunc,
)
from .train import (
    TensorTrain,
    _chain,
    _left_mat,
    merge_cores,
    orthogonalize,
    split_core,
    tt_contract,
    tt_norm,
    tt_svd,
)
from .tucker import tucker_sweep

__all__ = [
    "Isometry",
    "Disentangler",
    "MeraLayer",
    "Mera",
    "DisentanglerReport",
    "shuf",
    "find_disentangler",
    "disentangler_positions",
    "isometry_positions",
    "tt_to_mera",
    "mera_to_tt",
    "mera_storage",
    "mera_relative_error",
]

log = logging.getLogger(__name__)

ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class Isometry:
    """Column-orthonormal map fusing ``input_dims`` into ``output_dim``.

    ``data`` is ``(prod(input_dims), output_dim)`` with the input indices
    fused first-index-fastest; its column count is the output size.
    """

    input_dims: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        rows = math.prod(self.input_dims)
        if self.data.ndim != 2 or self.data.shape[0] != rows:
            raise ValueError(
                f"isometry data must have {rows} rows, got shape {self.data.shape}"
            )
        if min((*self.input_dims, self.output_dim)) < 1:
            raise ValueError(
                f"isometry sizes must be positive, got input dims "
                f"{self.input_dims} and output {self.output_dim}"
            )
        if self.output_dim > rows:
            raise ValueError(
                f"output dimension {self.output_dim} exceeds fused input {rows}"
            )
        if not np.all(np.isfinite(self.data)):
            raise NumericError("isometry contains non-finite entries")
        gram = self.data.T @ self.data
        if np.max(np.abs(gram - np.eye(self.output_dim))) > ORTHO_TOL:
            raise ValueError("isometry columns are not orthonormal")

    @property
    def output_dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class Disentangler:
    """Orthogonal matrix on the fused pair ``(I_1, I_2)``.

    ``data @ shuf(supercore)`` re-mixes the two free indices; applying
    ``data.T`` undoes it exactly.
    """

    dims: tuple[int, int]
    data: np.ndarray

    def __post_init__(self):
        if min(self.dims) < 1:
            raise ValueError(f"disentangler dims must be positive, got {self.dims}")
        n = self.dims[0] * self.dims[1]
        if self.data.shape != (n, n):
            raise ValueError(
                f"disentangler data must be {n}x{n}, got {self.data.shape}"
            )
        if not np.all(np.isfinite(self.data)):
            raise NumericError("disentangler contains non-finite entries")
        if np.max(np.abs(self.data.T @ self.data - np.eye(n))) > ORTHO_TOL:
            raise ValueError("disentangler is not orthogonal")


@dataclass(frozen=True)
class MeraLayer:
    """One coarse-graining level.

    Positions are 1-based indices of the leftmost incoming index each
    constituent touches.  Isometry groups must tile ``1..input_arity`` in
    consecutive runs; disentanglers must straddle group boundaries without
    overlapping each other.
    """

    isometries: tuple[tuple[int, Isometry], ...]
    disentanglers: tuple[tuple[int, Disentangler], ...]

    def __post_init__(self):
        covered = []
        for pos, iso in self.isometries:
            covered.append((pos, pos + len(iso.input_dims) - 1))
        covered.sort()
        expect = 1
        for lo, hi in covered:
            if lo != expect:
                raise ValueError(
                    f"isometry coverage gap: expected group start {expect}, got {lo}"
                )
            expect = hi + 1
        boundaries = {hi for _, hi in covered[:-1]}
        dims = self.input_dims
        seen: set[int] = set()
        for pos, dis in self.disentanglers:
            if pos not in boundaries:
                raise ValueError(
                    f"disentangler at {pos} does not straddle a group boundary"
                )
            if dis.dims != (dims[pos - 1], dims[pos]):
                raise ValueError(f"disentangler {dis.dims} does not fit "
                                 f"indices {dims[pos - 1:pos + 1]} at {pos}")
            if pos in seen or pos + 1 in seen:
                raise ValueError(f"disentanglers overlap at position {pos}")
            seen.update((pos, pos + 1))

    @property
    def input_dims(self) -> tuple[int, ...]:
        return tuple(d for _, iso in sorted(self.isometries) for d in iso.input_dims)

    @property
    def output_dims(self) -> tuple[int, ...]:
        return tuple(iso.output_dim for _, iso in sorted(self.isometries))

    @property
    def input_arity(self) -> int:
        return sum(len(iso.input_dims) for _, iso in self.isometries)

    @property
    def output_arity(self) -> int:
        return len(self.isometries)


@dataclass(frozen=True)
class Mera:
    """Bottom-up stack of layers closed by a dense top tensor."""

    layers: tuple[MeraLayer, ...]
    top: DenseTensor

    def __post_init__(self):
        if not self.layers:
            raise ValueError("a MERA needs at least one layer")
        for k, (a, b) in enumerate(zip(self.layers, self.layers[1:]), start=1):
            if b.input_dims != a.output_dims:
                raise ValueError(
                    f"layer {k + 1} takes dims {b.input_dims}, but layer {k} "
                    f"puts out {a.output_dims}"
                )
        out = self.layers[-1].output_dims
        if self.top.dims != out:
            raise ValueError(
                f"top tensor order {self.top.order}, dims {self.top.dims}, does "
                f"not match layer {len(self.layers)}'s outgoing dims {out}"
            )

    @property
    def input_dims(self) -> tuple[int, ...]:
        return self.layers[0].input_dims


@dataclass(frozen=True)
class DisentanglerReport:
    """Outcome of one iterative disentangler search.

    ``iterations`` counts Procrustes updates actually applied.  A run that
    hits the iteration budget is reported with ``converged=False`` rather
    than raised.  ``achieved_rank`` is the rank of the returned transformed
    matricization at a ``1e-8`` relative Frobenius floor (robust against
    the rounding noise accumulated rotations inject).
    ``singular_value_trace`` holds ``(iteration, sigmas)`` samples when
    tracing was requested.
    """

    target_rank: int
    iterations: int
    final_gap: float
    achieved_rank: int
    converged: bool
    singular_value_trace: tuple[tuple[int, np.ndarray], ...] | None = None


def disentangler_positions(order: int, arity: int) -> list[int]:
    """Left indices of the boundary-straddling pairs for the brick pattern."""
    _check_layer_shape(order, arity)
    return [k * arity for k in range(1, order // arity)]


def isometry_positions(order: int, arity: int) -> list[int]:
    """Left indices of the consecutive ``arity``-sized groups."""
    _check_layer_shape(order, arity)
    return [k * arity + 1 for k in range(order // arity)]


def _check_layer_shape(order: int, arity: int) -> None:
    if arity < 2:
        raise ValueError(f"isometry arity must be at least 2, got {arity}")
    if order % arity != 0:
        raise ValueError(f"layer of {order} indices not divisible by arity {arity}")


# ---------------------------------------------------------------------------
# the supercore's (R_l I_l, I_r R_r) matricization and its shuffle, the mode-2 unfolding


def _supercore_mat(supercore: DenseTensor, split: tuple[int, int]) -> np.ndarray:
    if supercore.order != 3:
        raise ValueError(f"supercore must have 3 modes, got {supercore.order}")
    rl, n, rr = supercore.dims
    il, ir = split
    if il * ir != n:
        raise ValueError(f"split {il}x{ir} does not match fused free dimension {n}")
    return np.reshape(supercore.to_array(), (rl * il, ir * rr), order="F")


def shuf(supercore: DenseTensor, split: tuple[int, int]) -> np.ndarray:
    """Matricize a supercore with the free pair on rows, ranks on columns.

    The supercore has dimensions ``(R_l, I_l * I_r, R_r)``; the result is
    its ``(I_l I_r) x (R_l R_r)`` mode-2 unfolding, a pure reordering of
    the same entries.  ``split`` is checked against the fused dimension.
    """
    _supercore_mat(supercore, split)
    return _unfold(supercore.to_array(), 1)


# ---------------------------------------------------------------------------
# iterative disentangler search


def find_disentangler(
    supercore: DenseTensor,
    split: tuple[int, int],
    target_rank: int,
    gap_threshold: float = 1e12,
    max_iters: int = 50_000,
    trace_stride: int = 0,
) -> tuple[Disentangler, DenseTensor, DisentanglerReport]:
    """Search for an orthogonal mix of the two free indices that drops the
    supercore's internal rank to ``target_rank``.

    Alternates two steps on the ``(R_l I_l, I_r R_r)`` matricization ``M``:
    take the best rank-``target_rank`` approximation of ``M``, then solve an
    orthogonal Procrustes problem for the update that moves the fused-index
    rows of ``M`` closest to that approximation.  Convergence is declared
    when ``sigma_R' / sigma_{R'+1} >= gap_threshold``; exhausting the
    iteration budget reports ``converged=False`` instead of raising.

    Returns ``(disentangler, transformed supercore, report)``.
    """
    M = _supercore_mat(supercore, split)
    dims = rl, n, rr = supercore.dims
    il, ir = split
    max_rank = min(rl * il, ir * rr)
    if not 1 <= target_rank <= max_rank:
        raise ValueError(f"target rank {target_rank} outside 1..{max_rank}")
    if not gap_threshold > 1:
        raise ValueError(f"gap threshold must exceed 1, got {gap_threshold}")
    for name, value in (("max_iters", max_iters), ("trace_stride", trace_stride)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    A0 = _unfold(supercore.to_array(), 1)
    V = np.eye(n)
    trace: list[tuple[int, np.ndarray]] = []
    iterations = 0
    while True:
        U, s, Wt = np.linalg.svd(M, full_matrices=False)
        if not np.all(np.isfinite(s)):
            raise NumericError("singular values became non-finite")
        gap = _rank_gap(s, target_rank)
        if trace_stride and iterations % trace_stride == 0:
            trace.append((iterations, s.copy()))
        if gap >= gap_threshold:
            converged = True
            break
        if iterations >= max_iters:
            converged = False
            break
        iterations += 1
        reference = U[:, :target_rank] @ (
            s[:target_rank, None] * Wt[:target_rank]
        )
        A = _unfold(M.reshape(dims, order="F"), 1)
        A_low = _unfold(reference.reshape(dims, order="F"), 1)
        Vhat = _procrustes(A, A_low)
        M = _fold(Vhat @ A, 1, dims).reshape(M.shape, order="F")
        V = Vhat @ V
    # Long products of near-orthogonal updates drift; snap the accumulated
    # transform back onto the orthogonal manifold (P Q^T, which no sign
    # convention changes), then rebuild the final matrix from it so the
    # returned supercore is exactly the stored map applied to the input.
    P, _, Qt = np.linalg.svd(V)
    V = P @ Qt
    M = _fold(V @ A0, 1, dims).reshape(M.shape, order="F")
    # The accumulated rotations inject rounding noise a few times above the
    # strict elementwise rank cutoff; a small relative Frobenius floor makes
    # the reported rank robust to it.
    achieved = svd_trunc(M, 1e-8 * float(np.linalg.norm(M))).rank
    report = DisentanglerReport(
        target_rank=target_rank,
        iterations=iterations,
        final_gap=gap,
        achieved_rank=achieved,
        converged=converged,
        singular_value_trace=tuple(trace) if trace_stride else None,
    )
    transformed = DenseTensor._wrap(np.reshape(M, (rl, n, rr), order="F"))
    return Disentangler(dims=(il, ir), data=V), transformed, report


def _rank_gap(s: np.ndarray, r: int) -> float:
    """Ratio ``sigma_r / sigma_{r+1}``, infinite past the spectrum's end."""
    if r >= s.size or s[r] == 0.0:
        return math.inf
    return float(s[r - 1] / s[r])


# ---------------------------------------------------------------------------
# train -> MERA


def tt_to_mera(
    tt: TensorTrain,
    arity: int,
    epsilon: float,
    layers: int = 1,
    strategy: Literal["hosvd", "procrustes"] = "hosvd",
    target_ranks: list[list[int]] | None = None,
    gap_threshold: float = 1e12,
    max_iters: int = 50_000,
    max_output_dim: int | None = None,
) -> tuple[Mera, list[float]]:
    """Convert a train into a ``layers``-deep MERA with relative error at
    most ``epsilon``.

    Per layer, one right-to-left pass visits the disentangler positions.
    At each, the canonical centre moves to the pair (one QR step per core
    it crosses), the pair is fused, its disentangler is obtained (an
    exact full SVD of the pair's free unfolding under ``strategy="hosvd"``,
    or the iterative rank-targeting search under ``strategy="procrustes"``)
    and applied, and the pair is split again without loss, the centre
    staying on its left core.  Then the isometry groups are fused, which
    brings the centre to site 1, and the truncated Tucker sweep yields the
    isometries.  Only the isometry truncations discard energy; each one
    is budgeted ``epsilon * |tt|_F / sqrt(total isometry count)``, so the
    total squared error is at most ``(epsilon * |tt|_F)^2``.  After the last
    layer the remaining train is contracted into the top tensor.

    ``target_ranks[layer][k]`` fixes the rank goal of the ``k``-th
    disentangler of that layer under ``strategy="procrustes"``; without it,
    the goal falls back to the pair's numerically significant rank at the
    isometry tolerance, a conservative choice that is logged.  A search
    that fails to converge is logged and its transform used as-is; the
    error guarantee is unaffected because disentanglers are orthogonal.

    ``max_output_dim`` forces an upper bound on every isometry's output
    size in every layer.  Forced truncation can discard far more energy
    than ``epsilon`` allows; the reported discarded energies stay exact
    either way.

    Returns the MERA and the per-isometry discarded energies in
    construction order.
    """
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers}")
    if strategy not in ("hosvd", "procrustes"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if target_ranks is not None and len(target_ranks) != layers:
        raise ValueError(
            f"target_ranks has {len(target_ranks)} entries for {layers} layers"
        )
    order = tt.order
    total_isometries = 0
    for _ in range(layers):
        _check_layer_shape(order, arity)
        order //= arity
        total_isometries += order
    delta = epsilon * tt_norm(tt) / math.sqrt(total_isometries)
    current = tt
    built_layers: list[MeraLayer] = []
    discarded: list[float] = []
    for ell in range(layers):
        layer, current, layer_discarded = _build_layer(
            current,
            arity,
            delta,
            strategy,
            target_ranks[ell] if target_ranks is not None else None,
            gap_threshold,
            max_iters,
            max_output_dim,
        )
        built_layers.append(layer)
        discarded.extend(layer_discarded)
    top = tt_contract(current)
    return Mera(layers=tuple(built_layers), top=top), discarded


def _build_layer(
    tt: TensorTrain,
    arity: int,
    delta: float,
    strategy: str,
    ranks_goal: list[int] | None,
    gap_threshold: float,
    max_iters: int,
    output_cap: int | None,
) -> tuple[MeraLayer, TensorTrain, list[float]]:
    order = tt.order
    dims = tt.dims
    dis_pos = disentangler_positions(order, arity)
    if ranks_goal is not None and len(ranks_goal) != len(dis_pos):
        raise ValueError(
            f"{len(ranks_goal)} target ranks for {len(dis_pos)} disentanglers"
        )

    # One right-to-left pass over the boundary pairs: move the centre to the
    # pair, fuse it, mix its free index, and split it losslessly with the
    # centre kept on the left.  The pairs are disjoint, so each pair's free
    # unfolding does not depend on the order; right to left ends near site 1.
    disentanglers: list[tuple[int, Disentangler]] = []
    for k in reversed(range(len(dis_pos))):
        p = dis_pos[k]
        fused = merge_cores(orthogonalize(tt, p), p)
        pair = (dims[p - 1], dims[p])
        if strategy == "hosvd":
            dis, mixed = _hosvd_disentangler(fused.core(p), pair)
        else:
            supercore = DenseTensor._wrap(fused.core(p))
            goal = ranks_goal[k] if ranks_goal is not None else None
            if goal is None:
                goal = max(1, svd_trunc(_supercore_mat(supercore, pair), delta).rank)
                log.info(
                    "disentangler at pair (%d,%d): auto target rank %d", p, p + 1, goal
                )
            dis, transformed, report = find_disentangler(
                supercore,
                pair,
                goal,
                gap_threshold=gap_threshold,
                max_iters=max_iters,
            )
            if not report.converged:
                log.warning(
                    "disentangler at pair (%d,%d) did not converge: gap %.3e "
                    "after %d iterations",
                    p, p + 1, report.final_gap, report.iterations,
                )
            mixed = transformed.to_array()
        disentanglers.insert(0, (p, dis))
        cores = list(fused.cores)
        cores[p - 1] = mixed
        tt = split_core(TensorTrain._wrap(cores, p), p, *pair)

    # Fuse the isometry groups, which carries the centre from the first
    # pair to site 1, and extract the truncated factors.
    iso_pos = isometry_positions(order, arity)
    for g in range(len(iso_pos)):
        for _ in range(arity - 1):
            tt = merge_cores(tt, g + 1)
    factors, next_tt, group_discarded = tucker_sweep(tt, delta, output_cap)
    isometries = tuple(
        (p, Isometry(input_dims=tuple(dims[p - 1 : p - 1 + arity]), data=U))
        for p, U in zip(iso_pos, factors)
    )
    layer = MeraLayer(isometries=isometries, disentanglers=tuple(disentanglers))
    return layer, next_tt, list(group_discarded)


def _hosvd_disentangler(
    core: np.ndarray, pair: tuple[int, int]
) -> tuple[Disentangler, np.ndarray]:
    """Square orthogonal factor of the supercore's free unfolding, and the
    supercore it mixes.

    The left factor ``U`` of an SVD of the ``(I_l I_r) x (R_l R_r)``
    center is an orthogonal basis; ``U.T`` applied to the fused free index
    concentrates the pair's energy in the leading rows without discarding
    anything.  A wide center is first reduced to the ``n x n`` factor
    ``R.T`` of a thin QR of its transpose, which has the same ``U``, so the
    square right factor of the wide center is never formed.
    """
    center = _unfold(core, 1)
    n, rs = center.shape
    U, _, _ = svd_full(center if n > rs else np.linalg.qr(center.T, mode="r").T)
    transformed = _fold(U.T @ center, 1, core.shape)
    return Disentangler(dims=pair, data=U.T.copy()), transformed


# ---------------------------------------------------------------------------
# MERA -> train


def mera_to_tt(m: Mera, round_eps: float = 1e-14) -> TensorTrain:
    """Evaluate a MERA back into a train without densifying.

    Walks top-down, one left-to-right canonical sweep per layer.  The coarse
    train is put in site-1 form and each core is expanded by its isometry,
    whose orthonormal columns keep it right-orthogonal.  The centre then
    crosses the fine sites, absorbing the next expanded core at each group
    boundary (one GEMM into a Fortran-ordered chain, ``train._chain``) and
    mixing a disentangler's pair there by its transpose (one product per
    slab of the trailing index, ``_mix_gate``), and splits off one site at
    a time by a truncated SVD at
    ``round_eps * |t|_F / sqrt(D - 1)``: one truncation per bond.  Each
    truncation acts on an orthonormal environment and later gates act only
    right of its bond, so a layer's discards add up exactly, to at most
    ``(round_eps * |t|_F)^2``; the result is within
    ``len(m.layers) * round_eps * |t|_F`` of the exact evaluation and is
    site-``D``-mixed-canonical.  ``round_eps=0`` keeps every numerically
    nonzero singular value.

    Every bond unfolding ``M`` is first tested for full rank, picked by
    shape alone.  One with no more rows than columns is tested for full row
    rank on two rungs.  At a gated group end ``M`` is, up to permutations,
    a product of the centre's unfolding, the gate's operator-Schmidt
    realignment and the absorbed core's unfolding; when each of the three
    has no more rows than columns, the product of their smallest singular
    values, less a charge for the rounding of the chain and the gate
    (``_gate_bound``), bounds ``M``'s from below.  It costs three inverses
    of the factors' sizes: at most 250 x 250 where the full-size plant's
    bond is 2,500 x 2,500, and ``M`` need not be formed for it.  Where that
    bound does not clear the rank floor, one inverse and one residual of an
    ``m x m`` matrix decide (``kernels._full_row_rank``).  A tall bond is
    split ``M = Q R`` by CholeskyQR2 and tested for full column rank on
    that split (``kernels._certified_qr``).  A certified bond is one the
    SVD's rank rule would keep whole.  It discards nothing: a wide bond's
    core is the identity and the centre moves on as ``M`` unchanged; a tall
    bond's core is ``Q``, whose signs the positive diagonal of ``R`` fixes,
    and the centre moves on as ``R``.  The test only makes the kept rank
    the one the SVD would keep.  A bond no test certifies takes the SVD.  A
    MERA with a zero top is refused.

    At a gated group end whose bond is kept whole, the tall bond just
    inside the next group, if that group has more than one site, is split
    from the small factors instead (``_inner_split``): two QRs no larger
    than the centre's and the absorbed core's unfoldings, certified on the
    same rank rule, so the full-size plant's 25,000 x 250 and 5,000 x 250
    bonds are never formed.  Both bonds' cores are emitted together.
    When the product rung keeps the group end, its bond is not formed
    either; when only the inverse rung does, it is formed to be tested,
    and the factored split still serves the next bond, so the rungs decide
    and never change a bit.
    """
    if not round_eps >= 0:
        raise ValueError(f"round_eps must be non-negative, got {round_eps}")
    current = tt_svd(m.top, 0.0)
    for layer in reversed(m.layers):
        isometries = sorted(layer.isometries)
        current = orthogonalize(current, 1)
        dims = layer.input_dims
        delta = round_eps * tt_norm(current) / math.sqrt(max(1, len(dims) - 1))
        expanded = (
            np.einsum("rks,mk->rms", core, iso.data, optimize=True)
            for core, (_, iso) in zip(current.cores, isometries)
        )
        group_ends = {pos + len(iso.input_dims) - 1 for pos, iso in isometries}
        gates = dict(layer.disentanglers)
        cores: list[np.ndarray] = []
        centre = next(expanded)
        bonds = iter(range(1, len(dims)))
        for p in bonds:
            d = dims[p - 1]
            kept = None
            if p in group_ends:
                # Absorb the next group (fused free index first-index-fastest)
                # and mix the pair (p, p+1) if a disentangler sits there.
                prev, nxt = centre, next(expanded)
                gate = gates[p].data if p in gates else None
                centre = None
                if gate is not None:
                    # The product rung tests bond p from its three factors;
                    # the inverse rung, on the formed bond, only if it fails.
                    r, _, s = prev.shape
                    shape = (r * d, nxt.size // s)
                    norm, charge = _stored_bond(prev, nxt, gate)
                    bound = _gate_bound(prev, nxt, gate, charge)
                    kept = bound > _rank_floor(shape, delta, norm)
                    if not kept and shape[0] <= shape[1]:
                        centre = _mix_gate(_chain([prev, nxt]), gate)
                        M = np.reshape(centre, shape, order="F")
                        kept = _full_row_rank(M, delta)
                    # Bond p kept whole leaves bond p + 1, if inside the
                    # group, to split from the same factors; then neither
                    # bond is formed for the split.
                    if kept and p + 1 not in group_ends:
                        inner = _inner_split(
                            prev, nxt, gate, dims[p], delta, norm, charge
                        )
                        if inner is not None:
                            eye = np.eye(r * d, order="F")
                            cores.append(np.reshape(eye, (r, d, r * d), order="F"))
                            cores.append(inner[0])
                            centre = inner[1]
                            next(bonds)
                            continue
                if centre is None:
                    centre = _chain([prev, nxt])
                    if gate is not None:
                        centre = _mix_gate(centre, gate)
            r, n, s = centre.shape
            M = np.reshape(centre, (r * d, n // d * s), order="F")
            # Where the rank rule provably keeps every value, an exact split
            # discards nothing: the identity and M itself for a wide bond,
            # Q and R for a tall one.
            split = None
            if r * d > M.shape[1]:
                split = _certified_qr(M, delta)
            elif kept if kept is not None else _full_row_rank(M, delta):
                split = np.eye(r * d, order="F"), M
            if split is None:
                f = svd_trunc(M, delta)
                if f.rank == 0:
                    raise ValueError("a bond was fully truncated; round_eps too large")
                split = f.U, f.rest
            U, rest = split
            cores.append(np.reshape(U, (r, d, U.shape[1]), order="F"))
            centre = np.reshape(rest, (rest.shape[0], n // d, s), order="F")
        cores.append(centre)
        current = TensorTrain._wrap(cores, len(cores))
    return current


def _mix_gate(centre: np.ndarray, gate: np.ndarray) -> np.ndarray:
    """``centre`` mixed by ``gate``'s transpose on the leading ``g`` (the
    gate's size) entries of its free index: viewed as ``(r, g, k)``, slab
    ``j`` of the Fortran-ordered result is ``centre[:, :, j] @ gate``, one
    product per slab of the trailing index, each written straight into the
    result."""
    slabs = (centre.shape[0], gate.shape[0], -1)
    out = np.empty(centre.shape, order="F")
    np.matmul(
        gate.T,
        np.reshape(centre, slabs, order="F").T,
        out=np.reshape(out, slabs, order="F").T,
    )
    return out


def _gate_bound(
    prev: np.ndarray, nxt: np.ndarray, gate: np.ndarray, charge: float
) -> float:
    """Lower bound on the smallest singular value of the bond unfolding that
    :func:`mera_to_tt` builds at a gated group end, from its three factors;
    ``0.0`` when they do not nest.

    ``prev`` is the centre ``(r, d, s)``, ``nxt`` the expanded core ``(s,
    e ..., t)`` it absorbs, and ``gate`` a disentangler's ``d e x d e``
    matrix, orthogonal to ``ORTHO_TOL``, applied by its transpose ``V``
    (:func:`_mix_gate`) to the chain ``Y`` of ``prev`` and ``nxt``.  Up to
    permutations of rows and columns, the ``r d x e c`` unfolding of ``V
    Y`` (``c`` the columns of ``F``) is the product ``(I_d kron C) (I_s kron
    G) (I_e kron F)`` of ``C``, the ``r x d s`` unfolding of ``prev``;
    ``G``, the ``d^2 x e^2`` operator-Schmidt realignment ``G[(i, j), (i',
    j')] = V[(i, i'), (j, j')]``; and ``F``, the ``s e x c`` unfolding of
    ``nxt``.  When each factor has no more rows than columns, which makes
    the bond wide or square, the smallest singular value of the product is
    at least the product of theirs, each bounded by
    :func:`kernels._row_rank_bound`.  Weyl's inequality moves the bound to
    the bond as stored, less ``charge``, the bound of :func:`_stored_bond`
    on its rounding, which needs no formed chain.
    """
    r, d, s = prev.shape
    e = gate.shape[0] // d
    c = nxt.size // (s * e)
    if not (r <= d * s and d <= e and s * e <= c):
        return 0.0
    C = np.reshape(prev, (r, d * s), order="F")
    V = np.reshape(gate.T, (d, e, d, e), order="F")
    G = np.reshape(V.transpose(0, 2, 1, 3), (d * d, e * e), order="F")
    F = np.reshape(nxt, (s * e, c), order="F")
    return _row_rank_bound(C) * _row_rank_bound(G) * _row_rank_bound(F) - charge


def _stored_bond(
    prev: np.ndarray, nxt: np.ndarray, gate: np.ndarray
) -> tuple[float, float]:
    """Upper bounds ``(norm, charge)`` on ``|M|_F`` and on ``|M - M*|_F``,
    where ``M`` is the bond that :func:`mera_to_tt` forms at a gated group
    end and ``M*`` the same product of the same factors in exact
    arithmetic.

    ``M`` is the chain ``Y`` of the centre ``prev`` ``(r, d, s)`` and the
    expanded core ``nxt`` it absorbs, mixed by ``gate``'s transpose ``V``.
    The chain is ``C F``, ``C`` the ``r d x s`` unfolding of ``prev`` and
    ``F`` the ``s x ...`` one of ``nxt``; each of its entries is a sum of
    ``s`` products, so as stored it is within ``gamma_s |C|_F |F|_F`` of
    ``C F`` (Higham, Thm. 3.5).  Its norm is taken without forming it, from
    ``|C F|_F^2 = <C^T C, F F^T>``, charged the rounding of the two ``s x
    s`` Gram matrices and of their inner product.  The gate's product is
    formed slab by slab, but each of its entries is still a sum of ``d e``
    products, so it adds at most ``gamma_{d e} |V|_F |Y|_F``, and ``V``'s
    2-norm is within ``d e ORTHO_TOL`` of 1.  Each charge is doubled, which
    covers the gate's 2-norm and the rounding of the charge itself.
    """
    r, d, s = prev.shape
    g = gate.shape[0]
    C = np.reshape(prev, (r * d, s), order="F")
    F = np.reshape(nxt, (s, -1), order="F")
    gamma_s, gamma_y, gamma_g = map(_gamma, (s, r * d + F.shape[1] + s * s, g))
    cf = float(np.linalg.norm(C) * np.linalg.norm(F))
    y = math.sqrt(np.vdot(C.T @ C, F @ F.T) + 2.0 * gamma_y * cf * cf)
    y += 2.0 * gamma_s * cf
    charge = 2.0 * (gamma_s * cf + gamma_g * np.linalg.norm(gate) * y)
    return (1.0 + 2.0 * g * ORTHO_TOL) * y + charge, charge


def _inner_split(
    prev: np.ndarray,
    nxt: np.ndarray,
    gate: np.ndarray,
    e: int,
    delta: float,
    norm: float,
    charge: float,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The split of the tall bond just inside the group that ``nxt`` opens,
    from the small factors of the gated group end before it, as ``(core,
    centre)``; ``None`` unless the rank rule of :func:`svd_trunc` at
    ``delta`` provably keeps every column.

    ``prev`` is the centre ``(r, d, s)`` at a group end whose ``r d x e c``
    bond is wide or square, ``nxt`` the expanded core ``(s, e x, t)`` it
    absorbs, ``c = x t``, and ``gate`` the disentangler there.  The group
    must have a site after ``e``'s, so that the next bond lies inside it;
    the caller checks that.  If the group end's bond is kept whole (an
    identity core), the next bond's ``r d e x c`` unfolding is ``M = V~
    (I_e kron P) N``: ``P`` the ``r d x s`` unfolding of ``prev``, ``N``
    the ``s e x c`` one of ``nxt`` and ``V~`` the gate's transpose on the
    row pair.  With ``P = Q_P R_P`` and ``K = (I_e kron
    R_P) N = Q_K R_K``, both by :func:`kernels._cholesky_qr2`, ``M = Z
    R_K`` for ``Z = V~ (I_e kron Q_P) Q_K``.  ``core`` is ``Z``, the
    :func:`_mix_gate` of the chain of ``Q_P`` and ``Q_K``, as ``(r d, e,
    c)``, and ``centre`` is ``R_K`` as ``(c, x, t)``; ``M`` is never formed
    and no QR is larger than ``max(r d, s e) x max(s, c)``.  Only a tall
    ``P`` and a tall or square ``K`` are split.  (Without a gate ``P``
    tall would cap the group end's bond at rank ``s < r d``, so it is
    never kept whole.)

    The certificate charges every rounding.  With the two QRs' measured
    ``omega_P``, ``omega_K``, ``rho_P`` and ``rho_K``, and ``omega_V = 2 d
    e ORTHO_TOL`` for the gate, ``|Z^T Z - I|_2 <= omega = omega_K + (1 +
    omega_K)(omega_P + (1 + omega_P) omega_V)``, and ``M*``, the exact
    product of the stored factors, is within ``rho = sqrt(1 + omega_V)
    (sqrt(1 + omega_P) (rho_K + 2 gamma_s |R_P|_F |N|_F) + rho_P |N|_F)``
    of ``Z R_K``, the middle term the rounding of forming ``K``.  So
    Weyl's inequality puts the smallest singular value of the bond that
    the SVD route would form at no less than ``sqrt(1 - omega) ell - rho -
    charge``: ``ell`` is the :func:`kernels._sigma_min_bound` of ``R_K``
    and ``charge`` the bound of :func:`_stored_bond` on the rounding of
    the group end's bond, whose bound ``norm`` sets the floor of
    :func:`kernels._rank_floor`.
    """
    r, d, s = prev.shape
    c = nxt.size // (s * e)
    if not (r * d <= e * c and s < r * d and c <= s * e):
        return None
    P = _cholesky_qr2(np.reshape(prev, (r * d, s), order="F"))
    if P is None:
        return None
    QP, RP, omega_p, rho_p = P
    # R_P on nxt's leading index, stored first-index-fastest so that its
    # s e x c unfolding is a view.
    K = (np.reshape(nxt, (s, -1), order="F").T @ RP.T).T
    K = _cholesky_qr2(np.reshape(K, (s * e, c), order="F"))
    if K is None:
        return None
    QK, RK, omega_k, rho_k = K
    omega_v = 2.0 * gate.shape[0] * ORTHO_TOL
    omega = omega_k + (1.0 + omega_k) * (omega_p + (1.0 + omega_p) * omega_v)
    if not omega < 0.5:
        return None
    nn = np.linalg.norm(nxt)
    rho = math.sqrt(1.0 + omega_v) * (
        math.sqrt(1.0 + omega_p) * (rho_k + 2.0 * _gamma(s) * np.linalg.norm(RP) * nn)
        + rho_p * nn
    )
    bound = math.sqrt(1.0 - omega) * _sigma_min_bound(RK) - rho - charge
    if not bound > _rank_floor((r * d * e, c), delta, norm):
        return None
    Z = _chain([
        np.reshape(QP, (r, d, s), order="F"),
        np.reshape(QK, (s, e, c), order="F"),
    ])
    core = np.reshape(_mix_gate(Z, gate), (r * d, e, c), order="F")
    return core, np.reshape(RK, (c, nxt.shape[1] // e, nxt.shape[2]), order="F")


# ---------------------------------------------------------------------------
# bookkeeping


def mera_storage(m: Mera) -> int:
    """Stored entries across disentanglers, isometries, and the top."""
    count = m.top.size
    for layer in m.layers:
        for _, dis in layer.disentanglers:
            count += dis.data.size
        for _, iso in layer.isometries:
            count += iso.data.size
    return count


def mera_relative_error(m: Mera, reference: TensorTrain) -> float:
    """``|reference - mera|_F / |reference|_F`` in train arithmetic.

    The MERA is evaluated as a train, site-``D``-mixed-canonical, and the
    reference is swept against that train's orthonormal frame
    (:func:`_tt_diff_norm`), so nothing is densified at any size and no
    orthonormal factor is formed.
    """
    rec = mera_to_tt(m)
    if rec.dims != reference.dims:
        raise ValueError(
            f"dimension mismatch: MERA evaluates to {rec.dims}, "
            f"reference is {reference.dims}"
        )
    ref_norm = tt_norm(reference)
    if ref_norm == 0.0:
        raise ValueError("reference tensor has zero norm")
    return _tt_diff_norm(reference, rec) / ref_norm


def _tt_diff_norm(a: TensorTrain, b: TensorTrain) -> float:
    """Frobenius norm of ``a - b`` for trains of equal dimensions.

    ``b`` is brought to site ``D`` (free for a ``tt_svd`` or ``mera_to_tt``
    result), so its left interfaces ``L_d`` have orthonormal columns.  One
    left-to-right sweep writes ``a``'s left interfaces as
    ``L_d S + Q_d T`` with ``Q_d`` orthonormal and orthogonal to ``L_d``,
    carrying only ``S`` and ``T``.  At core ``d``, with ``X = (S (x) I) A_d``
    and ``X_t = (T (x) I) A_d``, ``S' = B_d^T X`` and ``Y = X - B_d S'``
    (projected twice, CGS2); ``Y`` and ``X_t`` live in mutually orthogonal
    frames orthogonal to ``L_{d+1}``, so the next ``T`` is the R factor of
    ``[Y; X_t]``, and at core ``D``
    ``|a - b|^2 = |X - B_D|^2 + |X_t|^2``.  A square ``B_d`` spans all
    that ``L_d (x) I`` spans, so there ``Y`` is zero and not formed.  Each
    QR has ``a``'s columns only, and no block core of the difference is
    built.

    The identity is exact for orthonormal ``L_d``.  In floating point the
    result is, to first order, within
    ``(sum_d |B_d^T B_d - I|_2 + c D u) (|a|_F + |b|_F)`` of ``|a - b|_F``,
    ``u`` the unit roundoff and ``c`` a small constant, ``B_d`` the left
    unfoldings of ``b``'s cores ``1..D-1``: the sweep trusts ``b``'s
    frame, and rounding its products and QRs costs a few ``u`` per core.
    """
    b = orthogonalize(b, b.order)
    S = np.ones((1, 1))
    T = np.zeros((0, 1))
    for A, B in zip(a.cores[:-1], b.cores[:-1]):
        X = _left_mat(_chain([S[:, None, :], A]))
        Xt = _left_mat(_chain([T[:, None, :], A]))
        Bm = _left_mat(B)
        S = Bm.T @ X
        # A square B_d is orthogonal: it leaves no complement, and Y = 0.
        if Bm.shape[0] > Bm.shape[1]:
            X -= Bm @ S
            S2 = Bm.T @ X
            X -= Bm @ S2
            S += S2
            Xt = np.concatenate([X, Xt])
        T = np.linalg.qr(Xt, mode="r")
    A, B = a.cores[-1], b.cores[-1]
    X = _chain([S[:, None, :], A]) - B
    Xt = _chain([T[:, None, :], A])
    return math.hypot(np.linalg.norm(X.ravel()), np.linalg.norm(Xt.ravel()))
