"""Reproducible experiment drivers.

Each ``run_*`` function is the engine behind one CLI subcommand, and the
only home of its defaults.  They are deterministic given a seed: every
random constituent draws from its own named substream, so results do not
depend on evaluation order, and a scan gives the same rows at one and at
two threads.  Wall-clock timings are reported but are the only
nondeterministic outputs.

Artifacts are written into an output directory when one is given: binary
tensors, PGM images, CSV tables with a header row, and JSON reports.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .dense import DenseTensor
from .errors import ConfigError
from .formats import load_pgm, save_mera, save_pgm, save_tensor, write_csv
from .heat import HeatConfig, reshape_to_factors, solve_heat
from .mera import (
    Disentangler,
    Isometry,
    Mera,
    MeraLayer,
    _hosvd_disentangler,
    disentangler_positions,
    find_disentangler,
    isometry_positions,
    mera_relative_error,
    mera_storage,
    mera_to_tt,
    tt_to_mera,
)
from .rng import random_isometry, random_orthogonal, standard_normal, stream
from .train import (
    TensorTrain,
    _chain,
    _tt_svd_sweep,
    merge_cores,
    orthogonalize,
    tt_norm,
    tt_storage,
    tt_svd,
)
from .tucker import (
    TuckerTT,
    compression_ratio,
    sthosvd_dense,
    tt_to_hosvd,
    tucker_reconstruct_tt,
)

__all__ = [
    "CompressionReport",
    "PAPER_HEAT",
    "DESK_HEAT",
    "run_heat2d",
    "run_compress",
    "run_planted",
    "run_rmin_scan",
    "run_iters_vs_rank",
    "run_mera12",
    "random_mera_plant",
    "planted_pair_tensor",
]

PAPER_HEAT = HeatConfig(ds=1e-2, dt=0.25e-4, t_end=0.25)
DESK_HEAT = HeatConfig(ds=2e-2, dt=None, t_end=0.25)

@dataclass(frozen=True)
class CompressionReport:
    """One row of a compression comparison.

    ``elapsed_seconds`` covers building the decomposition only, not the
    error measurement.  ``ranks`` holds multilinear ranks for Tucker-style
    methods, internal train ranks for ``tt``, and isometry output sizes for
    ``mera``.  ``detail`` carries method-specific extras (stage timings,
    strategy names).
    """

    method: str
    elapsed_seconds: float
    relative_error: float
    storage_count: int
    compression_ratio: float
    ranks: tuple[int, ...]
    detail: dict | None = None

    def as_dict(self) -> dict:
        out = asdict(self)
        out["ranks"] = list(self.ranks)
        out.update(out.pop("detail") or {})
        return out


def _report(
    method: str, elapsed: float, error: float, storage: int, total: int,
    ranks: Sequence[int], detail: dict | None = None,
) -> CompressionReport:
    """A report of ``storage`` entries kept out of ``total``."""
    storage = int(storage)
    return CompressionReport(method, elapsed, error, storage,
                             compression_ratio(total, storage), tuple(ranks),
                             detail)


def _write_reports(
    out: Path, stem: str, columns: Sequence[str],
    reports: Sequence[CompressionReport], meta: dict,
) -> None:
    """Write ``<stem>.csv``, one row of ``columns`` per report, and
    ``<stem>.json``, ``meta`` followed by the reports.

    A CSV cell is read from the report's dictionary, so ``strategy`` comes
    from its detail (empty when absent); ranks are joined by ``|``.
    """
    rows = [r.as_dict() for r in reports]
    write_csv(out / f"{stem}.csv", columns, [
        ["|".join(map(str, row[c])) if c == "ranks" else row.get(c, "")
         for c in columns]
        for row in rows
    ])
    payload = {**meta, "reports": rows}
    (out / f"{stem}.json").write_text(json.dumps(payload, indent=2) + "\n")


def _out_dir(out_dir: str | Path | None) -> Path | None:
    if out_dir is None:
        return None
    p = Path(out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


# ---------------------------------------------------------------------------
# heat-equation data generation


def run_heat2d(cfg: HeatConfig, out_path: str | Path) -> Path:
    """Solve the heat equation and write the snapshot tensor.

    A sibling ``<name>.json`` records the discretisation next to the
    binary tensor file.
    """
    out_path = Path(out_path)
    t = solve_heat(cfg)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    save_tensor(out_path, t)
    meta = {
        "dims": list(t.dims),
        "ds": cfg.ds,
        "dt": cfg.time_step,
        "t_end": cfg.t_end,
        "nodes": cfg.nodes,
        "steps": cfg.steps,
    }
    out_path.with_suffix(out_path.suffix + ".json").write_text(
        json.dumps(meta, indent=2) + "\n"
    )
    return out_path


# ---------------------------------------------------------------------------
# compression comparison


# Entries per column block of the streamed error (512 KiB): wide enough for
# BLAS to run at speed, small next to any input worth compressing.
_ERROR_BLOCK_ENTRIES = 1 << 16


def _relative_error(tt: TensorTrain, t: DenseTensor) -> float:
    """``|t - tt|_F / |t|_F`` for a train with the dimensions of ``t``.

    The train is cut at the bond where its two interface matrices are
    smallest, and the difference is streamed over column blocks of the
    input's unfolding at that cut, so neither the reconstruction nor a copy
    of the input is ever formed.  A C-ordered input is read through its
    transpose against the reversed train.  Each entry of the difference is
    exact to rounding, so the floor is about 1e-15 relative.
    """
    a = t.to_array()
    cores = tt.cores
    if not a.flags.f_contiguous:
        a = a.T
        cores = [c.transpose(2, 1, 0) for c in reversed(cores)]
    dims = a.shape
    ranks = [c.shape[0] for c in cores] + [1]
    # An order-1 train is cut after its only core.
    k = min(
        range(1, max(len(dims), 2)),
        key=lambda k: (math.prod(dims[:k]) + math.prod(dims[k:])) * ranks[k],
    )
    left = _chain(cores[:k])[0]
    # A C-ordered copy: the 6-column blocks of the 3-way heat tensor stream
    # about 25 % faster from it than from the chain's own layout.
    right = np.ascontiguousarray(_chain(cores[k:])[:, :, 0])
    X = np.reshape(a, (left.shape[0], right.shape[1]), order="F")
    step = max(1, _ERROR_BLOCK_ENTRIES // X.shape[0])
    err2 = 0.0
    for j in range(0, X.shape[1], step):
        block = left @ right[:, j : j + step]
        block -= X[:, j : j + step]
        err2 += float(np.vdot(block, block))
    return math.sqrt(err2) / t.norm()


# Each builder returns the decomposition as a train with the input's
# dimensions, the build time in seconds, the stored entry count, the ranks
# and the method's detail; run_compress measures every error the same way.


def _compress_sthosvd(t: DenseTensor, epsilon: float):
    start = time.perf_counter()
    factors, core, discarded = sthosvd_dense(t, epsilon)
    elapsed = time.perf_counter() - start
    storage = core.size + sum(f.size for f in factors)
    # An exact train of the core, which is never larger than the input, puts
    # the decomposition in the form the error measurement reads.
    tt = tucker_reconstruct_tt(TuckerTT(factors, tt_svd(core, 0.0), discarded))
    return tt, elapsed, storage, core.dims, None


def _compress_tt(t: DenseTensor, epsilon: float):
    start = time.perf_counter()
    tt = tt_svd(t, epsilon)
    elapsed = time.perf_counter() - start
    return tt, elapsed, tt_storage(tt), tt.ranks[1:-1], None


def _compress_tt_tucker(t: DenseTensor, epsilon: float):
    # The train gets epsilon / sqrt(2); its discards add up exactly to
    # |e_1|^2.  The conversion gets what is left, epsilon |t| - |e_1|, so by
    # the triangle inequality |t - tucker| <= |e_1| + |tt - tucker|
    # <= epsilon |t|.
    start = time.perf_counter()
    tt, discarded = _tt_svd_sweep(t, epsilon / math.sqrt(2.0))
    t_build = time.perf_counter() - start
    start = time.perf_counter()
    stage_eps = (epsilon * t.norm() - math.sqrt(discarded)) / tt_norm(tt)
    tuck = tt_to_hosvd(tt, stage_eps)
    t_convert = time.perf_counter() - start
    return (
        tucker_reconstruct_tt(tuck),
        t_build + t_convert,
        tuck.storage_count,
        tuck.multilinear_rank,
        {"tt_svd_seconds": t_build, "conversion_seconds": t_convert},
    )


_COMPRESS_BUILDERS = {
    "sthosvd": _compress_sthosvd,
    "tt": _compress_tt,
    "tt-tucker": _compress_tt_tucker,
}
COMPRESS_METHODS = tuple(_COMPRESS_BUILDERS)


def run_compress(
    source: DenseTensor | str | Path,
    epsilon: float = 1e-3,
    methods: Sequence[str] = COMPRESS_METHODS,
    factorize: bool = False,
    out_dir: str | Path | None = None,
) -> list[CompressionReport]:
    """Compare decompositions of one tensor at a shared error budget.

    ``source`` is a tensor or the path of a tensor file.  ``factorize``
    first splits every dimension into its prime factors, turning the
    3-way heat tensor into a 16-way one.  Per method the decomposition is
    built at ``epsilon`` and its storage, compression ratio, wall time,
    and measured relative error are reported.
    """
    if not methods:
        raise ConfigError("no compression methods requested")
    for m in methods:
        if m not in COMPRESS_METHODS:
            raise ConfigError(
                f"unknown method {m!r}; choose from {', '.join(COMPRESS_METHODS)}"
            )
    if not epsilon > 0:
        raise ConfigError(f"epsilon must be positive, got {epsilon}")
    if isinstance(source, DenseTensor):
        t = source
    else:
        from .formats import load_tensor

        t = load_tensor(source)
    if factorize:
        t = reshape_to_factors(t)
    if t.norm() == 0.0:
        raise ConfigError("input tensor has zero norm")
    reports = []
    for m in methods:
        tt, elapsed, storage, ranks, detail = _COMPRESS_BUILDERS[m](t, epsilon)
        error = _relative_error(tt, t)
        reports.append(_report(m, elapsed, error, storage, t.size, ranks, detail))
    out = _out_dir(out_dir)
    if out is not None:
        _write_reports(
            out,
            "compress",
            ["method", "elapsed_seconds", "relative_error", "storage_count",
             "compression_ratio", "ranks"],
            reports,
            {"epsilon": epsilon, "factorize": factorize, "dims": list(t.dims),
             "original_entries": t.size},
        )
    return reports


# ---------------------------------------------------------------------------
# planted single-layer constructions


def _to_unit(a: np.ndarray) -> np.ndarray:
    lo = float(np.min(a))
    hi = float(np.max(a))
    if hi <= lo:
        return np.zeros_like(a)
    return (a - lo) / (hi - lo)


def _resize_bilinear(a: np.ndarray, rows: int, cols: int) -> np.ndarray:
    r = np.linspace(0.0, a.shape[0] - 1.0, rows)
    c = np.linspace(0.0, a.shape[1] - 1.0, cols)
    i0 = np.floor(r).astype(int)
    j0 = np.floor(c).astype(int)
    i1 = np.minimum(i0 + 1, a.shape[0] - 1)
    j1 = np.minimum(j0 + 1, a.shape[1] - 1)
    fi = (r - i0)[:, None]
    fj = (c - j0)[None, :]
    return (
        a[np.ix_(i0, j0)] * (1 - fi) * (1 - fj)
        + a[np.ix_(i1, j0)] * fi * (1 - fj)
        + a[np.ix_(i0, j1)] * (1 - fi) * fj
        + a[np.ix_(i1, j1)] * fi * fj
    )


def _apply_middle_pair(M: np.ndarray, Q: np.ndarray, side: int) -> np.ndarray:
    """Rotate the fused middle index pair of a square matrix.

    ``M`` is ``(side^2, side^2)`` viewed as a 4-way tensor with two indices
    per axis; ``Q`` acts on the fused pair (axes 2 and 3), and the result
    is reshaped back to the same matrix form.
    """
    n = side * side
    mid = np.reshape(np.reshape(M, (side,) * 4, order="F").transpose(1, 2, 3, 0),
                     (n, n), order="F")
    # BLAS rounds the product by operand layout; the plants, and the
    # iteration counts of the searches on them, are fixed with a C operand.
    rotated = Q @ np.ascontiguousarray(mid)
    back = np.reshape(rotated, (side,) * 4, order="F").transpose(3, 0, 1, 2)
    return np.reshape(back, (n, n), order="F")


def planted_pair_tensor(
    I: int, rprime: int, seed: int, top: np.ndarray | None = None
) -> dict:
    """Build the single-layer plant: top matrix, two identical isometries,
    one entangling orthogonal transform.

    Returns the ``(I, I, I, I)`` tensor whose middle-pair rank was raised
    from ``rprime`` to (generically) ``I^2``, alongside the intermediate
    matrices.  The plant is fully determined by ``(I, rprime, seed)`` and
    the optional ``top``, whose plant is checked as outside data.
    """
    if I < 2:
        raise ConfigError(f"index size must be at least 2, got {I}")
    if not 1 <= rprime <= I * I:
        raise ConfigError(f"planted rank {rprime} outside 1..{I * I}")
    wrap = DenseTensor._wrap if top is None else DenseTensor
    if top is None:
        top = standard_normal(stream(seed, 0), (rprime, rprime))
    elif top.shape != (rprime, rprime):
        raise ConfigError(
            f"top matrix must be {rprime}x{rprime}, got {top.shape}"
        )
    W = random_isometry(stream(seed, 1), I * I, rprime)
    V = random_orthogonal(stream(seed, 2), I * I)
    low = W @ top @ W.T
    entangled = _apply_middle_pair(low, V, I)
    tensor = wrap(np.reshape(entangled, (I,) * 4, order="F"))
    return {
        "top": top,
        "isometry": W,
        "entangler": V,
        "low_rank_matrix": low,
        "entangled_matrix": entangled,
        "tensor": tensor,
    }


def run_planted(
    I: int = 8,
    rprime: int = 32,
    seed: int = 0,
    image: str | Path | None = None,
    gap_threshold: float = 1e12,
    max_iters: int = 50_000,
    trace_stride: int = 50,
    out_dir: str | Path | None = None,
) -> dict:
    """Recover a planted rank-lowering disentangler and compare it with the
    single-SVD rotation of the supercore's free unfolding.

    The plant applies two identical random isometries to a top matrix
    (``rprime`` square; a supplied image, or a seeded random matrix) and
    then entangles the middle index pair with a random orthogonal matrix.
    Emits singular-value decay tables for the original, SVD-rotated, and
    iteratively disentangled supercore, plus image renderings of each
    matrix stage.
    """
    top = None
    if image is not None:
        top = _resize_bilinear(load_pgm(image), rprime, rprime)
    plant = planted_pair_tensor(I, rprime, seed, top=top)
    # The exact train of the plant and its mixed-canonical middle supercore.
    tt = tt_svd(plant["tensor"], 0.0)
    supercore = DenseTensor._wrap(merge_cores(orthogonalize(tt, 2), 2).core(2))
    rl, _, rr = supercore.dims

    def sigma(a: np.ndarray) -> np.ndarray:
        """Singular values of the bond unfolding of a supercore array."""
        mat = np.reshape(a, (rl * I, I * rr), order="F")
        return np.linalg.svd(mat, compute_uv=False)

    original_sigma = sigma(supercore.to_array())
    _, hosvd_transformed = _hosvd_disentangler(supercore.to_array(), (I, I))
    hosvd_sigma = sigma(hosvd_transformed)

    start = time.perf_counter()
    dis, transformed, report = find_disentangler(
        supercore, (I, I), rprime, gap_threshold=gap_threshold,
        max_iters=max_iters, trace_stride=trace_stride,
    )
    elapsed = time.perf_counter() - start
    found_sigma = sigma(transformed.to_array())

    result = {
        "I": I,
        "rprime": rprime,
        "seed": seed,
        "tt_ranks": tuple(tt.ranks),
        "report": report,
        "elapsed_seconds": elapsed,
        "original_sigma": original_sigma,
        "hosvd_sigma": hosvd_sigma,
        "found_sigma": found_sigma,
        "disentangler": dis,
    }
    out = _out_dir(out_dir)
    if out is not None:
        save_pgm(out / "top.pgm", _to_unit(plant["top"]))
        save_pgm(out / "low_rank.pgm", _to_unit(plant["low_rank_matrix"]))
        save_pgm(out / "entangled.pgm", _to_unit(plant["entangled_matrix"]))
        recovered = _apply_middle_pair(
            plant["entangled_matrix"], dis.data, I
        )
        save_pgm(out / "disentangled.pgm", _to_unit(recovered))
        write_csv(
            out / "sigma_decay.csv",
            ["index", "original", "svd_rotation", "iterative"],
            [
                [k + 1, float(original_sigma[k]), float(hosvd_sigma[k]),
                 float(found_sigma[k])]
                for k in range(len(original_sigma))
            ],
        )
        if report.singular_value_trace:
            write_csv(
                out / "sigma_trace.csv",
                ["iteration", "index", "sigma"],
                [
                    [it, k + 1, float(v)]
                    for it, sig in report.singular_value_trace
                    for k, v in enumerate(sig)
                ],
            )
        summary = {
            "I": I, "rprime": rprime, "seed": seed, "tt_ranks": list(tt.ranks),
        }
        for f in fields(report):
            if f.name != "singular_value_trace":
                summary[f.name] = getattr(report, f.name)
        summary["elapsed_seconds"] = elapsed
        (out / "report.json").write_text(json.dumps(summary, indent=2) + "\n")
    return result


# ---------------------------------------------------------------------------
# convergence scans


def _scan(job, keys: Sequence, seeds: int, threads: int) -> dict:
    """``job(key, s)`` for every key and seed offset ``s < seeds``, mapped
    over ``threads`` threads; the results grouped by key in seed order."""
    if seeds < 1:
        raise ConfigError(f"need at least one seed, got {seeds}")
    if threads < 1:
        raise ConfigError(f"need at least one thread, got {threads}")
    work = [(key, s) for key in keys for s in range(seeds)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        results = list(ex.map(lambda point: job(*point), work))
    grouped: dict = {key: [] for key in keys}
    for (key, _), result in zip(work, results):
        grouped[key].append(result)
    return grouped


def _rmin_for_seed(
    I: int, seed: int, gap_threshold: float, max_iters: int
) -> int:
    # Isolated convergence below the boundary exists (rank 1 always
    # converges, occasional small ranks do too), so the table value is the
    # start of the contiguous convergent range ending at full rank.
    # Scanning downward finds it with a single exhausted-budget run.
    boundary = I * I
    for rprime in range(I * I - 1, 1, -1):
        if run_planted(I, rprime, seed, gap_threshold=gap_threshold,
                       max_iters=max_iters, trace_stride=0)["report"].converged:
            boundary = rprime
        else:
            break
    return boundary


def run_rmin_scan(
    I_values: Sequence[int] = (2, 3, 4, 5),
    gap_threshold: float = 1e12,
    max_iters: int = 50_000,
    seed: int = 0,
    seeds: int = 3,
    threads: int = 1,
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Smallest target rank with stable convergence, per index size.

    For each ``I`` the scan walks target ranks downward from ``I^2`` while
    the search keeps reaching the gap threshold within budget; the boundary
    is where the contiguous convergent range starts.  Rank 1 is excluded as
    trivial (it always converges), and isolated convergent ranks below the
    boundary do not move it.  The scan repeats for ``seeds`` plants and
    reports the majority value; ties resolve to the smaller rank.
    """
    if any(I < 2 for I in I_values):
        raise ConfigError("index sizes must be at least 2")
    by_I = _scan(
        lambda I, s: _rmin_for_seed(I, seed + s, gap_threshold, max_iters),
        I_values, seeds, threads,
    )
    rows = []
    for I in I_values:
        counts = Counter(by_I[I])
        best = max(counts.values())
        majority = min(v for v, c in counts.items() if c == best)
        rows.append({"I": I, "rmin": majority, "votes": tuple(by_I[I])})
    out = _out_dir(out_dir)
    if out is not None:
        write_csv(
            out / "rmin.csv",
            ["I", "rmin", "votes"],
            [[r["I"], r["rmin"], "|".join(str(v) for v in r["votes"])]
             for r in rows],
        )
    return rows


def run_iters_vs_rank(
    I: int = 4,
    rprimes: Sequence[int] | None = None,
    gap_threshold: float = 1e12,
    max_iters: int = 50_000,
    seed: int = 0,
    seeds: int = 1,
    threads: int = 1,
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Iteration counts of the disentangler search as the target rank
    varies at fixed index size.

    Each target rank gets a fresh plant per seed; the reported iteration
    count is the median over seeds, and ``converged`` is true only if all
    seeds converged.  Counts grow steeply as the target rank approaches
    the smallest convergent value from above.
    """
    if I < 2:
        raise ConfigError(f"index size must be at least 2, got {I}")
    if rprimes is None:
        rprimes = list(range(2, I * I + 1))
    if any(not 1 <= r <= I * I for r in rprimes):
        raise ConfigError(f"target ranks must lie in 1..{I * I}")
    grouped = _scan(
        lambda r, s: run_planted(I, r, seed + s, gap_threshold=gap_threshold,
                                 max_iters=max_iters, trace_stride=0)["report"],
        rprimes, seeds, threads,
    )
    rows = []
    for r in rprimes:
        its = [rep.iterations for rep in grouped[r]]
        rows.append(
            {
                "rprime": r,
                "iterations": statistics.median(its),
                "converged": all(rep.converged for rep in grouped[r]),
            }
        )
    out = _out_dir(out_dir)
    if out is not None:
        write_csv(
            out / "iterations.csv",
            ["rprime", "iterations", "converged"],
            [[r["rprime"], r["iterations"], r["converged"]] for r in rows],
        )
    return rows


# ---------------------------------------------------------------------------
# deep plant and recovery


def random_mera_plant(
    I: int,
    S: int,
    arity: int = 2,
    order: int = 12,
    layers: int = 2,
    seed: int = 0,
) -> Mera:
    """Random MERA with orthogonal constituents.

    Layer 1 coarse-grains indices of size ``I``; all further layers work on
    size ``S``.  Isometries and disentanglers come from QR factorizations
    of seeded Gaussian matrices; the top tensor stays plain Gaussian.
    """
    if order < arity**layers:
        raise ConfigError(
            f"{layers} layers of arity {arity} need at least "
            f"{arity**layers} indices, got {order}"
        )
    built = []
    cur_order = order
    for ell in range(1, layers + 1):
        d = I if ell == 1 else S
        if S > d**arity:
            raise ConfigError(
                f"isometry output {S} exceeds fused input {d**arity}"
            )
        dis_pos = disentangler_positions(cur_order, arity)
        iso_pos = isometry_positions(cur_order, arity)
        disentanglers = tuple(
            (p, Disentangler(dims=(d, d),
                             data=random_orthogonal(stream(seed, ell, 0, p),
                                                    d * d)))
            for p in dis_pos
        )
        isometries = tuple(
            (p, Isometry(input_dims=(d,) * arity,
                         data=random_isometry(stream(seed, ell, 1, p),
                                              d**arity, S)))
            for p in iso_pos
        )
        built.append(MeraLayer(isometries=isometries, disentanglers=disentanglers))
        cur_order //= arity
    top = DenseTensor._wrap(
        standard_normal(stream(seed, layers + 1, 0, 0), (S,) * cur_order)
    )
    return Mera(layers=tuple(built), top=top)


def _recovery_targets(m: Mera) -> list[list[int]]:
    """Per-layer disentangler rank goals taken from the plant.

    The goal for layer ``ell`` is the list of internal train ranks of the
    evaluated stack above it: those are the link ranks that remain once
    that layer's entanglement is removed.
    """
    targets = []
    for ell in range(1, len(m.layers) + 1):
        if ell < len(m.layers):
            above = Mera(layers=m.layers[ell:], top=m.top)
            train = mera_to_tt(above)
        else:
            train = tt_svd(m.top, 0.0)
        targets.append([int(r) for r in train.ranks[1:-1]])
    return targets


def run_mera12(
    I: int = 4,
    S: int = 2,
    arity: int = 2,
    order: int = 12,
    layers: int = 2,
    seed: int = 0,
    epsilon: float = 1e-11,
    gap_threshold: float = 1e13,
    max_iters: int = 50_000,
    strategies: Sequence[str] = ("hosvd", "procrustes"),
    out_dir: str | Path | None = None,
) -> dict:
    """Plant a deep MERA, expand it into a train, and recover it.

    The plant is ``random_mera_plant(I, S, arity, order, layers, seed)``;
    the defaults give a desk-sized network, and ``ttmera mera12
    --paper-scale`` runs the paper's.  The expansion, and the plant's rank
    goals, use :func:`mera_to_tt` at its default ``round_eps``.

    Reports the storage of both representations, then reruns the
    train-to-MERA conversion with each requested strategy: the pure SVD
    rotation cannot lower the link ranks and loses essentially all energy
    once the isometry output is forced back to the planted size, while
    the iterative search recovers the plant to within the tolerance.
    Rank goals for the iterative search come from the plant.
    """
    for name, v in (("I", I), ("S", S), ("arity", arity), ("order", order),
                    ("layers", layers)):
        if v < 2 and name != "layers":
            raise ConfigError(f"{name} must be at least 2, got {v}")
    if layers < 1:
        raise ConfigError(f"need at least one layer, got {layers}")
    for strat in strategies:
        if strat not in ("hosvd", "procrustes"):
            raise ConfigError(f"unknown strategy {strat!r}")
    plant = random_mera_plant(I, S, arity, order, layers, seed)
    total = math.prod(plant.input_dims)

    start = time.perf_counter()
    tt = mera_to_tt(plant)
    expand_seconds = time.perf_counter() - start

    reports = [
        _report("tt", expand_seconds, 0.0, tt_storage(tt), total,
                tt.ranks[1:-1]),
        _report("mera", 0.0, 0.0, mera_storage(plant), total,
                [d for layer in plant.layers for d in layer.output_dims],
                {"strategy": "plant"}),
    ]

    targets = _recovery_targets(plant)
    recovered: dict[str, Mera] = {}
    for strat in strategies:
        start = time.perf_counter()
        search = strat == "procrustes"
        m2, _ = tt_to_mera(
            tt,
            arity,
            epsilon,
            layers=layers,
            strategy=strat,
            target_ranks=targets if search else None,
            gap_threshold=gap_threshold,
            max_iters=max_iters,
            max_output_dim=None if search else S,
        )
        elapsed = time.perf_counter() - start
        recovered[strat] = m2
        reports.append(
            _report("mera", elapsed, mera_relative_error(m2, tt),
                    mera_storage(m2), total,
                    [d for layer in m2.layers for d in layer.output_dims],
                    {"strategy": strat})
        )

    out = _out_dir(out_dir)
    if out is not None:
        if "procrustes" in recovered:
            save_mera(out / "recovered.mera", recovered["procrustes"])
        _write_reports(
            out,
            "mera12",
            ["method", "strategy", "elapsed_seconds", "relative_error",
             "storage_count", "compression_ratio", "ranks"],
            reports,
            {"I": I, "S": S, "arity": arity, "order": order, "layers": layers,
             "seed": seed, "epsilon": epsilon, "gap_threshold": gap_threshold,
             "original_entries": total, "tt_ranks": list(tt.ranks),
             "recovery_targets": targets},
        )
    return {
        "plant": plant,
        "train": tt,
        "reports": reports,
        "targets": targets,
        "recovered": recovered,
    }
