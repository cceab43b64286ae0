"""Per-layer tracing of the ttmera package, installed from outside ``src/``.

:class:`Tracer` wraps a fixed set of public functions.  Each module that
imported a traced function under its own name gets the wrapper in that
binding, so calls between modules are seen too; ``DenseTensor.mode_product``
is wrapped on the class.  A layer is the module a function is defined in.

Per call the wrapper records wall time, self time (wall time minus the time
of the wrapped calls it makes), and the peak of ``tracemalloc``'s traced
memory above the level at entry; NumPy reports its array buffers to
``tracemalloc``, so the peak covers them.  Spans stay in memory and are
summarised once the traced round ends.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
import types

MB = 1024.0 * 1024.0

# (module, function) pairs that get a wrapper, layer = module.
TRACED = (
    ("kernels", "svd_trunc"),
    ("kernels", "svd_full"),
    ("kernels", "qr_thin"),
    ("kernels", "procrustes_solve"),
    ("train", "tt_svd"),
    ("train", "orthogonalize"),
    ("train", "merge_cores"),
    ("train", "split_core"),
    ("train", "tt_round"),
    ("tucker", "tt_to_hosvd"),
    ("tucker", "tucker_sweep"),
    ("tucker", "sthosvd_dense"),
    ("mera", "find_disentangler"),
    ("mera", "tt_to_mera"),
    ("mera", "mera_to_tt"),
    ("mera", "mera_relative_error"),
    ("experiments", "run_planted"),
    ("experiments", "run_mera12"),
    ("formats", "load_tensor"),
    ("heat", "solve_heat"),
    ("heat", "reshape_to_factors"),
)

# Per-layer metrics reported from a traced run: (name, unit).  The first
# part of each name is the layer, the second the traced function.
PER_LAYER = (
    ("kernels.svd_trunc.calls", "count"),
    ("kernels.svd_trunc.s", "s"),
    ("kernels.svd_trunc.gflop", "GFLOP"),
    ("kernels.svd_full.calls", "count"),
    ("kernels.svd_full.s", "s"),
    ("kernels.svd_full.peak_alloc_mb", "MB"),
    ("kernels.qr_thin.calls", "count"),
    ("kernels.qr_thin.s", "s"),
    ("kernels.procrustes_solve.calls", "count"),
    ("kernels.procrustes_solve.s", "s"),
    ("dense.mode_product.calls", "count"),
    ("dense.mode_product.s", "s"),
    ("train.tt_svd.s", "s"),
    ("train.orthogonalize.calls", "count"),
    ("train.orthogonalize.s", "s"),
    ("train.merge_cores.calls", "count"),
    ("train.merge_cores.s", "s"),
    ("train.split_core.calls", "count"),
    ("train.split_core.s", "s"),
    ("train.tt_round.calls", "count"),
    ("train.tt_round.s", "s"),
    ("tucker.tt_to_hosvd.s", "s"),
    ("tucker.tt_to_hosvd.entries", "entries"),
    ("tucker.tucker_sweep.calls", "count"),
    ("tucker.tucker_sweep.s", "s"),
    ("tucker.sthosvd_dense.s", "s"),
    ("tucker.sthosvd_dense.peak_alloc_mb", "MB"),
    ("mera.find_disentangler.calls", "count"),
    ("mera.find_disentangler.s", "s"),
    ("mera.find_disentangler.iterations", "count"),
    ("mera.find_disentangler.ms_per_iteration", "ms"),
    ("mera.find_disentangler.unconverged", "count"),
    ("mera.tt_to_mera.s", "s"),
    ("mera.mera_to_tt.s", "s"),
    ("mera.mera_to_tt.peak_alloc_mb", "MB"),
    ("mera.mera_relative_error.s", "s"),
    ("experiments.run_planted.s", "s"),
    ("experiments.run_mera12.s", "s"),
    ("formats.load_tensor.s", "s"),
    ("formats.load_tensor.peak_alloc_mb", "MB"),
    ("heat.solve_heat.s", "s"),
    ("heat.reshape_to_factors.s", "s"),
    ("trace.overhead_s", "s"),
)


def svd_flops(shape) -> float:
    """Computed FLOPs of a thin SVD with both factors (R-SVD count,
    ``6 p q^2 + 20 q^3`` for a ``p x q`` matrix with ``p >= q``)."""
    p, q = max(shape), min(shape)
    return 6.0 * p * q * q + 20.0 * q**3


class _Stat:
    __slots__ = ("calls", "wall", "self_time", "peak", "extra", "callers")

    def __init__(self):
        self.calls = 0
        self.wall = 0.0
        self.self_time = 0.0
        self.peak = 0.0
        self.extra = {}
        self.callers = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


class _Frame:
    __slots__ = ("key", "child", "base", "peak")

    def __init__(self, key, base):
        self.key = key
        self.child = 0.0
        self.base = base
        self.peak = base


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, package):
        self.package = package
        self.stats = {}
        self._stack = []
        self._restore = []

    # -- installation ----------------------------------------------------

    def __enter__(self):
        tracemalloc.start()
        self._stack[:] = [_Frame("workload", tracemalloc.get_traced_memory()[0])]
        wrappers = {}
        for mod_name, fn_name in TRACED:
            fn = getattr(sys.modules[f"{self.package.__name__}.{mod_name}"], fn_name)
            wrappers[fn] = self._wrap(fn, f"{mod_name}.{fn_name}")
        prefix = self.package.__name__ + "."
        for name, mod in list(sys.modules.items()):
            if name != self.package.__name__ and not name.startswith(prefix):
                continue
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        dense_cls = self.package.dense.DenseTensor
        method = dense_cls.mode_product
        self._restore.append((dense_cls, "mode_product", method))
        dense_cls.mode_product = self._wrap(method, "dense.mode_product")
        return self

    def __exit__(self, *exc):
        tracemalloc.stop()
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()
        return False

    def _wrap(self, fn, key):
        stat = self.stats.setdefault(key, _Stat())
        frames = self._stack
        observe = _OBSERVERS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = frames[-1]
            cur, peak = tracemalloc.get_traced_memory()
            parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            frame = _Frame(key, cur)
            frames.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                frames.pop()
                frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
                parent.peak = max(parent.peak, frame.peak)
                parent.child += elapsed
                stat.calls += 1
                stat.wall += elapsed
                stat.self_time += elapsed - frame.child
                stat.peak = max(stat.peak, (frame.peak - frame.base) / MB)
                stat.callers[parent.key] = stat.callers.get(parent.key, 0.0) + elapsed
            if observe is not None:
                observe(stat, args, kwargs, result)
            return result

        return wrapper

    # -- summary -----------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric, zero where the layer did no such work."""
        out = {}
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                value = overhead_s
            else:
                layer, fn, what = name.split(".")
                st = self.stats.get(f"{layer}.{fn}", _Stat())
                if what == "calls":
                    value = st.calls
                elif what == "s":
                    value = st.self_time
                elif what == "peak_alloc_mb":
                    value = st.peak
                elif what == "ms_per_iteration":
                    its = st.extra.get("iterations", 0)
                    value = 1e3 * st.wall / its if its else 0.0
                else:
                    value = st.extra.get(what, 0)
            out[name] = {"value": value, "unit": unit}
        return out

    def layer_seconds(self) -> dict:
        """Self time summed per layer, for the share table."""
        shares = {}
        for key, st in self.stats.items():
            layer = key.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + st.self_time
        return shares

    def spans(self) -> dict:
        return {k: {"calls": s.calls, "wall_s": s.wall, "self_s": s.self_time,
                    "peak_alloc_mb": s.peak, **s.extra, "wall_s_by_caller": s.callers}
                for k, s in sorted(self.stats.items())}


def _obs_svd_trunc(stat, args, kwargs, result):
    M = args[0] if args else kwargs["M"]
    stat.add("gflop", svd_flops(M.shape) / 1e9)


def _obs_find_disentangler(stat, args, kwargs, result):
    report = result[2]
    stat.add("iterations", report.iterations)
    stat.add("unconverged", 0 if report.converged else 1)


def _obs_tt_to_hosvd(stat, args, kwargs, result):
    stat.add("entries", result.storage_count)


_OBSERVERS = {
    "kernels.svd_trunc": _obs_svd_trunc,
    "mera.find_disentangler": _obs_find_disentangler,
    "tucker.tt_to_hosvd": _obs_tt_to_hosvd,
}
