"""Self-test of the benchmark's checks: each passes on a good result and
fails on a corrupted one.

    python3 perfbench/selftest.py

Good results come from small runs of the same ttmera functions the
workloads time; corrupted ones perturb a core, break orthogonality, change
a rank or misreport a number.  Exits non-zero if any check accepts a
corrupted result or rejects a good one.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

import numpy as np

import reference as ref
from workloads import import_package

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def perturbed(cores, k, scale=1e-2):
    out = [np.array(c) for c in cores]
    out[k].flat[0] += scale * ref.fro(out[k])
    return out


def not_orthonormal(U):
    U = np.array(U)
    U[:, 0] *= 1.001
    return U


def with_constituent(m, layer, kind, pos, data):
    """Copy of MERA ``m`` with one constituent's data replaced."""
    layers = []
    for ell, lay in enumerate(m.layers):
        dis = list(lay.disentanglers)
        iso = list(lay.isometries)
        if ell == layer:
            group = dis if kind == "dis" else iso
            for k, (p, obj) in enumerate(group):
                if p == pos:
                    fields = dict(vars(obj))
                    fields["data"] = data
                    if kind == "iso":
                        fields["output_dim"] = data.shape[1]
                    group[k] = (p, SimpleNamespace(**fields))
        layers.append(SimpleNamespace(input_arity=lay.input_arity,
                                      isometries=tuple(iso), disentanglers=tuple(dis)))
    return SimpleNamespace(layers=tuple(layers), top=m.top)


def with_top(m, scale=1e-3):
    top = np.array(m.top.to_array())
    top.flat[0] += scale * ref.fro(top)
    return SimpleNamespace(layers=m.layers, top=SimpleNamespace(to_array=lambda: top,
                                                                order=top.ndim))


# ---------------------------------------------------------------------------


@case
def bits(tm):
    a = np.random.default_rng(0).standard_normal((7, 5, 3))
    d = ref.digest(a)
    yield "equal", lambda: ref.check_bits_equal(d, a.copy()), True
    b = a.copy()
    b.view(np.uint64)[3, 2, 1] ^= 1
    yield "one bit flipped", lambda: ref.check_bits_equal(d, b), False


def small_heat(tm):
    return tm.heat.solve_heat(tm.heat.HeatConfig(ds=0.05, t_end=0.02))


@case
def train_error(tm):
    t = small_heat(tm)
    a, n = t.to_array(), ref.fro(t.to_array())
    tt = tm.tt_svd(t, 1e-3)
    yield "tt_svd", lambda: ref.check_relative_error(
        ref.train_error(a, tt.cores), n, 1e-3, "tt"), True
    bad = perturbed(tt.cores, 1)
    yield "perturbed core", lambda: ref.check_relative_error(
        ref.train_error(a, bad), n, 1e-3, "tt"), False


@case
def tucker_error(tm):
    t = tm.heat.reshape_to_factors(small_heat(tm))
    a, n = t.to_array(), ref.fro(t.to_array())
    factors, core, _ = tm.sthosvd_dense(t, 1e-5)
    c = core.to_array()
    yield "sthosvd", lambda: ref.check_relative_error(
        ref.tucker_error(a, factors, c), n, 1e-5, "st"), True
    bad = np.array(c)
    bad.flat[0] += 1e-3 * ref.fro(c)
    yield "perturbed core", lambda: ref.check_relative_error(
        ref.tucker_error(a, factors, bad), n, 1e-5, "st"), False
    yield "factors orthonormal", lambda: ref.check_orthonormal_columns(factors, "U"), True
    bad_f = [not_orthonormal(factors[0])] + list(factors[1:])
    yield "non-orthogonal factor", lambda: ref.check_orthonormal_columns(bad_f, "U"), False


@case
def conversion(tm):
    t = small_heat(tm)
    tt = tm.tt_svd(t, 1e-4)
    tk = tm.tt_to_hosvd(tt, 1e-3)
    cores = tk.core.cores
    args = (tt.cores, tk.factors)
    yield "tt_to_hosvd", lambda: ref.check_conversion(
        *args, cores, tk.mode_discarded, 1e-3), True
    yield "perturbed core", lambda: ref.check_conversion(
        *args, perturbed(cores, 1, 1e-4), tk.mode_discarded, 1e-3), False
    yield "misreported discards", lambda: ref.check_conversion(
        *args, cores, 2 * tk.mode_discarded, 1e-3), False
    yield "error above budget", lambda: ref.check_conversion(
        *args, cores, tk.mode_discarded, 1e-6), False


@case
def planted(tm):
    plant = tm.experiments.planted_pair_tensor(4, 4, 0)
    t = plant["tensor"].to_array()
    V = plant["entangler"].T
    yield "true disentangler", lambda: ref.check_planted(t, V, 4, 4), True
    yield "identity (rank not lowered)", lambda: ref.check_planted(
        t, np.eye(16), 4, 4), False
    yield "wrong planted rank", lambda: ref.check_planted(t, V, 3, 3), False
    yield "misreported rank", lambda: ref.check_planted(t, V, 4, 5), False
    yield "non-orthogonal", lambda: ref.check_planted(t, not_orthonormal(V), 4, 4), False


@case
def deep(tm):
    plant = tm.experiments.random_mera_plant(3, 2, order=8, seed=0)
    tt = tm.mera_to_tt(plant)
    full = ref.train_dense(tt.cores)
    yield "train against plant", lambda: ref.check_dense_match(
        full, ref.mera_dense(plant), 1e-11, "deep"), True
    yield "perturbed top", lambda: ref.check_dense_match(
        full, ref.mera_dense(with_top(plant)), 1e-11, "deep"), False
    other = np.linalg.qr(np.random.default_rng(1).standard_normal((9, 2)))[0]
    swapped = with_constituent(plant, 0, "iso", 1, other)
    yield "other isometry", lambda: ref.check_dense_match(
        full, ref.mera_dense(swapped), 1e-11, "deep"), False
    yield "perturbed core", lambda: ref.check_dense_match(
        ref.train_dense(perturbed(tt.cores, 3)), ref.mera_dense(plant), 1e-11,
        "deep"), False
    yield "constituents orthogonal", lambda: ref.check_mera_constituents(plant), True
    pos, dis = plant.layers[0].disentanglers[0]
    bent = with_constituent(plant, 0, "dis", pos, not_orthonormal(dis.data))
    yield "non-orthogonal disentangler", lambda: ref.check_mera_constituents(bent), False
    pos, iso = plant.layers[1].isometries[0]
    bent = with_constituent(plant, 1, "iso", pos, not_orthonormal(iso.data))
    yield "non-orthogonal isometry", lambda: ref.check_mera_constituents(bent), False


@case
def roundtrip(tm):
    plant = tm.experiments.random_mera_plant(3, 2, seed=0)
    tt = tm.mera_to_tt(plant)
    norm = ref.fro(plant.top.to_array())
    yield "link ranks", lambda: ref.check_ranks(tt.cores, ref.plant_ranks(3, 2), "t"), True
    padded = [np.array(c) for c in tt.cores]
    padded[4] = np.concatenate([padded[4], np.zeros(padded[4].shape[:2] + (1,))], axis=2)
    padded[5] = np.concatenate([padded[5], np.zeros((1,) + padded[5].shape[1:])], axis=0)
    yield "wrong rank", lambda: ref.check_ranks(padded, ref.plant_ranks(3, 2), "t"), False
    yield "norm equals top", lambda: ref.check_norm(tt.cores, norm, "t"), True
    yield "perturbed core", lambda: ref.check_norm(perturbed(tt.cores, 6), norm, "t"), False
    m, _ = tm.tt_to_mera(tt, 2, 1e-6, layers=2, strategy="hosvd", max_output_dim=2)
    yield "capped storage", lambda: ref.check_capped(m, 2), True
    pos, iso = m.layers[0].isometries[0]
    wider = np.linalg.qr(np.random.default_rng(2).standard_normal((9, 3)))[0]
    yield "wrong isometry output", lambda: ref.check_capped(
        with_constituent(m, 0, "iso", pos, wider), 2), False
    err = tm.mera_relative_error(m, tt)
    own = ref.mera_error_by_projection(m, tt.cores)
    yield "reported error", lambda: ref.check_reported_error(err, own), True
    yield "misreported error", lambda: ref.check_reported_error(err * 1.001, own), False
    yield "perturbed top", lambda: ref.check_reported_error(
        err, ref.mera_error_by_projection(with_top(m, 1e-2), tt.cores)), False


def main():
    tm = import_package()
    misses = 0
    for fn in CASES:
        for label, check, should_pass in fn(tm):
            try:
                check()
                passed = True
            except ref.CheckFailed:
                passed = False
            ok = passed == should_pass
            misses += not ok
            verdict = "passes" if passed else "fails"
            print(f"{'ok  ' if ok else 'MISS'} {fn.__name__}: {label}: {verdict}")
    print(f"{misses} of the checks behaved wrongly" if misses else "every check behaved")
    sys.exit(1 if misses else 0)


if __name__ == "__main__":
    main()
