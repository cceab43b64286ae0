"""Tensor-train construction, canonical forms, rounding, and interfaces."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    KEPT_GRAM_DIMS,
    count_qr,
    decaying_train,
    forget_kept_gram,
    kept_gram_input,
    random_dense,
    record_scans,
    scan_count,
)
from ttmera.dense import DenseTensor
from ttmera.errors import CapacityError, NumericError
from ttmera.experiments import random_mera_plant
from ttmera.mera import mera_to_tt
from ttmera.rng import standard_normal, stream
from ttmera.train import (
    TensorTrain,
    _chain,
    _tt_svd_sweep,
    interface_matrices,
    merge_cores,
    orthogonalize,
    split_core,
    tt_contract,
    tt_norm,
    tt_round,
    tt_storage,
    tt_svd,
)
from ttmera.tucker import sthosvd_dense, tucker_sweep

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.lists(st.integers(2, 5), min_size=2, max_size=5)


def left_orthonormal(core):
    M = np.reshape(core, (core.shape[0] * core.shape[1], core.shape[2]), order="F")
    return np.allclose(M.T @ M, np.eye(core.shape[2]), atol=1e-12)


def right_orthonormal(core):
    M = np.reshape(core, (core.shape[0], core.shape[1] * core.shape[2]), order="F")
    return np.allclose(M @ M.T, np.eye(core.shape[0]), atol=1e-12)


def assert_canonical(tt):
    """The tag holds: cores left of it left-, right of it right-orthonormal."""
    site = tt.canonical_site
    assert site is not None
    for d in range(1, site):
        assert left_orthonormal(tt.core(d)), (site, d)
    for d in range(site + 1, tt.order + 1):
        assert right_orthonormal(tt.core(d)), (site, d)


class TestConstruction:
    def test_rank_chain_validated(self):
        good = [np.ones((1, 2, 3)), np.ones((3, 2, 1))]
        tt = TensorTrain(good)
        assert tt.ranks == (1, 3, 1)
        assert tt.dims == (2, 2)
        assert tt_storage(tt) == 6 + 6
        with pytest.raises(ValueError, match="rank mismatch"):
            TensorTrain([np.ones((1, 2, 3)), np.ones((2, 2, 1))])
        with pytest.raises(ValueError, match="leading rank"):
            TensorTrain([np.ones((2, 2, 1))])
        with pytest.raises(ValueError, match="trailing rank"):
            TensorTrain([np.ones((1, 2, 2))])

    @pytest.mark.parametrize("cores", [
        [np.zeros((1, 3, 0)), np.zeros((0, 2, 1))],
        [np.zeros((1, 0, 1))],
    ], ids=["rank", "dimension"])
    def test_rejects_empty_axis(self, cores):
        with pytest.raises(ValueError, match="core 1 has an empty axis"):
            TensorTrain(cores)

    def test_rejects_non_finite(self):
        c = np.ones((1, 2, 1))
        c[0, 0, 0] = np.nan
        with pytest.raises(NumericError):
            TensorTrain([c])

    def test_cores_read_only(self):
        tt = TensorTrain([np.ones((1, 2, 1))])
        with pytest.raises(ValueError):
            tt.core(1)[0, 0, 0] = 2.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_rejects_infinite(self, bad):
        c = np.ones((1, 2, 2))
        c[0, 1, 1] = bad
        with pytest.raises(NumericError, match="core 1"):
            TensorTrain([c, np.ones((2, 3, 1))])

    def test_rejects_ragged_core(self):
        with pytest.raises(ValueError):
            TensorTrain([[[[1.0]], [[1.0, 2.0]]]])

    def test_built_trains_are_wrapped_read_only_and_tagged(self, monkeypatch):
        # Every train an operation builds from checked cores is taken over
        # without a finiteness scan; its cores are read-only and its tag is
        # the form the operation guarantees.
        t = random_dense(3, (3, 4, 2, 3))
        plant = random_mera_plant(2, 2, arity=2, order=4, layers=1, seed=3)
        scanned = record_scans(monkeypatch)
        tt = tt_svd(t, 0.0)
        mid = orthogonalize(tt, 2)
        merged = merge_cores(mid, 2)
        built = {
            "tt_svd": (tt, 4),
            "orthogonalize": (mid, 2),
            "tt_round": (tt_round(tt, 1e-2), 4),
            "merge_cores": (merged, 2),
            "split_core": (split_core(merged, 2, 4, 2), 2),
            "tucker_sweep": (tucker_sweep(tt, 0.0)[1], 4),
            "mera_to_tt": (mera_to_tt(plant), 4),
        }
        monkeypatch.undo()
        for name, (out, site) in built.items():
            assert out.canonical_site == site, name
            for c in out.cores:
                assert not c.flags.writeable, name
                assert scan_count(scanned, c) == 0, name
        assert_canonical(built["split_core"][0])
        assert_canonical(built["tucker_sweep"][0])

    def test_rank_one_contract_by_hand(self):
        a = np.array([1.0, 2.0]).reshape(1, 2, 1)
        b = np.array([3.0, 4.0]).reshape(1, 2, 1)
        t = tt_contract(TensorTrain([a, b]))
        # entry (i, j) = a_i * b_j
        np.testing.assert_array_equal(
            t.to_array(), [[3.0, 4.0], [6.0, 8.0]]
        )


class TestTtSvd:
    @settings(max_examples=40, deadline=None)
    @given(SEEDS, DIMS)
    def test_exact_at_zero_epsilon(self, seed, dims):
        t = random_dense(seed, dims)
        tt = tt_svd(t, 0.0)
        assert tt.dims == t.dims
        err = np.linalg.norm(tt_contract(tt).data - t.data)
        assert err <= 1e-12 * t.norm()

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.sampled_from([1e-1, 1e-2]))
    def test_error_within_budget(self, seed, epsilon):
        t = tt_contract(decaying_train(seed, (4, 3, 4, 3)))
        tt = tt_svd(t, epsilon)
        err = np.linalg.norm(tt_contract(tt).data - t.data)
        assert err <= epsilon * t.norm() * (1 + 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.sampled_from([1e-1, 1e-2]))
    def test_discards_add_up_to_the_error(self, seed, epsilon):
        t = tt_contract(decaying_train(seed, (4, 3, 4, 3)))
        tt, discarded, _ = _tt_svd_sweep(t, epsilon)
        err2 = float(np.linalg.norm(tt_contract(tt).data - t.data) ** 2)
        scale = max(err2, 1e-12 * t.norm() ** 2)
        assert abs(err2 - discarded) <= 1e-9 * scale

    def test_recovers_planted_ranks(self):
        planted = decaying_train(5, (3, 4, 3, 4), max_rank=5)
        exact = tt_svd(tt_contract(planted), 0.0)
        assert all(
            r <= p for r, p in zip(exact.ranks, planted.ranks)
        )
        # re-deriving from the exact train is rank-stable
        again = tt_svd(tt_contract(exact), 0.0)
        assert again.ranks == exact.ranks

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            tt_svd(DenseTensor([1.0, 2.0]), -0.1)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-2])
    def test_zero_tensor_refused_for_its_norm(self, epsilon):
        with pytest.raises(ValueError, match="^tensor has zero norm$"):
            tt_svd(DenseTensor(np.zeros((3, 4, 2))), epsilon)

    def test_order_one(self):
        t = DenseTensor([1.0, 2.0, 3.0])
        tt = tt_svd(t, 0.0)
        assert tt.order == 1
        np.testing.assert_allclose(tt_contract(tt).data, t.data)


    @pytest.mark.parametrize("dims", KEPT_GRAM_DIMS, ids=["3-way", "12-way"])
    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("epsilon", [1e-3, 1e-7])
    def test_kept_norm_and_gram_change_no_bit(self, monkeypatch, dims, order, epsilon):
        # The first call on a tensor keeps its norm and leading Gram matrix;
        # a second call, and a call after sthosvd_dense formed them, return
        # the bytes of a call on a copy whose every Gram matrix is formed
        # afresh.
        a = kept_gram_input(dims, order)

        def run(t):
            tt, discarded, bound = _tt_svd_sweep(t, epsilon)
            cores = tt.cores + tt_svd(t, epsilon).cores
            return [x.tobytes() for x in (*cores, np.float64(discarded), np.float64(bound))]

        with monkeypatch.context() as m:
            forget_kept_gram(m)
            fresh = run(DenseTensor(a.copy(order="K")))
        t = DenseTensor(a)
        cold = run(t)
        assert t._gram is not None
        assert run(t) == cold == fresh
        t = DenseTensor(a.copy(order="K"))
        sthosvd_dense(t, epsilon)
        assert run(t) == fresh


class TestCanonicalForms:
    @settings(max_examples=30, deadline=None)
    @given(SEEDS, st.integers(1, 4))
    def test_orthogonalize_structure(self, seed, site):
        tt = decaying_train(seed, (3, 4, 2, 3))
        ortho = orthogonalize(tt, site)
        assert ortho.canonical_site == site
        for d in range(1, site):
            assert left_orthonormal(ortho.core(d))
        for d in range(site + 1, ortho.order + 1):
            assert right_orthonormal(ortho.core(d))
        ref = tt_contract(tt)
        np.testing.assert_allclose(
            tt_contract(ortho).data, ref.data, atol=1e-12 * ref.norm()
        )
        # norm concentrates in the canonical core
        assert np.linalg.norm(ortho.core(site).ravel()) == pytest.approx(
            ref.norm(), rel=1e-12
        )

    @settings(max_examples=30, deadline=None)
    @given(SEEDS, st.sampled_from([(3, 2, 4, 3), (5,), (2, 3, 2, 3, 2)]))
    def test_norm_matches_dense(self, seed, dims):
        # An untagged train's norm is its R-only sweep, exact to rounding.
        tt = decaying_train(seed, dims)
        assert tt.canonical_site is None
        ref = np.linalg.norm(tt_contract(tt).data)
        assert abs(tt_norm(tt) - ref) <= 1e-14 * ref

    def test_untagged_norm_forms_r_factors_only(self, monkeypatch):
        # One R-only QR per core, no Q and no sign-fixed thin QR.
        tt = decaying_train(5, (3, 4, 2, 3, 2))
        modes = []
        real = np.linalg.qr

        def recorded(a, mode="reduced"):
            modes.append(mode)
            return real(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", recorded)
        calls = count_qr(monkeypatch)
        tt_norm(tt)
        assert modes == ["r"] * tt.order
        assert calls == []

    def test_moves_centre_from_tag(self, monkeypatch):
        # From every tagged site to every target, only the cores in between
        # take a QR step; an untagged train is swept whole.  The result is
        # canonical at the target either way.
        base = decaying_train(3, (3, 4, 2, 3, 2))
        D = base.order
        ref = tt_contract(base)
        calls = count_qr(monkeypatch)
        for s in [None, *range(1, D + 1)]:
            tagged = base if s is None else orthogonalize(base, s)
            for d in range(1, D + 1):
                calls.clear()
                moved = orthogonalize(tagged, d)
                assert len(calls) == (D - 1 if s is None else abs(s - d)), (s, d)
                assert moved.canonical_site == d
                assert_canonical(moved)
                np.testing.assert_allclose(
                    tt_contract(moved).data, ref.data, atol=1e-12 * ref.norm()
                )

    def test_site_validated(self):
        tt = decaying_train(0, (2, 3, 2))
        with pytest.raises(ValueError):
            orthogonalize(tt, 0)
        with pytest.raises(ValueError):
            orthogonalize(tt, 4)


class TestRounding:
    @settings(max_examples=30, deadline=None)
    @given(SEEDS, st.sampled_from([1e-1, 1e-3]))
    def test_error_and_rank_monotonicity(self, seed, epsilon):
        tt = decaying_train(seed, (4, 3, 4, 3), max_rank=8)
        rounded = tt_round(tt, epsilon)
        assert all(a <= b for a, b in zip(rounded.ranks, tt.ranks))
        err = np.linalg.norm(
            tt_contract(rounded).data - tt_contract(tt).data
        )
        assert err <= epsilon * tt_norm(tt) * (1 + 1e-12)
        assert rounded.canonical_site == rounded.order

    def test_zero_epsilon_strips_inflated_ranks(self):
        # pad a rank-1 train with zero blocks; rounding must find rank 1
        a = np.zeros((1, 3, 4))
        b = np.zeros((4, 3, 1))
        a[0, :, 0] = [1.0, 2.0, 3.0]
        b[0, :, 0] = [1.0, 1.0, 2.0]
        padded = TensorTrain([a, b])
        rounded = tt_round(padded, 0.0)
        assert rounded.ranks == (1, 1, 1)
        np.testing.assert_allclose(
            tt_contract(rounded).data, tt_contract(padded).data, atol=1e-13
        )

    def test_overlarge_epsilon_rejected(self):
        tt = decaying_train(1, (3, 3, 3))
        with pytest.raises(ValueError, match="fully truncated"):
            tt_round(tt, 1e6)


class TestMergeSplit:
    @settings(max_examples=30, deadline=None)
    @given(SEEDS, st.integers(1, 3), st.integers(1, 4))
    def test_round_trip(self, seed, d, site):
        tt = tt_svd(tt_contract(decaying_train(seed, (3, 2, 4, 2))), 0.0)
        tt = orthogonalize(tt, site)
        merged = merge_cores(tt, d)
        assert merged.canonical_site == (site if site <= d else site - 1)
        assert_canonical(merged)
        assert merged.order == tt.order - 1
        assert merged.dims[d - 1] == tt.dims[d - 1] * tt.dims[d]
        np.testing.assert_allclose(
            tt_contract(merged).data, tt_contract(tt).data, atol=1e-12
        )
        back = split_core(merged, d, tt.dims[d - 1], tt.dims[d])
        assert back.dims == tt.dims
        assert back.ranks == tt.ranks
        np.testing.assert_allclose(
            tt_contract(back).data, tt_contract(tt).data, atol=1e-11
        )
        assert right_orthonormal(back.core(d + 1))
        if merged.canonical_site == d:
            assert back.canonical_site == d
            assert_canonical(back)
        else:
            assert back.canonical_site is None

    def test_split_factor_side(self):
        tt = merge_cores(decaying_train(4, (3, 3, 2)), 1)
        right_train = split_core(tt, 1, 3, 3)
        assert right_orthonormal(right_train.core(2))
        assert right_train.canonical_site is None
        # splitting the canonical centre keeps it on the left new core
        centred = orthogonalize(tt, 1)
        right_train = split_core(centred, 1, 3, 3)
        assert right_train.canonical_site == 1
        assert_canonical(right_train)

    def test_lossless_split_of_wide_rank_deficient_core(self):
        # A (2*3) x (4*10) matricization of rank 4 whose kept singular values
        # span ten decades: normalizing a projection by sigma would leave
        # the right core orthonormal only to about 1e-6.
        rng = np.random.default_rng(5)
        U = np.linalg.qr(rng.standard_normal((6, 4)))[0]
        V = np.linalg.qr(rng.standard_normal((40, 4)))[0]
        M = (U * np.logspace(0, -10, 4)) @ V.T
        core = np.reshape(M, (2, 12, 10), order="F")
        tt = TensorTrain([np.ones((1, 2, 2)), core, np.ones((10, 3, 1))])
        back = split_core(tt, 2, 3, 4)
        assert back.ranks == (1, 2, 4, 10, 1)
        right = np.reshape(back.core(3), (4, 40), order="F")
        assert np.max(np.abs(right @ right.T - np.eye(4))) <= 1e-12
        rebuilt = merge_cores(back, 2).core(2)
        assert np.max(np.abs(rebuilt - core)) <= 1e-12 * np.max(np.abs(core))

    def test_split_shape_validated(self):
        tt = merge_cores(decaying_train(4, (3, 3, 2)), 1)
        with pytest.raises(ValueError, match="does not match"):
            split_core(tt, 1, 4, 3)

    def test_merge_position_validated(self):
        tt = decaying_train(0, (2, 2))
        with pytest.raises(ValueError):
            merge_cores(tt, 2)

    def test_merge_capacity_guarded(self):
        # Cores of at most 10,100 entries whose fused middle core would be
        # (101, 10000, 101), 1.03e8 entries: refused before any allocation.
        tt = TensorTrain([
            np.ones((1, 1, 101)),
            np.ones((101, 100, 1)),
            np.ones((1, 100, 101)),
            np.ones((101, 1, 1)),
        ])
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="budget"):
                merge_cores(tt, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _tensordot_chain(cores):
    """Reference chain: pairwise ``np.tensordot`` and a Fortran reshape."""
    T = cores[0]
    for c in cores[1:]:
        T = np.tensordot(T, c, axes=([2], [0]))
        r, n, m, s = T.shape
        T = np.reshape(T, (r, n * m, s), order="F")
    return T


class TestChain:
    @settings(max_examples=40, deadline=None)
    @given(
        SEEDS,
        st.lists(st.integers(1, 4), min_size=2, max_size=5),
        st.sampled_from(["F", "C", "reversed C"]),
        st.data(),
    )
    def test_matches_tensordot_in_fortran_order(self, seed, dims, layout, data):
        ranks = data.draw(st.lists(st.integers(1, 5), min_size=len(dims) + 1,
                                   max_size=len(dims) + 1))
        cores = [
            standard_normal(stream(seed, d), (ranks[d], n, ranks[d + 1]))
            for d, n in enumerate(dims)
        ]
        if layout == "F":
            cores = [np.asfortranarray(c) for c in cores]
        else:
            cores = [np.ascontiguousarray(c) for c in cores]
        if layout == "reversed C":
            # The views a C-ordered input's reversed train is read through.
            cores = [c.transpose(2, 1, 0) for c in reversed(cores)]
        out = _chain(cores)
        ref = _tensordot_chain(cores)
        assert out.flags.f_contiguous
        assert out.shape == ref.shape
        np.testing.assert_allclose(
            out, ref, rtol=0, atol=1e-13 * max(1.0, np.abs(ref).max())
        )

    def test_one_core_comes_back_unchanged(self):
        core = standard_normal(stream(1), (2, 3, 4))
        assert _chain([core]) is core

    def test_empty_run_is_unit(self):
        unit = _chain([])
        assert unit.shape == (1, 1, 1)
        assert unit[0, 0, 0] == 1.0


class TestInterfaces:
    @settings(max_examples=30, deadline=None)
    @given(SEEDS, st.integers(1, 4))
    def test_unfolding_factorization(self, seed, d):
        tt = decaying_train(seed, (3, 2, 4, 3))
        t = tt_contract(tt)
        iface = interface_matrices(tt, d)
        product = iface.center @ np.kron(iface.right, iface.left)
        np.testing.assert_allclose(product, t.unfold(d), atol=1e-11)

    @settings(max_examples=20, deadline=None)
    @given(SEEDS, st.integers(1, 4))
    def test_canonical_interfaces_orthonormal(self, seed, d):
        tt = orthogonalize(
            tt_svd(tt_contract(decaying_train(seed, (3, 2, 4, 3))), 0.0), d
        )
        iface = interface_matrices(tt, d)
        # left interface has orthonormal rows, right likewise
        np.testing.assert_allclose(
            iface.left @ iface.left.T, np.eye(iface.left.shape[0]), atol=1e-11
        )
        np.testing.assert_allclose(
            iface.right @ iface.right.T, np.eye(iface.right.shape[0]), atol=1e-11
        )

    def test_boundary_interfaces_are_unit(self):
        tt = decaying_train(2, (3, 2, 3))
        assert interface_matrices(tt, 1).left.shape == (1, 1)
        assert interface_matrices(tt, 3).right.shape == (1, 1)

    def test_site_validated(self):
        tt = decaying_train(2, (3, 2))
        with pytest.raises(ValueError):
            interface_matrices(tt, 3)
