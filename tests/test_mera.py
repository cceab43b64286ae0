"""MERA structures, the shuffle bookkeeping, disentangler search, and the
train/MERA conversions in both directions."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ttmera.mera
from conftest import (
    count_qr,
    decaying_train,
    record_scans,
    record_searches,
    scan_count,
    sign_fixed_procrustes,
)
from ttmera.dense import DenseTensor, _fold
from ttmera.errors import NumericError
from ttmera.experiments import planted_pair_tensor, random_mera_plant, run_mera12
from ttmera.kernels import svd_full, svd_trunc
from ttmera.mera import (
    Disentangler,
    Isometry,
    Mera,
    MeraLayer,
    _gate_bound,
    _hosvd_disentangler,
    _inner_split,
    _mix_gate,
    _stored_bond,
    _tt_diff_norm,
    disentangler_positions,
    find_disentangler,
    isometry_positions,
    mera_relative_error,
    mera_storage,
    mera_to_tt,
    shuf,
    tt_to_mera,
)
from ttmera.rng import random_isometry, random_orthogonal, standard_normal, stream
from ttmera.train import (
    TensorTrain,
    _chain,
    merge_cores,
    orthogonalize,
    tt_contract,
    tt_norm,
    tt_svd,
)

SEEDS = st.integers(0, 2**32 - 1)


def planted_supercore(I, rprime, seed):
    plant = planted_pair_tensor(I, rprime, seed)
    tt = tt_svd(plant["tensor"], 0.0)
    sc = merge_cores(orthogonalize(tt, 2), 2).core(2)
    return plant, DenseTensor(sc)


class TestPositions:
    def test_brick_pattern_order_12(self):
        assert disentangler_positions(12, 2) == [2, 4, 6, 8, 10]
        assert isometry_positions(12, 2) == [1, 3, 5, 7, 9, 11]

    def test_brick_pattern_arity_3(self):
        assert disentangler_positions(9, 3) == [3, 6]
        assert isometry_positions(9, 3) == [1, 4, 7]

    def test_rejects_indivisible_order(self):
        with pytest.raises(ValueError, match="divisible"):
            disentangler_positions(7, 2)
        with pytest.raises(ValueError, match="arity"):
            isometry_positions(4, 1)


class TestShuf:
    @settings(max_examples=150, deadline=None)
    @given(
        SEEDS,
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    def test_round_trip(self, seed, rl, il, ir, rr):
        sc = DenseTensor(standard_normal(stream(seed), (rl, il * ir, rr)))
        A = shuf(sc, (il, ir))
        assert A.shape == (il * ir, rl * rr)
        back = _fold(A, 1, (rl, il * ir, rr))
        np.testing.assert_array_equal(back, sc.to_array())

    def test_shuf_is_entry_reshuffle(self):
        sc = DenseTensor(standard_normal(stream(3), (2, 6, 2)))
        A = shuf(sc, (2, 3))
        assert sorted(A.ravel()) == sorted(sc.data)

    def test_split_validated(self):
        sc = DenseTensor(standard_normal(stream(0), (2, 6, 2)))
        with pytest.raises(ValueError, match="split"):
            shuf(sc, (2, 2))
        with pytest.raises(ValueError, match="supercore must have 3 modes"):
            shuf(DenseTensor(np.ones((2, 4))), (2, 2))


class TestConstituents:
    def test_isometry_requires_orthonormal_columns(self):
        W = random_isometry(stream(0), 9, 3)
        iso = Isometry(input_dims=(3, 3), data=W)
        assert iso.output_dim == 3
        with pytest.raises(ValueError, match="orthonormal"):
            Isometry(input_dims=(3, 3), data=W * 1.01)
        with pytest.raises(ValueError, match="exceeds"):
            Isometry(input_dims=(2, 2), data=np.zeros((4, 5)))
        with pytest.raises(ValueError, match="rows"):
            Isometry(input_dims=(2, 2), data=W)

    def test_sizes_below_one_rejected(self):
        with pytest.raises(ValueError, match="isometry sizes must be positive"):
            Isometry(input_dims=(2, 2), data=np.zeros((4, 0)))
        with pytest.raises(ValueError, match="isometry sizes must be positive"):
            Isometry(input_dims=(-2, -2), data=random_isometry(stream(0), 4, 2))
        with pytest.raises(ValueError, match="disentangler dims must be"):
            Disentangler(dims=(2, 0), data=np.zeros((0, 0)))

    def test_nonfinite_constituents_rejected(self):
        # NaN compares false against the orthonormality tolerance
        with pytest.raises(NumericError, match="non-finite"):
            Isometry(input_dims=(2, 2), data=np.full((4, 2), np.nan))
        Q = random_orthogonal(stream(1), 4)
        Q[1, 2] = np.inf
        with pytest.raises(NumericError, match="non-finite"):
            Disentangler(dims=(2, 2), data=Q)

    def test_disentangler_requires_orthogonal(self):
        Q = random_orthogonal(stream(1), 6)
        Disentangler(dims=(2, 3), data=Q)
        with pytest.raises(ValueError, match="orthogonal"):
            Disentangler(dims=(2, 3), data=Q + 0.01)

    def test_layer_coverage_validated(self):
        iso = Isometry(input_dims=(2, 2), data=random_isometry(stream(2), 4, 2))
        layer = MeraLayer(isometries=((1, iso), (3, iso)), disentanglers=())
        assert layer.input_arity == 4
        with pytest.raises(ValueError, match="coverage gap"):
            MeraLayer(isometries=((1, iso), (4, iso)), disentanglers=())
        with pytest.raises(ValueError, match="straddle"):
            MeraLayer(
                isometries=((1, iso), (3, iso)),
                disentanglers=(
                    (1, Disentangler(dims=(2, 2), data=np.eye(4))),
                ),
            )
        with pytest.raises(ValueError, match="does not fit"):
            MeraLayer(
                isometries=((1, iso), (3, iso)),
                disentanglers=((2, Disentangler(dims=(4, 1), data=np.eye(4))),),
            )

    def test_mera_arity_chain_validated(self):
        plant = random_mera_plant(2, 2, arity=2, order=8, layers=2, seed=0)
        with pytest.raises(ValueError, match="top tensor order"):
            Mera(layers=plant.layers, top=DenseTensor(np.zeros((2, 2, 2))))

    def test_mera_layer_dims_chain_validated(self):
        # Six outputs of size 2 cannot feed six inputs of size 3, though
        # the arities match.
        below = random_mera_plant(4, 2, seed=0)
        above = random_mera_plant(3, 2, order=6, layers=1, seed=1)
        match = r"layer 2 takes dims \(3(, 3){5}\), but layer 1 puts out \(2(, 2){5}\)"
        with pytest.raises(ValueError, match=match):
            Mera((below.layers[0], above.layers[0]), above.top)

    def test_mera_top_dims_validated(self):
        # Three indices of size 3 on a network that puts out three of size 2.
        plant = random_mera_plant(4, 2)
        match = r"dims \(3, 3, 3\), does not match layer 2's outgoing dims \(2, 2, 2\)"
        with pytest.raises(ValueError, match=match):
            Mera(plant.layers, DenseTensor(np.ones((3, 3, 3))))

    def test_input_dims(self):
        plant = random_mera_plant(3, 2, arity=2, order=8, layers=1, seed=0)
        assert plant.input_dims == (3,) * 8


def shuf_4way(M, rl, il, ir, rr):
    """From ``(R_l I_l, I_r R_r)`` to ``(I_l I_r, R_l R_r)`` through the
    4-way view of the supercore."""
    T = np.reshape(M, (rl, il, ir, rr), order="F")
    return np.reshape(T.transpose(1, 2, 0, 3), (il * ir, rl * rr), order="F")


def shuf_inv_4way(A, rl, il, ir, rr):
    """From ``(I_l I_r, R_l R_r)`` back to ``(R_l I_l, I_r R_r)``."""
    T = np.reshape(A, (il, ir, rl, rr), order="F")
    return np.reshape(T.transpose(2, 0, 1, 3), (rl * il, ir * rr), order="F")


def sign_fixed_search(supercore, split, target_rank, max_iters):
    """The disentangler search transcribed with a sign-fixed Procrustes
    solve at every iteration and its own 4-way shuffles: ``(V, transformed
    core, iterations, gap)``."""
    rl, n, rr = supercore.dims
    il, ir = split
    M = np.reshape(supercore.to_array(), (rl * il, ir * rr), order="F")
    A0 = shuf_4way(M, rl, il, ir, rr)
    V = np.eye(il * ir)
    iterations = 0
    while True:
        U, s, Wt = np.linalg.svd(M, full_matrices=False)
        r = target_rank
        gap = math.inf if r >= s.size or s[r] == 0.0 else float(s[r - 1] / s[r])
        if gap >= 1e12 or iterations >= max_iters:
            break
        iterations += 1
        reference = U[:, :r] @ (s[:r, None] * Wt[:r])
        A = shuf_4way(M, rl, il, ir, rr)
        Vhat = sign_fixed_procrustes(A, shuf_4way(reference, rl, il, ir, rr))
        M = shuf_inv_4way(Vhat @ A, rl, il, ir, rr)
        V = Vhat @ V
    P, _, Qt = svd_full(V)
    V = P @ Qt
    M = shuf_inv_4way(V @ A0, rl, il, ir, rr)
    return V, np.reshape(M, (rl, n, rr), order="F"), iterations, gap


class TestFindDisentangler:
    def test_recovers_planted_rank(self):
        plant, sc = planted_supercore(4, 2, seed=4)
        dis, transformed, rep = find_disentangler(sc, (4, 4), 2)
        assert rep.converged
        assert rep.achieved_rank == 2
        assert rep.final_gap >= 1e12
        assert rep.iterations < 1000
        # the transform really concentrates the energy in two directions
        M = np.reshape(
            transformed.to_array(), (transformed.dims[0] * 4, -1), order="F"
        )
        s = np.linalg.svd(M, compute_uv=False)
        assert s[2] / s[0] < 1e-11
        # and it is orthogonal on the fused free pair
        np.testing.assert_allclose(
            dis.data.T @ dis.data, np.eye(16), atol=1e-12
        )

    def test_budget_exhaustion_reported_not_raised(self):
        plant, sc = planted_supercore(4, 2, seed=0)
        dis, transformed, rep = find_disentangler(sc, (4, 4), 2, max_iters=50)
        assert not rep.converged
        assert rep.iterations == 50
        assert rep.achieved_rank > 2

    def test_trace_collection(self):
        _, sc = planted_supercore(4, 2, seed=4)
        _, _, rep = find_disentangler(sc, (4, 4), 2, trace_stride=10)
        trace = rep.singular_value_trace
        assert trace is not None and len(trace) >= 2
        iters = [k for k, _ in trace]
        assert iters == sorted(iters)
        assert all(sig.size == 16 for _, sig in trace)

    @pytest.mark.parametrize(
        "I, rprime, seed, max_iters", [(4, 2, 4, 50_000), (4, 2, 0, 50), (5, 9, 0, 200)]
    )
    def test_bit_identical_to_sign_fixed_loop(self, I, rprime, seed, max_iters):
        # (4, 2) seed 4 converges and seed 0 exhausts its budget.  The (5, 9)
        # search also tells apart memory layouts of the shuffled matrix that
        # hold the same values: BLAS rounds them differently there.
        _, sc = planted_supercore(I, rprime, seed=seed)
        dis, transformed, rep = find_disentangler(sc, (I, I), rprime, max_iters=max_iters)
        V, M, iterations, gap = sign_fixed_search(sc, (I, I), rprime, max_iters)
        assert dis.data.tobytes() == V.tobytes()
        assert transformed.to_array().tobytes() == M.tobytes()
        assert rep.iterations == iterations
        assert rep.final_gap == gap

    def test_parameter_validation(self):
        _, sc = planted_supercore(4, 2, seed=4)
        with pytest.raises(ValueError):
            find_disentangler(sc, (4, 4), 0)
        with pytest.raises(ValueError):
            find_disentangler(sc, (4, 4), 17)
        with pytest.raises(ValueError):
            find_disentangler(sc, (4, 4), 2, gap_threshold=0.5)
        with pytest.raises(ValueError):
            find_disentangler(sc, (5, 4), 2)
        with pytest.raises(ValueError, match="supercore must have 3 modes"):
            find_disentangler(DenseTensor(np.ones((2, 4))), (2, 2), 1)
        with pytest.raises(ValueError, match="max_iters"):
            find_disentangler(sc, (4, 4), 2, max_iters=-5)
        with pytest.raises(ValueError, match="trace_stride"):
            find_disentangler(sc, (4, 4), 2, trace_stride=-3)
        # A zero budget is valid: the report covers the starting point.
        _, _, rep = find_disentangler(sc, (4, 4), 2, max_iters=0)
        assert rep.iterations == 0


def dense_from_mera_two_isometries(m):
    """Independent contraction of a 1-layer, order-4, arity-2 MERA."""
    (p1, iso1), (p2, iso2) = sorted(m.layers[0].isometries, key=lambda t: t[0])
    top = m.top.to_array()
    L = np.einsum("ac,cd,bd->ab", iso1.data, top, iso2.data)
    i1, i2 = iso1.input_dims
    i3, i4 = iso2.input_dims
    T = np.reshape(L, (i1, i2, i3, i4), order="F")
    for pos, dis in m.layers[0].disentanglers:
        assert pos == 2
        P = np.transpose(T, (1, 2, 3, 0))
        M = np.reshape(P, (i2 * i3, i4 * i1), order="F")
        M = dis.data.T @ M
        P = np.reshape(M, (i2, i3, i4, i1), order="F")
        T = np.transpose(P, (3, 0, 1, 2))
    return DenseTensor(T)


def dense_from_mera(m):
    """Independent dense evaluation of any MERA, one constituent at a time."""
    T = m.top.to_array()
    for layer in reversed(m.layers):
        # Contracting the leading coarse axis and appending the group's fine
        # axes at the end leaves all fine axes in order after a full pass.
        for _, iso in sorted(layer.isometries, key=lambda t: t[0]):
            W = np.reshape(iso.data, iso.input_dims + (iso.output_dim,), order="F")
            T = np.tensordot(T, W, axes=([0], [len(iso.input_dims)]))
        for pos, dis in layer.disentanglers:
            il, ir = dis.dims
            G = np.reshape(dis.data.T, (il, ir, il, ir), order="F")
            T = np.tensordot(G, T, axes=([2, 3], [pos - 1, pos]))
            T = np.moveaxis(T, (0, 1), (pos - 1, pos))
    return T


ORACLE_PLANTS = [
    pytest.param(dict(I=3, S=2, arity=2, order=8, layers=2, seed=0), id="2-layer-arity-2"),
    pytest.param(dict(I=3, S=2, arity=3, order=9, layers=1, seed=1), id="1-layer-arity-3"),
]


class TestMeraToTrain:
    def test_dense_oracle_one_layer(self):
        m = random_mera_plant(2, 2, arity=2, order=4, layers=1, seed=3)
        tt = mera_to_tt(m)
        ref = dense_from_mera_two_isometries(m)
        np.testing.assert_allclose(
            tt_contract(tt).to_array(),
            ref.to_array(),
            atol=1e-12 * ref.norm(),
        )

    @pytest.mark.parametrize("plant", ORACLE_PLANTS)
    def test_dense_oracle(self, plant):
        m = random_mera_plant(**plant)
        ref = dense_from_mera(m)
        got = tt_contract(mera_to_tt(m, 0.0)).to_array()
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("plant", ORACLE_PLANTS)
    def test_truncation_error_within_budget(self, plant):
        # each layer's discards add up exactly to at most
        # (round_eps * |t|)^2, and the layers add by the triangle inequality
        m = random_mera_plant(**plant)
        round_eps = 3e-2
        exact = mera_to_tt(m, 0.0)
        tt = mera_to_tt(m, round_eps)
        assert sum(tt.ranks) < sum(exact.ranks)
        ref = dense_from_mera(m)
        err = np.linalg.norm(tt_contract(tt).to_array() - ref)
        assert err <= len(m.layers) * round_eps * np.linalg.norm(ref)

    def test_result_is_canonical_at_last_site(self):
        m = random_mera_plant(3, 2, arity=2, order=8, layers=2, seed=4)
        tt = mera_to_tt(m)
        assert tt.canonical_site == tt.order
        for c in tt.cores[:-1]:
            L = np.reshape(c, (-1, c.shape[2]), order="F")
            np.testing.assert_allclose(L.T @ L, np.eye(c.shape[2]), atol=1e-12)

    def test_norm_preserved(self):
        # isometries and disentanglers are orthogonal maps, so the train
        # norm equals the top-tensor norm
        m = random_mera_plant(3, 2, arity=2, order=8, layers=2, seed=1)
        assert tt_norm(mera_to_tt(m)) == pytest.approx(
            m.top.norm(), rel=1e-11
        )

    def test_desk_rank_pattern(self):
        m = random_mera_plant(4, 2, arity=2, order=12, layers=2, seed=0)
        tt = mera_to_tt(m, round_eps=1e-14)
        assert tt.ranks == (1, 4, 16, 8, 32, 16, 64, 16, 32, 8, 16, 4, 1)

    def test_storage_accounting(self):
        m = random_mera_plant(4, 2, arity=2, order=12, layers=2, seed=0)
        # layer 1: 5 disentanglers (16x16) + 6 isometries (16x2);
        # layer 2: 2 disentanglers (4x4) + 3 isometries (4x2); top 2^3
        assert mera_storage(m) == 5 * 256 + 6 * 32 + 2 * 16 + 3 * 8 + 8


class TestCertifiedBonds:
    """A bond that ``mera_to_tt`` certifies as full rank keeps an identity
    core if wide and a ``Q`` core if tall; everything downstream matches the
    SVD route to rounding."""

    @staticmethod
    def _force_svd(monkeypatch):
        # Both rungs of the wide test, the tall split and the factored split
        # are off.
        monkeypatch.setattr(ttmera.mera, "_gate_bound", lambda *args: 0.0)
        monkeypatch.setattr(ttmera.mera, "_full_row_rank", lambda M, delta: False)
        monkeypatch.setattr(ttmera.mera, "_certified_qr", lambda M, delta: None)
        monkeypatch.setattr(ttmera.mera, "_inner_split", lambda *args: None)

    @staticmethod
    def _spy(patch, name, record):
        """Wrap ``ttmera.mera.<name>`` so ``record(M, result)`` sees each
        call."""
        fn = getattr(ttmera.mera, name)

        def spy(M, *args):
            result = fn(M, *args)
            record(M, result)
            return result

        patch.setattr(ttmera.mera, name, spy)

    @classmethod
    def _tall(cls, patch):
        """Spy on both tall splits; the returned list gets ``(shape,
        result, route)`` per tall bond, ``route`` ``"factored"`` for one
        split from its group end's factors (``_inner_split``, recorded only
        when it splits) and ``"cholesky"`` for one formed and given to
        ``_certified_qr``."""
        tall = []
        inner_split = ttmera.mera._inner_split

        def split(prev, nxt, gate, e, *rest):
            result = inner_split(prev, nxt, gate, e, *rest)
            if result is not None:
                core = result[0]
                shape = (core.shape[0] * e, core.shape[2])
                tall.append((shape, result, "factored"))
            return result

        cls._spy(
            patch, "_certified_qr",
            lambda M, f: tall.append((M.shape, f, "cholesky")),
        )
        patch.setattr(ttmera.mera, "_inner_split", split)
        return tall

    @staticmethod
    def _rungs(patch):
        """Spy on both rungs of the wide test; the returned list gets
        ``(M.shape, result, rung)`` per wide bond, in order.  The product
        rung decides a gated group end from its three factors, before the
        bond is formed, and is recorded when it proves the bond; one it
        does not prove goes on to ``_full_row_rank``, the ``"inverse"``
        rung, which must bound one ``m x m`` matrix."""
        calls, bounds, known = [], [], [0.0]
        sigma_min_bound = ttmera.kernels._sigma_min_bound
        full_row_rank = ttmera.mera._full_row_rank
        gate_bound = ttmera.mera._gate_bound
        rank_floor = ttmera.mera._rank_floor

        def bound(A):
            bounds.append(A.shape)
            return sigma_min_bound(A)

        def inverse(M, delta):
            start = len(bounds)
            result = full_row_rank(M, delta)
            assert bounds[start:] == [(M.shape[0],) * 2]
            calls.append((M.shape, result, "inverse"))
            return result

        def product(*args):
            known.append(gate_bound(*args))
            return known[-1]

        def floor(shape, delta, norm):
            # The only floor mera_to_tt takes of a wide shape is the product
            # rung's, taken right after its bound; the factored split's is of
            # a tall one.
            result = rank_floor(shape, delta, norm)
            if shape[0] <= shape[1] and known[-1] > result:
                calls.append((shape, True, "product"))
            return result

        patch.setattr(ttmera.kernels, "_sigma_min_bound", bound)
        patch.setattr(ttmera.mera, "_full_row_rank", inverse)
        patch.setattr(ttmera.mera, "_gate_bound", product)
        patch.setattr(ttmera.mera, "_rank_floor", floor)
        return calls

    def test_certified_bond_matches_the_svd_route(self, monkeypatch):
        plant = random_mera_plant(6, 3, seed=0)
        on = mera_to_tt(plant)
        self._force_svd(monkeypatch)
        off = mera_to_tt(plant)
        assert on.ranks == off.ranks
        eye = [
            c for c in on.cores[:-1]
            if c.shape[0] * c.shape[1] == c.shape[2] == 324
        ]
        assert len(eye) == 1
        assert np.array_equal(
            np.reshape(eye[0], (324, 324), order="F"), np.eye(324)
        )
        assert _tt_diff_norm(on, off) <= 1e-13 * tt_norm(off)

        errors = []
        for train in (on, off):
            m, _ = tt_to_mera(
                train, 2, 1e-6, layers=2, strategy="hosvd", max_output_dim=3
            )
            errors.append(mera_relative_error(m, train))
        assert abs(errors[0] - errors[1]) <= 1e-12

    @pytest.mark.parametrize("I, S", [(4, 2), (6, 3)])
    def test_desk_plants_certify_every_square_or_wide_bond(self, I, S, monkeypatch):
        plant = random_mera_plant(I, S, seed=0)
        with monkeypatch.context() as patch:
            calls = self._rungs(patch)
            on = mera_to_tt(plant)
        self._force_svd(monkeypatch)
        off = mera_to_tt(plant)
        assert [(m <= n, ok) for (m, n), ok, _ in calls] == [(True, True)] * 6
        # The four gated bonds are proven from their three factors; the two
        # ungated ones, the first bond of each layer, by the inverse.
        rungs = [rung for _, _, rung in calls]
        assert rungs == ["inverse", "product", "inverse"] + ["product"] * 3
        assert on.ranks == off.ranks
        assert _tt_diff_norm(on, off) <= 1e-13 * tt_norm(off)

    FACTORED = {
        (4, 2): [(8, 4), (128, 16), (256, 16)],
        (6, 3): [(27, 9), (648, 54), (1944, 54)],
    }

    @pytest.mark.parametrize("I, S, refused", [(4, 2, (64, 16)), (6, 3, (216, 54))])
    def test_desk_plants_split_every_full_rank_tall_bond(
        self, I, S, refused, monkeypatch
    ):
        # Ten tall bonds; the one the SVD truncates is the one refused.  The
        # three just inside a group whose gated end was kept whole split from
        # the factors; the refused one is of that kind too, but its K is
        # wide, so rank deficient.
        plant = random_mera_plant(I, S, seed=0)
        svds = []
        with monkeypatch.context() as patch:
            tall = self._tall(patch)
            self._spy(patch, "svd_trunc", lambda M, f: svds.append((M.shape, f.rank)))
            on = mera_to_tt(plant)
        self._force_svd(monkeypatch)
        off = mera_to_tt(plant)
        assert len(tall) == 10
        assert [shape for shape, f, _ in tall if f is None] == [refused]
        factored = [shape for shape, _, route in tall if route == "factored"]
        assert factored == self.FACTORED[I, S]
        assert [shape for shape, rank in svds] == [refused]
        assert svds[0][1] < refused[1]
        assert on.ranks == off.ranks
        assert _tt_diff_norm(on, off) <= 1e-13 * tt_norm(off)
        for core in on.cores[:-1]:
            r, d, s = core.shape
            U = np.reshape(core, (r * d, s), order="F")
            np.testing.assert_allclose(U.T @ U, np.eye(s), rtol=0, atol=1e-13)

    @pytest.mark.paperscale
    def test_full_size_tall_bonds_certify(self, monkeypatch):
        # The three tall bonds that took a full SVD keep every column; the
        # two just inside a group split from its end's factors, so the
        # (25000, 250) bond is never formed.
        tall = self._tall(monkeypatch)
        mera_to_tt(random_mera_plant(10, 5, seed=0), round_eps=1e-12)
        certified = {shape for shape, f, _ in tall if f is not None}
        assert {(25000, 250), (5000, 250), (2500, 500)} <= certified
        factored = {shape for shape, _, route in tall if route == "factored"}
        assert factored == {(25000, 250), (5000, 250), (125, 25)}

    @pytest.mark.paperscale
    def test_full_size_bounds_are_at_most_500_square(self, monkeypatch):
        # The gated 2,500-row bonds are proven from factors of at most 250
        # rows; the largest matrix bounded is the R of the (2500, 500) tall
        # bond.  Without the product rung every bit is the same.
        plant = random_mera_plant(10, 5, seed=0)
        shapes = []
        sigma_min_bound = ttmera.kernels._sigma_min_bound

        def bound(A):
            shapes.append(A.shape)
            return sigma_min_bound(A)

        with monkeypatch.context() as patch:
            patch.setattr(ttmera.kernels, "_sigma_min_bound", bound)
            on = mera_to_tt(plant, round_eps=1e-12)
        monkeypatch.setattr(ttmera.mera, "_gate_bound", lambda *args: 0.0)
        off = mera_to_tt(plant, round_eps=1e-12)
        assert max(max(shape) for shape in shapes) == 500
        assert on.ranks == off.ranks
        assert all(np.array_equal(a, b) for a, b in zip(on.cores, off.cores))

    @staticmethod
    def _gated_bond(prev, nxt, gate, rows):
        """The unfolding with ``rows`` rows of the centre that
        :func:`mera_to_tt` builds at a gated group end: the chain of
        ``prev`` and ``nxt`` mixed by ``gate``'s transpose."""
        centre = _mix_gate(_chain([prev, nxt]), gate)
        return np.reshape(centre, (rows, -1), order="F")

    @settings(max_examples=60, deadline=None)
    @given(
        SEEDS,
        st.sampled_from([2, 3]),
        st.integers(0, 1),
        st.integers(1, 3),
        st.integers(1, 3),
        st.booleans(),
        st.data(),
    )
    def test_gate_bound_never_exceeds_sigma_min(
        self, seed, d, extra, s, x, exact, data
    ):
        # With each factor's exact smallest singular value in place of its
        # bound, the product is as tight as the factorization allows, so a
        # wrong realignment or factor shows.
        e = min(d + extra, 3)
        r = data.draw(st.integers(1, d * s))
        t = data.draw(st.integers(-(-s * e // x), -(-s * e // x) + 2))
        prev = standard_normal(stream(seed, 1), (r, d, s))
        nxt = standard_normal(stream(seed, 2), (s, e * x, t))
        gate = random_orthogonal(stream(seed, 3), d * e)
        M = self._gated_bond(prev, nxt, gate, r * d)
        sigma = np.linalg.svd(M, compute_uv=False)
        with pytest.MonkeyPatch.context() as patch:
            if exact:
                patch.setattr(
                    ttmera.kernels, "_sigma_min_bound",
                    lambda A: np.linalg.svd(A, compute_uv=False)[-1],
                )
            bound = _gate_bound(prev, nxt, gate, _stored_bond(prev, nxt, gate)[1])
        eps = np.finfo(np.float64).eps
        assert bound <= sigma[-1] + 4 * max(M.shape) * eps * sigma[0]

    def test_identity_gates_fall_to_the_inverse(self, monkeypatch):
        # An identity gate's realignment has rank one, so its bound is at
        # most zero; the inverse then decides each bond as if no gate sat
        # there, and the train is the gate-free network's.
        plant = random_mera_plant(4, 2, seed=0)
        gated, free = [], []
        for layer in plant.layers:
            eye = tuple(
                (p, Disentangler(dims=g.dims, data=np.eye(g.data.shape[0])))
                for p, g in layer.disentanglers
            )
            gated.append(MeraLayer(layer.isometries, eye))
            free.append(MeraLayer(layer.isometries, ()))
        bounds = []
        gate_bound = ttmera.mera._gate_bound

        def recorded(*args):
            bounds.append(gate_bound(*args))
            return bounds[-1]

        with monkeypatch.context() as patch:
            patch.setattr(ttmera.mera, "_gate_bound", recorded)
            calls = self._rungs(patch)
            on = mera_to_tt(Mera(tuple(gated), plant.top))
        off = mera_to_tt(Mera(tuple(free), plant.top))
        assert len(bounds) == 7 and max(bounds) <= 0.0
        assert calls and {rung for _, _, rung in calls} == {"inverse"}
        assert all(np.array_equal(a, b) for a, b in zip(on.cores, off.cores))

    @pytest.mark.parametrize(
        "prev, nxt, dims",
        [
            ((5, 2, 2), (2, 4, 3), (2, 2)),  # C tall: r > d s
            ((2, 3, 2), (2, 6, 3), (3, 2)),  # G tall: d > e
            ((2, 2, 3), (3, 2, 2), (2, 2)),  # F tall: s e > c
        ],
        ids=["centre", "gate", "core"],
    )
    def test_gate_bound_without_nesting_is_zero(self, prev, nxt, dims):
        prev = standard_normal(stream(1), prev)
        nxt = standard_normal(stream(2), nxt)
        gate = random_orthogonal(stream(3), dims[0] * dims[1])
        assert _gate_bound(prev, nxt, gate, 0.0) == 0.0

    @pytest.mark.parametrize("d, e, x", [(2, 3, 1), (3, 2, 4)])
    def test_mix_gate_matches_the_dense_disentangler(self, d, e, x):
        # The dense oracle applies the gate as dense_from_mera does, by a
        # tensordot of its transpose with the pair's two indices.  An
        # orthogonal gate and its transpose have realignments with the same
        # singular values, so only an oracle like this one sees a gate
        # applied the wrong way round.
        prev = standard_normal(stream(4), (3, d, 2))
        nxt = standard_normal(stream(5), (2, e * x, 4))
        gate = random_orthogonal(stream(6), d * e)
        chained = _chain([prev, nxt])
        T = np.reshape(chained, (3, d, e, x, 4), order="F")
        G = np.reshape(gate.T, (d, e, d, e), order="F")
        ref = np.moveaxis(np.tensordot(G, T, axes=([2, 3], [1, 2])), (0, 1), (1, 2))
        got = np.reshape(_mix_gate(chained, gate), T.shape, order="F")
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13)
        swapped = np.reshape(_mix_gate(chained, gate.T), T.shape, order="F")
        assert not np.allclose(swapped, ref, rtol=0, atol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        SEEDS,
        st.integers(1, 4),
        st.sampled_from([2, 3]),
        st.sampled_from([2, 3]),
        st.booleans(),
        st.booleans(),
        st.data(),
    )
    def test_inner_split_of_random_group_ends(
        self, seed, r, d, e, trailing, deficient, data
    ):
        # A group end whose bond is wide, its centre P tall and K tall or
        # square.  The stored bond's bounds hold; a split must match the bond
        # the SVD route forms: the rank it keeps, the product and
        # orthonormal columns; a rank-deficient N, hence K, is never split.
        assume(r * d > 1)
        s = data.draw(st.integers(1, r * d - 1))
        c = data.draw(st.integers(1, s * e))
        assume(r * d <= e * c)
        prev = standard_normal(stream(seed, 1), (r, d, s))
        N = standard_normal(stream(seed, 2), (s * e, c))
        if deficient:
            k = min(s * e, c) - 1
            assume(k >= 1)
            N = N[:, :k] @ standard_normal(stream(seed, 3), (k, c))
        x, t = (1, c) if trailing else (c, 1)
        nxt = np.reshape(N, (s, e * x, t), order="F")
        gate = random_orthogonal(stream(seed, 4), d * e)
        M = self._gated_bond(prev, nxt, gate, r * d * e)
        # The same chain and mix in extended precision stand in for the
        # exact product that _stored_bond charges against.
        Y = np.reshape(prev, (r * d, s), order="F").astype(np.longdouble) @ (
            np.reshape(nxt, (s, -1), order="F").astype(np.longdouble)
        )
        Y = np.reshape(Y, (r, d * e, -1), order="F")
        exact = np.einsum("ki,aij->akj", gate.T.astype(np.longdouble), Y)
        norm, charge = _stored_bond(prev, nxt, gate)
        assert norm >= np.linalg.norm(M)
        assert charge >= np.linalg.norm(M - np.reshape(exact, M.shape, order="F"))
        rank = svd_trunc(M, 0.0).rank
        split = _inner_split(prev, nxt, gate, e, 0.0, norm, charge)
        if deficient:
            assert split is None and rank < c
        if split is None:
            return
        core, centre = split
        assert rank == c
        Q = np.reshape(core, (r * d * e, c), order="F")
        R = np.reshape(centre, (c, c), order="F")
        np.testing.assert_allclose(Q.T @ Q, np.eye(c), rtol=0, atol=1e-13)
        assert np.linalg.norm(Q @ R - M) <= 1e-13 * np.linalg.norm(M)

    @pytest.mark.parametrize(
        "arities, gated",
        [((2, 1, 2), 2), ((2, 1, 2), 3), ((2, 1, 1, 2), 2), ((1, 2, 1), 1)],
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_one_site_groups_match_the_svd_route(self, arities, gated, seed):
        # A one-site group right after a gated group end has no bond inside
        # it, so the end's factors split nothing more, and every later group
        # is still absorbed in turn.
        gen = stream(seed, 7)
        dims = [int(v) for v in gen.integers(2, 4, size=sum(arities))]
        isometries, pos = [], 1
        for k, a in enumerate(arities):
            group = tuple(dims[pos - 1:pos - 1 + a])
            rows = math.prod(group)
            out = int(gen.integers(1, rows + 1))
            data = random_isometry(stream(seed, 8, k), rows, out)
            isometries.append((pos, Isometry(group, data)))
            pos += a
        n = dims[gated - 1] * dims[gated]
        gate = Disentangler(
            (dims[gated - 1], dims[gated]), random_orthogonal(stream(seed, 9), n)
        )
        top = standard_normal(
            stream(seed, 10), tuple(iso.output_dim for _, iso in isometries)
        )
        m = Mera((MeraLayer(tuple(isometries), ((gated, gate),)),), DenseTensor(top))
        ref = dense_from_mera(m)
        on = mera_to_tt(m, 0.0)
        with pytest.MonkeyPatch.context() as patch:
            self._force_svd(patch)
            off = mera_to_tt(m, 0.0)
        assert on.ranks == off.ranks
        assert _tt_diff_norm(on, off) <= 1e-13 * tt_norm(off)
        got = tt_contract(on).to_array()
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @settings(max_examples=30, deadline=None)
    @given(
        SEEDS,
        st.sampled_from([(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]),
        st.sampled_from([(4, 1), (8, 1), (8, 2)]),
        st.sampled_from([0.0, 1e-14, 1e-12]),
        st.booleans(),
    )
    def test_factored_split_matches_the_svd_route(
        self, seed, sizes, layout, round_eps, gated
    ):
        # Random gated and gate-free networks: the factored split keeps the
        # SVD route's ranks, its train to rounding, and orthonormal cores.
        (I, S), (order, layers) = sizes, layout
        plant = random_mera_plant(I, S, order=order, layers=layers, seed=seed)
        if not gated:
            free = tuple(MeraLayer(layer.isometries, ()) for layer in plant.layers)
            plant = Mera(free, plant.top)
        on = mera_to_tt(plant, round_eps)
        with pytest.MonkeyPatch.context() as patch:
            self._force_svd(patch)
            off = mera_to_tt(plant, round_eps)
        assert on.ranks == off.ranks
        assert _tt_diff_norm(on, off) <= 1e-13 * tt_norm(off)
        for core in on.cores[:-1]:
            r, d, s = core.shape
            U = np.reshape(core, (r * d, s), order="F")
            np.testing.assert_allclose(U.T @ U, np.eye(s), rtol=0, atol=1e-13)

    def test_search_counts_match_the_svd_route(self, monkeypatch):
        def iterations():
            counts = []
            search = ttmera.mera.find_disentangler

            def spy(*args, **kwargs):
                result = search(*args, **kwargs)
                counts.append(result[2].iterations)
                return result

            with monkeypatch.context() as patch:
                patch.setattr(ttmera.mera, "find_disentangler", spy)
                run_mera12(seed=10, max_iters=300, strategies=("procrustes",))
            return counts

        on = iterations()
        self._force_svd(monkeypatch)
        assert len(on) == 7
        assert iterations() == on

    @pytest.mark.parametrize("round_eps", [0.0, 1e-14])
    def test_zero_top_refused_for_its_norm(self, round_eps):
        plant = random_mera_plant(4, 2, seed=0)
        zero = Mera(plant.layers, DenseTensor(np.zeros(plant.top.dims)))
        with pytest.raises(ValueError, match="^tensor has zero norm$"):
            mera_to_tt(zero, round_eps)

    @pytest.mark.parametrize("round_eps", [-1e-14, 10.0])
    def test_round_eps_out_of_range(self, round_eps):
        # An over-large budget is never certified away: the SVD then keeps
        # nothing, which is refused.
        with pytest.raises(ValueError, match="round_eps"):
            mera_to_tt(random_mera_plant(4, 2, seed=0), round_eps)


class TestHosvdDisentangler:
    @pytest.mark.parametrize("shape", [(3, 16, 2), (4, 16, 5)], ids=["tall", "wide"])
    def test_energy_ordered_in_leading_rows(self, shape):
        # row k of the mixed free unfolding carries the k-th singular value
        core = standard_normal(stream(5), shape)
        r, n, s = shape
        _, transformed = _hosvd_disentangler(core, (4, 4))
        center = np.reshape(core.transpose(1, 0, 2), (n, r * s), order="F")
        mixed = np.reshape(transformed.transpose(1, 0, 2), (n, r * s), order="F")
        sigma = np.linalg.svd(center, compute_uv=False)
        rows = np.zeros(n)
        rows[: sigma.size] = sigma
        np.testing.assert_allclose(np.linalg.norm(mixed, axis=1), rows, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3, 16, 2), (4, 16, 5)], ids=["tall", "wide"])
    def test_bit_identical_to_transposed_centre_loop(self, shape):
        # the disentangler and mixed core as computed on the centre built by
        # an explicit transpose and folded back the same way
        core = standard_normal(stream(7), shape)
        r, n, s = shape
        center = np.reshape(core.transpose(1, 0, 2), (n, r * s), order="F")
        U, _, _ = svd_full(center if n > r * s else np.linalg.qr(center.T, mode="r").T)
        mixed = np.reshape(U.T @ center, (n, r, s), order="F").transpose(1, 0, 2)
        dis, transformed = _hosvd_disentangler(core, (4, 4))
        for got, want in ((dis.data, U.T), (transformed, mixed)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_wide_centre_allocates_no_right_factor(self):
        # a (16 x 3600) centre; its full SVD's right factor alone would be
        # 3600 x 3600 doubles, 104 MB
        core = standard_normal(stream(6), (60, 16, 60))
        tracemalloc.start()
        try:
            _hosvd_disentangler(core, (4, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestTrainToMera:
    def test_single_layer_error_bound(self):
        # One and two arity-2 layers on order 8, one arity-3 layer on order 9.
        # This corpus is not exactly representable: the isometry truncations
        # spend a real share of the budget, so the bound is exercised.
        for layers, arity, order in [(1, 2, 8), (2, 2, 8), (1, 3, 9)]:
            for epsilon in (1e-1, 1e-2):
                for seed in range(6):
                    tt = decaying_train(seed, (3,) * order, max_rank=8, decay=0.45)
                    m, discarded = tt_to_mera(
                        tt, arity=arity, epsilon=epsilon, layers=layers
                    )
                    err = mera_relative_error(m, tt)
                    case = (layers, arity, epsilon, seed)
                    assert epsilon / 10 <= err <= epsilon * (1 + 1e-9), case
                    # the reported per-isometry energies account for the
                    # error exactly
                    assert err**2 * tt_norm(tt) ** 2 == pytest.approx(
                        sum(discarded), rel=1e-6, abs=1e-12 * tt_norm(tt) ** 2
                    ), case

    @pytest.mark.parametrize("order", [8, 12])
    def test_layer_pass_carries_the_centre(self, order, monkeypatch):
        # The canonical centre goes from site D to the rightmost pair and
        # from pair to pair to the left: at most D - 1 QR steps for
        # the whole layer, where a sweep per pair would take far more.
        plant = random_mera_plant(3, 2, arity=2, order=order, layers=1, seed=1)
        tt = mera_to_tt(plant)
        assert tt.canonical_site == order
        calls = count_qr(monkeypatch)
        m, _ = tt_to_mera(tt, arity=2, epsilon=1e-10, strategy="hosvd")
        assert len(calls) <= order - 1
        positions = [p for p, _ in m.layers[0].disentanglers]
        assert positions == disentangler_positions(order, 2)
        assert mera_relative_error(m, tt) <= 1e-10

    def test_search_supercores_are_not_rescanned(self, monkeypatch):
        # Each supercore is a core of a train the package built from
        # checked cores, and each transformed supercore an orthogonal map of
        # it: a procrustes layer wraps both, and so does every train holding
        # them, so neither is ever scanned.
        plant = random_mera_plant(3, 2, arity=2, order=8, layers=1, seed=1)
        tt = mera_to_tt(plant)
        searched = record_searches(monkeypatch, ttmera.mera)
        scanned = record_scans(monkeypatch)
        tt_to_mera(tt, arity=2, epsilon=1e-10, strategy="procrustes",
                   max_iters=20)
        monkeypatch.undo()
        assert len(searched) == 3
        for supercore, transformed in searched:
            assert scan_count(scanned, supercore) == 0
            assert scan_count(scanned, transformed) == 0

    def test_two_layer_shapes(self):
        tt = decaying_train(5, (2,) * 8, max_rank=6)
        m, _ = tt_to_mera(tt, arity=2, epsilon=1e-2, layers=2)
        assert len(m.layers) == 2
        assert len(m.layers[0].output_dims) == 4
        assert len(m.layers[1].output_dims) == 2
        assert m.top.order == 2
        assert m.input_dims == (2,) * 8

    def test_plant_recovery_with_rank_targets(self):
        plant = random_mera_plant(4, 2, arity=2, order=12, layers=2, seed=10)
        tt = mera_to_tt(plant, round_eps=1e-14)
        targets = [[2, 4, 4, 4, 2], [2, 2]]
        m, _ = tt_to_mera(
            tt,
            arity=2,
            epsilon=1e-11,
            layers=2,
            strategy="procrustes",
            target_ranks=targets,
            gap_threshold=1e13,
            max_iters=3000,
        )
        for layer in m.layers:
            assert all(iso.output_dim == 2 for _, iso in layer.isometries)
        assert mera_relative_error(m, tt) <= 1e-10

    def test_forced_output_dim_destroys_accuracy_gracefully(self):
        # a dimension cap far below the needed rank must still return a
        # valid MERA, with the damage showing up in the measured error
        plant = random_mera_plant(4, 2, arity=2, order=12, layers=2, seed=10)
        tt = mera_to_tt(plant, round_eps=1e-14)
        m, discarded = tt_to_mera(
            tt, arity=2, epsilon=1e-11, layers=2, strategy="hosvd",
            max_output_dim=2,
        )
        err = mera_relative_error(m, tt)
        assert 0.5 <= err <= 1.0 + 1e-9
        assert err**2 * tt_norm(tt) ** 2 == pytest.approx(
            sum(discarded), rel=1e-6
        )

    def test_strategy_validated(self):
        tt = decaying_train(0, (2,) * 4)
        with pytest.raises(ValueError, match="strategy"):
            tt_to_mera(tt, arity=2, epsilon=0.1, strategy="magic")
        with pytest.raises(ValueError, match="target_ranks"):
            tt_to_mera(tt, arity=2, epsilon=0.1, target_ranks=[[1], [1]])
        with pytest.raises(ValueError, match="epsilon"):
            tt_to_mera(tt, arity=2, epsilon=-0.1)


class TestMeraError:
    def test_zero_for_exact_representation(self):
        m = random_mera_plant(3, 2, arity=2, order=8, layers=2, seed=2)
        tt = mera_to_tt(m, round_eps=1e-14)
        assert mera_relative_error(m, tt) <= 1e-11

    @pytest.mark.parametrize("I, S", [(4, 2), (6, 3)])
    def test_difference_with_itself_is_below_epsilon(self, I, S):
        # The R-only sweep cancels a train against itself to rounding, so
        # the measurement's floor sits well below any relative budget.
        tt = mera_to_tt(random_mera_plant(I, S, seed=0))
        assert _tt_diff_norm(tt, tt) <= 1e-14 * tt_norm(tt)
        untagged = decaying_train(I, (3, 2, 4, 3, 2))
        assert _tt_diff_norm(untagged, untagged) <= 1e-14 * tt_norm(untagged)

    @settings(max_examples=80, deadline=None)
    @given(SEEDS, st.integers(1, 3), st.sampled_from(["last", "inner", None]))
    def test_difference_norm_matches_the_dense_difference(self, seed, order, tag):
        # b's ranks are drawn apart from a's, b is scaled apart from a, and
        # b comes tagged at D, tagged at another site, or untagged.
        gen = stream(seed, 31)
        dims = tuple(int(n) for n in gen.integers(1, 5, order))

        def train(scale):
            ranks = [1, *(int(r) for r in gen.integers(1, 6, order - 1)), 1]
            return TensorTrain([
                scale * standard_normal(gen, (ranks[d], n, ranks[d + 1]))
                for d, n in enumerate(dims)
            ])

        a, b = train(1.0), train(10.0 ** gen.uniform(-2, 2))
        if tag == "last":
            b = orthogonalize(b, order)
        elif tag == "inner":
            b = orthogonalize(b, int(gen.integers(1, order)) if order > 1 else 1)
        da, db = tt_contract(a).to_array(), tt_contract(b).to_array()
        dense = np.linalg.norm((da - db).ravel())
        scale = np.linalg.norm(da.ravel()) + np.linalg.norm(db.ravel())
        assert abs(_tt_diff_norm(a, b) - dense) <= 1e-13 * scale

    def test_capped_hosvd_round_trip_error(self):
        tt = mera_to_tt(random_mera_plant(6, 3, seed=0))
        m, _ = tt_to_mera(tt, 2, 1e-6, layers=2, strategy="hosvd", max_output_dim=3)
        assert abs(mera_relative_error(m, tt) - 0.9912585695123841) <= 1e-12

    def test_detects_top_perturbation(self):
        m = random_mera_plant(2, 2, arity=2, order=4, layers=1, seed=6)
        tt = mera_to_tt(m)
        bumped = Mera(
            layers=m.layers,
            top=DenseTensor(m.top.to_array() * 1.5),
        )
        # |1.5 T - T| / |T| = 0.5
        assert mera_relative_error(bumped, tt) == pytest.approx(0.5, rel=1e-9)
