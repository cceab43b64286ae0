"""Tucker conversion: error accounting, bounds, caps, reconstruction."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    KEPT_GRAM_DIMS,
    decaying_train,
    forget_kept_gram,
    kept_gram_input,
    record_qr,
    record_scans,
    scan_count,
)
from ttmera import dense, kernels, tucker
from ttmera.dense import DenseTensor, _fold, _unfold
from ttmera.experiments import DESK_HEAT, run_compress
from ttmera.heat import reshape_to_factors, solve_heat
from ttmera.kernels import qr_thin, svd_trunc
from ttmera.rng import standard_normal, stream
from ttmera.tucker import (
    TuckerTT,
    compression_ratio,
    sthosvd_dense,
    tt_to_hosvd,
    tucker_reconstruct_tt,
    tucker_sweep,
)
from ttmera.train import TensorTrain, orthogonalize, tt_contract, tt_norm, tt_svd

SEEDS = st.integers(0, 2**32 - 1)


def dense_error_sq(tuck, reference):
    recon = tt_contract(tucker_reconstruct_tt(tuck))
    return float(np.linalg.norm(recon.data - reference.data) ** 2)


def _spy_certificates(monkeypatch) -> list:
    """Record, for each Gram call that keeps every row, reaches the
    certificate of ``rest`` or takes the second pass, which decision it
    made: ``"gram"`` (the Gram eigenvalues in hand proved full rank),
    ``"rest"`` (the Gram matrix of the projection proved it, at ``delta =
    0`` only), ``"tail"`` (the second pass over the trailing eigenblock
    decided it) or ``None`` (the certificate of ``rest``, or the second
    pass, refused)."""
    certified = []
    route, rest_certified = kernels._svd_trunc_gram, kernels._rest_certified
    tail = kernels._svd_trunc_tail

    def route_spy(X, *args):
        calls = len(certified)
        f = route(X, *args)
        if len(certified) == calls and f is not None and f.rank == X.shape[1]:
            certified.append("gram")
        return f

    def rest_spy(*args):
        proven = rest_certified(*args)
        certified.append("rest" if proven else None)
        return proven

    def tail_spy(*args):
        f = tail(*args)
        certified.append(None if f is None else "tail")
        return f

    monkeypatch.setattr(kernels, "_svd_trunc_gram", route_spy)
    monkeypatch.setattr(kernels, "_rest_certified", rest_spy)
    monkeypatch.setattr(kernels, "_svd_trunc_tail", tail_spy)
    return certified


class TestHosvdFromTrain:
    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.sampled_from([1e-1, 1e-3]))
    def test_discarded_energies_are_exact(self, seed, epsilon):
        tt = decaying_train(seed, (4, 3, 4, 3))
        t = tt_contract(tt)
        tuck = tt_to_hosvd(tt, epsilon)
        err2 = dense_error_sq(tuck, t)
        total = float(np.sum(tuck.mode_discarded))
        # guard the denominator: when nothing is discarded both sides are
        # rounding noise and their ratio is meaningless
        denom = max(err2, total, 1e-10 * t.norm() ** 2)
        assert abs(err2 - total) / denom <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(SEEDS, st.sampled_from([1e-1, 1e-3]))
    def test_error_within_budget(self, seed, epsilon):
        tt = decaying_train(seed, (3, 4, 3, 4))
        t = tt_contract(tt)
        tuck = tt_to_hosvd(tt, epsilon)
        assert dense_error_sq(tuck, t) <= (epsilon * t.norm()) ** 2 * (1 + 1e-9)

    @settings(max_examples=20, deadline=None)
    @given(SEEDS)
    def test_factor_orthonormality_and_shapes(self, seed):
        tt = decaying_train(seed, (4, 3, 5))
        tuck = tt_to_hosvd(tt, 1e-2)
        assert tuck.dims == (4, 3, 5)
        assert tuck.multilinear_rank == tuck.core.dims
        for U, n, s in zip(tuck.factors, tuck.dims, tuck.multilinear_rank):
            assert U.shape == (n, s)
            np.testing.assert_allclose(U.T @ U, np.eye(s), atol=1e-12)
        assert tuck.storage_count == sum(U.size for U in tuck.factors) + sum(
            c.size for c in tuck.core.cores
        )

    def test_lossless_at_zero_epsilon(self):
        tt = decaying_train(7, (3, 4, 3))
        t = tt_contract(tt)
        tuck = tt_to_hosvd(tt, 0.0)
        assert dense_error_sq(tuck, t) <= 1e-22 * t.norm() ** 2

    def test_epsilon_validated(self):
        with pytest.raises(ValueError):
            tt_to_hosvd(decaying_train(0, (2, 2)), -1.0)

    def test_factor_count_validated(self):
        tt = decaying_train(0, (2, 2, 2))
        with pytest.raises(ValueError, match="factors"):
            TuckerTT(factors=[np.eye(2)], core=tt, mode_discarded=np.zeros(1))


class TestRankCaps:
    @staticmethod
    def _check_capped(tt, delta, max_rank):
        t = tt_contract(tt)
        ortho = orthogonalize(tt, 1)
        factors, core, discarded = tucker_sweep(ortho, delta, max_rank=max_rank)
        assert core.dims == (max_rank,) * tt.order
        tuck = TuckerTT(factors=factors, core=core, mode_discarded=discarded)
        err2 = dense_error_sq(tuck, t)
        total = float(np.sum(discarded))
        assert total > 0.0
        assert abs(err2 - total) / max(err2, total) <= 1e-9

    def test_caps_bound_ranks_and_keep_accounting_exact(self, monkeypatch):
        self._check_capped(decaying_train(11, (5, 4, 5), max_rank=8), 0.0, 2)
        # A middle centre whose (64, 16 * 1024) unfolding, 2^20 entries,
        # takes the Gram route, which keeps more rows than the cap.
        cores = [np.eye(16)[None],
                 standard_normal(stream(12, 1), (16, 64, 1024))
                 * (0.9 ** np.arange(64))[:, None],
                 standard_normal(stream(12, 2), (1024, 1024, 1))]
        tt = TensorTrain(cores)
        answers = []
        route = kernels._svd_trunc_gram

        def route_spy(X, *args):
            answers.append((X.shape, route(X, *args)))
            return answers[-1][1]

        monkeypatch.setattr(kernels, "_svd_trunc_gram", route_spy)
        self._check_capped(tt, 1e-2 * tt_norm(tt), 16)
        monkeypatch.undo()
        assert [shape for shape, _ in answers] == [(16, 64, 1024)]
        assert answers[0][1].rank > 16

    def test_cap_length_validated(self):
        tt = orthogonalize(decaying_train(0, (3, 3)), 1)
        with pytest.raises(ValueError, match="positive"):
            tucker_sweep(tt, 0.0, max_rank=0)


def transposed_centre_sweep(tt, delta, max_rank):
    """:func:`tucker_sweep`'s loop on centres built by an explicit transpose
    and folded back the same way: ``(factors, cores, discarded)``."""
    cores = list(orthogonalize(tt, 1).cores)
    factors, out, discarded = [], [], []
    for d in range(len(cores)):
        r, n, s = cores[d].shape
        center = np.reshape(cores[d].transpose(1, 0, 2), (n, r * s), order="F")
        f = svd_trunc(center, delta)
        keep = f.rank if max_rank is None else min(f.rank, max_rank)
        # The energy of the rest rows the cap cuts, read in the layout
        # the sweep reads them.
        cut = np.reshape(f.rest[keep:], (f.rank - keep, r, s), order="F")
        cut = cut.transpose(1, 0, 2)
        factors.append(f.U[:, :keep])
        discarded.append(f.discarded_energy + float(np.vdot(cut, cut)))
        T = np.reshape(f.rest[:keep], (keep, r, s), order="F").transpose(1, 0, 2)
        if d == len(cores) - 1:
            out.append(T)
        else:
            Q, R = qr_thin(np.reshape(T, (r * keep, s), order="F"))
            out.append(np.reshape(Q, (r, keep, Q.shape[1]), order="F"))
            cores[d + 1] = np.tensordot(R, cores[d + 1], axes=([1], [0]))
    return factors, out, np.array(discarded)


class TestSweepBits:
    @pytest.mark.parametrize("delta, max_rank", [(0.0, None), (1e-2, 2)],
                             ids=["exact", "capped"])
    def test_bit_identical_to_transposed_centre_loop(self, delta, max_rank):
        # ranks (1, 3, 6, 1): a first core with one left rank, a wide middle
        # centre (2 x 18, capped 2 x 12) and a tall last one (12 x 6, 12 x 4)
        shapes = [(1, 3, 3), (3, 2, 6), (6, 12, 1)]
        tt = TensorTrain([standard_normal(stream(4, d), shape)
                          for d, shape in enumerate(shapes)])
        factors, core, discarded = tucker_sweep(tt, delta, max_rank)
        want_factors, want_cores, want_discarded = transposed_centre_sweep(
            tt, delta, max_rank)
        pairs = list(zip(factors, want_factors)) + list(zip(core.cores, want_cores))
        pairs.append((discarded, want_discarded))
        assert len(pairs) == 2 * len(shapes) + 1
        for got, want in pairs:
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("r, s", [(324, 108), (108, 324)])
    def test_large_wide_centre_truncates_in_place(self, r, s, monkeypatch):
        # A centre of 2^20 entries or more whose (36, r s) unfolding is wide,
        # at a delta above 1e-7 |core|: the truncating Gram route reads the
        # core itself, where the unfolding loop takes it on a copy.
        cores = [standard_normal(stream(6, 0), (1, r, r)),
                 standard_normal(stream(6, 1), (r, 36, s))
                 * (0.8 ** np.arange(36))[:, None],
                 standard_normal(stream(6, 2), (s, s, 1))]
        tt = TensorTrain(cores)
        delta = 1e-3 * tt_norm(tt)
        modes = []
        route = kernels._svd_trunc_gram

        def route_spy(X, *args):
            modes.append(X.shape)
            return route(X, *args)

        monkeypatch.setattr(kernels, "_svd_trunc_gram", route_spy)
        factors, core, discarded = tucker_sweep(tt, delta)
        monkeypatch.undo()
        # Mode 1 keeps r1 <= r of the centre's left rank.
        r1 = factors[0].shape[1]
        assert modes == [(r1, 36, s)] and r1 * 36 * s >= kernels._GRAM_MIN_ENTRIES
        want_factors, want_cores, want_discarded = transposed_centre_sweep(
            tt, delta, None)
        ranks = [U.shape[1] for U in factors]
        assert ranks == [U.shape[1] for U in want_factors]
        assert ranks[1] < 36
        assert [c.shape for c in core.cores] == [c.shape for c in want_cores]
        for U, V in zip(factors, want_factors):
            assert np.linalg.norm(U @ U.T - V @ V.T) <= 1e-12
        # The truncating Gram route charges m eps lambda_1 of noise.
        eps = np.finfo(np.float64).eps
        for d, m in enumerate((r, 36, s)):
            margin = m * eps * tt_norm(tt) ** 2
            assert abs(discarded[d] - want_discarded[d]) <= margin


class TestSthosvdDense:
    @settings(max_examples=30, deadline=None)
    @given(SEEDS)
    def test_projection_identity(self, seed):
        t = tt_contract(decaying_train(seed, (4, 3, 5)))
        factors, core, discarded = sthosvd_dense(t, 1e-1)
        recon = core
        for d, U in enumerate(factors, start=1):
            recon = recon.mode_product(d, U)
        err2 = np.linalg.norm(recon.data - t.data) ** 2
        total = float(np.sum(discarded))
        denom = max(err2, total, 1e-10 * t.norm() ** 2)
        assert abs(err2 - total) / denom <= 1e-9
        assert err2 <= (1e-1 * t.norm()) ** 2 * (1 + 1e-9)
        # orthonormal projections: discarded energy equals the norm gap
        assert t.norm() ** 2 - recon.norm() ** 2 == pytest.approx(
            total, rel=1e-9, abs=1e-12 * t.norm() ** 2
        )

    def test_core_is_the_projected_tensor(self):
        # Mode 1 unfolds tall (40 x 12) and mode 2 wide (3 x 4 r_1): the core
        # must be t x_1 U_1^T ... x_D U_D^T on either route.
        t = tt_contract(decaying_train(8, (40, 3, 4)))
        factors, core, _ = sthosvd_dense(t, 1e-1)
        assert factors[0].shape[1] * 4 >= 2 * 3
        ref = t
        for d, U in enumerate(factors, start=1):
            ref = ref.mode_product(d, U.T)
        assert core.dims == ref.dims
        gap = np.linalg.norm(core.to_array() - ref.to_array())
        assert gap <= 1e-12 * ref.norm()

    def test_bits_match_the_dense_tensor_loop(self):
        # The loop works on plain arrays; the DenseTensor unfold/fold loop
        # it replaced must give the same bits.
        t = tt_contract(decaying_train(5, (3, 4, 5, 2), decay=0.5))
        delta = 1e-3 * t.norm() / 2
        core, ref_factors, ref_discarded = t, [], []
        for d in range(1, t.order + 1):
            f = svd_trunc(core.unfold(d), delta)
            ref_factors.append(f.U)
            ref_discarded.append(f.discarded_energy)
            core = core.fold(d, f.rest)
        factors, got, discarded = sthosvd_dense(t, 1e-3)
        assert [U.tobytes() for U in factors] == [U.tobytes() for U in ref_factors]
        assert got.dims == core.dims
        assert got.to_array().tobytes() == core.to_array().tobytes()
        assert discarded.tobytes() == np.array(ref_discarded).tobytes()

    def test_returned_core_is_not_rescanned(self, monkeypatch):
        # Every entry of the core is a projection of the checked input, and
        # a call on an input of infinite norm refuses every mode: the core
        # is taken over read-only without a finiteness scan.
        t = tt_contract(decaying_train(3, (4, 3, 5)))
        scanned = record_scans(monkeypatch)
        _, core, _ = sthosvd_dense(t, 1e-1)
        monkeypatch.undo()
        assert scan_count(scanned, core.to_array()) == 0
        assert not core.to_array().flags.writeable

    def test_desk_tensor_at_tight_tolerance(self, monkeypatch):
        # The 12-way desk tensor at 1e-7: every mode unfolds to 2 x 3,125,000
        # or 5 x 1,250,000, and all but the last keep full rank.  The Gram
        # route decides every mode, with no QR.
        t = reshape_to_factors(solve_heat(DESK_HEAT))
        certified = _spy_certificates(monkeypatch)
        qrs = record_qr(monkeypatch)
        passes = {"_gram": 0, "_apply": 0}

        def count(name):
            real = getattr(kernels, name)

            def spy(*args):
                passes[name] += args[-1].size == t.size
                return real(*args)

            monkeypatch.setattr(kernels, name, spy)

        count("_gram")
        count("_apply")
        tracemalloc.start()
        factors, _, discarded = sthosvd_dense(t, 1e-7)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        monkeypatch.undo()
        assert qrs == []
        ranks = (2, 5, 5, 2, 5, 5, 2, 2, 5, 5, 5, 4)
        assert tuple(U.shape[1] for U in factors) == ranks
        # The first eight modes are proven from their Gram eigenvalues.  The
        # next three, whose smallest values lie below the first pass's
        # charge, and the last, which truncates, are decided by the second
        # pass over their trailing eigenblocks.
        assert certified == ["gram"] * 8 + ["tail"] * 4
        # The modes run in groups (2, 5, 5), (2, 5, 5), (2, 2, 5), (5, 5)
        # and 5: one Gram pass and one projection over the full-size core
        # per group, and the four second passes read it once each (12 Gram
        # passes and 16 reads, 12 of them projections, one mode at a time).
        assert passes == {"_gram": 5, "_apply": 5 + 4}
        # Each mode reads the core in place: the old core and its
        # projection are all that is alive at once, never an unfolding copy.
        assert peak < 2.5 * t.size * 8
        for U in factors:
            np.testing.assert_allclose(U.T @ U, np.eye(U.shape[1]), atol=1e-12)
        # Reference: the same sequential truncation on LAPACK's SVD.
        norm2 = t.norm() ** 2
        delta = 1e-7 * t.norm() / np.sqrt(t.order)
        core = t.to_array()
        for d, r in enumerate(ranks):
            M = _unfold(core, d)
            U, s, _ = np.linalg.svd(M, full_matrices=False)
            tails = np.concatenate([np.cumsum(s[::-1] ** 2)[::-1], [0.0]])
            assert int(np.argmax(tails <= delta * delta)) == r
            assert abs(discarded[d] - tails[r]) <= 1e-12 * norm2
            core = _fold(U[:, :r].T @ M, d, core.shape)
        train_ranks = (1, 2, 10, 22, 39, 71, 21, 14, 13, 10, 6, 4, 1)
        certified = _spy_certificates(monkeypatch)
        assert tt_svd(t, 1e-7).ranks == train_ranks
        monkeypatch.undo()
        # The first unfolding keeps both rows on its Gram eigenvalues; the
        # next four Gram calls of the sweep are decided by the second pass.
        assert certified == ["gram"] + ["tail"] * 4

    @pytest.mark.parametrize("epsilon", [1e-3, 1e-5, 1e-7])
    def test_desk_tensor_never_reaches_the_certificate_of_rest(
        self, epsilon, monkeypatch
    ):
        # At delta > 0 the Gram route decides every call by its first pass
        # or its second: the certificate of rest serves delta = 0 alone.
        t = reshape_to_factors(solve_heat(DESK_HEAT))
        calls = []
        rest_certified = kernels._rest_certified

        def rest_spy(*args):
            calls.append(args)
            return rest_certified(*args)

        monkeypatch.setattr(kernels, "_rest_certified", rest_spy)
        tt = tt_svd(t, epsilon)
        tt_to_hosvd(tt, epsilon)
        sthosvd_dense(t, epsilon)
        monkeypatch.undo()
        assert calls == []

    # Dimensions and per-mode weights of a Gaussian tensor above the Gram
    # size gate.  Its modes view the core as (a, n, b) with a = 1, a small
    # a n, slabs with a < n and with a >= n, and b = 1; 0.97^k keeps every
    # direction at both tolerances below, and the last mode drops its 1e-3
    # direction at the loose one.
    VIEW_DIMS = (2, 3, 40, 5, 10, 120, 4)

    def _view_tensor(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal(self.VIEW_DIMS)
        for d, n in enumerate(self.VIEW_DIMS):
            last = d == len(self.VIEW_DIMS) - 1
            w = [1.0, 0.5, 0.25, 1e-3] if last else 0.97 ** np.arange(n)
            a *= np.reshape(w, (1,) * d + (n,) + (1,) * (a.ndim - d - 1))
        return DenseTensor(np.asfortranarray(a))

    @pytest.mark.parametrize("epsilon, last_rank", [(1e-2, 3), (1e-9, 4)])
    def test_view_kernels_match_the_unfolding_loop(
        self, epsilon, last_rank, monkeypatch
    ):
        t = self._view_tensor()
        assert t.size >= kernels._GRAM_MIN_ENTRIES
        modes, shapes = [], []
        route, gram = kernels._svd_trunc_gram, kernels._gram

        def route_spy(X, *args):
            modes.append(X.shape)
            return route(X, *args)

        def gram_spy(X):
            shapes.append(X.shape)
            return gram(X)

        monkeypatch.setattr(kernels, "_svd_trunc_gram", route_spy)
        monkeypatch.setattr(kernels, "_gram", gram_spy)
        certified = _spy_certificates(monkeypatch)
        factors, core, discarded = sthosvd_dense(t, epsilon)
        monkeypatch.undo()
        # Every mode took the Gram route on a view of the core, and each
        # that kept all of its rows was proven: all seven at the tight
        # tolerance, the first six from their eigenvalues at the loose one.
        # Each group of modes, (2, 3), 40, (5, 10), 120 and 4, is read by
        # one Gram pass over its own view of the core.
        assert [n for _, n, _ in modes] == list(self.VIEW_DIMS)
        if epsilon < 1e-7:
            assert [c is not None for c in certified] == [True] * t.order
        else:
            assert certified == ["gram"] * (t.order - 1)
        dims = self.VIEW_DIMS
        groups = [(0, 2), (2, 3), (3, 5), (5, 6), (6, 7)]
        assert [kernels._group_end(dims, d) for d, _ in groups] == [e for _, e in groups]
        expected = [
            (math.prod(dims[:d]), math.prod(dims[d:e]), math.prod(dims[e:]))
            for d, e in groups
        ]
        assert shapes == expected
        a, n, b = zip(*modes)
        assert a[0] == 1 and b[-1] == 1
        assert a[1] * n[1] <= kernels._VIEW_MAX_ROWS
        assert all(x * y > kernels._VIEW_MAX_ROWS for x, y in zip(a[2:], n[2:]))
        assert a[2] < n[2] and a[3] >= n[3]
        # Reference: svd_trunc on each DenseTensor unfolding, folded back.
        delta = epsilon * t.norm() / math.sqrt(t.order)
        ref, ref_factors, ref_discarded = t, [], []
        for d in range(1, t.order + 1):
            f = svd_trunc(ref.unfold(d), delta)
            ref_factors.append(f.U)
            ref_discarded.append(f.discarded_energy)
            ref = ref.fold(d, f.rest)
        ranks = tuple(U.shape[1] for U in factors)
        assert ranks == tuple(U.shape[1] for U in ref_factors)
        assert ranks == self.VIEW_DIMS[:-1] + (last_rank,)
        for U, V in zip(factors, ref_factors):
            gap = np.linalg.norm(U @ U.T - V @ V.T)
            assert gap <= 1e-12
        assert core.dims == ref.dims
        gap = np.linalg.norm(core.to_array() - ref.to_array())
        assert gap <= 1e-12 * t.norm()
        # The truncating Gram route charges m eps sigma_1^2 of noise.
        eps = np.finfo(np.float64).eps
        for d, size in enumerate(self.VIEW_DIMS):
            margin = size * eps * t.norm() ** 2
            assert abs(discarded[d] - ref_discarded[d]) <= margin
        assert np.count_nonzero(discarded) == (1 if last_rank == 3 else 0)

    # Gaussian tensors above the Gram gate whose groups of modes, of at
    # most 50 rows, meet each way a run can end or go on.  At 1e-2 the
    # run of (2, 5, 5) ends at the cap, and the group (3, 4, 4) loses the
    # 1e-3 direction of its middle mode, which ends the run there.  At
    # 1e-12 mode 2 of the group (2, 25) has a direction at 3e-6, below the
    # first pass's charge, whose 25-row trailing block the second pass
    # cannot prove at delta = 3.8e-13 |t|: the route refuses it inside the
    # run and the R-SVD keeps it; mode 4 of the group (2, 5, 5) has one at
    # 1e-6, which the second pass keeps inside the run.
    @staticmethod
    def _grouped_tensor(dims, special, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(dims)
        for d, n in enumerate(dims):
            w = np.array(special.get(d, 0.97 ** np.arange(n)))
            a *= np.reshape(w, (1,) * d + (n,) + (1,) * (a.ndim - d - 1))
        return DenseTensor(np.asfortranarray(a))

    @staticmethod
    def _lapack_sthosvd(t, epsilon):
        """The sequential truncation on LAPACK's SVD, one mode at a time,
        with the package's sign convention."""
        delta = epsilon * t.norm() / math.sqrt(t.order)
        core, factors, discarded = t.to_array(), [], []
        for d in range(t.order):
            M = _unfold(core, d)
            U, s, _ = np.linalg.svd(M, full_matrices=False)
            tails = np.concatenate([np.cumsum(s[::-1] ** 2)[::-1], [0.0]])
            r = int(np.argmax(tails <= delta * delta))
            U = U[:, :r].copy()
            kernels._fix_signs(U, np.zeros((r, 0)))
            factors.append(U)
            discarded.append(tails[r])
            core = _fold(U.T @ M, d, core.shape)
        return factors, core, discarded

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-12])
    def test_grouped_runs_match_the_sequential_lapack_loop(self, epsilon, monkeypatch):
        if epsilon == 1e-2:
            dims, special, seed = (2, 5, 5, 3, 4, 4, 6, 7, 14), {4: [1.0, 0.5, 0.25, 1e-3]}, 3
        else:
            w25, w5 = 0.97 ** np.arange(25), 0.97 ** np.arange(5)
            w25[-1], w5[-1] = 3e-6, 1e-6
            dims, special, seed = (2, 25, 2, 5, 5, 20, 21), {1: w25, 3: w5}, 4
        t = self._grouped_tensor(dims, special, seed)
        assert t.size >= kernels._GRAM_MIN_ENTRIES
        runs, inner, qrs = [], [], record_qr(monkeypatch)
        project_run, route = tucker._project_run, kernels._svd_trunc_gram
        tail = kernels._svd_trunc_tail

        def run_spy(Us, X):
            Us, rest = project_run(Us, X)
            runs.append([U.shape for U in Us])
            return Us, rest

        def route_spy(X, G, delta, skew=0.0):
            c = route(X, G, delta, skew)
            if skew > 0.0:
                inner.append(("gram", X.shape[1], None if c is None else c.rank))
            return c

        def tail_spy(X, P, lam, k0, delta, norm, skew=0.0):
            c = tail(X, P, lam, k0, delta, norm, skew)
            if skew > 0.0:
                inner.append(("tail", X.shape[1], None if c is None else c.rank))
            return c

        monkeypatch.setattr(tucker, "_project_run", run_spy)
        monkeypatch.setattr(kernels, "_svd_trunc_gram", route_spy)
        monkeypatch.setattr(kernels, "_svd_trunc_tail", tail_spy)
        factors, core, discarded = sthosvd_dense(t, epsilon)
        monkeypatch.undo()
        if epsilon == 1e-2:
            assert kernels._group_end(dims, 0) == 3 and kernels._group_end(dims, 3) == 6
            assert runs == [
                [(2, 2), (5, 5), (5, 5)],
                [(3, 3), (4, 3)],
                [(4, 4), (6, 6)],
                [(7, 7)],
                [(14, 14)],
            ]
            assert ("gram", 4, 3) in inner and qrs == []
        else:
            # Mode 2 is refused in the run of (2, 25), decided alone on the
            # wide R-SVD route, and the next group is a run of three.
            assert runs == [[(2, 2)], [(2, 2), (5, 5), (5, 5)], [(20, 20)], [(21, 21)]]
            assert ("gram", 25, None) in inner and ("tail", 5, 5) in inner
            assert len(qrs) == 1
        ref_factors, ref_core, ref_discarded = self._lapack_sthosvd(t, epsilon)
        assert [U.shape[1] for U in factors] == [U.shape[1] for U in ref_factors]
        for U, V in zip(factors, ref_factors):
            assert np.linalg.norm(U @ U.T - V @ V.T) <= 1e-12
        assert core.dims == ref_core.shape
        assert np.linalg.norm(core.to_array() - ref_core) <= 1e-12 * t.norm()
        # Within the first pass's charge for the dropped directions and the
        # eigensolver's margin.
        eps, norm2, size = np.finfo(np.float64).eps, t.norm() ** 2, t.size
        for U, got, want in zip(factors, discarded, ref_discarded):
            m, r = U.shape
            margin = m * eps * norm2 + (m - r) * 2.0 * kernels._gamma(size // m) * norm2
            assert abs(got - want) <= margin
            size = size // m * r

    def test_agrees_with_train_route_on_ranks(self):
        # both routes see the same per-mode singular spectra, so at a clear
        # truncation threshold they select identical multilinear ranks
        tt = decaying_train(13, (4, 4, 4), decay=0.3)
        t = tt_contract(tt)
        tuck = tt_to_hosvd(tt, 1e-2)
        factors, core, _ = sthosvd_dense(t, 1e-2)
        # sequential truncation can only shrink later spectra relative to
        # the train route's exact per-mode spectra
        assert tuple(U.shape[1] for U in factors) <= tuck.multilinear_rank

    @pytest.mark.parametrize("epsilon", [0.0, 1e-2])
    def test_zero_tensor_refused_for_its_norm(self, epsilon):
        with pytest.raises(ValueError, match="^tensor has zero norm$"):
            sthosvd_dense(DenseTensor(np.zeros((3, 4, 2))), epsilon)


    @pytest.mark.parametrize("dims", KEPT_GRAM_DIMS, ids=["3-way", "12-way"])
    @pytest.mark.parametrize("order", ["F", "C"])
    @pytest.mark.parametrize("epsilon", [1e-3, 1e-7])
    def test_kept_norm_and_gram_change_no_bit(self, monkeypatch, dims, order, epsilon):
        # The first call on a tensor keeps its norm and mode-1 Gram matrix;
        # a second call, and a call after tt_svd formed them, return the
        # bytes of a call on a copy whose every Gram matrix is formed afresh.
        a = kept_gram_input(dims, order)

        def run(t):
            factors, core, discarded = sthosvd_dense(t, epsilon)
            return [x.tobytes() for x in (*factors, core.to_array(), discarded)]

        with monkeypatch.context() as m:
            forget_kept_gram(m)
            fresh = run(DenseTensor(a.copy(order="K")))
        t = DenseTensor(a)
        cold = run(t)
        assert t._gram is not None
        assert run(t) == cold == fresh
        t = DenseTensor(a.copy(order="K"))
        tt_svd(t, epsilon)
        assert run(t) == fresh

    def test_compare_forms_the_leading_gram_and_norm_once(self, monkeypatch):
        # run_compress decomposes one tensor by all three methods: the
        # mode-1 Gram matrix is formed once, and each tensor, the input and
        # the ST-HOSVD core, gets one norm pass.
        a = kept_gram_input(KEPT_GRAM_DIMS[0], "F")
        leading = (1, a.shape[0], a.size // a.shape[0])
        grams, passes = [], []
        gram_for, block_norm = kernels._gram_for, dense._block_norm

        def recorded_gram(X):
            G = gram_for(X)
            if G is not None and X.shape == leading:
                grams.append(X)
            return G

        def recorded_norm(flat):
            passes.append(flat)
            return block_norm(flat)

        monkeypatch.setattr(kernels, "_gram_for", recorded_gram)
        monkeypatch.setattr(dense, "_block_norm", recorded_norm)
        reports = run_compress(DenseTensor(a), 1e-3)
        assert [r.method for r in reports] == ["sthosvd", "tt", "tt-tucker"]
        assert len(grams) == 1
        assert len(passes) == 2
        assert sum(np.shares_memory(p, a) for p in passes) == 1


class TestReconstructAndRatio:
    def test_reconstruct_shapes(self):
        tt = decaying_train(5, (4, 3, 4))
        tuck = tt_to_hosvd(tt, 1e-1)
        back = tucker_reconstruct_tt(tuck)
        assert back.dims == (4, 3, 4)
        assert back.ranks == tuck.core.ranks

    def test_compression_ratio(self):
        assert compression_ratio(1000, 10) == 100.0
        with pytest.raises(ValueError):
            compression_ratio(0, 10)
        with pytest.raises(ValueError):
            compression_ratio(10, 0)
