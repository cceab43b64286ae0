"""Property suites for the dense matrix kernels.

The truncation, QR, and Procrustes routines underpin every decomposition in
the package, so they get the heaviest randomized coverage: energy
accounting, rank minimality, orthogonality, determinism, and optimality
against sampled competitors.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import loop_fix_signs, record_qr, record_svd, sign_fixed_procrustes
from ttmera import kernels
from ttmera.errors import NumericError
from ttmera.heat import HeatConfig, solve_heat
from ttmera.kernels import (
    _certified_qr,
    _cholesky_qr2,
    _certified_sigma,
    _fix_signs,
    _full_row_rank,
    _gram,
    _gram_certified,
    _project,
    procrustes_solve,
    qr_thin,
    svd_full,
    svd_trunc,
)

SEEDS = st.integers(0, 2**32 - 1)


def gaussian(seed, m, n, decay=1.0):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((m, n))
    if decay != 1.0:
        # impose a decaying spectrum so truncation decisions are non-trivial
        U, s, Vt = np.linalg.svd(M, full_matrices=False)
        M = (U * (s * decay ** np.arange(s.size))) @ Vt
    return M


class TestSvdTrunc:
    @settings(max_examples=150, deadline=None)
    @given(SEEDS, st.integers(1, 12), st.integers(1, 12), st.floats(0.0, 0.9))
    def test_energy_identity_and_bound(self, seed, m, n, frac):
        M = gaussian(seed, m, n, decay=0.6)
        delta = frac * np.linalg.norm(M)
        f = svd_trunc(M, delta)
        recon = f.U @ f.rest
        err2 = np.linalg.norm(M - recon) ** 2
        ref = max(np.linalg.norm(M) ** 2, 1e-30)
        assert abs(err2 - f.discarded_energy) <= 1e-10 * ref
        assert f.discarded_energy <= delta * delta + 1e-12 * ref

    @settings(max_examples=150, deadline=None)
    @given(SEEDS, st.integers(1, 12), st.integers(1, 12), st.floats(0.05, 0.9))
    def test_rank_minimality(self, seed, m, n, frac):
        M = gaussian(seed, m, n, decay=0.6)
        delta = frac * np.linalg.norm(M)
        f = svd_trunc(M, delta)
        if f.rank > 0:
            # keeping one column fewer would overflow the budget
            tail_minus = f.discarded_energy + f.sigma[-1] ** 2
            assert tail_minus > delta * delta

    @settings(max_examples=100, deadline=None)
    @given(SEEDS, st.integers(1, 10), st.integers(1, 10))
    def test_factors_orthonormal(self, seed, m, n):
        M = gaussian(seed, m, n)
        f = svd_trunc(M, 0.3 * np.linalg.norm(M))
        np.testing.assert_allclose(f.U.T @ f.U, np.eye(f.rank), atol=1e-12)
        np.testing.assert_allclose(f.rest @ f.rest.T, np.diag(f.sigma**2), atol=1e-12)
        assert np.all(np.diff(f.sigma) <= 1e-12)

    def test_exact_at_zero_delta(self):
        M = gaussian(0, 9, 7)
        f = svd_trunc(M, 0.0)
        assert f.rank == 7
        np.testing.assert_allclose(f.U @ f.rest, M, atol=1e-12)

    def test_zero_delta_drops_null_directions(self):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 9))
        assert svd_trunc(M, 0.0).rank == 3

    def test_full_budget_gives_rank_zero(self):
        M = gaussian(2, 5, 5)
        f = svd_trunc(M, 2.0 * np.linalg.norm(M))
        assert f.rank == 0
        assert f.discarded_energy == pytest.approx(
            np.linalg.norm(M) ** 2, rel=1e-12
        )

    def test_deterministic(self):
        M = gaussian(3, 10, 6)
        a = svd_trunc(M, 0.4 * np.linalg.norm(M))
        b = svd_trunc(M, 0.4 * np.linalg.norm(M))
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.rest, b.rest)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            svd_trunc(np.eye(2), -1.0)

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_rejects_non_matrix(self, shape):
        with pytest.raises(ValueError, match="must be a matrix"):
            svd_trunc(np.ones(shape), 0.1)

    def test_wide_matrix_loose_tolerance_contract(self):
        # large enough to take the Gram shortcut; the public contract must
        # hold regardless of the internal route
        rng = np.random.default_rng(9)
        m, n = 64, 70_000
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        s = 2.0 ** -np.arange(m, dtype=float)
        M = (U * s) @ rng.standard_normal((m, n)) / np.sqrt(n)
        norm = np.linalg.norm(M)
        delta = 0.05 * norm
        f = svd_trunc(M, delta)
        recon = f.U @ f.rest
        err2 = np.linalg.norm(M - recon) ** 2
        assert abs(err2 - f.discarded_energy) <= 1e-9 * norm**2
        assert err2 <= delta * delta * (1 + 1e-9)
        s_exact = np.linalg.svd(M, compute_uv=False)
        tails = np.concatenate([np.cumsum(s_exact[::-1] ** 2)[::-1], [0.0]])
        minimal = int(np.argmax(tails <= delta * delta))
        assert f.rank == minimal
        np.testing.assert_allclose(f.U.T @ f.U, np.eye(f.rank), atol=1e-10)
        np.testing.assert_allclose(
            f.rest @ f.rest.T, np.diag(f.sigma**2), atol=1e-10 * f.sigma[0] ** 2
        )


def _spectrum_matrix(seed, m, n, s):
    """An m x n matrix with singular values ``s`` (padded with zeros)."""
    rng = np.random.default_rng(seed)
    k = len(s)
    U = np.linalg.qr(rng.standard_normal((m, k)))[0]
    V = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (U * np.asarray(s, dtype=float)) @ V.T


class TestSvdTruncRoutes:
    """One contract on every route: the residual is the discarded energy,
    ``U`` is orthonormal, ``rest`` has orthogonal rows of norm sigma, the
    rank is the minimal one, and a wide input reaches the SVD only as its
    small square factor."""

    # name: (m, n, nonzero singular values, tail index of delta; None for 0)
    CASES = {
        "wide": (6, 40, 0.5 ** np.arange(6), 3),
        "square": (12, 12, 0.6 ** np.arange(12), 5),
        "tall": (40, 6, 0.5 ** np.arange(6), 2),
        "gram-wide": (8, 1 << 19, 0.3 ** np.arange(8), 2),
        # Above the Gram size gate, but the Gram route serves only m <= n.
        "gram-tall": (1 << 19, 8, 0.3 ** np.arange(8), 2),
        # sigma_r / sigma_1 = 2.9e-4 passes the Gram eigenvalue check; a left
        # factor recovered there as M V / sigma was orthonormal to 7e-10.
        "tall-near-gram-gate": (1 << 19, 12, np.logspace(0, -3.9, 12), 10),
        "wide-rank-deficient": (8, 50, np.logspace(0, -10, 5), None),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_contract(self, name, monkeypatch):
        m, n, spectrum, cut = self.CASES[name]
        M = _spectrum_matrix(7, m, n, spectrum)
        s_exact = np.linalg.svd(M, compute_uv=False)
        tails = np.concatenate([np.cumsum(s_exact[::-1] ** 2)[::-1], [0.0]])
        if cut is None:
            delta = 0.0
            minimal = int(np.count_nonzero(
                s_exact > max(m, n) * np.finfo(np.float64).eps * s_exact[0]
            ))
            assert minimal == len(spectrum)
        else:
            # halfway between two tails, so the minimal rank is cut + 1
            delta = float(np.sqrt((tails[cut] + tails[cut + 1]) / 2))
            minimal = int(np.argmax(tails <= delta * delta))
        shapes = record_svd(monkeypatch)
        f = svd_trunc(M, delta)
        monkeypatch.undo()
        self._check(M, f, minimal)
        if n >= 2 * m:
            assert all(shape == (m, m) for shape in shapes), shapes
        if m > n:
            assert shapes == [(m, n)], shapes

    @staticmethod
    def _check(M, f, minimal):
        assert f.rank == minimal
        norm2 = float(np.linalg.norm(M) ** 2)
        err2 = float(np.linalg.norm(M - f.U @ f.rest) ** 2)
        assert abs(err2 - f.discarded_energy) <= 1e-10 * norm2
        np.testing.assert_allclose(f.U.T @ f.U, np.eye(f.rank), atol=1e-12)
        np.testing.assert_allclose(
            f.rest @ f.rest.T, np.diag(f.sigma**2), rtol=0, atol=1e-12 * norm2
        )
        assert f.rest.shape == (f.rank, M.shape[1])

    # Wide 8 x 2^19 inputs above the Gram size gate, at a delta the
    # truncating Gram route refuses (below 1e-7 |M|).
    # name: (nonzero singular values, delta, minimal rank, certified)
    LOG8 = np.logspace(0, -6, 8)
    KEEP_ALL = {
        "gram-keep-all": (LOG8, 1e-9 * np.linalg.norm(LOG8), 8, True),
        "gram-keep-all-zero-delta": (LOG8, 0.0, 8, True),
        # sigma_min = delta / 2 passes the eigenvalue check for rank
        # deficiency, so only the certificate keeps the last row out.
        "gram-keep-all-refused": ([1.0] * 7 + [1.25e-7], 2.5e-7, 7, False),
        "gram-keep-all-margin": ([1.0] * 7 + [1e-6], 2.5e-7, 8, True),
        "gram-rank-deficient": (np.logspace(0, -6, 5), 0.0, 5, False),
    }

    @pytest.mark.parametrize("name", list(KEEP_ALL))
    def test_keep_all(self, name, monkeypatch):
        spectrum, delta, rank, certified = self.KEEP_ALL[name]
        m, n = 8, 1 << 19
        M = _spectrum_matrix(7, m, n, spectrum)
        s_exact = np.linalg.svd(M, compute_uv=False)
        tails = np.concatenate([np.cumsum(s_exact[::-1] ** 2)[::-1], [0.0]])
        if delta == 0.0:
            minimal = int(np.count_nonzero(
                s_exact > max(m, n) * np.finfo(np.float64).eps * s_exact[0]
            ))
        else:
            assert delta <= 1e-7 * np.linalg.norm(M)
            minimal = int(np.argmax(tails <= delta * delta))
        assert minimal == rank
        svds = record_svd(monkeypatch)
        qrs = record_qr(monkeypatch)
        f = svd_trunc(M, delta)
        monkeypatch.undo()
        self._check(M, f, minimal)
        if certified:
            assert (svds, qrs) == ([], []), (svds, qrs)
            assert f.discarded_energy == 0.0
            # The row norms of rest carry the small values to relative
            # accuracy; square roots of Gram eigenvalues would not.
            np.testing.assert_allclose(f.sigma, s_exact, rtol=1e-9)
        else:
            assert qrs == [(n, m)], qrs

    @pytest.mark.parametrize("m, n", [(8, 1 << 19), (2048, 2048)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, m, n, bad):
        # Wide inputs skip the scan of M when M M^T is finite; square ones
        # never form it and are scanned.  Either way one bad entry is
        # caught.
        M = np.ones((m, n))
        M[m - 1, n // 3] = bad
        for delta in (0.0, 1.0):
            with pytest.raises(NumericError, match="non-finite"):
                svd_trunc(M, delta)

    def test_gram_overflow_takes_the_wide_route(self, monkeypatch):
        # Finite entries whose squares overflow: the scan passes and the
        # R-SVD, which never squares, keeps both rows.
        M = _spectrum_matrix(3, 2, 1 << 21, [1.0, 0.5]) * 1e300
        qrs = record_qr(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = svd_trunc(M, 0.0)
        monkeypatch.undo()
        assert qrs == [(1 << 21, 2)]
        assert f.rank == 2
        np.testing.assert_allclose(f.sigma, [1e300, 0.5e300], rtol=1e-12)

    @pytest.mark.parametrize("scale", [1e-170, 1e-160])
    @pytest.mark.parametrize("frac", [0.0, 0.5])
    def test_gram_underflow_takes_the_wide_route(self, scale, frac, monkeypatch):
        # Entries whose products underflow leave M M^T with few or none of
        # its digits (a Gram route kept rank 0 at 1e-160), and the squared
        # singular values underflow too.  The R-SVD, its rank rule scaled,
        # keeps both rows.
        M = _spectrum_matrix(3, 2, 1 << 21, [1.0, 0.5]) * scale
        qrs = record_qr(monkeypatch)
        f = svd_trunc(M, frac * 0.5 * scale)
        monkeypatch.undo()
        assert qrs == [(1 << 21, 2)]
        assert f.rank == 2
        assert f.discarded_energy == 0.0
        np.testing.assert_allclose(f.sigma, [scale, 0.5 * scale], rtol=1e-12)

    @pytest.mark.parametrize("name", ["wide", "square"])
    @pytest.mark.parametrize("k", [-1000, -500, 500, 1000])
    def test_rank_rule_is_scale_free(self, name, k):
        # Scaling M and delta by 2^k moves no rank: squares of values near
        # 2^1000 overflow and near 2^-1000 underflow unless taken at the
        # scale of sigma_1.  The energy scales by 4^k, to inf or 0 where
        # that leaves the float range.
        m, n, spectrum, cut = self.CASES[name]
        M = _spectrum_matrix(7, m, n, spectrum)
        s = np.linalg.svd(M, compute_uv=False)
        tails = np.concatenate([np.cumsum(s[::-1] ** 2)[::-1], [0.0]])
        for delta in (0.0, float(np.sqrt((tails[cut] + tails[cut + 1]) / 2))):
            f = svd_trunc(M, delta)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                g = svd_trunc(np.ldexp(M, k), np.ldexp(delta, k))
            with np.errstate(over="ignore", under="ignore"):
                energy = np.ldexp(f.discarded_energy, 2 * k)
            assert g.rank == f.rank
            assert g.discarded_energy == pytest.approx(energy, rel=1e-12, abs=0.0)
            np.testing.assert_allclose(g.sigma, np.ldexp(f.sigma, k), rtol=1e-12)

    def test_overflowing_values_keep_their_rank(self):
        # sigma = (1e300, 5e299) at delta = 1e299 keeps both; squared
        # unscaled, both the tails and delta^2 read inf and rank 0 passed.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = svd_trunc(np.diag([1.0, 0.5]) * 1e300, 1e299)
        assert f.rank == 2
        assert f.discarded_energy == 0.0


def _spy(monkeypatch, name: str) -> list:
    """Record the result of every call of ``kernels.<name>``."""
    results = []
    fn = getattr(kernels, name)

    def spy(*args):
        result = fn(*args)
        results.append(result)
        return result

    monkeypatch.setattr(kernels, name, spy)
    return results


class TestGramFloors:
    """Between the two size floors a wide input takes the truncating Gram
    route at a loose delta, with the R-SVD's rank, and never forms ``M
    M^T`` at a tight one."""

    # 16 x 2^17 = 2^21 entries; 0.3^15 = 1.4e-8 lies below 1e-7 |M|_F, so a
    # tight delta can truncate too.
    SHAPE = (16, 1 << 17)
    EPS = np.finfo(np.float64).eps

    def _input(self):
        M = _spectrum_matrix(11, *self.SHAPE, 0.3 ** np.arange(self.SHAPE[0]))
        assert kernels._GRAM_MIN_ENTRIES <= M.size < kernels._GRAM_KEEP_ALL_MIN_ENTRIES
        s = np.linalg.svd(M, compute_uv=False)
        return M, np.concatenate([np.cumsum(s[::-1] ** 2)[::-1], [0.0]])

    def test_loose_delta_takes_the_gram_route(self, monkeypatch):
        M, tails = self._input()
        m, n = M.shape
        delta = float(np.sqrt((tails[3] + tails[4]) / 2))
        assert delta > kernels._GRAM_DELTA_FLOOR * np.linalg.norm(M)
        monkeypatch.setattr(kernels, "_GRAM_MIN_ENTRIES", M.size + 1)
        qrs = record_qr(monkeypatch)
        wide = svd_trunc(M, delta)
        monkeypatch.undo()
        assert qrs == [(n, m)]
        grams = _spy(monkeypatch, "_gram")
        qrs, svds = record_qr(monkeypatch), record_svd(monkeypatch)
        f = svd_trunc(M, delta)
        monkeypatch.undo()
        assert len(grams) == 1 and (qrs, svds) == ([], [])
        assert f.rank == wide.rank == 4
        TestSvdTruncRoutes._check(M, f, 4)
        # Within the route's eigenvalue-noise margin of the exact tail.
        margin = m * self.EPS * f.sigma[0] ** 2
        assert abs(f.discarded_energy - tails[4]) <= margin

    @pytest.mark.parametrize("cut", [None, 14])
    def test_tight_delta_never_forms_the_gram_matrix(self, cut, monkeypatch):
        M, tails = self._input()
        m, n = M.shape
        delta = 0.0 if cut is None else float(np.sqrt((tails[cut] + tails[cut + 1]) / 2))
        assert delta <= kernels._GRAM_DELTA_FLOOR * np.linalg.norm(M)
        grams = _spy(monkeypatch, "_gram")
        qrs = record_qr(monkeypatch)
        f = svd_trunc(M, delta)
        monkeypatch.undo()
        assert grams == []
        assert qrs == [(n, m)]
        TestSvdTruncRoutes._check(M, f, m if cut is None else cut + 1)

    def test_heat_discard_within_the_eigensolver_margin(self):
        # The first unfolding of the 100 x 100 x 4000 heat tensor at tt_svd's
        # budget for 1e-3.  The margin m eps lambda_1 charges the
        # eigensolver, not the worst case of the Gram product's rounding,
        # 2,000 times larger here; the reported discard must still lie
        # within it of the residual, streamed over column blocks.
        t = solve_heat(HeatConfig(ds=1e-2, t_end=0.1))
        M = t.data.reshape(100, -1, order="F")
        assert M.shape == (100, 400_000)
        delta = 1e-3 * t.norm() / np.sqrt(2)
        f = svd_trunc(M, delta)
        assert f.rank == 5
        residual = 0.0
        for j in range(0, M.shape[1], 1 << 14):
            R = M[:, j : j + (1 << 14)] - f.U @ f.rest[:, j : j + (1 << 14)]
            residual += float(np.vdot(R, R))
        margin = M.shape[0] * self.EPS * f.sigma[0] ** 2
        assert abs(f.discarded_energy - residual) <= margin
        assert margin <= 2.5e-14 * t.norm() ** 2


class TestGramCertified:
    """The keep-all certificate read off the Gram matrix in hand: it proves
    full row rank of well-conditioned inputs without another pass, refuses
    what lies below its rounding charge, and then the certificate of
    ``rest`` decides with the bytes it always had."""

    EPS = np.finfo(np.float64).eps

    @staticmethod
    def _parts(M):
        """``G``, its trace, and the sign-fixed eigenvectors, as the Gram
        route forms them."""
        G = _gram(M[None])
        U, _ = _project(np.linalg.eigh(G)[1][:, ::-1], M[None])
        return G, float(np.trace(G)), U

    def test_well_conditioned_input_certified_from_its_gram_matrix(self, monkeypatch):
        m, n = 8, 1 << 19
        M = _spectrum_matrix(7, m, n, np.linspace(1.0, 0.5, m))
        proofs = _spy(monkeypatch, "_gram_certified")
        grams = _spy(monkeypatch, "_gram")
        fallbacks = _spy(monkeypatch, "_certified_sigma")
        svds, qrs = record_svd(monkeypatch), record_qr(monkeypatch)
        f = svd_trunc(M, 0.0)
        monkeypatch.undo()
        assert proofs == [True] and len(grams) == 1 and fallbacks == []
        assert (svds, qrs) == ([], [])
        TestSvdTruncRoutes._check(M, f, m)
        assert f.discarded_energy == 0.0
        s_exact = np.linalg.svd(M, compute_uv=False)
        np.testing.assert_allclose(f.sigma, s_exact, rtol=1e-9)

    def test_below_the_rounding_charge_falls_back_to_rest(self, monkeypatch):
        # sigma_min / |M|_F = 3.8e-7, below sqrt(n u) = 7.6e-6: the Gram
        # matrix's own rounding could hide it, so only rest's Gram matrix
        # proves it, and U, rest and sigma are the bytes of that route.
        m, n = 8, 1 << 19
        M = _spectrum_matrix(7, m, n, [1.0] * 7 + [1e-6])
        assert 1e-6 / np.linalg.norm(M) < np.sqrt(n * self.EPS / 2)
        proofs = _spy(monkeypatch, "_gram_certified")
        fallbacks = _spy(monkeypatch, "_certified_sigma")
        f = svd_trunc(M, 0.0)
        monkeypatch.undo()
        assert proofs == [False] and fallbacks[0] is not None
        G, trace, U = self._parts(M)
        rest = (M.T @ U).T
        sigma = _certified_sigma(rest @ rest.T, n, 0.0, np.sqrt(trace))
        assert f.U.tobytes() == U.tobytes()
        assert f.rest.tobytes() == rest.tobytes()
        assert f.sigma.tobytes() == sigma.tobytes()
        TestSvdTruncRoutes._check(M, f, m)

    @pytest.mark.parametrize("ratio, certified", [(0.9, True), (1.1, False)])
    def test_smallest_value_against_delta(self, ratio, certified):
        # sigma_min = 0.5: certified while delta stays below it.
        M = _spectrum_matrix(3, 4, 4096, [1.0, 1.0, 1.0, 0.5])
        G, trace, _ = self._parts(M)
        assert _gram_certified(G, M.shape[1], ratio * 0.5, trace) is certified

    def test_gram_matrix_alone_carries_the_proof(self):
        # Rows of norms 1 and 2 at 0.5 rad: sigma_min^2 = 0.19 |M|^2 / 5,
        # though the Gershgorin disc of G reaches below zero.  The inverse
        # bound proves it from G alone, with no eigenvectors.
        M = np.zeros((2, 64))
        M[0, 0] = 1.0
        M[1, :2] = 2.0 * np.cos(0.5), 2.0 * np.sin(0.5)
        G, trace, _ = self._parts(M)
        assert _gram_certified(G, 64, 0.0, trace)

    @settings(max_examples=200, deadline=None)
    @given(
        SEEDS,
        st.integers(2, 8),
        st.integers(0, 60),
        st.floats(-0.3, 1.0),
        st.booleans(),
    )
    def test_a_proof_is_never_wrong_near_the_floor(self, seed, m, extra, lg, at_zero):
        # sigma_min at 10^lg times the floor: delta, or at delta = 0 the
        # threshold max(m, n) eps |M|_F.  Whichever certificate proves full
        # row rank, LAPACK's sigma_min of the stored M lies above the floor.
        n = 2 * m + extra
        rng = np.random.default_rng(seed)
        s = np.sort(rng.uniform(0.5, 1.0, m))[::-1]
        if at_zero:
            delta = 0.0
            s[-1] = 10.0**lg * n * self.EPS * np.linalg.norm(s)
        else:
            delta = s[-1] / 10.0**lg
        M = _spectrum_matrix(seed, m, n, s)
        G, trace, U = self._parts(M)
        rest = (M.T @ U).T
        proven = _gram_certified(G, n, delta, trace) or (
            _certified_sigma(rest @ rest.T, n, delta, np.sqrt(trace)) is not None
        )
        floor = max(delta, n * self.EPS * np.linalg.norm(M))
        if proven:
            assert np.linalg.svd(M, compute_uv=False)[-1] > floor


class TestMatrixCase:
    """A matrix is the one-slab case ``a = 1`` of the Gram routes' array
    reading: ``_gram`` and ``_project`` give it the bytes of the plain
    matrix products, on both sides of ``_VIEW_MAX_ROWS`` and in either
    storage order."""

    CASES = [(m, order) for m in (5, 64, 65, 100) for order in "CF"]

    @staticmethod
    def matrix(m, order):
        return np.asarray(gaussian(m, m, 3 * m + 7), order=order)

    @pytest.mark.parametrize("m, order", CASES)
    def test_gram_is_the_matrix_product(self, m, order):
        M = self.matrix(m, order)
        assert _gram(M[None]).tobytes() == (M @ M.T).tobytes()

    @pytest.mark.parametrize("m, order", CASES)
    @pytest.mark.parametrize("r", [1, 4, None])
    def test_project_is_the_matrix_product(self, m, order, r):
        # U as the Gram route hands it over: a slice of the eigenvectors
        # in descending order, so neither C- nor F-contiguous.
        M = self.matrix(m, order)
        U = np.linalg.eigh(M @ M.T)[1][:, ::-1][:, :r]
        fixed = np.ascontiguousarray(U)
        loop_fix_signs(fixed, np.zeros((fixed.shape[1], 0)))
        V, rest = _project(U, M[None])
        assert V.tobytes() == fixed.tobytes()
        assert rest.shape == (1, fixed.shape[1], M.shape[1])
        assert rest[0].tobytes() == (M.T @ fixed).T.tobytes()


class TestCertifiedSigma:
    """The keep-all certificate on hand-built projections ``rest``: it
    returns the row norms when they prove full row rank above the floor,
    and ``None`` when the rows are too short, too parallel, or within the
    projection's rounding of zero."""

    EPS = np.finfo(np.float64).eps

    @staticmethod
    def _certify(rest, delta, norm):
        """The certificate as the Gram routes call it: on ``rest``'s Gram
        matrix and column count."""
        return _certified_sigma(rest @ rest.T, rest.shape[1], delta, norm)

    @staticmethod
    def _rows(norms, angle=np.pi / 2, n=3):
        """Two rows of length ``n`` and the given norms at ``angle``."""
        rest = np.zeros((2, n))
        rest[0, 0] = norms[0]
        rest[1, :2] = norms[1] * np.cos(angle), norms[1] * np.sin(angle)
        return rest

    def test_orthogonal_rows_certify_with_their_norms(self):
        rest = self._rows([2.0, 0.5])
        sigma = self._certify(rest, 0.1, np.linalg.norm(rest))
        np.testing.assert_array_equal(sigma, [2.0, 0.5])

    @pytest.mark.parametrize("short, certified", [(0.05, False), (0.4, True)])
    def test_shortest_row_against_delta(self, short, certified):
        rest = self._rows([1.0, short])
        got = self._certify(rest, 0.1, np.linalg.norm(rest))
        assert (got is not None) is certified

    @pytest.mark.parametrize("short, certified", [(100, False), (4000, True)])
    def test_zero_delta_floor(self, short, certified):
        # At delta = 0 the rank rule drops values up to max(m, n) eps |M|,
        # 1000 eps here, so a shorter row is not certified.
        rest = self._rows([1.0, short * self.EPS], n=1000)
        got = self._certify(rest, 0.0, 1.0)
        assert (got is not None) is certified

    @pytest.mark.parametrize("angle, certified", [(1e-6, False), (1.0, True)])
    def test_parallel_rows_refused(self, angle, certified):
        # Unit rows at a small angle have sigma_min ~ angle / sqrt(2): long
        # rows alone prove nothing.
        rest = self._rows([1.0, 1.0], angle)
        got = self._certify(rest, 1e-3, np.linalg.norm(rest))
        assert (got is not None) is certified

    def test_relative_to_each_row(self):
        # An overlap of 1e-17 |M|^2, the size of Gram eigenvector noise,
        # would swamp sigma_min^2 = 1e-18 in an unscaled Gershgorin bound;
        # scaled by the row norms it costs 1e-8 of the small row.
        rest = self._rows([1.0, 1e-9])
        rest[1, 0] = 1e-17
        got = self._certify(rest, 1e-10, np.linalg.norm(rest))
        assert got is not None
        assert got[1] == pytest.approx(1e-9, rel=1e-12)

    @pytest.mark.parametrize("short, certified", [(1e-15, False), (4e-15, True)])
    def test_projection_rounding_allowance(self, short, certified):
        # At delta = 0 the floor is 3 eps |M|; a row within the rounding of
        # the projection, 2 (sqrt(2) + 2) eps |M|, is not certified.
        rest = self._rows([1.0, short])
        assert short > 3 * self.EPS
        got = self._certify(rest, 0.0, 1.0)
        assert (got is not None) is certified


class TestFullRowRank:
    """The certificate proves what the rank rule of ``svd_trunc`` would
    decide: a certified matrix keeps every singular value there, and a
    matrix whose smallest singular value is below the floor is never
    certified."""

    EPS = np.finfo(np.float64).eps

    @pytest.mark.parametrize("m, n", [(60, 60), (40, 130)])
    @pytest.mark.parametrize("delta", [0.0, 1e-12])
    def test_gaussian_certifies(self, m, n, delta):
        M = gaussian(3, m, n)
        assert _full_row_rank(M, delta)
        assert svd_trunc(M, delta).rank == m

    @pytest.mark.parametrize("m, n", [(60, 60), (40, 130)])
    @pytest.mark.parametrize("delta", [0.0, 1e-8])
    def test_smallest_value_against_the_floor(self, m, n, delta):
        # All singular values 1 but the last, so |M|_F is known.
        norm = np.sqrt(m - 1)
        floor = max(delta, max(m, n) * self.EPS * norm)
        for s_min, certified in ((floor / 2, False), (4 * floor, True)):
            M = _spectrum_matrix(5, m, n, [1.0] * (m - 1) + [s_min])
            assert _full_row_rank(M, delta) is certified, s_min
            if certified:
                assert svd_trunc(M, delta).rank == m

    @pytest.mark.parametrize("shrink, certified", [(0.4, True), (0.7, False)])
    def test_residual_margin(self, shrink, certified, monkeypatch):
        # An approximate inverse whose first column is shrunk leaves the
        # residual F = -shrink e1 e1^T.  The bound holds for any residual
        # below 1, but the test asks for 1/2 to leave room for rounding.
        M = gaussian(3, 40, 40)
        inv = np.linalg.inv

        def approximate(A):
            X = inv(A)
            X[:, 0] *= 1.0 - shrink
            return X

        monkeypatch.setattr(np.linalg, "inv", approximate)
        assert _full_row_rank(M, 0.0) is certified

    def test_repeated_column_refused(self):
        M = gaussian(8, 50, 50)
        M[:, 1] = M[:, 0]
        assert not _full_row_rank(M, 0.0)

    def test_wide_repeated_row_refused(self):
        # A repeated column leaves a wide matrix at full row rank; a
        # repeated row does not, and shows in the triangular factor.
        M = gaussian(8, 50, 120)
        M[1] = M[0]
        assert not _full_row_rank(M, 0.0)

    def test_singular_takes_the_linalg_error_fallback(self):
        M = gaussian(9, 30, 30)
        M[4] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not _full_row_rank(M, 0.0)


class TestCertifiedQr:
    """The tall split: certified only when the rank rule of ``svd_trunc``
    provably keeps every column, and then an orthonormal ``Q`` and an upper
    triangular ``R`` with a positive diagonal whose product is ``M``."""

    @pytest.mark.parametrize("m, n", [(200, 30), (61, 60)])
    @pytest.mark.parametrize("delta", [0.0, 1e-12])
    def test_gaussian_splits(self, m, n, delta):
        M = np.asfortranarray(gaussian(3, m, n))
        Q, R = _certified_qr(M, delta)
        assert Q.flags.f_contiguous
        np.testing.assert_allclose(Q.T @ Q, np.eye(n), rtol=0, atol=1e-14)
        np.testing.assert_array_equal(R, np.triu(R))
        assert np.all(np.diag(R) > 0.0)
        np.testing.assert_allclose(Q @ R, M, rtol=0, atol=1e-14 * np.linalg.norm(M))
        assert svd_trunc(M, delta).rank == n

    def test_smallest_value_against_the_floor(self):
        # CholeskyQR2 holds to about kappa = 1e7, so the floor is tested at
        # a delta it reaches: sigma_min = delta / 2 is refused.
        m, n, delta = 200, 30, 1e-5
        for s_min, certified in ((delta / 2, False), (4 * delta, True)):
            M = _spectrum_matrix(5, m, n, [1.0] * (n - 1) + [s_min])
            assert (_certified_qr(M, delta) is not None) is certified, s_min
            assert (svd_trunc(M, delta).rank == n) is certified

    def test_repeated_column_refused(self):
        M = gaussian(8, 200, 30)
        M[:, 1] = M[:, 0]
        assert _certified_qr(M, 0.0) is None

    @pytest.mark.parametrize("m, n", [(200, 30), (30, 30)])
    def test_cholesky_qr2_bounds_what_it_measures(self, m, n):
        # A square input splits too: mera_to_tt's factored route gives it
        # the square K of a group end.
        M = gaussian(3, m, n)
        Q, R, omega, rho = _cholesky_qr2(M)
        assert np.linalg.norm(Q.T @ Q - np.eye(n)) <= omega < 1e-11
        assert np.linalg.norm(Q @ R - M) <= rho < 1e-13 * np.linalg.norm(M)
        assert np.all(np.diag(R) > 0.0)

    def test_kappa_1e9_refused(self):
        # sigma_min = 1e-9 is far above the delta = 0 floor, but squaring
        # gives M^T M a condition number of 1e18, past what the Cholesky
        # factors can resolve.
        M = _spectrum_matrix(5, 300, 40, np.logspace(0, -9, 40))
        assert svd_trunc(M, 0.0).rank == 40
        assert _certified_qr(M, 0.0) is None


class TestQrThin:
    @settings(max_examples=100, deadline=None)
    @given(SEEDS, st.integers(1, 12), st.integers(1, 12))
    def test_reconstruction_and_orthogonality(self, seed, m, n):
        M = gaussian(seed, m, n)
        Q, R = qr_thin(M)
        k = min(m, n)
        assert Q.shape == (m, k) and R.shape == (k, n)
        np.testing.assert_allclose(Q @ R, M, atol=1e-12)
        np.testing.assert_allclose(Q.T @ Q, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(R, np.triu(R), atol=0.0)

    def test_deterministic(self):
        M = gaussian(11, 8, 5)
        Q1, R1 = qr_thin(M)
        Q2, R2 = qr_thin(M)
        np.testing.assert_array_equal(Q1, Q2)
        np.testing.assert_array_equal(R1, R2)


class TestSvdFull:
    @settings(max_examples=100, deadline=None)
    @given(SEEDS, st.integers(1, 10), st.integers(1, 10))
    def test_square_factors(self, seed, m, n):
        M = gaussian(seed, m, n)
        U, s, Vt = svd_full(M)
        assert U.shape == (m, m) and Vt.shape == (n, n)
        np.testing.assert_allclose(U.T @ U, np.eye(m), atol=1e-12)
        np.testing.assert_allclose(Vt @ Vt.T, np.eye(n), atol=1e-12)
        S = np.zeros((m, n))
        S[: s.size, : s.size] = np.diag(s)
        np.testing.assert_allclose(U @ S @ Vt, M, atol=1e-12)


class TestProcrustes:
    @settings(max_examples=100, deadline=None)
    @given(SEEDS, st.integers(1, 6), st.integers(1, 6))
    def test_orthogonal_and_optimal(self, seed, m, n):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, n))
        B = rng.standard_normal((m, n))
        V = procrustes_solve(A, B)
        np.testing.assert_allclose(V.T @ V, np.eye(m), atol=1e-12)
        best = np.linalg.norm(V @ A - B)
        for _ in range(100):
            Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
            assert best <= np.linalg.norm(Q @ A - B) + 1e-10

    @settings(max_examples=100, deadline=None)
    @given(SEEDS, st.integers(2, 6), st.integers(6, 9))
    def test_recovers_planted_rotation(self, seed, m, n):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, n))
        Q0 = np.linalg.qr(rng.standard_normal((m, m)))[0]
        V = procrustes_solve(A, Q0 @ A)
        np.testing.assert_allclose(V, Q0, atol=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            procrustes_solve(np.zeros((2, 3)), np.zeros((3, 2)))

    @pytest.mark.parametrize(
        "A, B, error",
        [
            (np.zeros(3), np.zeros(3), ValueError),
            (np.zeros((0, 3)), np.zeros((0, 3)), ValueError),
            (np.array([[np.nan, 1.0]]), np.ones((1, 2)), NumericError),
            (np.ones((1, 2)), np.array([[np.inf, 1.0]]), NumericError),
        ],
    )
    def test_rejects_malformed_input(self, A, B, error):
        with pytest.raises(error):
            procrustes_solve(A, B)

    @settings(max_examples=200, deadline=None)
    @given(SEEDS, st.integers(1, 8), st.integers(1, 8), st.booleans())
    def test_bit_identical_to_sign_fixed_factors(self, seed, m, n, integer):
        # P @ Q.T does not depend on the signs of the singular-vector pairs,
        # so skipping the sign convention must not change a single bit.
        rng = np.random.default_rng(seed)
        if integer:
            A = rng.integers(-2, 3, size=(m, n)).astype(float)
            B = rng.integers(-2, 3, size=(m, n)).astype(float)
        else:
            A = rng.standard_normal((m, n))
            B = rng.standard_normal((m, n))
        assert procrustes_solve(A, B).tobytes() == sign_fixed_procrustes(A, B).tobytes()

    def test_deterministic(self):
        A = gaussian(4, 5, 7)
        B = gaussian(5, 5, 7)
        np.testing.assert_array_equal(
            procrustes_solve(A, B), procrustes_solve(A, B)
        )


class TestFixSigns:
    def test_restores_a_negated_column_of_an_8x8_array(self):
        # On NumPy 2.4.6, np.negative(U[:, j], out=U[:, j]) writes wrong
        # values into column 3 of this C-ordered array.  The flip must give
        # back exactly the column that was negated, and nothing else.
        U = np.arange(1.0, 65.0).reshape(8, 8)
        negated = -U[:, 3]
        X = U.copy()
        X[:, 3] = negated
        W = np.ones((8, 2))
        _fix_signs(X, W)
        assert X[:, 3].tobytes() == (-negated).tobytes()
        assert X.tobytes() == U.tobytes()
        flipped = np.ones((8, 2))
        flipped[3] = -1.0
        assert W.tobytes() == flipped.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(SEEDS, st.integers(1, 8), st.integers(0, 8), st.integers(-3, 3))
    def test_flips_exactly_what_the_loop_flips(self, seed, m, k, extra):
        # Small integers make magnitude ties between a positive and a
        # negative entry common; some columns are all (signed) zeros.  A
        # positive ``extra`` gives the right factor rows past U's columns
        # (svd_full with m < n), a negative one fewer rows than U has
        # columns (svd_full with m > n).  Bytes are compared, so the sign of
        # zero counts too.
        rng = np.random.default_rng(seed)
        U = rng.integers(-2, 3, size=(m, k)).astype(float)
        U[:, rng.random(k) < 0.25] = 0.0
        U[(U == 0.0) & (rng.random((m, k)) < 0.5)] = -0.0
        W = rng.integers(-2, 3, size=(max(0, k + extra), 3)).astype(float)
        U_ref, W_ref = U.copy(), W.copy()
        loop_fix_signs(U_ref, W_ref)
        _fix_signs(U, W)
        assert U.tobytes() == U_ref.tobytes()
        assert W.tobytes() == W_ref.tobytes()
