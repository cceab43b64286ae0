"""Behavioural tests for the experiment drivers."""

import csv
import json
import tracemalloc

import numpy as np
import pytest

from ttmera.dense import DenseTensor
from ttmera.errors import ConfigError, NumericError
from ttmera.experiments import (
    DESK_HEAT,
    _relative_error,
    planted_pair_tensor,
    random_mera_plant,
    run_compress,
    run_heat2d,
    run_iters_vs_rank,
    run_mera12,
    run_planted,
    run_rmin_scan,
)
from ttmera.formats import load_mera, load_tensor
from ttmera.heat import HeatConfig, reshape_to_factors, solve_heat
from ttmera.mera import mera_storage, mera_to_tt
from ttmera.train import tt_contract, tt_round, tt_storage, tt_svd
from ttmera.tucker import sthosvd_dense, tucker_reconstruct_tt

import ttmera.experiments
from conftest import decaying_train, record_scans, record_searches, scan_count


def small_tensor(seed=0, dims=(6, 5, 4, 3)):
    """Dense tensor with a decaying spectrum on every unfolding."""
    tt = decaying_train(seed, dims, max_rank=6, decay=0.45)
    return tt_contract(tt)


class TestRunHeat2d:
    def test_writes_tensor_and_metadata(self, tmp_path):
        cfg = HeatConfig(ds=0.2, t_end=0.1)
        path = run_heat2d(cfg, tmp_path / "heat.mrt1")
        t = load_tensor(path)
        assert t.dims == (5, 5, cfg.steps)
        meta = json.loads((tmp_path / "heat.mrt1.json").read_text())
        assert meta["dims"] == [5, 5, cfg.steps]
        assert meta["ds"] == 0.2
        assert meta["nodes"] == 5


class TestRunCompress:
    def test_all_methods_within_budget(self):
        t = small_tensor()
        eps = 1e-2
        reports = run_compress(t, epsilon=eps)
        assert [r.method for r in reports] == ["sthosvd", "tt", "tt-tucker"]
        for r in reports:
            assert r.relative_error <= eps
            assert r.storage_count > 0
            assert r.compression_ratio == pytest.approx(
                t.size / r.storage_count
            )

    @pytest.mark.parametrize("eps", [1e-1, 1e-8])
    def test_one_way_tensor(self, eps):
        # An order-1 train is cut after its only core, so the right side of
        # the streamed error is the empty chain.
        a = np.random.default_rng(2).standard_normal(37)
        reports = run_compress(DenseTensor(a), epsilon=eps)
        assert [r.method for r in reports] == ["sthosvd", "tt", "tt-tucker"]
        for r in reports:
            assert r.relative_error <= eps, r.method
        assert reports[1].storage_count == a.size

    def test_three_way_streamed_error_matches_dense(self, monkeypatch):
        # Every method's error is one streamed difference, whatever the
        # order or memory layout of the input.  Cross-check it against the
        # dense difference, at 1e-8 too, where an inner-product expansion or
        # a norm gap keeps no correct digit.
        tucker_trains = []

        def keep(tuck):
            tucker_trains.append(tucker_reconstruct_tt(tuck))
            return tucker_trains[-1]

        monkeypatch.setattr("ttmera.experiments.tucker_reconstruct_tt", keep)
        # A C-ordered copy of the 12-way heat tensor: the F-ordered heat
        # tensor and its reshapes take the other branch of the measurement.
        heat = reshape_to_factors(solve_heat(HeatConfig(ds=0.05, t_end=0.25)))
        heat = DenseTensor(np.ascontiguousarray(heat.to_array()))
        assert heat.order == 12 and heat.to_array().flags.c_contiguous
        cases = [
            (small_tensor(seed=3, dims=(8, 7, 9)), 5e-2),
            (small_tensor(seed=5, dims=(30, 20)), 1e-2),
            (small_tensor(seed=6), 1e-2),
            (heat, 1e-3),
            (heat, 1e-8),
        ]
        for t, epsilon in cases:
            a = t.to_array()
            for method in ("sthosvd", "tt", "tt-tucker"):
                (rep,) = run_compress(t, epsilon, methods=[method])
                if method == "sthosvd":
                    factors, recon, _ = sthosvd_dense(t, epsilon)
                    for d, U in enumerate(factors, start=1):
                        recon = recon.mode_product(d, U)
                elif method == "tt":
                    recon = tt_contract(tt_svd(t, epsilon))
                else:
                    recon = tt_contract(tucker_trains[-1])
                direct = np.linalg.norm(a - recon.to_array()) / np.linalg.norm(a)
                case = (t.dims, epsilon, method)
                assert rep.relative_error == pytest.approx(direct, rel=1e-6), case
                assert rep.relative_error <= epsilon, case

        # The measurement copies neither the input nor the reconstruction,
        # whether the input is stored first- or last-index-fastest.
        base = decaying_train(7, (32,) * 4, max_rank=6)
        tt = tt_round(base, 1e-1)
        dense = tt_contract(base).to_array()
        c_order = DenseTensor(np.ascontiguousarray(dense))
        f_order = DenseTensor(np.asfortranarray(dense))
        assert not c_order.to_array().flags.f_contiguous
        assert f_order.to_array().flags.f_contiguous
        direct = np.linalg.norm(c_order.to_array() - tt_contract(tt).to_array())
        for t in (c_order, f_order):
            tracemalloc.start()
            try:
                err = _relative_error(tt, t) * t.norm()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < t.to_array().nbytes / 4
            assert err == pytest.approx(direct, rel=1e-9)

    def test_factorize_splits_dims(self):
        t = small_tensor(seed=1, dims=(4, 6, 9))
        reports = run_compress(t, epsilon=1e-1, methods=["tt"], factorize=True)
        # 4*6*9 factors into (2,2, 2,3, 3,3): seven.. six short modes.
        assert len(reports[0].ranks) == 6 - 1

    def test_artifacts_written_and_parse(self, tmp_path):
        t = small_tensor(seed=2)
        run_compress(t, epsilon=1e-2, out_dir=tmp_path)
        with open(tmp_path / "compress.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0][0] == "method"
        assert len(rows) == 4
        payload = json.loads((tmp_path / "compress.json").read_text())
        assert payload["epsilon"] == 1e-2
        assert len(payload["reports"]) == 3
        assert payload["dims"] == [6, 5, 4, 3]

    def test_deterministic_apart_from_timings(self):
        t = small_tensor(seed=4)
        a = run_compress(t, epsilon=1e-2)
        b = run_compress(t, epsilon=1e-2)
        for ra, rb in zip(a, b):
            assert ra.relative_error == rb.relative_error
            assert ra.storage_count == rb.storage_count
            assert ra.ranks == rb.ranks

    def test_loads_tensor_from_path(self, tmp_path):
        cfg = HeatConfig(ds=0.2, t_end=0.05)
        path = run_heat2d(cfg, tmp_path / "h.mrt1")
        reports = run_compress(path, epsilon=1e-3, methods=["tt"])
        assert reports[0].relative_error <= 1e-3

    def test_validation(self):
        t = small_tensor()
        with pytest.raises(ConfigError, match="unknown method"):
            run_compress(t, methods=["qr"])
        with pytest.raises(ConfigError, match="no compression methods"):
            run_compress(t, methods=[])
        with pytest.raises(ConfigError, match="epsilon"):
            run_compress(t, epsilon=0.0)
        zero = DenseTensor(np.zeros((3, 3)))
        with pytest.raises(ConfigError, match="zero norm"):
            run_compress(zero)


def _copied_middle_pair(M, Q, side):
    """The middle-pair rotation with a C-ordered copy after every tensor
    step, as it ran when each tensor copied the array it was given."""
    c = np.ascontiguousarray
    n = side * side
    t = c(np.reshape(M.ravel(order="F"), (side,) * 4, order="F"))
    mid = c(np.reshape(c(t.transpose(1, 2, 3, 0)), (n, n), order="F"))
    t2 = c(np.reshape((Q @ mid).ravel(order="F"), (side,) * 4, order="F"))
    return c(np.reshape(c(t2.transpose(3, 0, 1, 2)), (n, n), order="F"))


class TestPlantedPairTensor:
    @pytest.mark.parametrize("I, rprime, seed", [(5, 9, 0), (8, 32, 0), (4, 2, 4)])
    def test_plant_bits_match_copying_rotation(self, I, rprime, seed):
        # The plant fixes the search's iteration counts, so its bits must
        # not depend on how the rotation lays out its operands.
        p = planted_pair_tensor(I, rprime, seed)
        want = _copied_middle_pair(p["low_rank_matrix"], p["entangler"], I)
        assert p["entangled_matrix"].tobytes() == want.tobytes()

    def test_structure_and_determinism(self):
        p = planted_pair_tensor(4, 3, seed=5)
        assert p["tensor"].dims == (4, 4, 4, 4)
        W = p["isometry"]
        np.testing.assert_allclose(W.T @ W, np.eye(3), atol=1e-12)
        V = p["entangler"]
        np.testing.assert_allclose(V @ V.T, np.eye(16), atol=1e-12)
        # The low-rank stage has exactly the planted rank.
        s = np.linalg.svd(p["low_rank_matrix"], compute_uv=False)
        assert np.sum(s > 1e-10 * s[0]) == 3
        # Entangling is norm preserving and generically raises the rank.
        s2 = np.linalg.svd(p["entangled_matrix"], compute_uv=False)
        assert np.sum(s2 > 1e-10 * s2[0]) > 3
        assert np.linalg.norm(p["entangled_matrix"]) == pytest.approx(
            np.linalg.norm(p["low_rank_matrix"])
        )
        q = planted_pair_tensor(4, 3, seed=5)
        np.testing.assert_array_equal(p["tensor"].data, q["tensor"].data)

    def test_supplied_top_is_used(self):
        top = np.eye(2)
        p = planted_pair_tensor(3, 2, seed=0, top=top)
        np.testing.assert_array_equal(p["top"], top)

    def test_generated_plant_is_wrapped_and_supplied_top_checked(
        self, monkeypatch
    ):
        # Normals and their orthogonal products are finite; a supplied top
        # is outside data, so its plant is scanned.
        scanned = record_scans(monkeypatch)
        p = planted_pair_tensor(4, 3, seed=5)
        assert scan_count(scanned, p["tensor"].to_array()) == 0
        q = planted_pair_tensor(4, 3, seed=5, top=p["top"])
        assert scan_count(scanned, q["tensor"].to_array()) == 1
        monkeypatch.undo()
        top = np.eye(3)
        top[0, 1] = np.nan
        with pytest.raises(NumericError):
            planted_pair_tensor(4, 3, seed=5, top=top)

    def test_validation(self):
        with pytest.raises(ConfigError, match="at least 2"):
            planted_pair_tensor(1, 1, seed=0)
        with pytest.raises(ConfigError, match="outside"):
            planted_pair_tensor(3, 10, seed=0)
        with pytest.raises(ConfigError, match="top matrix"):
            planted_pair_tensor(3, 2, seed=0, top=np.eye(3))


class TestRunPlanted:
    def test_recovery_and_artifacts(self, tmp_path):
        result = run_planted(I=4, rprime=2, seed=4, out_dir=tmp_path)
        rep = result["report"]
        assert rep.converged
        assert rep.achieved_rank == 2
        # The found rotation restores the planted decay; the single SVD
        # rotation of the free unfolding cannot.
        found = result["found_sigma"]
        assert found[2] / found[0] < 1e-9
        hosvd = result["hosvd_sigma"]
        assert hosvd[2] / hosvd[0] > 1e-3
        for name in (
            "top.pgm",
            "low_rank.pgm",
            "entangled.pgm",
            "disentangled.pgm",
            "sigma_decay.csv",
            "sigma_trace.csv",
            "report.json",
        ):
            assert (tmp_path / name).exists(), name
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["converged"] is True
        assert report["achieved_rank"] == 2
        assert report["I"] == 4
        with open(tmp_path / "sigma_decay.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["index", "original", "svd_rotation", "iterative"]
        assert len(rows) == 1 + len(result["original_sigma"])

    def test_supercores_are_not_rescanned(self, monkeypatch):
        # The supercore is a core of the merged train, which the package
        # built from the checked tensor; the transformed one is an
        # orthogonal map of it.  Neither is scanned.
        searched = record_searches(monkeypatch, ttmera.experiments)
        scanned = record_scans(monkeypatch)
        run_planted(I=4, rprime=2, seed=4, trace_stride=0)
        monkeypatch.undo()
        [(supercore, transformed)] = searched
        assert scan_count(scanned, supercore) == 0
        assert scan_count(scanned, transformed) == 0

    def test_budget_exhaustion_is_reported_not_raised(self):
        result = run_planted(I=4, rprime=2, seed=0, max_iters=40)
        assert result["report"].converged is False
        assert result["report"].iterations == 40


class TestRunRminScan:
    def test_smallest_index_size(self):
        rows = run_rmin_scan(I_values=[2], seeds=1)
        assert rows[0]["I"] == 2
        assert rows[0]["rmin"] == 2
        assert rows[0]["votes"] == (2,)

    def test_artifact(self, tmp_path):
        run_rmin_scan(I_values=[2], seeds=1, out_dir=tmp_path)
        with open(tmp_path / "rmin.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["I", "rmin", "votes"]
        assert rows[1][0] == "2"

    def test_threaded_matches_serial(self):
        serial = run_rmin_scan(I_values=[2], seeds=2, threads=1)
        threaded = run_rmin_scan(I_values=[2], seeds=2, threads=2)
        assert serial == threaded

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_rmin_scan(I_values=[1])
        with pytest.raises(ConfigError):
            run_rmin_scan(seeds=0)
        with pytest.raises(ConfigError):
            run_rmin_scan(threads=0)


class TestRunItersVsRank:
    def test_rows_and_artifact(self, tmp_path):
        rows = run_iters_vs_rank(I=2, rprimes=[2, 3], out_dir=tmp_path)
        assert [r["rprime"] for r in rows] == [2, 3]
        for r in rows:
            assert r["iterations"] >= 1
            assert isinstance(r["converged"], bool)
        with open(tmp_path / "iterations.csv", newline="") as f:
            table = list(csv.reader(f))
        assert table[0] == ["rprime", "iterations", "converged"]
        assert len(table) == 3

    def test_threaded_matches_serial(self):
        # At I = 4 and a budget of 400, rank 8 exhausts it on both seeds
        # and ranks 9 and 10 converge after seed-dependent counts: the rows
        # must not depend on the thread that ran each point.
        args = dict(I=4, rprimes=[8, 9, 10], seeds=2, max_iters=400)
        serial = run_iters_vs_rank(**args, threads=1)
        threaded = run_iters_vs_rank(**args, threads=2)
        assert serial == threaded
        assert [r["converged"] for r in serial] == [False, True, True]

    def test_validation(self):
        with pytest.raises(ConfigError):
            run_iters_vs_rank(I=1)
        with pytest.raises(ConfigError):
            run_iters_vs_rank(I=2, rprimes=[9])


class TestRandomMeraPlant:
    def test_top_is_not_scanned(self, monkeypatch):
        scanned = record_scans(monkeypatch)
        m = random_mera_plant(4, 2, seed=0)
        assert scan_count(scanned, m.top.to_array()) == 0

    def test_desk_configuration_storage(self):
        m = random_mera_plant(4, 2, arity=2, order=12, layers=2, seed=10)
        assert m.input_dims == (4,) * 12
        # 6 first-layer isometries (16x2) + 5 disentanglers (16x16)
        # + 3 second-layer isometries (4x2) + 2 disentanglers (4x4)
        # + top (2,2,2): 192 + 1280 + 24 + 32 + 8.
        assert mera_storage(m) == 1536

    def test_validation(self):
        with pytest.raises(ConfigError, match="need at least"):
            random_mera_plant(3, 2, arity=2, order=2, layers=2)
        with pytest.raises(ConfigError, match="exceeds"):
            random_mera_plant(2, 5, arity=2, order=4, layers=1)


class TestRunMera12:
    def test_desk_plant_expand_recover(self, tmp_path):
        result = run_mera12(
            seed=10, max_iters=3000, out_dir=tmp_path
        )
        reports = result["reports"]
        by_key = {
            (r.method, (r.detail or {}).get("strategy")): r for r in reports
        }
        tt_rep = by_key[("tt", None)]
        assert tt_rep.ranks == (4, 16, 8, 32, 16, 64, 16, 32, 8, 16, 4)
        assert tt_rep.storage_count == 15904
        assert tt_storage(result["train"]) == 15904
        plant_rep = by_key[("mera", "plant")]
        assert plant_rep.storage_count == 1536
        assert result["targets"] == [[2, 4, 4, 4, 2], [2, 2]]
        # The single-SVD rotation cannot undo the plant's entanglement:
        # forcing the planted output size throws away most of the energy.
        hosvd_rep = by_key[("mera", "hosvd")]
        assert 0.5 <= hosvd_rep.relative_error <= 1.0 + 1e-9
        # The iterative search recovers the plant.
        proc_rep = by_key[("mera", "procrustes")]
        assert proc_rep.relative_error <= 1e-10
        assert proc_rep.ranks == (2,) * 9
        assert proc_rep.storage_count == 1536
        # Artifacts parse and the stored network loads back.
        payload = json.loads((tmp_path / "mera12.json").read_text())
        assert payload["recovery_targets"] == [[2, 4, 4, 4, 2], [2, 2]]
        back = load_mera(tmp_path / "recovered.mera")
        assert mera_storage(back) == 1536
        with open(tmp_path / "mera12.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + len(reports)

    def test_recovered_train_matches_plant_train(self):
        result = run_mera12(seed=10, max_iters=3000, strategies=["procrustes"])
        back = mera_to_tt(result["recovered"]["procrustes"], round_eps=1e-14)
        orig = result["train"]
        assert back.dims == orig.dims

    def test_validation(self):
        with pytest.raises(ConfigError, match="strategy"):
            run_mera12(strategies=["qr"])
        with pytest.raises(ConfigError, match="layer"):
            run_mera12(layers=0)
        with pytest.raises(ConfigError, match="at least 2"):
            run_mera12(I=1)


def test_desk_heat_config_matches_direct_solve():
    assert DESK_HEAT.nodes == 50
    assert DESK_HEAT.steps == 2500


_REPORT_KEYS = ["method", "elapsed_seconds", "relative_error", "storage_count",
                "compression_ratio", "ranks"]


def _csv_header(path):
    with open(path, newline="") as f:
        return next(csv.reader(f))


class TestArtifactSchemas:
    """The header rows and key orders that readers of the artifacts rely on."""

    def test_compress(self, tmp_path):
        run_compress(small_tensor(seed=2), epsilon=1e-2, out_dir=tmp_path)
        assert _csv_header(tmp_path / "compress.csv") == _REPORT_KEYS
        payload = json.loads((tmp_path / "compress.json").read_text())
        assert list(payload) == [
            "epsilon", "factorize", "dims", "original_entries", "reports",
        ]
        assert [list(r) for r in payload["reports"]] == [
            _REPORT_KEYS,
            _REPORT_KEYS,
            _REPORT_KEYS + ["tt_svd_seconds", "conversion_seconds"],
        ]

    def test_mera12(self, tmp_path):
        run_mera12(seed=10, strategies=["hosvd"], out_dir=tmp_path)
        assert _csv_header(tmp_path / "mera12.csv") == [
            "method", "strategy", "elapsed_seconds", "relative_error",
            "storage_count", "compression_ratio", "ranks",
        ]
        payload = json.loads((tmp_path / "mera12.json").read_text())
        assert list(payload) == [
            "I", "S", "arity", "order", "layers", "seed", "epsilon",
            "gap_threshold", "original_entries", "tt_ranks",
            "recovery_targets", "reports",
        ]
        assert [list(r) for r in payload["reports"]] == [
            _REPORT_KEYS,
            _REPORT_KEYS + ["strategy"],
            _REPORT_KEYS + ["strategy"],
        ]
        with open(tmp_path / "mera12.csv", newline="") as f:
            rows = list(csv.reader(f))
        assert [row[:2] for row in rows[1:]] == [
            ["tt", ""], ["mera", "plant"], ["mera", "hosvd"],
        ]

    def test_planted(self, tmp_path):
        run_planted(I=4, rprime=2, seed=4, out_dir=tmp_path)
        assert _csv_header(tmp_path / "sigma_decay.csv") == [
            "index", "original", "svd_rotation", "iterative",
        ]
        assert _csv_header(tmp_path / "sigma_trace.csv") == [
            "iteration", "index", "sigma",
        ]
        report = json.loads((tmp_path / "report.json").read_text())
        assert list(report) == [
            "I", "rprime", "seed", "tt_ranks", "target_rank", "iterations",
            "final_gap", "achieved_rank", "converged", "elapsed_seconds",
        ]
