"""Tests for the finite-difference heat solver and mode-splitting helpers."""

import dataclasses

import numpy as np
import pytest

import ttmera.heat
from ttmera.errors import CapacityError, ConfigError
from ttmera.experiments import DESK_HEAT
from ttmera.heat import (
    HeatConfig,
    default_initial,
    factor_dims,
    reshape_to_factors,
    solve_heat,
)


def tent(x, y):
    return 0.25 - np.abs(0.5 - x) * np.abs(0.5 - y)


class TestHeatConfig:
    def test_desk_defaults(self):
        c = HeatConfig()
        assert c.ds == 0.02
        assert c.nodes == 50
        assert c.time_step == pytest.approx(1e-4)
        assert c.steps == 2500

    def test_paper_values(self):
        c = HeatConfig(ds=0.01)
        assert c.nodes == 100
        assert c.time_step == pytest.approx(2.5e-5)
        assert c.steps == 10000

    def test_time_step_at_stability_bound_accepted(self):
        c = HeatConfig(ds=0.02, dt=1e-4)
        assert c.time_step == 1e-4

    def test_time_step_above_bound_rejected(self):
        with pytest.raises(ConfigError, match="stability"):
            HeatConfig(ds=0.1, dt=0.0026)

    def test_nonpositive_time_step_rejected(self):
        with pytest.raises(ConfigError, match="positive"):
            HeatConfig(ds=0.1, dt=0.0)

    def test_spatial_step_range(self):
        with pytest.raises(ConfigError):
            HeatConfig(ds=0.0)
        with pytest.raises(ConfigError):
            HeatConfig(ds=0.6)

    def test_nonpositive_end_time_rejected(self):
        with pytest.raises(ConfigError, match="end time"):
            HeatConfig(t_end=0.0)

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_nonfinite_end_time_rejected(self, value):
        with pytest.raises(ConfigError, match="end time must be positive and finite"):
            HeatConfig(t_end=value)

    @pytest.mark.parametrize("kwargs", [{"ds": 1e-200}, {"ds": 1e-160},
                                        {"dt": 1e-320},
                                        {"dt": 1e-300, "t_end": 1e10}])
    def test_vanishing_time_step_rejected(self, kwargs):
        # the default step 0.25 ds^2 underflows to zero, or the snapshot
        # count t_end / dt overflows
        with pytest.raises(ConfigError, match="time step .* too small"):
            HeatConfig(**kwargs)

    def test_tiny_time_step_with_finite_count_accepted(self):
        assert HeatConfig(dt=1e-300, t_end=1e-10).steps > 10**289
        assert HeatConfig(ds=1e-100).steps > 10**199

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_nonfinite_time_step_rejected(self, value):
        with pytest.raises(ConfigError, match="time step must be positive and finite"):
            HeatConfig(dt=value)


class TestSolveHeat:
    def test_first_slab_is_initial_field(self):
        c = HeatConfig(ds=0.2)
        t = solve_heat(c)
        n = c.nodes
        coords = c.ds * np.arange(n)
        expected = tent(coords[:, None], coords[None, :])
        np.testing.assert_array_equal(t.to_array()[:, :, 0], expected)

    def test_single_step_matches_hand_stencil(self):
        # Independent update: five-point stencil on the padded field, where
        # the pad row/column at coordinate 1.0 holds frozen boundary samples.
        c = HeatConfig(ds=0.2)
        n = c.nodes
        coords = c.ds * np.arange(n + 1)
        u = tent(coords[:, None], coords[None, :])
        alpha = c.time_step / (c.ds * c.ds)
        expected = u.copy()
        for i in range(1, n):
            for j in range(1, n):
                lap = (
                    u[i + 1, j]
                    + u[i - 1, j]
                    + u[i, j + 1]
                    + u[i, j - 1]
                    - 4.0 * u[i, j]
                )
                expected[i, j] = u[i, j] + alpha * lap
        t = solve_heat(c)
        np.testing.assert_allclose(
            t.to_array()[:, :, 1], expected[:n, :n], rtol=0.0, atol=1e-15
        )

    def test_near_boundary_rows_frozen(self):
        c = HeatConfig(ds=0.1, t_end=0.01)
        t = solve_heat(c)
        arr = t.to_array()
        first = arr[:, :, 0]
        for k in range(t.dims[2]):
            np.testing.assert_array_equal(arr[0, :, k], first[0, :])
            np.testing.assert_array_equal(arr[:, 0, k], first[:, 0])

    def test_max_principle(self):
        # At the stability bound each update is a convex combination of
        # neighbours, so values never escape the initial range.
        c = HeatConfig(ds=0.1)
        t = solve_heat(c)
        coords = c.ds * np.arange(c.nodes + 1)
        field = tent(coords[:, None], coords[None, :])
        assert t.data.min() >= field.min() - 1e-12
        assert t.data.max() <= field.max() + 1e-12

    def test_result_shape_and_dims(self):
        c = HeatConfig(ds=0.1, t_end=0.02)
        t = solve_heat(c)
        assert t.dims == (10, 10, round(0.02 / c.time_step))

    def test_relaxes_toward_interior_maximum_decay(self):
        # The hot spot at the centre must cool monotonically on average.
        c = HeatConfig(ds=0.1)
        t = solve_heat(c)
        centre = t.to_array()[5, 5, :]
        assert centre[-1] < centre[0]

    def test_capacity_budget_enforced(self):
        with pytest.raises(CapacityError, match="budget"):
            solve_heat(HeatConfig(ds=1e-3))

    def test_capacity_message_in_scientific_form(self):
        with pytest.raises(CapacityError) as exc:
            solve_heat(HeatConfig(ds=1e-100))
        assert str(exc.value) == (
            "snapshot stack of 1e+100x1e+100x1e+200 entries exceeds the "
            "2e+08 entry budget"
        )

    def test_too_coarse_grid_rejected(self):
        with pytest.raises(ConfigError, match="interior"):
            solve_heat(HeatConfig(ds=0.4))

    def test_end_time_shorter_than_one_step_rejected(self):
        with pytest.raises(ConfigError, match="shorter"):
            solve_heat(HeatConfig(ds=0.2, dt=0.01, t_end=0.004))


def slicing_march(config):
    """Oracle for the in-place march: the textbook update on shifted 2-d
    views of the padded field, with fresh temporaries every step."""
    n, h = config.nodes, config.ds
    coords = h * np.arange(n + 1)
    u = default_initial(coords[:, None], coords[None, :])
    alpha = config.time_step / (h * h)
    snapshots = np.empty((n, n, config.steps), dtype=np.float64, order="F")
    snapshots[:, :, 0] = u[:n, :n]
    for k in range(1, config.steps):
        interior = (
            u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
            - 4.0 * u[1:-1, 1:-1]
        )
        u[1:-1, 1:-1] += alpha * interior
        snapshots[:, :, k] = u[:n, :n]
    return snapshots


class TestInPlaceMarch:
    @pytest.mark.parametrize("config", [
        HeatConfig(ds=0.3),                       # n = 3, the smallest grid
        HeatConfig(ds=0.2, t_end=0.01),           # a single snapshot
        HeatConfig(ds=0.1, t_end=0.25),
        HeatConfig(ds=0.1, dt=0.002, t_end=0.1),  # below the stability bound
        dataclasses.replace(DESK_HEAT, t_end=0.05),
    ], ids=["n3", "one-step", "ds0.1", "explicit-dt", "desk-cut"])
    def test_bit_identical_to_slicing_loop(self, config):
        t = solve_heat(config)
        assert t.to_array().tobytes() == slicing_march(config).tobytes()

    @pytest.mark.parametrize("where, value", [
        ((2, 2), np.nan),      # interior node
        ((0, 2), np.inf),      # frozen row 0, outside the flat span
        ((2, 0), -np.inf),     # frozen column 0, written back each step
        ((2, 5), np.nan),      # ghost column at coordinate n*ds
    ], ids=["interior", "row0", "column0", "ghost"])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_field_still_refused(self, monkeypatch, where, value):
        def planted(x, y):
            u = default_initial(x, y)
            u[where] = value
            return u

        monkeypatch.setattr(ttmera.heat, "default_initial", planted)
        with pytest.raises(ConfigError, match="time marching diverged"):
            solve_heat(HeatConfig(ds=0.2, t_end=0.05))

    def test_stack_never_scanned_entry_by_entry(self, monkeypatch):
        c = HeatConfig(ds=0.1, t_end=0.05)
        scanned = []
        real = np.isfinite
        monkeypatch.setattr(
            np, "isfinite",
            lambda a, *args, **kw: scanned.append(np.size(a)) or real(a, *args, **kw),
        )
        t = reshape_to_factors(solve_heat(c))
        assert t.size == c.nodes**2 * c.steps
        assert scanned == [c.nodes**2]


class TestFactorDims:
    def test_paper_mode_sizes(self):
        assert factor_dims(100) == [2, 2, 5, 5]
        assert factor_dims(10000) == [2, 2, 2, 2, 5, 5, 5, 5]

    def test_desk_mode_sizes(self):
        assert factor_dims(50) == [2, 5, 5]
        assert factor_dims(2500) == [2, 2, 5, 5, 5, 5]

    def test_small_values(self):
        assert factor_dims(1) == [1]
        assert factor_dims(7) == [7]
        assert factor_dims(12) == [2, 2, 3]

    def test_product_recovers_input(self):
        for n in range(1, 200):
            assert int(np.prod(factor_dims(n))) == n

    def test_nondecreasing(self):
        for n in (60, 360, 1024, 9973):
            fs = factor_dims(n)
            assert fs == sorted(fs)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            factor_dims(0)
        with pytest.raises(ValueError):
            factor_dims(-4)


class TestReshapeToFactors:
    def test_split_dims_and_flat_order(self):
        c = HeatConfig(ds=0.1)
        t = solve_heat(c)
        r = reshape_to_factors(t)
        assert r.dims == (2, 5, 2, 5, 2, 2, 5, 5)
        np.testing.assert_array_equal(t.data, r.data)

    def test_shares_memory_with_input(self):
        t = solve_heat(HeatConfig(ds=0.1))
        assert t.to_array().flags.f_contiguous
        r = reshape_to_factors(t)
        assert np.shares_memory(r.to_array(), t.to_array())
        assert not r.to_array().flags.writeable

    def test_norm_preserved(self):
        c = HeatConfig(ds=0.2, t_end=0.05)
        t = solve_heat(c)
        r = reshape_to_factors(t)
        assert r.norm() == pytest.approx(t.norm(), rel=1e-15)
