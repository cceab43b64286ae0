"""Linearization convention and dense-tensor semantics."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttmera import dense
from ttmera.dense import (
    DenseTensor,
    MultiIndex,
    linear_index,
    multi_index_from_linear,
)
from ttmera.errors import NumericError

DIMS = st.lists(st.integers(1, 6), min_size=1, max_size=5)


class TestLinearIndex:
    def test_first_index_fastest(self):
        dims = (2, 3, 4)
        assert linear_index((1, 1, 1), dims) == 1
        assert linear_index((2, 1, 1), dims) == 2
        assert linear_index((1, 2, 1), dims) == 3
        assert linear_index((2, 3, 1), dims) == 6
        assert linear_index((1, 1, 2), dims) == 7
        assert linear_index((2, 3, 4), dims) == 24

    def test_stride_formula(self):
        dims = (3, 4, 2, 5)
        # strides 1, 3, 12, 24
        assert linear_index((2, 3, 1, 4), dims) == 2 + 2 * 3 + 0 * 12 + 3 * 24

    def test_out_of_bounds_names_mode(self):
        with pytest.raises(ValueError, match="mode 2"):
            linear_index((1, 4, 1), (2, 3, 4))

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            linear_index((1, 1), (2, 3, 4))

    def test_non_positive_component(self):
        with pytest.raises(ValueError):
            MultiIndex((1, 0, 2))

    @settings(max_examples=150)
    @given(DIMS, st.data())
    def test_round_trip_from_position(self, dims, data):
        pos = data.draw(st.integers(1, math.prod(dims)))
        assert linear_index(multi_index_from_linear(pos, dims), dims) == pos

    @settings(max_examples=150)
    @given(DIMS, st.data())
    def test_round_trip_from_multi_index(self, dims, data):
        m = tuple(data.draw(st.integers(1, d)) for d in dims)
        assert tuple(multi_index_from_linear(linear_index(m, dims), dims)) == m

    def test_position_bounds(self):
        with pytest.raises(ValueError):
            multi_index_from_linear(0, (2, 3))
        with pytest.raises(ValueError):
            multi_index_from_linear(7, (2, 3))


class TestDenseTensor:
    def test_from_flat_layout(self):
        t = DenseTensor.from_flat(range(1, 25), (2, 3, 4))
        assert t.dims == (2, 3, 4)
        assert t.entry((1, 1, 1)) == 1.0
        assert t.entry((2, 1, 1)) == 2.0
        assert t.entry((1, 2, 1)) == 3.0
        assert t.entry((1, 1, 2)) == 7.0
        assert t.entry((2, 3, 4)) == 24.0
        np.testing.assert_array_equal(t.data, np.arange(1.0, 25.0))

    def test_entry_agrees_with_linear_index(self):
        dims = (3, 2, 4)
        t = DenseTensor.from_flat(np.arange(24.0), dims)
        for pos in range(1, 25):
            m = multi_index_from_linear(pos, dims)
            assert t.entry(m) == pos - 1

    @pytest.mark.parametrize("m, message", [
        ((1, 3, 1), "index 3 exceeds dimension 2 at mode 2"),
        ((1, 1), "multi-index has 2 components, tensor has order 3"),
        ((1, 0, 1), "index 0 at mode 2 is not positive"),
        ((), "at least one component"),
    ])
    def test_entry_refuses_what_linear_index_refuses(self, m, message):
        t = DenseTensor.from_flat(np.arange(24.0), (3, 2, 4))
        for lookup in (t.entry, lambda m: linear_index(m, t.dims)):
            with pytest.raises(ValueError, match=message):
                lookup(m)

    def test_from_flat_size_mismatch(self):
        with pytest.raises(ValueError):
            DenseTensor.from_flat([1.0, 2.0, 3.0], (2, 2))

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            DenseTensor([[1.0, np.nan]])
        with pytest.raises(NumericError):
            DenseTensor([np.inf])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_public_constructor_rejects_non_finite(self, bad):
        entries = np.arange(6.0)
        entries[4] = bad
        with pytest.raises(NumericError):
            DenseTensor(entries.reshape(2, 3))
        with pytest.raises(NumericError):
            DenseTensor.from_flat(entries, (2, 3))
        with pytest.raises(NumericError):
            DenseTensor.from_flat(range(6), (2, 3)).fold(1, entries.reshape(2, 3))

    def test_reshape_and_permute_do_not_rescan(self, monkeypatch):
        t = DenseTensor.from_flat(range(24), (2, 3, 4))
        scans = []
        real = np.isfinite
        monkeypatch.setattr(
            np, "isfinite", lambda a, *args, **kw: scans.append(1) or real(a, *args, **kw)
        )
        r = t.reshape((6, 4)).permute((2, 1))
        assert scans == []
        assert not r.to_array().flags.writeable
        np.testing.assert_array_equal(r.to_array(), t.to_array().reshape((6, 4), order="F").T)

    def test_values_read_only(self):
        t = DenseTensor([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            t.to_array()[0, 0] = 9.0

    def test_reshape_preserves_flat_order(self):
        t = DenseTensor.from_flat(range(24), (2, 3, 4))
        r = t.reshape((6, 4))
        np.testing.assert_array_equal(r.data, t.data)
        assert r.entry((3, 2)) == t.data[2 + 6 * 1]

    def test_reshape_size_mismatch(self):
        with pytest.raises(ValueError):
            DenseTensor.from_flat(range(6), (2, 3)).reshape((4, 2))

    def test_permute_oracle(self):
        t = DenseTensor.from_flat(range(24), (2, 3, 4))
        p = t.permute((3, 1, 2))
        assert p.dims == (4, 2, 3)
        for i in range(1, 3):
            for j in range(1, 4):
                for k in range(1, 5):
                    assert p.entry((k, i, j)) == t.entry((i, j, k))

    def test_permute_validates(self):
        t = DenseTensor.from_flat(range(6), (2, 3))
        with pytest.raises(ValueError):
            t.permute((1, 1))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 5), min_size=2, max_size=4), st.data())
    def test_unfold_entry_oracle(self, dims, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        t = DenseTensor(rng.standard_normal(dims))
        d = data.draw(st.integers(1, len(dims)))
        M = t.unfold(d)
        assert M.shape == (dims[d - 1], t.size // dims[d - 1])
        m = tuple(data.draw(st.integers(1, n)) for n in dims)
        rest = m[: d - 1] + m[d:]
        rest_dims = dims[: d - 1] + dims[d:]
        col = linear_index(rest, rest_dims) if rest else 1
        assert M[m[d - 1] - 1, col - 1] == t.entry(m)
        # fold inverts unfold, also with a new mode-d dimension
        np.testing.assert_array_equal(t.fold(d, M).to_array(), t.to_array())
        wider = t.fold(d, np.vstack([M, M]))
        assert wider.dims == tuple(dims[: d - 1]) + (2 * dims[d - 1],) + tuple(dims[d:])
        np.testing.assert_array_equal(wider.unfold(d), np.vstack([M, M]))

    def test_mode_product_oracle(self):
        rng = np.random.default_rng(3)
        t = DenseTensor(rng.standard_normal((3, 4, 2)))
        U = rng.standard_normal((5, 4))
        out = t.mode_product(2, U)
        ref = np.einsum("xj,ijk->ixk", U, t.to_array())
        assert out.dims == (3, 5, 2)
        np.testing.assert_allclose(out.to_array(), ref, atol=1e-14)

    def test_mode_product_shape_check(self):
        t = DenseTensor.from_flat(range(6), (2, 3))
        with pytest.raises(ValueError):
            t.mode_product(1, np.zeros((4, 3)))

    def test_norm(self):
        t = DenseTensor([[3.0, 0.0], [0.0, 4.0]])
        assert t.norm() == pytest.approx(5.0, rel=1e-15)

    def test_norm_reads_memory_order_without_copy(self):
        # 8 MiB stored first-index-fastest, as loaded and reshaped tensors are
        a = np.asfortranarray(
            np.arange(64 * 128 * 128, dtype=np.float64).reshape(64, 128, 128)
        )
        t = DenseTensor(a)
        tracemalloc.start()
        try:
            value = t.norm()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * a.nbytes
        assert value == pytest.approx(math.sqrt(float(np.sum(a * a))), rel=1e-13)

    @pytest.mark.parametrize("size", [1, 4095, 4096, 4097, 3 * 4096 + 17])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_norm_matches_the_per_block_loop(self, size, layout):
        # One vecdot over the whole blocks takes the same dot per block as
        # a loop of np.dot calls, so the norm keeps every bit.
        rng = np.random.default_rng(size)
        a = rng.standard_normal((size, 3)) * 10.0 ** rng.integers(-3, 4, (size, 3))
        if layout == "F":
            a = np.asfortranarray(a)
        elif layout == "strided":
            a = np.asfortranarray(a)[::-1, ::2]
        flat = a.ravel(order="K")
        blocks = (flat[i : i + 4096] for i in range(0, flat.size, 4096))
        loop = math.sqrt(math.fsum(float(np.dot(b, b)) for b in blocks))
        assert DenseTensor(a).norm() == loop


def _norm_passes(monkeypatch) -> list:
    """Record the flat array of every norm pass."""
    passes = []
    real = dense._block_norm

    def recorded(flat):
        passes.append(flat)
        return real(flat)

    monkeypatch.setattr(dense, "_block_norm", recorded)
    return passes


def _layout(a: np.ndarray, layout: str) -> np.ndarray:
    """``a`` stored C- or F-ordered, or as a view with a step of 2 or of -1
    along its first two axes."""
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "strided":
        wide = np.zeros((a.shape[0], 2 * a.shape[1]) + a.shape[2:], order="F")
        wide[:, ::2] = a
        return wide[:, ::2]
    if layout == "reversed":
        return np.asfortranarray(a[::-1])[::-1]
    return np.ascontiguousarray(a)


class TestEntryCheck:
    # 3 whole 4096-entry blocks and a tail of 17 entries
    SIZE = 3 * 4096 + 17

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [5000, 3 * 4096 + 3], ids=["block", "tail"])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_rejects_non_finite_in_a_block_and_in_the_tail(self, bad, at, layout):
        entries = np.arange(float(self.SIZE))
        entries[at] = bad
        a = _layout(np.reshape(entries, (self.SIZE, 1)), layout)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError):
                DenseTensor(a)

    @pytest.mark.parametrize("at", [5, 3 * 4096 + 2], ids=["block", "tail"])
    def test_overflowing_square_is_accepted_without_warning(self, at):
        # One dot product overflows to inf: the entries are scanned, found
        # finite, and no norm is kept, so every norm() warns and returns
        # inf, as the sum itself does.
        entries = np.zeros(self.SIZE)
        entries[at] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = DenseTensor(entries)
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="overflow"):
                assert t.norm() == math.inf

    def test_overflowing_fsum_is_accepted_without_warning(self):
        # Every block's dot product is finite, but their exact sum is not.
        entries = np.zeros(2 * 4096)
        entries[[5, 4096 + 5]] = 1e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = DenseTensor(entries)
            for _ in range(2):
                with pytest.raises(OverflowError):
                    t.norm()

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "reversed"])
    def test_check_keeps_the_norm_of_the_sum(self, layout):
        rng = np.random.default_rng(7)
        a = _layout(rng.standard_normal((301, 40)), layout)
        t = DenseTensor(a)
        assert t.norm() == dense._block_norm(a.ravel(order="K"))


class TestNormMemo:
    def test_one_pass_per_tensor(self, monkeypatch):
        passes = _norm_passes(monkeypatch)
        a = np.asfortranarray(np.random.default_rng(1).standard_normal((30, 40, 5)))
        t = DenseTensor(a)
        assert len(passes) == 1
        assert np.shares_memory(passes[0], a)
        first = t.norm()
        assert t.norm() == first
        assert len(passes) == 1

    def test_wrapped_tensor_sums_once_on_first_use(self, monkeypatch):
        passes = _norm_passes(monkeypatch)
        t = DenseTensor._wrap(np.arange(24.0).reshape(2, 3, 4))
        assert passes == []
        assert t.norm() == t.norm()
        assert len(passes) == 1

    @pytest.mark.parametrize("layout", ["C", "F", "strided", "reversed"])
    @pytest.mark.parametrize("op, arg", [
        ("reshape", (24, 30)), ("reshape", (6, 120)), ("reshape", (720,)),
        ("reshape", (3, 2, 4, 30)), ("permute", (3, 1, 2)), ("permute", (2, 3, 1)),
    ])
    def test_carried_norm_equals_a_fresh_one(self, monkeypatch, layout, op, arg):
        rng = np.random.default_rng(11)
        entries = rng.standard_normal((6, 4, 30)) * 10.0 ** rng.integers(-3, 4, (6, 4, 30))
        t = DenseTensor(_layout(entries, layout))
        t.norm()
        out = getattr(t, op)(arg)
        passes = _norm_passes(monkeypatch)
        carried = out.norm()
        fresh = DenseTensor._wrap(out.to_array()).norm()
        assert carried == fresh
        # A view carries the norm; a reshape that had to copy sums anew.
        shared = np.may_share_memory(out.to_array(), t.to_array())
        assert len(passes) == (1 if shared else 2)
