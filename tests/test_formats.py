"""Round-trip and malformed-input tests for the binary containers."""

import csv
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from ttmera.dense import DenseTensor
from ttmera.errors import FormatError, NumericError
from ttmera.experiments import random_mera_plant
from ttmera.formats import (
    load_mera,
    load_pgm,
    load_tensor,
    load_train,
    save_mera,
    save_pgm,
    save_tensor,
    save_train,
    write_csv,
)
from ttmera.rng import standard_normal, stream
from ttmera.train import tt_svd

from conftest import random_dense


class TestTensorFile:
    def test_round_trip_bit_identical(self, tmp_path):
        t = random_dense(3, (3, 4, 2))
        p = tmp_path / "t.mrt"
        save_tensor(p, t)
        back = load_tensor(p)
        assert back.dims == t.dims
        np.testing.assert_array_equal(back.data, t.data)

    def test_round_trip_order_one(self, tmp_path):
        t = DenseTensor(np.array([1.5, -2.25, 0.0]))
        p = tmp_path / "v.mrt"
        save_tensor(p, t)
        back = load_tensor(p)
        assert back.dims == (3,)
        np.testing.assert_array_equal(back.data, t.data)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mrt"
        p.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_tensor(p)

    def test_truncated_payload(self, tmp_path):
        t = random_dense(4, (3, 3))
        p = tmp_path / "t.mrt"
        save_tensor(p, t)
        raw = p.read_bytes()
        p.write_bytes(raw[:-4])
        with pytest.raises(FormatError, match="truncated"):
            load_tensor(p)

    def test_trailing_bytes(self, tmp_path):
        t = random_dense(5, (2, 2))
        p = tmp_path / "t.mrt"
        save_tensor(p, t)
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_tensor(p)

    def test_zero_order_rejected(self, tmp_path):
        p = tmp_path / "z.mrt"
        p.write_bytes(b"MRT1" + struct.pack("<H", 0))
        with pytest.raises(FormatError, match="order"):
            load_tensor(p)

    def test_zero_dimension_rejected(self, tmp_path):
        p = tmp_path / "z.mrt"
        p.write_bytes(b"MRT1" + struct.pack("<H", 2) + struct.pack("<2Q", 2, 0))
        with pytest.raises(FormatError, match="dimensions"):
            load_tensor(p)

    def test_nonfinite_payload_rejected(self, tmp_path):
        p = tmp_path / "n.mrt"
        payload = struct.pack("<2d", 1.0, float("nan"))
        p.write_bytes(b"MRT1" + struct.pack("<H", 1) + struct.pack("<Q", 2) + payload)
        with pytest.raises(NumericError):
            load_tensor(p)


class TestTrainFile:
    def test_round_trip_bit_identical(self, tmp_path):
        t = random_dense(7, (4, 3, 4, 2))
        tt = tt_svd(t, 1e-8)
        p = tmp_path / "t.mrtt"
        save_train(p, tt)
        back = load_train(p)
        assert back.dims == tt.dims
        assert back.ranks == tt.ranks
        for a, b in zip(back.cores, tt.cores):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mrtt"
        p.write_bytes(b"MRT1" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_train(p)

    def test_bad_boundary_rank(self, tmp_path):
        p = tmp_path / "b.mrtt"
        body = struct.pack("<H", 1) + struct.pack("<2Q", 2, 1) + struct.pack("<Q", 3)
        body += struct.pack("<6d", *range(6))
        p.write_bytes(b"MRTT" + body)
        with pytest.raises(FormatError, match="boundary"):
            load_train(p)

    def test_truncated_core(self, tmp_path):
        t = random_dense(8, (3, 3, 3))
        tt = tt_svd(t, 0.0)
        p = tmp_path / "t.mrtt"
        save_train(p, tt)
        raw = p.read_bytes()
        p.write_bytes(raw[:-8])
        with pytest.raises(FormatError, match="truncated"):
            load_train(p)


class TestMeraFile:
    def test_round_trip_bit_identical(self, tmp_path):
        m = random_mera_plant(3, 2, arity=2, order=4, layers=1, seed=1)
        p = tmp_path / "m.mrma"
        save_mera(p, m)
        back = load_mera(p)
        assert len(back.layers) == len(m.layers)
        for la, lb in zip(back.layers, m.layers):
            assert la.input_arity == lb.input_arity
            assert len(la.disentanglers) == len(lb.disentanglers)
            for (pa, da), (pb, db) in zip(
                sorted(la.disentanglers), sorted(lb.disentanglers)
            ):
                assert pa == pb
                assert da.dims == db.dims
                np.testing.assert_array_equal(da.data, db.data)
            for (pa, ia), (pb, ib) in zip(
                sorted(la.isometries), sorted(lb.isometries)
            ):
                assert pa == pb
                assert ia.input_dims == ib.input_dims
                assert ia.output_dim == ib.output_dim
                np.testing.assert_array_equal(ia.data, ib.data)
        assert back.top.dims == m.top.dims
        np.testing.assert_array_equal(back.top.data, m.top.data)

    def test_two_layer_round_trip(self, tmp_path):
        m = random_mera_plant(2, 2, arity=2, order=8, layers=2, seed=4)
        p = tmp_path / "m.mrma"
        save_mera(p, m)
        back = load_mera(p)
        assert len(back.layers) == 2
        assert back.top.dims == m.top.dims
        np.testing.assert_array_equal(back.top.data, m.top.data)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mrma"
        p.write_bytes(b"NOPE" + b"\x00" * 8)
        with pytest.raises(FormatError, match="magic"):
            load_mera(p)

    def test_unknown_record_kind(self, tmp_path):
        m = random_mera_plant(2, 2, arity=2, order=4, layers=1, seed=2)
        p = tmp_path / "m.mrma"
        save_mera(p, m)
        raw = bytearray(p.read_bytes())
        # First record starts after magic(4) + layer count(2) + counts(4);
        # its kind byte is a disentangler (0).  Corrupt it.
        raw[10] = 9
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="kind"):
            load_mera(p)

    @pytest.mark.parametrize("kind", ["disentanglers", "isometries"])
    def test_nonfinite_payload_rejected(self, tmp_path, kind):
        m = random_mera_plant(2, 2, arity=2, order=4, layers=1, seed=5)
        p = tmp_path / "m.mrma"
        save_mera(p, m)
        raw = bytearray(p.read_bytes())
        data = getattr(m.layers[0], kind)[0][1].data
        at = raw.find(np.ascontiguousarray(data.ravel(order="F"), dtype="<f8").tobytes())
        assert at > 0
        raw[at : at + 8] = struct.pack("<d", np.nan)
        p.write_bytes(bytes(raw))
        with pytest.raises(NumericError, match="non-finite"):
            load_mera(p)

    def test_top_of_the_wrong_dims_rejected(self, tmp_path):
        # A file whose top does not fit the last layer's outputs, written
        # from a stand-in that skips the network's checks.
        m = random_mera_plant(4, 2)
        p = tmp_path / "m.mrma"
        save_mera(p, SimpleNamespace(layers=m.layers, top=DenseTensor(np.ones((3, 3, 3)))))
        with pytest.raises(ValueError, match="outgoing dims"):
            load_mera(p)

    def test_truncated(self, tmp_path):
        m = random_mera_plant(2, 2, arity=2, order=4, layers=1, seed=3)
        p = tmp_path / "m.mrma"
        save_mera(p, m)
        raw = p.read_bytes()
        p.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError, match="truncated"):
            load_mera(p)


def _traced_peak(fn, *args):
    """Result of ``fn(*args)`` and the peak of traced allocations during it."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


class TestPayloadIO:
    """Payloads are read once into one fresh array and written unchanged."""

    BIG = 2**20
    HEADERS = {
        load_tensor: b"MRT1" + struct.pack("<H2Q", 2, BIG, BIG),
        load_train: b"MRTT" + struct.pack("<H3Q2Q", 2, 1, BIG, 1, BIG, BIG),
        load_mera: b"MRMA" + struct.pack("<3H", 1, 0, 1)
        + struct.pack("<BQH2Q", 1, 1, 2, BIG, BIG),
    }

    @pytest.mark.parametrize("load", list(HEADERS), ids=lambda f: f.__name__)
    def test_huge_declared_payload_rejected_before_allocating(self, tmp_path, load):
        p = tmp_path / "huge.bin"
        p.write_bytes(self.HEADERS[load] + bytes(16))
        assert p.stat().st_size < 64
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="truncated"):
                load(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_load_peaks_at_one_payload(self, tmp_path):
        t = DenseTensor(standard_normal(stream(5, 0), (64, 128, 128)))
        payload = t.to_array().nbytes
        p = tmp_path / "t.mrt"
        save_tensor(p, t)
        back, peak = _traced_peak(load_tensor, p)
        np.testing.assert_array_equal(back.data, t.data)
        assert peak < 1.25 * payload

    def test_save_of_first_index_fastest_tensor_copies_nothing(self, tmp_path):
        a = np.asfortranarray(standard_normal(stream(6, 0), (64, 128, 128)))
        t = DenseTensor(a)
        assert t.to_array().flags.f_contiguous
        p = tmp_path / "t.mrt"
        _, peak = _traced_peak(save_tensor, p, t)
        assert peak < 0.25 * a.nbytes
        np.testing.assert_array_equal(load_tensor(p).data, t.data)


class TestPgm:
    def test_round_trip_exact_on_quantised_values(self, tmp_path):
        img = np.arange(12, dtype=np.float64).reshape(3, 4) / 255.0 * 20
        img = np.round(np.clip(img, 0, 1) * 255) / 255.0
        p = tmp_path / "i.pgm"
        save_pgm(p, img)
        back = load_pgm(p)
        assert back.shape == (3, 4)
        np.testing.assert_array_equal(back, img)

    def test_round_trip_within_half_quantum(self, tmp_path):
        g = stream(11, 5)
        img = (standard_normal(g, (6, 5)) * 0.2 + 0.5).clip(0, 1)
        p = tmp_path / "i.pgm"
        save_pgm(p, img)
        back = load_pgm(p)
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_out_of_range_values_clipped(self, tmp_path):
        p = tmp_path / "i.pgm"
        save_pgm(p, np.array([[-1.0, 2.0]]))
        back = load_pgm(p)
        np.testing.assert_array_equal(back, np.array([[0.0, 1.0]]))

    def test_header_comments_skipped(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 1\n255\n\x00\xff")
        back = load_pgm(p)
        np.testing.assert_array_equal(back, np.array([[0.0, 1.0]]))

    def test_non_pgm_rejected(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P6\n1 1\n255\n\x00")
        with pytest.raises(FormatError, match="PGM"):
            load_pgm(p)

    def test_wrong_maxval_rejected(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(FormatError, match="maxval"):
            load_pgm(p)

    def test_truncated_payload_rejected(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n2 2\n255\n\x00")
        with pytest.raises(FormatError, match="truncated"):
            load_pgm(p)

    def test_non_2d_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="2-d"):
            save_pgm(tmp_path / "x.pgm", np.zeros(4))


class TestCsv:
    def test_floats_round_trip_through_repr(self, tmp_path):
        p = tmp_path / "t.csv"
        rows = [["a", 0.1 + 0.2, 3], ["b", 1e-17, -4]]
        write_csv(p, ["name", "value", "count"], rows)
        with open(p, newline="") as f:
            got = list(csv.reader(f))
        assert got[0] == ["name", "value", "count"]
        assert float(got[1][1]) == 0.1 + 0.2
        assert float(got[2][1]) == 1e-17
        assert got[1][2] == "3"

    def test_header_only(self, tmp_path):
        p = tmp_path / "e.csv"
        write_csv(p, ["x"], [])
        with open(p, newline="") as f:
            got = list(csv.reader(f))
        assert got == [["x"]]
