"""Binary containers for tensors, trains, and MERAs, plus PGM and CSV.

All multi-byte integers are little-endian; all floating payloads are raw
64-bit IEEE doubles flattened first-index-fastest.  Containers open with a
4-byte magic:

``MRT1``
    dense tensor: u16 order, then order u64 dimensions, then the payload.
``MRTT``
    tensor train: u16 order D, then D+1 u64 ranks (unit at both ends),
    then D u64 dimensions, then the cores back to back, each flattened
    with its left rank fastest.
``MRMA``
    MERA: u16 layer count; per layer a u16 disentangler count and a u16
    isometry count followed by that many records (disentanglers first).
    Each record is a u8 kind (0 disentangler, 1 isometry), u64 1-based
    position, u16 dimension count, the u64 dimensions, and the payload.
    A disentangler's dimensions are the index pair, its payload the
    square matrix; an isometry's dimensions are the fused inputs followed
    by the output size, its payload the column-orthonormal matrix.  After
    the layers the top tensor follows in the ``MRT1`` body layout.

Malformed input (wrong magic, truncation, inconsistent sizes) raises
:class:`~ttmera.errors.FormatError`.
"""

from __future__ import annotations

import csv
import math
import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .dense import DenseTensor
from .errors import FormatError
from .mera import Disentangler, Isometry, Mera, MeraLayer
from .train import TensorTrain

__all__ = [
    "save_tensor",
    "load_tensor",
    "save_train",
    "load_train",
    "save_mera",
    "load_mera",
    "save_pgm",
    "load_pgm",
    "write_csv",
]

_MAGIC_TENSOR = b"MRT1"
_MAGIC_TRAIN = b"MRTT"
_MAGIC_MERA = b"MRMA"


class _Reader:
    """Cursor over an open binary file that fails loudly on truncation."""

    def __init__(self, f: BinaryIO, label: str):
        self._f = f
        self._size = os.fstat(f.fileno()).st_size
        self._label = label

    def take(self, n: int) -> bytes:
        out = self._f.read(n)
        if len(out) != n:
            raise FormatError(f"truncated {self._label} file")
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u64s(self, count: int) -> tuple[int, ...]:
        return struct.unpack(f"<{count}Q", self.take(8 * count))

    def f64s(self, count: int) -> np.ndarray:
        # Checked before allocating, so a huge declared payload costs nothing.
        if 8 * count > self._size - self._f.tell():
            raise FormatError(f"truncated {self._label} file")
        return np.fromfile(self._f, dtype="<f8", count=count)

    def done(self) -> None:
        left = self._size - self._f.tell()
        if left:
            raise FormatError(f"{self._label} file has {left} trailing bytes")


def _check_dims(dims: Sequence[int], label: str) -> None:
    if not dims or any(d < 1 for d in dims):
        raise FormatError(f"{label} file declares invalid dimensions {tuple(dims)}")


def _payload(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a.ravel(order="F"), dtype="<f8")


# ---------------------------------------------------------------------------
# dense tensors


def save_tensor(path: str | Path, t: DenseTensor) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC_TENSOR)
        f.write(struct.pack(f"<H{t.order}Q", t.order, *t.dims))
        f.write(_payload(t.to_array()))


def load_tensor(path: str | Path) -> DenseTensor:
    with open(path, "rb") as f:
        r = _Reader(f, "tensor")
        if r.take(4) != _MAGIC_TENSOR:
            raise FormatError(f"{path}: bad magic, not a tensor file")
        order = r.u16()
        if order < 1:
            raise FormatError("tensor file declares zero order")
        dims = r.u64s(order)
        _check_dims(dims, "tensor")
        data = r.f64s(math.prod(dims))
        r.done()
        return DenseTensor.from_flat(data, dims)


# ---------------------------------------------------------------------------
# tensor trains


def save_train(path: str | Path, tt: TensorTrain) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC_TRAIN)
        f.write(struct.pack(f"<H{2 * tt.order + 1}Q", tt.order, *tt.ranks, *tt.dims))
        for core in tt.cores:
            f.write(_payload(core))


def load_train(path: str | Path) -> TensorTrain:
    with open(path, "rb") as f:
        r = _Reader(f, "train")
        if r.take(4) != _MAGIC_TRAIN:
            raise FormatError(f"{path}: bad magic, not a train file")
        order = r.u16()
        if order < 1:
            raise FormatError("train file declares zero order")
        ranks = r.u64s(order + 1)
        dims = r.u64s(order)
        _check_dims(dims, "train")
        _check_dims(ranks, "train")
        if ranks[0] != 1 or ranks[-1] != 1:
            raise FormatError(f"train file boundary ranks must be 1, got {ranks}")
        cores = []
        for d in range(order):
            shape = (ranks[d], dims[d], ranks[d + 1])
            flat = r.f64s(math.prod(shape))
            cores.append(np.reshape(flat, shape, order="F"))
        r.done()
        return TensorTrain(cores)


# ---------------------------------------------------------------------------
# MERAs


def save_mera(path: str | Path, m: Mera) -> None:
    with open(path, "wb") as f:
        f.write(_MAGIC_MERA)
        f.write(struct.pack("<H", len(m.layers)))
        for layer in m.layers:
            f.write(struct.pack("<HH", len(layer.disentanglers),
                                len(layer.isometries)))
            for pos, dis in sorted(layer.disentanglers):
                f.write(struct.pack("<BQH2Q", 0, pos, 2, *dis.dims))
                f.write(_payload(dis.data))
            for pos, iso in sorted(layer.isometries):
                dims = (*iso.input_dims, iso.output_dim)
                f.write(struct.pack(f"<BQH{len(dims)}Q", 1, pos, len(dims), *dims))
                f.write(_payload(iso.data))
        f.write(struct.pack(f"<H{m.top.order}Q", m.top.order, *m.top.dims))
        f.write(_payload(m.top.to_array()))


def load_mera(path: str | Path) -> Mera:
    with open(path, "rb") as f:
        r = _Reader(f, "mera")
        if r.take(4) != _MAGIC_MERA:
            raise FormatError(f"{path}: bad magic, not a MERA file")
        n_layers = r.u16()
        if n_layers < 1:
            raise FormatError("MERA file declares zero layers")
        layers = []
        for _ in range(n_layers):
            n_dis = r.u16()
            n_iso = r.u16()
            if n_iso < 1:
                raise FormatError("MERA layer declares zero isometries")
            disentanglers = []
            isometries = []
            for _ in range(n_dis + n_iso):
                kind = r.u8()
                (pos,) = r.u64s(1)
                ndims = r.u16()
                dims = r.u64s(ndims)
                _check_dims(dims, "mera")
                if kind == 0:
                    if ndims != 2:
                        raise FormatError(
                            f"disentangler record has {ndims} dimensions, expected 2"
                        )
                    n = dims[0] * dims[1]
                    data = r.f64s(n * n).reshape((n, n), order="F")
                    disentanglers.append((pos, Disentangler(dims=dims, data=data)))
                elif kind == 1:
                    if ndims < 2:
                        raise FormatError("isometry record needs input and output dims")
                    rows = math.prod(dims[:-1])
                    data = r.f64s(rows * dims[-1]).reshape((rows, dims[-1]), order="F")
                    isometries.append((pos, Isometry(input_dims=dims[:-1], data=data)))
                else:
                    raise FormatError(f"unknown MERA record kind {kind}")
            if len(disentanglers) != n_dis:
                raise FormatError(
                    f"MERA layer header promised {n_dis} disentanglers, "
                    f"found {len(disentanglers)}"
                )
            layers.append(
                MeraLayer(
                    isometries=tuple(isometries),
                    disentanglers=tuple(disentanglers),
                )
            )
        top_order = r.u16()
        if top_order < 1:
            raise FormatError("MERA file declares zero-order top tensor")
        top_dims = r.u64s(top_order)
        _check_dims(top_dims, "mera")
        top = DenseTensor.from_flat(r.f64s(math.prod(top_dims)), top_dims)
        r.done()
        return Mera(layers=tuple(layers), top=top)


# ---------------------------------------------------------------------------
# images and tables


def save_pgm(path: str | Path, image: np.ndarray) -> None:
    """Write a 2-d array of values in ``[0, 1]`` as an 8-bit binary PGM.

    Values are clipped to the unit interval and quantised to 0..255.
    Rows of the array become rows of the image.
    """
    a = np.asarray(image, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"PGM image must be 2-d, got {a.ndim} axes")
    quantised = np.round(np.clip(a, 0.0, 1.0) * 255.0).astype(np.uint8)
    rows, cols = quantised.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{cols} {rows}\n255\n".encode("ascii"))
        f.write(quantised.tobytes())


def load_pgm(path: str | Path) -> np.ndarray:
    """Read an 8-bit binary PGM back to floats in ``[0, 1]``."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise FormatError(f"{path}: not a binary PGM file")
    # Header is three whitespace-separated tokens after the magic, with
    # optional comment lines.
    pos = 2
    tokens: list[int] = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path}: truncated PGM header")
        try:
            tokens.append(int(data[start:pos]))
        except ValueError as exc:
            raise FormatError(f"{path}: bad PGM header token") from exc
    cols, rows, maxval = tokens
    if maxval != 255:
        raise FormatError(f"{path}: only 8-bit PGM supported, maxval {maxval}")
    pos += 1
    pixels = data[pos : pos + rows * cols]
    if len(pixels) != rows * cols:
        raise FormatError(f"{path}: truncated PGM payload")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(rows, cols) / 255.0


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[object]]) -> None:
    """Write a table with a header row; floats use repr-precision."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
