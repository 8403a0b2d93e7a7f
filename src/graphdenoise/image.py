"""Grayscale images, hole masks, and binary PGM/PBM containers.

Pixel samples are carried as float64 end to end.  Quantization to 8 bits
happens only when an image is written to disk: round half away from zero,
then clamp to [0, 255].  Masks use PBM bit 1 for "hole".
"""
from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, FileFormatError


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ImageGray:
    """A width x height grayscale image, samples stored row-major."""

    width: int
    height: int
    samples: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DimensionMismatchError("image dimensions must be >= 1")
        a = np.asarray(self.samples, dtype=np.float64)
        if a.shape != (self.width * self.height,):
            raise DimensionMismatchError(
                f"expected {self.width * self.height} samples, got {a.shape}"
            )
        object.__setattr__(self, "samples", _frozen(a))

    @classmethod
    def from_array(cls, a) -> "ImageGray":
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise DimensionMismatchError("expected a 2-D array")
        return cls(width=a.shape[1], height=a.shape[0], samples=a.ravel())

    def to_array(self) -> np.ndarray:
        return self.samples.reshape(self.height, self.width)


@dataclass(frozen=True)
class HoleMask:
    """Boolean per-pixel mask, True marks a hole pixel."""

    width: int
    height: int
    flags: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DimensionMismatchError("mask dimensions must be >= 1")
        a = np.asarray(self.flags, dtype=bool)
        if a.shape != (self.width * self.height,):
            raise DimensionMismatchError(
                f"expected {self.width * self.height} flags, got {a.shape}"
            )
        object.__setattr__(self, "flags", _frozen(a))

    @classmethod
    def from_array(cls, a) -> "HoleMask":
        a = np.asarray(a, dtype=bool)
        if a.ndim != 2:
            raise DimensionMismatchError("expected a 2-D array")
        return cls(width=a.shape[1], height=a.shape[0], flags=a.ravel())

    @classmethod
    def all_false(cls, width: int, height: int) -> "HoleMask":
        return cls(width=width, height=height, flags=np.zeros(width * height, bool))

    def to_array(self) -> np.ndarray:
        return self.flags.reshape(self.height, self.width)


def check_same_shape(a, b, what: str = "operands") -> None:
    if (a.width, a.height) != (b.width, b.height):
        raise DimensionMismatchError(
            f"{what}: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def quantize_u8(img: ImageGray) -> np.ndarray:
    """Round half away from zero, clamp to [0, 255], as (height, width) uint8."""
    x = img.to_array()
    q = np.trunc(x + np.copysign(0.5, x))
    return np.clip(q, 0.0, 255.0).astype(np.uint8)


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via a temp file in the target directory plus atomic rename."""
    path = os.fspath(path)
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Netpbm parsing/serialization (P5 binary PGM, P4 binary PBM)

def _read_header_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integer tokens, skipping # comments.

    Returns the tokens and the offset just past the single whitespace byte
    that terminates the last token.
    """
    tokens: list[int] = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        j = i
        while j < n and not data[j : j + 1].isspace():
            j += 1
        if j == i:
            raise FileFormatError("truncated netpbm header")
        try:
            tokens.append(int(data[i:j]))
        except ValueError as e:
            raise FileFormatError(f"bad netpbm header token {data[i:j]!r}") from e
        i = j
    if i >= n or not data[i : i + 1].isspace():
        raise FileFormatError("netpbm header not terminated by whitespace")
    return tokens, i + 1


def write_pgm(path, arr: np.ndarray, maxval: int = 255) -> None:
    """Write a 2-D unsigned integer array as binary PGM (16-bit is big-endian)."""
    arr = np.asarray(arr)
    if arr.ndim != 2:
        raise FileFormatError("PGM payload must be 2-D")
    if maxval < 1 or maxval > 65535:
        raise FileFormatError(f"unsupported PGM maxval {maxval}")
    if arr.min() < 0 or arr.max() > maxval:
        raise FileFormatError("PGM samples out of range for maxval")
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    raster = arr.astype(">u2" if maxval > 255 else "u1").tobytes()
    atomic_write_bytes(path, header + raster)


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary PGM; returns (2-D int array, maxval)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise FileFormatError(f"{path}: not a binary PGM (P5)")
    (w, h, maxval), off = _read_header_tokens(data[2:], 3)
    off += 2
    if w < 1 or h < 1 or maxval < 1 or maxval > 65535:
        raise FileFormatError(f"{path}: bad PGM geometry {w}x{h} maxval={maxval}")
    dtype = ">u2" if maxval > 255 else "u1"
    need = w * h * (2 if maxval > 255 else 1)
    raster = data[off : off + need]
    if len(raster) != need:
        raise FileFormatError(f"{path}: truncated PGM raster")
    arr = np.frombuffer(raster, dtype=dtype).reshape(h, w).astype(np.int64)
    return arr, maxval


def write_pbm(path, flags: np.ndarray) -> None:
    """Write a 2-D boolean array as binary PBM (bit 1 = True = hole)."""
    flags = np.asarray(flags, dtype=bool)
    if flags.ndim != 2:
        raise FileFormatError("PBM payload must be 2-D")
    header = f"P4\n{flags.shape[1]} {flags.shape[0]}\n".encode("ascii")
    packed = np.packbits(flags, axis=1)
    atomic_write_bytes(path, header + packed.tobytes())


def read_pbm(path) -> np.ndarray:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P4":
        raise FileFormatError(f"{path}: not a binary PBM (P4)")
    (w, h), off = _read_header_tokens(data[2:], 2)
    off += 2
    if w < 1 or h < 1:
        raise FileFormatError(f"{path}: bad PBM geometry {w}x{h}")
    row_bytes = (w + 7) // 8
    need = row_bytes * h
    raster = data[off : off + need]
    if len(raster) != need:
        raise FileFormatError(f"{path}: truncated PBM raster")
    rows = np.frombuffer(raster, dtype=np.uint8).reshape(h, row_bytes)
    return np.unpackbits(rows, axis=1)[:, :w].astype(bool)


def save_image(path, img: ImageGray) -> None:
    write_pgm(path, quantize_u8(img), maxval=255)


def load_image(path) -> ImageGray:
    arr, maxval = read_pgm(path)
    if maxval > 255:
        raise FileFormatError(f"{path}: 16-bit PGM where an 8-bit image was expected")
    return ImageGray.from_array(arr.astype(np.float64))


def save_mask(path, mask: HoleMask) -> None:
    write_pbm(path, mask.to_array())


def load_mask(path) -> HoleMask:
    return HoleMask.from_array(read_pbm(path))
