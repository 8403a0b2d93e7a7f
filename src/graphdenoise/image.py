"""Grayscale images, hole masks, and binary PGM/PBM containers.

Pixel samples are carried as float64 end to end.  Quantization to 8 bits
happens only when an image is written to disk: round half away from zero,
then clamp to [0, 255].  Masks use PBM bit 1 for "hole".
"""
from __future__ import annotations

import contextlib
import numbers
import os
import re
import tempfile
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatchError, FileFormatError


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


def _integer(v) -> bool:
    """The rule for every integer parameter: numbers.Integral, not bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _real(v, name: str) -> float:
    """The rule for every real parameter: numbers.Real, not bool, as a float."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        with contextlib.suppress(OverflowError):   # an int beyond the float range
            return float(v)
    raise ValueError(f"{name} must be a real number, not a bool, in float range, got {v!r}")


def _check_size(obj) -> None:
    """The rule for a grid's width and height: integers (``_integer``) >= 1."""
    for dim in ("width", "height"):
        v = getattr(obj, dim)
        if not (_integer(v) and v >= 1):
            raise DimensionMismatchError(
                f"{type(obj).__name__} {dim} must be an integer >= 1, got {v!r}")
        object.__setattr__(obj, dim, int(v))


@dataclass(frozen=True)
class _Raster:
    """A width x height grid with one value per pixel, stored row-major in
    the subclass's array field, named by ``_field``, as ``_dtype``.

    The raster owns its samples: the field holds a read-only copy of what
    it was given, so a later write to the caller's array cannot reach it,
    and the caller's array stays writable.  ``_own`` is the one exception,
    for an array the package has just made and keeps no other reference
    to: the raster freezes that array itself instead of copying it."""

    width: int
    height: int
    _field: ClassVar[str]
    _dtype: ClassVar[type]

    def __post_init__(self):
        _check_size(self)
        a = getattr(self, self._field)
        a = (np.asarray(a.array, self._dtype) if isinstance(a, _Fresh)
             else np.array(a, dtype=self._dtype))
        if a.shape != (self.width * self.height,):
            raise DimensionMismatchError(
                f"expected {self.width * self.height} {self._field}, got {a.shape}")
        object.__setattr__(self, self._field, _frozen(a))

    @classmethod
    def from_array(cls, a):
        a = np.asarray(a)
        if a.ndim != 2:
            raise DimensionMismatchError("expected a 2-D array")
        # one row-major copy in the field's dtype, which the raster then owns
        return cls._own(np.array(a, dtype=cls._dtype, order="C"))

    @classmethod
    def _own(cls, a: np.ndarray):
        """``from_array`` without the copy: the raster takes the fresh 2-D
        array a, of the field's dtype, and makes it read-only."""
        return cls(a.shape[1], a.shape[0], _Fresh(a.reshape(-1)))

    def to_array(self) -> np.ndarray:
        return getattr(self, self._field).reshape(self.height, self.width)


@dataclass(frozen=True)
class _Fresh:
    """The samples handed to ``_Raster._own``: taken as they are, not copied."""

    array: np.ndarray


@dataclass(frozen=True)
class ImageGray(_Raster):
    """A width x height grayscale image, samples stored row-major."""

    samples: np.ndarray
    _field = "samples"
    _dtype = np.float64


@dataclass(frozen=True)
class HoleMask(_Raster):
    """Boolean per-pixel mask, True marks a hole pixel."""

    flags: np.ndarray
    _field = "flags"
    _dtype = bool

    @classmethod
    def all_false(cls, width: int, height: int) -> "HoleMask":
        return cls(width=width, height=height, flags=np.zeros(width * height, bool))


def check_same_shape(a, b, what: str = "operands") -> None:
    if (a.width, a.height) != (b.width, b.height):
        raise DimensionMismatchError(
            f"{what}: {a.width}x{a.height} vs {b.width}x{b.height}"
        )


def quantize_u8(img: ImageGray) -> np.ndarray:
    """Round half away from zero, clamp to [0, 255], as (height, width) uint8.

    Every sample below 0 clamps to 0, so rounding half up (add 0.5, then
    truncate) gives the same bytes; it runs in one buffer.
    """
    q = img.to_array() + 0.5
    np.trunc(q, out=q)
    np.clip(q, 0.0, 255.0, out=q)
    return q.astype(np.uint8)


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

# Header syntax (pgm(5)): tokens of ASCII decimal digits separated by
# whitespace and # comments; a comment runs to its line end and may follow a
# token directly.
_GAP = re.compile(rb"(?:\s|#[^\r\n]*)*")
_TOKEN = re.compile(rb"[^\s#]*")
_COMMENT = re.compile(rb"(?:#[^\r\n]*)?")


def _read_header_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Read `count` integer header tokens, skipping whitespace and comments.

    Returns the tokens and the offset just past the single whitespace byte
    that terminates the last token, or the comment directly after it.
    """
    tokens: list[int] = []
    i = 0
    for _ in range(count):
        i = _GAP.match(data, i).end()
        tok = _TOKEN.match(data, i).group()
        if not tok:
            raise FileFormatError("truncated netpbm header")
        # bytes.isdigit is ASCII-only; int() alone would also take "+4" and "1_6"
        if not tok.isdigit():
            raise FileFormatError(f"bad netpbm header token {tok!r}")
        tokens.append(int(tok))
        i += len(tok)
    i = _COMMENT.match(data, i).end()
    if not data[i : i + 1].isspace():
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
    """Read a binary PGM; returns (2-D array, maxval).  The array keeps the
    file's sample width: uint8, or uint16 in native byte order."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P5":
        raise FileFormatError(f"{path}: not a binary PGM (P5)")
    (w, h, maxval), off = _read_header_tokens(data[2:], 3)
    off += 2
    if w < 1 or h < 1 or maxval < 1 or maxval > 65535:
        raise FileFormatError(f"{path}: bad PGM geometry {w}x{h} maxval={maxval}")
    wide = maxval > 255
    if len(data) - off < w * h * (2 if wide else 1):
        raise FileFormatError(f"{path}: truncated PGM raster")
    raster = np.frombuffer(data, dtype=">u2" if wide else "u1", count=w * h, offset=off)
    arr = raster.astype(np.uint16 if wide else np.uint8).reshape(h, w)
    if arr.max() > maxval:
        raise FileFormatError(f"{path}: PGM sample above maxval {maxval}")
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
    return ImageGray.from_array(arr)


def save_mask(path, mask: HoleMask) -> None:
    write_pbm(path, mask.to_array())


def load_mask(path) -> HoleMask:
    return HoleMask._own(read_pbm(path))
