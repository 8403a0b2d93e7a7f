"""Bundled synthetic rectified-stereo test scene.

A textured background plane at constant disparity 4.0 px plus a textured
foreground rectangle at 10.5 px, rendered into a left (high-quality source)
and right (target) view with exact ground-truth disparity for the right
view.  Textures are seeded mixtures of plane waves, so both views are
evaluated analytically at fractional coordinates and the half-pel
foreground disparity genuinely exercises sub-pel interpolation.

Each wave cos(2*pi*(cu*u + cv*v) + p), with u the column and v the row, is
evaluated separably as cos A cos B - sin A sin B, where A = 2*pi*cu*u + p
varies along the columns only and B = 2*pi*cv*v along the rows only.  So
cosines and sines are taken over the coordinate vectors, O(size) per wave,
and the grid costs two broadcast products per wave, accumulated in place.
The samples lie within about 2e-12 of the cosine of the summed argument
taken per sample (at most 2.1e-12 measured on 50 scenes of sizes 64 to
1024, 2.6e-12 at 2048), and against a long-double evaluation the separable
form is the closer of the two, since its arguments are smaller.  No 8-bit
sample differed in those scenes, nor at 2048 and 4096.

Each kept texture sample is computed once.  The background disparity is a
whole number of pixels, so both views' backgrounds are cut from one
evaluation over ``size + 4`` columns; the foreground texture is evaluated
only on its rectangle in each view.  This gives the same bits as
evaluating both textures everywhere and picking per pixel, on the
assumption that numpy's ``cos`` and ``sin`` return the same bits for an
element wherever it sits in an array (``tests/test_scene_cli.py`` pins it).

Stands in for non-redistributable multiview test footage in experiments
and acceptance runs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dibr import DepthMap
from .image import ImageGray, _integer, atomic_write_bytes

BACKGROUND_DISPARITY_PX = 4.0
FOREGROUND_DISPARITY_PX = 10.5

# synth_scene cuts both views' backgrounds from one evaluation shifted by
# whole columns; a fractional background disparity would need two.
_BG_SHIFT = int(BACKGROUND_DISPARITY_PX)
if _BG_SHIFT != BACKGROUND_DISPARITY_PX:
    raise ValueError("BACKGROUND_DISPARITY_PX must be a whole number of pixels")

# depth.pgm stores disparity / DEPTH_SCALE as 16-bit integers; 1/64 px
# represents both scene disparities exactly.
DEPTH_SCALE = 0.015625

DEFAULT_SEED = 2014
# Largest scene side: each view costs 8 size^2 bytes, and warping and
# denoising it a multiple of that.
MAX_SIZE = 4096
_N_WAVES = 6
_TEXTURE_SPAN = 45.0


@dataclass(frozen=True)
class StereoScene:
    left: ImageGray
    right: ImageGray
    depth: DepthMap          # disparity of the right (target) view, px
    meta: dict

    def meta_json(self) -> str:
        return json.dumps(self.meta, sort_keys=True) + "\n"


def _plane_wave_texture(rng: np.random.Generator, base: float):
    """A smooth seeded texture f(u, v), evaluable at real coordinates."""
    amps = rng.uniform(0.5, 1.0, _N_WAVES)
    amps *= _TEXTURE_SPAN / amps.sum()
    periods = rng.uniform(14.0, 60.0, _N_WAVES)
    angles = rng.uniform(0.0, 2.0 * np.pi, _N_WAVES)
    phases = rng.uniform(0.0, 2.0 * np.pi, _N_WAVES)
    fu = np.cos(angles) / periods
    fv = np.sin(angles) / periods

    def f(u, v):
        # elementwise only: a matrix product's bits would follow the BLAS kernel
        out = np.full(np.broadcast(u, v).shape, base, dtype=np.float64)
        term = np.empty_like(out)
        for a, cu, cv, p in zip(amps, fu, fv, phases):
            # cos(A + B) = cos A cos B - sin A sin B, A over u and B over v
            au = 2.0 * np.pi * cu * u + p
            bv = 2.0 * np.pi * cv * v
            out += np.multiply(a * np.cos(au), np.cos(bv), out=term)
            out -= np.multiply(a * np.sin(au), np.sin(bv), out=term)
        return out

    return f


def foreground_rect(size: int) -> tuple[int, int, int, int]:
    """(x0, y0, x1, y1) of the foreground rectangle in the right view."""
    return (3 * size // 8, 9 * size // 32, 11 * size // 16, 23 * size // 32)


def synth_scene(size: int = 256, seed: int = DEFAULT_SEED) -> StereoScene:
    """Render the bundled stereo pair; each kept texture sample is computed once.

    The background texture is evaluated once over columns -4 .. size-1 (4 px
    is the whole-pixel background disparity): the right view takes its last
    ``size`` columns and the left view its first ``size``.  The foreground
    texture is evaluated only on its rectangle in the right view and on the
    left view's columns with ``x0 <= u - 10.5 < x1``, and written over the
    background there.  The result is byte-equal to evaluating both textures
    on the whole grid and picking per pixel, as long as numpy's ``cos`` and
    ``sin`` return the same bits for an element wherever they sit in an
    array.

    Each texture is evaluated separably (see the module docstring): one
    cosine and one sine per wave and per row or column, and two
    multiply-adds per wave and per sample.  ``size`` and ``seed`` must be
    integers.
    """
    if not (_integer(size) and _integer(seed)):
        raise ValueError(f"scene size and seed must be integers, got {size!r} and {seed!r}")
    if not 64 <= size <= MAX_SIZE:
        raise ValueError(f"scene size must be in [64, {MAX_SIZE}]")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng = np.random.default_rng(np.random.PCG64(seed))
    f_bg = _plane_wave_texture(rng, base=150.0)
    f_fg = _plane_wave_texture(rng, base=95.0)
    x0, y0, x1, y1 = foreground_rect(size)

    u = np.arange(size, dtype=np.float64)[None, :]
    v = np.arange(size, dtype=np.float64)[:, None]
    # bg column j is background column j - shift; left column u shows the
    # background at u - shift, so left is bg's first size columns
    bg = f_bg(np.arange(-_BG_SHIFT, size, dtype=np.float64)[None, :], v)
    right = bg[:, _BG_SHIFT:].copy()
    left = bg[:, :size].copy()
    right[y0:y1, x0:x1] = f_fg(u[:, x0:x1], v[y0:y1])
    disp = np.full((size, size), BACKGROUND_DISPARITY_PX)
    disp[y0:y1, x0:x1] = FOREGROUND_DISPARITY_PX

    # In the left view the foreground sits FOREGROUND_DISPARITY_PX to the
    # right and hides the background behind it.
    uf = u - FOREGROUND_DISPARITY_PX
    cols = ((uf >= x0) & (uf < x1))[0]
    left[y0:y1, cols] = f_fg(uf[:, cols], v[y0:y1])

    meta = {
        "seed": int(seed),
        "size": int(size),
        "disparity_scale": DEPTH_SCALE,
        "background_disparity_px": BACKGROUND_DISPARITY_PX,
        "foreground_disparity_px": FOREGROUND_DISPARITY_PX,
        "foreground_rect_x0y0x1y1": [x0, y0, x1, y1],
        "warp_direction": "left_to_right",
    }
    return StereoScene(
        left=ImageGray._own(left),
        right=ImageGray._own(right),
        depth=DepthMap._own(disp),
        meta=meta,
    )


def write_meta(path, scene: StereoScene) -> None:
    atomic_write_bytes(path, scene.meta_json().encode("ascii"))
