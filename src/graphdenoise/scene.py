"""Bundled synthetic rectified-stereo test scene.

A textured background plane at constant disparity 4.0 px plus a textured
foreground rectangle at 10.5 px, rendered into a left (high-quality source)
and right (target) view with exact ground-truth disparity for the right
view.  Textures are seeded mixtures of plane waves, so both views are
evaluated analytically at fractional coordinates and the half-pel
foreground disparity genuinely exercises sub-pel interpolation.

Stands in for non-redistributable multiview test footage in experiments
and acceptance runs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .dibr import DepthMap
from .image import ImageGray, atomic_write_bytes

BACKGROUND_DISPARITY_PX = 4.0
FOREGROUND_DISPARITY_PX = 10.5

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
        out = np.full(np.broadcast(u, v).shape, base, dtype=np.float64)
        for a, cu, cv, p in zip(amps, fu, fv, phases):
            out = out + a * np.cos(2.0 * np.pi * (cu * u + cv * v) + p)
        return out

    return f


def foreground_rect(size: int) -> tuple[int, int, int, int]:
    """(x0, y0, x1, y1) of the foreground rectangle in the right view."""
    return (3 * size // 8, 9 * size // 32, 11 * size // 16, 23 * size // 32)


def synth_scene(size: int = 256, seed: int = DEFAULT_SEED) -> StereoScene:
    if not 64 <= size <= MAX_SIZE:
        raise ValueError(f"scene size must be in [64, {MAX_SIZE}]")
    rng = np.random.default_rng(np.random.PCG64(seed))
    f_bg = _plane_wave_texture(rng, base=150.0)
    f_fg = _plane_wave_texture(rng, base=95.0)
    x0, y0, x1, y1 = foreground_rect(size)

    u = np.arange(size, dtype=np.float64)[None, :]
    v = np.arange(size, dtype=np.float64)[:, None]
    in_fg = (u >= x0) & (u < x1) & (v >= y0) & (v < y1)
    right = np.where(in_fg, f_fg(u, v), f_bg(u, v))
    disp = np.where(in_fg, FOREGROUND_DISPARITY_PX, BACKGROUND_DISPARITY_PX)

    # In the left view the foreground sits FOREGROUND_DISPARITY_PX to the
    # right and hides the background behind it.
    uf = u - FOREGROUND_DISPARITY_PX
    in_left_fg = (uf >= x0) & (uf < x1) & (v >= y0) & (v < y1)
    left = np.where(in_left_fg, f_fg(uf, v), f_bg(u - BACKGROUND_DISPARITY_PX, v))

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
        left=ImageGray.from_array(left),
        right=ImageGray.from_array(right),
        depth=DepthMap.from_array(disp),
        meta=meta,
    )


def write_meta(path, scene: StereoScene) -> None:
    atomic_write_bytes(path, scene.meta_json().encode("ascii"))
