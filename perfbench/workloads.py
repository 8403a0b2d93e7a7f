"""The benchmark's three workloads and the inputs they generate from a seed.

A frame is the unit that is timed.  Each workload splits its work into

* ``setup()``    -- generate inputs from the seed and precompute what every
                    frame shares (untimed by frames; ``setup_s`` times it);
* ``frame()``    -- the timed work, storing its outputs on the workload;
* ``outputs()``  -- what the per-frame correctness gate checks (untimed);
* ``psnrs()``    -- PSNR of each filter the frame ran, against the clean view;
* ``filter_inputs()`` -- (noisy, guide, mask, clean) of the frame's denoise
                    step, for the quality pass and the oracle spot-check.

Why these three: ``cli_chain`` is the only one with file I/O and the CLI
layer and is bound by the warp's occlusion test; ``filter_sweep`` times the
graph, filter and median-fill layers with no warp in its frames;
``ramp_disparity`` drives the warp through all four quarter-pel phases with
a wide disparity range, so interpolation (not occlusion) dominates it and
the hole median fill does several times the work.
"""
from __future__ import annotations

import contextlib
import io
import os

import numpy as np

from graphdenoise import cli, dibr, pipeline, scene
from graphdenoise.dibr import DepthMap, WarpParams
from graphdenoise.filters import FilterKind, FilterSpec
from graphdenoise.graph import WeightParams
from graphdenoise.image import (HoleMask, ImageGray, load_image, load_mask,
                                save_image, save_mask)

from layers import KINDS

SIGMA = 10.0
K = 3
PATCH = 64
SIGMA_R = 10.0
ORACLE_PATCH = 32
ORACLE_WINDOWS = 2


class FrameError(Exception):
    """A frame's program call reported failure."""


class WorkloadInvalid(Exception):
    """The workload no longer exercises the layer it exists for."""


def derive_seeds(seed: int, n: int) -> list[int]:
    """n independent 32-bit seeds from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def denoise(noisy, guide, mask, kind: str):
    out, _report = pipeline.denoise(
        noisy, guide, mask, FilterSpec(FilterKind(kind), k=K),
        WeightParams(sigma_r=SIGMA_R), patch_size=PATCH, workers=1)
    return out


def noisy_view(clean: ImageGray, noise_seed: int) -> ImageGray:
    return pipeline.add_gaussian_noise(clean, pipeline.NoiseSpec(SIGMA, noise_seed))


# ---------------------------------------------------------------------------
# Generated inputs for ramp_disparity

RAMP_BG_PX = (4.0, 16.0)       # background disparity across the row
RAMP_FG_PX = 31.5              # foreground disparity ...
RAMP_FG_JITTER_PX = 0.5        # ... plus a per-row offset in +-this
RAMP_TEXTURE_SEED = scene.DEFAULT_SEED


def _texture(rng: np.random.Generator, base: float, waves: int = 6):
    """A smooth seeded plane-wave texture f(u, v) on real coordinates."""
    amps = rng.uniform(0.5, 1.0, waves)
    amps *= 45.0 / amps.sum()
    period = rng.uniform(14.0, 60.0, waves)
    angle = rng.uniform(0.0, 2.0 * np.pi, waves)
    phase = rng.uniform(0.0, 2.0 * np.pi, waves)
    fu, fv = np.cos(angle) / period, np.sin(angle) / period

    def f(u, v):
        return base + sum(a * np.cos(2.0 * np.pi * (cu * u + cv * v) + p)
                          for a, cu, cv, p in zip(amps, fu, fv, phase))
    return f


def ramp_inputs(seed: int, width: int = 256, height: int = 128):
    """(left, right, depth, noise_seed) for a slanted background plus a
    near foreground rectangle, rendered consistently for a left-to-right
    warp: right-view pixel u shows the left view at u + disparity(u)."""
    fg_seed, noise_seed = derive_seeds(seed, 2)
    rng = np.random.default_rng(RAMP_TEXTURE_SEED)
    bg, fg = _texture(rng, 150.0), _texture(rng, 95.0)
    u = np.arange(width, dtype=np.float64)[None, :]
    v = np.arange(height, dtype=np.float64)[:, None]
    a = RAMP_BG_PX[0]
    b = (RAMP_BG_PX[1] - RAMP_BG_PX[0]) / (width - 1)
    d_fg = RAMP_FG_PX + np.random.default_rng(fg_seed).uniform(
        -RAMP_FG_JITTER_PX, RAMP_FG_JITTER_PX, (height, 1))
    x0, y0, x1, y1 = 3 * width // 8, 9 * height // 32, 11 * width // 16, 23 * height // 32
    rows = (v >= y0) & (v < y1)
    in_fg = (u >= x0) & (u < x1) & rows
    right = np.where(in_fg, fg(u, v), bg(u, v))
    disp = np.where(in_fg, d_fg, a + b * u)
    # left-view column x shows the foreground point x - d_fg, or else the
    # background point u with u + a + b u = x
    xf = u - d_fg
    in_left_fg = (xf >= x0) & (xf < x1) & rows
    left = np.where(in_left_fg, fg(xf, v), bg((u - a) / (1.0 + b), v))
    return (ImageGray.from_array(left), ImageGray.from_array(right),
            DepthMap.from_array(disp), noise_seed)


# ---------------------------------------------------------------------------
# Workloads

class CliChain:
    """The README's user path through ``cli.main``: synth -> warp ->
    denoise(cheb) -> psnr, with PGM/PBM files in a work directory."""

    name = "cli_chain"
    width = height = 256
    kinds = ("cheb",)

    def __init__(self, seed: int, workdir: str):
        self.noise_seed, = derive_seeds(seed, 1)
        self.dir = workdir
        self.scene_dir = os.path.join(workdir, "scene")
        self.warp_dir = os.path.join(workdir, "warped")
        self.run_dir = os.path.join(workdir, "run")
        self.stdout = b""

    def _cli(self, *argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        if rc != 0:
            raise FrameError(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
        return out.getvalue()

    def setup(self) -> None:
        os.makedirs(self.dir, exist_ok=True)

    def frame(self) -> None:
        s, w, r = self.scene_dir, self.warp_dir, self.run_dir
        self._cli("synth", "--out", s, "--seed", str(scene.DEFAULT_SEED),
                  "--size", str(self.width))
        self._cli("warp", "--source", f"{s}/left.pgm", "--depth", f"{s}/depth.pgm",
                  "--scale", str(scene.DEPTH_SCALE), "--out", w)
        self._cli("denoise", "--clean", f"{s}/right.pgm", "--sigma", str(SIGMA),
                  "--seed", str(self.noise_seed), "--guide", f"{w}/guide.pgm",
                  "--mask", f"{w}/mask.pbm", "--filter", "cheb", "--k", str(K),
                  "--patch", str(PATCH), "--out", r)
        self.stdout = self._cli("psnr", f"{r}/denoised.pgm", f"{s}/right.pgm").encode()

    def _report(self) -> bytes:
        with open(os.path.join(self.run_dir, "report.csv"), "rb") as fh:
            return fh.read()

    def outputs(self) -> dict:
        return {"denoised": load_image(os.path.join(self.run_dir, "denoised.pgm")),
                "guide": load_image(os.path.join(self.warp_dir, "guide.pgm")),
                "mask": load_mask(os.path.join(self.warp_dir, "mask.pbm")),
                "report.csv": self._report(),
                "psnr.stdout": self.stdout}

    def psnrs(self) -> dict:
        rows = dict(line.split(",", 1) for line in self._report().decode().splitlines())
        return {"cheb": float(rows["psnr_denoised_db"])}

    def filter_inputs(self):
        clean = load_image(os.path.join(self.scene_dir, "right.pgm"))
        return (noisy_view(clean, self.noise_seed),
                load_image(os.path.join(self.warp_dir, "guide.pgm")),
                load_mask(os.path.join(self.warp_dir, "mask.pbm")), clean)


class FilterSweep:
    """Library ``denoise()`` with all six filters on one noisy image; the
    guide and mask are warped once, in set-up."""

    name = "filter_sweep"
    width = height = 256
    kinds = KINDS

    def __init__(self, seed: int, workdir: str):
        self.noise_seed, = derive_seeds(seed, 1)
        self.out: dict = {}

    def setup(self) -> None:
        sc = scene.synth_scene(size=self.width, seed=scene.DEFAULT_SEED)
        wr = dibr.warp_guide(sc.left, sc.depth, WarpParams())
        self.clean, self.guide, self.mask = sc.right, wr.guide, wr.mask

    def frame(self) -> None:
        noisy = noisy_view(self.clean, self.noise_seed)
        self.noisy = noisy
        self.out = {k: denoise(noisy, self.guide, self.mask, k) for k in self.kinds}

    def outputs(self) -> dict:
        return dict(self.out)

    def psnrs(self) -> dict:
        return {k: pipeline.psnr(v, self.clean) for k, v in self.out.items()}

    def filter_inputs(self):
        return self.noisy, self.guide, self.mask, self.clean


class RampDisparity:
    """Library warp -> noise -> denoise(cheb) -> psnr on a generated depth
    map whose disparities cover every quarter-pel phase."""

    name = "ramp_disparity"
    width, height = 256, 128
    kinds = ("cheb",)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.out: dict = {}

    def setup(self) -> None:
        self.left, self.clean, self.depth, self.noise_seed = ramp_inputs(
            self.seed, self.width, self.height)

    def frame(self) -> None:
        wr = dibr.warp_guide(self.left, self.depth, WarpParams())
        noisy = noisy_view(self.clean, self.noise_seed)
        self.warp, self.noisy = wr, noisy
        self.out = {"cheb": denoise(noisy, wr.guide, wr.mask, "cheb"),
                    "guide": wr.guide, "mask": wr.mask}

    def validate(self) -> None:
        pc = self.warp.phase_counts
        if not np.all(pc > 0):
            raise WorkloadInvalid(f"ramp_disparity misses a quarter-pel phase: {pc}")

    def outputs(self) -> dict:
        return dict(self.out)

    def psnrs(self) -> dict:
        return {"cheb": pipeline.psnr(self.out["cheb"], self.clean)}

    def filter_inputs(self):
        return self.noisy, self.warp.guide, self.warp.mask, self.clean


WORKLOADS = {w.name: w for w in (CliChain, FilterSweep, RampDisparity)}


# ---------------------------------------------------------------------------
# Checks outside the timed frames

def quality(w) -> dict[str, float]:
    """PSNR (dB) of every filter on the workload's denoise input: the timed
    filters from the last frame, the others run once here."""
    got = w.psnrs()
    noisy, guide, mask, clean = w.filter_inputs()
    for k in KINDS:
        if k not in got:
            got[k] = pipeline.psnr(denoise(noisy, guide, mask, k), clean)
    return got


def oracle_windows(mask: HoleMask, seed: int) -> list[tuple[int, int]]:
    """Top-left corners of the aligned oracle windows to check: the one with
    the most holes, then seeded picks among the rest."""
    s = ORACLE_PATCH
    corners = [(x, y) for y in range(0, mask.height - s + 1, s)
               for x in range(0, mask.width - s + 1, s)]
    m = mask.to_array()
    holes = [int(m[y:y + s, x:x + s].sum()) for x, y in corners]
    first = corners[int(np.argmax(holes))]
    rest = [c for c in corners if c != first]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(rest), ORACLE_WINDOWS - 1, replace=False)
    return [first] + [rest[i] for i in sorted(picks)]


def oracle_spot_check(w, workdir: str, seed: int) -> tuple[int, list[str]]:
    """Run ``denoise --check-oracle`` on a few 32x32 windows for every
    filter (dense-oracle comparison at 1e-6).  Returns (attempted, misses)."""
    noisy, guide, mask, _clean = w.filter_inputs()
    d = os.path.join(workdir, "oracle")
    os.makedirs(d, exist_ok=True)
    s = ORACLE_PATCH
    attempted, misses = 0, []
    for x, y in oracle_windows(mask, seed):
        def crop(a):
            return a[y:y + s, x:x + s]
        save_image(f"{d}/noisy.pgm", ImageGray.from_array(crop(noisy.to_array())))
        save_image(f"{d}/guide.pgm", ImageGray.from_array(crop(guide.to_array())))
        save_mask(f"{d}/mask.pbm", HoleMask.from_array(crop(mask.to_array())))
        for kind in KINDS:
            attempted += 1
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = cli.main(["denoise", "--noisy", f"{d}/noisy.pgm",
                               "--guide", f"{d}/guide.pgm", "--mask", f"{d}/mask.pbm",
                               "--filter", kind, "--k", str(K), "--patch", str(s),
                               "--check-oracle", "--out", f"{d}/out"])
            if rc != 0:
                misses.append(f"{kind}@({x},{y}): exit {rc}: {err.getvalue().strip()}")
    return attempted, misses
