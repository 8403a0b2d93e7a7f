"""End-to-end denoising: noise injection, disjoint patch processing,
per-patch graph filtering, hole median pass, and PSNR evaluation.

Patches are filtered on independent per-patch graphs with no cross-patch
edges and no overlap blending, so the whole-image result equals the
concatenation of independently filtered patches by construction; patch
order and worker count never change the output.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dibr import median_fill
from .errors import DimensionMismatchError, NumericError
from .filters import FilterSpec, apply_filter
from .graph import (NormalizedLaplacian, PixelGraph, WeightParams, build_graph,
                    normalized_laplacian)
from .image import HoleMask, ImageGray, check_same_shape

# Published PSNR (dB) reported for these graph filters on the standard
# multiview test sequences (not redistributable, so not reproducible here;
# kept for qualitative side-by-side context in reports).
REFERENCE_PSNR_DB = {
    "JBF": {"Kendo": 32.53, "Poznan_Street": 32.78, "Undo_Dancer": 31.90},
    "3-POLY": {"Kendo": 32.28, "Poznan_Street": 33.05, "Undo_Dancer": 31.97},
    "3-CG": {"Kendo": 35.76, "Poznan_Street": 34.49, "Undo_Dancer": 31.91},
    "3-CHEB": {"Kendo": 35.67, "Poznan_Street": 34.35, "Undo_Dancer": 31.92},
}
REFERENCE_SEQUENCES = ("Kendo", "Poznan_Street", "Undo_Dancer")


@dataclass(frozen=True)
class NoiseSpec:
    sigma: float
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and >= 0")


def add_gaussian_noise(img: ImageGray, spec: NoiseSpec) -> ImageGray:
    """Add i.i.d. zero-mean Gaussian noise from a PCG64-seeded generator.

    The generator algorithm is pinned (numpy Generator over PCG64,
    standard_normal via the ziggurat method), so a given seed yields
    bit-identical noise across runs and platforms.  Values stay unclamped;
    quantization happens only at image write time.
    """
    if spec.sigma == 0:
        return img
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    noise = spec.sigma * rng.standard_normal(img.samples.size)
    return ImageGray(img.width, img.height, img.samples + noise)


@dataclass(frozen=True)
class PatchGrid:
    """Disjoint tiling into patch_size x patch_size tiles, row-major;
    edge tiles may be smaller."""

    width: int
    height: int
    patch_size: int
    patches: tuple = field(init=False)

    def __post_init__(self):
        if self.patch_size < 8:
            raise ValueError("patch_size must be >= 8")
        tiles = []
        for y0 in range(0, self.height, self.patch_size):
            for x0 in range(0, self.width, self.patch_size):
                tiles.append((x0, y0,
                              min(self.patch_size, self.width - x0),
                              min(self.patch_size, self.height - y0)))
        object.__setattr__(self, "patches", tuple(tiles))


def split_patches(img: ImageGray, patch_size: int) -> PatchGrid:
    return PatchGrid(width=img.width, height=img.height, patch_size=patch_size)


def extract_patch(img: ImageGray, patch) -> ImageGray:
    x0, y0, w, h = patch
    return ImageGray.from_array(img.to_array()[y0 : y0 + h, x0 : x0 + w])


def extract_mask_patch(mask: HoleMask, patch) -> HoleMask:
    x0, y0, w, h = patch
    return HoleMask.from_array(mask.to_array()[y0 : y0 + h, x0 : x0 + w])


def patch_operator(guide: ImageGray, mask: HoleMask, patch,
                   weights: WeightParams) -> tuple[PixelGraph, NormalizedLaplacian]:
    """The bilateral graph of one patch of the guide and its normalized
    Laplacian."""
    g = build_graph(extract_patch(guide, patch), extract_mask_patch(mask, patch), weights)
    return g, normalized_laplacian(g)


def merge_patches(grid: PatchGrid, patch_images) -> ImageGray:
    """Left inverse of split_patches: reassemble patch images in grid order."""
    patch_images = list(patch_images)
    if len(patch_images) != len(grid.patches):
        raise DimensionMismatchError("patch count mismatch")
    out = np.empty((grid.height, grid.width), dtype=np.float64)
    for (x0, y0, w, h), p in zip(grid.patches, patch_images):
        if (p.width, p.height) != (w, h):
            raise DimensionMismatchError("patch image does not fit its tile")
        out[y0 : y0 + h, x0 : x0 + w] = p.to_array()
    return ImageGray.from_array(out)


@dataclass
class DenoiseReport:
    """Run metrics.  PSNR fields are filled by callers that hold the clean
    reference; patch_seconds is wall-clock and deliberately excluded from
    the deterministic CSV serialization."""

    hole_pixels: int
    n_patches: int
    patch_seconds: list
    params: dict
    psnr_noisy_db: float | None = None
    psnr_denoised_db: float | None = None

    def metrics(self) -> list[tuple[str, str]]:
        rows = [(k, _fmt_value(v)) for k, v in sorted(self.params.items())]
        rows.append(("hole_pixels", str(self.hole_pixels)))
        rows.append(("n_patches", str(self.n_patches)))
        if self.psnr_noisy_db is not None:
            rows.append(("psnr_noisy_db", _fmt_value(self.psnr_noisy_db)))
        if self.psnr_denoised_db is not None:
            rows.append(("psnr_denoised_db", _fmt_value(self.psnr_denoised_db)))
        return rows

    def to_csv(self) -> str:
        lines = ["metric,value"] + [f"{k},{v}" for k, v in self.metrics()]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = ["denoise report", "--------------"]
        lines += [f"{k} = {v}" for k, v in self.metrics()]
        if self.psnr_noisy_db is not None and self.psnr_denoised_db is not None:
            name = str(self.params.get("filter", "?"))
            lines.append("")
            lines.append(reference_comparison({name: self.psnr_denoised_db}))
        return "\n".join(lines) + "\n"


def _fmt_value(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return format(v, ".17g")
    return str(v)


def reference_comparison(results_db: dict) -> str:
    """Side-by-side table: this run's PSNRs next to the published PSNRs for
    the original (non-redistributable) multiview sequences."""
    header = f"{'filter':<10} {'this scene (dB)':>16} | " + " ".join(
        f"{s:>14}" for s in REFERENCE_SEQUENCES
    )
    lines = [
        "reference comparison (published results on original sequences,",
        "qualitative context only -- different content, not comparable):",
        header,
        "-" * len(header),
    ]
    names = list(results_db) + [n for n in REFERENCE_PSNR_DB if n not in results_db]
    for name in names:
        mine = f"{results_db[name]:>16.2f}" if name in results_db else f"{'-':>16}"
        refs = REFERENCE_PSNR_DB.get(name)
        cols = " ".join(
            f"{refs[s]:>14.2f}" if refs else f"{'-':>14}" for s in REFERENCE_SEQUENCES
        )
        lines.append(f"{name:<10} {mine} | {cols}")
    return "\n".join(lines)


def denoise(noisy: ImageGray, guide: ImageGray, mask: HoleMask, spec: FilterSpec,
            weights: WeightParams, patch_size: int = 64,
            workers: int = 1) -> tuple[ImageGray, DenoiseReport]:
    """Filter each patch on its own guide-derived graph, reassemble, then
    median-fill the hole pixels of the filtered image."""
    check_same_shape(noisy, guide, "noisy/guide")
    check_same_shape(noisy, mask, "noisy/mask")
    grid = split_patches(noisy, patch_size)

    def run_patch(patch):
        t0 = time.perf_counter()
        g, L = patch_operator(guide, mask, patch, weights)
        out = apply_filter(spec, L, g, extract_patch(noisy, patch).samples)
        x0, y0, w, h = patch
        return ImageGray(w, h, out), time.perf_counter() - t0

    if workers <= 1:
        results = [run_patch(p) for p in grid.patches]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_patch, grid.patches))

    merged = merge_patches(grid, (img for img, _ in results))
    filled = median_fill(merged, mask)
    report = DenoiseReport(
        hole_pixels=int(mask.flags.sum()),
        n_patches=len(grid.patches),
        patch_seconds=[dt for _, dt in results],
        params={
            "filter": spec.kind.value,
            "k": spec.k,
            "l": spec.l,
            "rho": spec.rho,
            "sigma_r": weights.sigma_r,
            "patch": patch_size,
            "width": noisy.width,
            "height": noisy.height,
        },
    )
    return filled, report


def psnr(a: ImageGray, b: ImageGray, peak: float = 255.0) -> float:
    """10 log10(peak^2 / MSE) over real-valued samples; +inf when MSE = 0.
    A non-finite MSE (overflowed or NaN samples) raises NumericError."""
    check_same_shape(a, b, "psnr operands")
    with np.errstate(over="ignore", invalid="ignore"):
        mse = float(np.mean((a.samples - b.samples) ** 2))
    if not math.isfinite(mse):
        raise NumericError(f"PSNR undefined: mean squared error is {mse}")
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)
