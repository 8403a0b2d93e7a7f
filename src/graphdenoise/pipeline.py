"""End-to-end denoising: noise injection, disjoint patch processing,
per-patch graph filtering, hole median pass, and PSNR evaluation.

Every patch is filtered on its own guide-derived graph, with no cross-patch
edges and no overlap blending.  ``denoise`` runs all patches in one pass:
``block_operator`` lays the image out tile by tile (``PatchGrid.to_nodes``)
and builds one block-diagonal Laplacian whose segments are the patch
graphs, straight from the 4-neighbour weights, so a single
``apply_filter`` call filters the whole image.  Degrees, edge scalings,
Laplacian applies and per-segment inner products are evaluated in the same
floating-point order as on each patch's own ``patch_operator`` graph, so
the result is bit-identical to filtering the patches one by one, in any
order.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .dibr import median_fill
from .errors import DimensionMismatchError, NumericError
from .filters import FilterSpec, apply_filter
from .graph import (NormalizedLaplacian, PixelGraph, WeightParams, build_graph,
                    normalized_laplacian)
from .image import HoleMask, ImageGray, _frozen, check_same_shape

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
    edge tiles may be smaller.

    Tile-major node order: the image is padded on the right and bottom to
    whole tiles, and tile t occupies nodes t*p^2 .. (t+1)*p^2 - 1,
    row-major within the tile (p = patch_size)."""

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

    def _tiles(self) -> tuple[int, int]:
        p = self.patch_size
        return -(-self.height // p), -(-self.width // p)

    def to_nodes(self, a: np.ndarray, fill) -> np.ndarray:
        """A (height, width) array in tile-major node order, padded with
        fill."""
        p = self.patch_size
        ty, tx = self._tiles()
        pad = np.full((ty * p, tx * p), fill, dtype=np.asarray(a).dtype)
        pad[: self.height, : self.width] = a
        return pad.reshape(ty, p, tx, p).swapaxes(1, 2).reshape(-1)

    def from_nodes(self, x: np.ndarray) -> np.ndarray:
        """Inverse of ``to_nodes``: the (height, width) image, padding
        dropped."""
        p = self.patch_size
        ty, tx = self._tiles()
        a = x.reshape(ty, tx, p, p).swapaxes(1, 2).reshape(ty * p, tx * p)
        return a[: self.height, : self.width]

    def segments(self) -> tuple:
        """Per tile, its pixels' nodes within the tile's p^2 nodes, in the
        tile's own row-major order: all of them for a whole tile, an index
        array for an edge tile."""
        p = self.patch_size
        return tuple(slice(None) if (w, h) == (p, p)
                     else _frozen((p * np.arange(h)[:, None] + np.arange(w)).ravel())
                     for _, _, w, h in self.patches)


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


@dataclass(frozen=True)
class BlockGraph:
    """What signal normalization reads of the block-diagonal patch graph:
    its node count and degrees, in tile-major node order."""

    n_nodes: int
    degrees: np.ndarray


def block_operator(guide: ImageGray, mask: HoleMask, grid: PatchGrid,
                   weights: WeightParams) -> tuple[BlockGraph, NormalizedLaplacian]:
    """The bilateral graphs of all patches as one block-diagonal graph in
    the grid's tile-major node order, and its normalized Laplacian with one
    segment per patch.

    Padding nodes are isolated like holes.  Each patch's degrees, edge
    scalings and Laplacian rows are computed in the order ``build_graph``
    and ``normalized_laplacian`` use on that patch alone: degrees sum the
    right, down, up and left weights in turn, an edge scales as
    (w s_i) s_j with i < j, and the operator is a DIA matrix with offsets
    (-p, -1, 0, 1, p), which sums each row in CSR column order.
    """
    check_same_shape(guide, mask, "guide/mask")
    p = grid.patch_size
    g = grid.to_nodes(guide.to_array(), 0.0).reshape(-1, p, p)
    ok = ~grid.to_nodes(mask.to_array(), True).reshape(-1, p, p)
    inv_two_sigma2 = 1.0 / (2.0 * weights.sigma_r**2)

    right = np.zeros_like(g)   # weight of the edge to the next column
    down = np.zeros_like(g)    # weight of the edge to the next row
    d = g[:, :, :-1] - g[:, :, 1:]
    right[:, :, :-1] = np.where(ok[:, :, :-1] & ok[:, :, 1:],
                                np.exp(-(d**2) * inv_two_sigma2), 0.0)
    d = g[:, :-1, :] - g[:, 1:, :]
    down[:, :-1, :] = np.where(ok[:, :-1, :] & ok[:, 1:, :],
                               np.exp(-(d**2) * inv_two_sigma2), 0.0)
    deg = right + down
    deg[:, 1:, :] += down[:, :-1, :]
    deg[:, :, 1:] += right[:, :, :-1]

    noniso = deg > 0
    inv_sqrt = np.zeros_like(deg)
    inv_sqrt[noniso] = 1.0 / np.sqrt(deg[noniso])
    right[:, :, :-1] *= inv_sqrt[:, :, :-1]
    right[:, :, :-1] *= inv_sqrt[:, :, 1:]
    down[:, :-1, :] *= inv_sqrt[:, :-1, :]
    down[:, :-1, :] *= inv_sqrt[:, 1:, :]

    n = deg.size
    s_right, s_down = right.ravel(), down.ravel()
    data = np.zeros((5, n))
    data[0] = -s_down             # A[v + p, v]
    data[1] = -s_right            # A[v + 1, v]
    data[2] = noniso.ravel()      # A[v, v]
    data[3, 1:] = -s_right[:-1]   # A[v - 1, v]
    data[4, p:] = -s_down[:-p]    # A[v - p, v]
    m = sp.dia_matrix((data, np.array([-p, -1, 0, 1, p])), shape=(n, n))
    L = NormalizedLaplacian(n=n, matrix=m, segments=grid.segments())
    return BlockGraph(n_nodes=n, degrees=_frozen(deg.ravel())), L


@dataclass
class DenoiseReport:
    """Run metrics.  PSNR fields are filled by callers that hold the clean
    reference; filter_seconds (graph assembly plus filtering, wall clock)
    is deliberately excluded from the deterministic CSV serialization."""

    hole_pixels: int
    n_patches: int
    filter_seconds: float
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
    """Filter each patch on its own guide-derived graph, all patches in one
    pass through the block-diagonal operator, then median-fill the hole
    pixels of the filtered image.  ``workers`` is accepted for
    compatibility and has no effect."""
    check_same_shape(noisy, guide, "noisy/guide")
    check_same_shape(noisy, mask, "noisy/mask")
    grid = split_patches(noisy, patch_size)
    t0 = time.perf_counter()
    graph, L = block_operator(guide, mask, grid, weights)
    y = apply_filter(spec, L, graph, grid.to_nodes(noisy.to_array(), 0.0))
    filtered = ImageGray.from_array(grid.from_nodes(y))
    filter_seconds = time.perf_counter() - t0
    filled = median_fill(filtered, mask)
    report = DenoiseReport(
        hole_pixels=int(mask.flags.sum()),
        n_patches=len(grid.patches),
        filter_seconds=filter_seconds,
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
