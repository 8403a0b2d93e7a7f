"""End-to-end denoising: noise injection, disjoint patch processing,
per-patch graph filtering, hole median pass, and PSNR evaluation.

Every patch is filtered on its own guide-derived graph, with no cross-patch
edges and no overlap blending.  ``denoise`` runs all patches in one pass:
``block_operator`` lays the image out tile by tile (``PatchGrid.to_nodes``)
and builds one block-diagonal Laplacian, with its degrees, whose segments
are the patch graphs, straight from the 4-neighbour weights, so a single
``apply_filter`` call filters the whole image.  It works in contiguous
passes over the flat node vector, writing each weight straight into its
row of the DIA matrix and scaling it there in place.  Degrees, edge scalings,
Laplacian applies and per-segment inner products are evaluated in the same
floating-point order as on each patch's own ``patch_operator`` graph, so
the result is bit-identical to filtering the patches one by one, in any
order.

Comparing filters, or noisy views on one warped guide, runs ``denoise``
several times on one problem: the same guide, mask, weights and patch
size, all the graph is made from.  ``denoise`` keeps the last problem it
assembled, its block operator and the mask's median-fill plan
(``dibr.fill_plan``), in a one-slot memo, so such a sweep assembles and
plans the fill once.  The memo holds the guide and the mask by weak
reference, is dropped when either dies, and is keyed on their identity
alone: an image owns a read-only copy of its samples, which cannot change.
"""
from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from .dibr import FillPlan, fill_plan, median_fill
from .errors import NumericError
from .filters import FilterKind, FilterSpec, apply_filter
from .graph import (NormalizedLaplacian, WeightParams, bilateral_weights,
                    build_graph, normalized_laplacian)
from .image import HoleMask, ImageGray, _frozen, _integer, check_same_shape

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


def reference_name(kind: FilterKind, k: int) -> str:
    """A filter's row name in REFERENCE_PSNR_DB: the k-step filters carry
    their k."""
    name = kind.value.upper()
    return name if kind in (FilterKind.JBF, FilterKind.GBJBF) else f"{k}-{name}"


MIN_PATCH_SIZE = 8


@dataclass(frozen=True)
class NoiseSpec:
    sigma: float
    seed: int

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError("sigma must be finite and >= 0")
        if not (_integer(self.seed) and self.seed >= 0):
            raise ValueError("seed must be an integer >= 0")


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
    # an overflowing sample is left to the filters' finiteness check
    with np.errstate(over="ignore"):
        # sigma * noise, then samples + that, in the draw's own buffer
        noisy = rng.standard_normal(img.samples.size)
        noisy *= spec.sigma
        noisy += img.samples
        return ImageGray._own(noisy.reshape(img.height, img.width))


@dataclass(frozen=True)
class PatchGrid:
    """Disjoint tiling into patch_size x patch_size tiles, row-major;
    edge tiles may be smaller.

    Tile-major node order: every tile is padded on the right and bottom to
    one ``cell`` of ch x cw nodes, and tile t occupies nodes t*ch*cw ..
    (t+1)*ch*cw - 1, row-major within the tile."""

    width: int
    height: int
    patch_size: int
    patches: tuple = field(init=False)

    def __post_init__(self):
        if not (_integer(self.patch_size) and self.patch_size >= MIN_PATCH_SIZE):
            raise ValueError(f"patch_size must be an integer >= {MIN_PATCH_SIZE}")
        tiles = []
        for y0 in range(0, self.height, self.patch_size):
            for x0 in range(0, self.width, self.patch_size):
                tiles.append((x0, y0,
                              min(self.patch_size, self.width - x0),
                              min(self.patch_size, self.height - y0)))
        object.__setattr__(self, "patches", tuple(tiles))

    @property
    def cell(self) -> tuple[int, int]:
        """(ch, cw): patch_size clipped to the image, so a patch larger than
        the image pads nothing, but at least 2 wide, which keeps the
        operator's DIA offsets -cw, -1, 0, 1, cw distinct."""
        p = self.patch_size
        return min(p, self.height), min(p, max(self.width, 2))

    def _tiles(self) -> tuple[int, int, int, int]:
        ch, cw = self.cell
        return -(-self.height // ch), -(-self.width // cw), ch, cw

    def to_nodes(self, a: np.ndarray, fill) -> np.ndarray:
        """A (height, width) array in tile-major node order, padded with
        fill.

        Each node is written once, through the (ty, ch, tx, cw) view of
        the tile-major buffer: the padding below and right of the image,
        then the image, block by block (``_blocks``)."""
        ty, tx, ch, cw = self._tiles()
        a = np.asarray(a)
        fy, rh = divmod(self.height, ch)
        fx, rw = divmod(self.width, cw)
        out = np.empty(ty * ch * tx * cw, dtype=a.dtype)
        v = out.reshape(ty, tx, ch, cw).swapaxes(1, 2)
        v[fy:, rh:] = fill
        v[:, :, fx:, rw:] = fill
        for nodes, pixels in self._blocks(out, a):
            nodes[...] = pixels
        return out

    def from_nodes(self, x: np.ndarray) -> np.ndarray:
        """Inverse of ``to_nodes``: the (height, width) image, padding
        dropped, in a new buffer, written block by block."""
        a = np.empty((self.height, self.width), dtype=x.dtype)
        for nodes, pixels in self._blocks(x, a):
            pixels[...] = nodes
        return a

    def _blocks(self, x: np.ndarray, a: np.ndarray):
        """The image in up to four blocks (whole tiles, the clipped last
        tile column, the clipped last tile row and their corner): pairs of
        views of the same shape, one of the tile-major node vector x, one
        of the (height, width) array a, neither a copy."""
        ty, tx, ch, cw = self._tiles()
        fy, rh = divmod(self.height, ch)
        fx, rw = divmod(self.width, cw)
        v = x.reshape(ty, tx, ch, cw).swapaxes(1, 2)
        for tys, ys, h in ((np.s_[:fy], np.s_[: fy * ch], ch),
                           (np.s_[fy:], np.s_[fy * ch :], rh)):
            for txs, xs, w in ((np.s_[:fx], np.s_[: fx * cw], cw),
                               (np.s_[fx:], np.s_[fx * cw :], rw)):
                nodes = v[tys, :h, txs, :w]
                yield nodes, a[ys, xs].reshape(nodes.shape)

    def segments(self) -> tuple:
        """Per tile, its pixels' nodes within the tile's cell, in the
        tile's own row-major order: all of them for a tile that fills its
        cell, an index array for any other."""
        ch, cw = self.cell
        return tuple(slice(None) if (w, h) == (cw, ch)
                     else _frozen((cw * np.arange(h)[:, None] + np.arange(w)).ravel())
                     for _, _, w, h in self.patches)


def split_patches(img: ImageGray, patch_size: int) -> PatchGrid:
    return PatchGrid(width=img.width, height=img.height, patch_size=patch_size)


def extract_patch(img: ImageGray | HoleMask, patch) -> ImageGray | HoleMask:
    """Patch (x0, y0, w, h) of an image or a mask, as the same type."""
    x0, y0, w, h = patch
    return type(img).from_array(img.to_array()[y0 : y0 + h, x0 : x0 + w])


def patch_operator(guide: ImageGray, mask: HoleMask, patch,
                   weights: WeightParams) -> NormalizedLaplacian:
    """The normalized Laplacian, with its degrees, of the bilateral graph
    of one patch of the guide, assembled by ``build_graph``."""
    return normalized_laplacian(
        build_graph(extract_patch(guide, patch), extract_patch(mask, patch), weights))


def block_operator(guide: ImageGray, mask: HoleMask, grid: PatchGrid,
                   weights: WeightParams) -> NormalizedLaplacian:
    """The normalized Laplacian, with its degrees, of the bilateral graphs
    of all patches as one block-diagonal graph in the grid's tile-major
    node order, with one segment per patch.

    Padding nodes are isolated like holes.  Node v's right and down edges
    join it to nodes v + 1 and v + cw, for the grid's cell (ch, cw), so
    each direction is one slice of the flat node vector; an edge with a
    hole at either end, or leaving the cell, weighs +0.0.  The weights are
    computed in place in DIA rows 1 (right) and 0 (down), then scaled and
    negated there, and rows 3 and 4 are their shifted copies.

    Each patch's degrees, edge scalings and Laplacian rows are computed in
    the order ``build_graph`` and ``normalized_laplacian`` use on that
    patch alone: degrees sum the right, down, up and left weights in turn
    (adding the cut edges' +0.0 changes no sum), an edge scales as
    (w s_i) s_j with i < j, and the operator is a DIA matrix with offsets
    (-cw, -1, 0, 1, cw), which sums each row in CSR column order.
    """
    import scipy.sparse as sp

    check_same_shape(guide, mask, "guide/mask")
    ch, cw = grid.cell
    g = grid.to_nodes(guide.to_array(), 0.0)
    hole = grid.to_nodes(mask.to_array(), True)
    n = g.size
    data = np.empty((5, n))
    down, right = data[0], data[1]   # weight of node v's edge to v + cw, v + 1
    cut = np.empty(n, dtype=bool)    # edges with a hole at either end, or leaving the cell
    for w, step, ends in ((right, 1, cut.reshape(-1, cw)[:, -1]),
                          (down, cw, cut.reshape(-1, ch, cw)[:, -1])):
        e = w[:-step]
        bilateral_weights(np.subtract(g[:-step], g[step:], out=e), weights)
        np.logical_or(hole[:-step], hole[step:], out=cut[:-step])
        ends[...] = True
        np.copyto(e, 0.0, where=cut[:-step])
        w[-step:] = 0.0
    deg = right + down
    deg[cw:] += down[:-cw]
    deg[1:] += right[:-1]

    noniso = deg > 0
    inv_sqrt = np.sqrt(deg)
    np.divide(1.0, inv_sqrt, out=inv_sqrt, where=noniso)
    for w, step in ((right, 1), (down, cw)):
        w[:-step] *= inv_sqrt[:-step]
        w[:-step] *= inv_sqrt[step:]
    np.negative(data[:2], out=data[:2])   # A[v + cw, v], A[v + 1, v]
    data[2] = noniso                      # A[v, v]
    data[3, 0] = 0.0
    data[3, 1:] = right[:-1]              # A[v - 1, v]
    data[4, :cw] = 0.0
    data[4, cw:] = down[:-cw]             # A[v - cw, v]
    m = sp.dia_matrix((data, np.array([-cw, -1, 0, 1, cw])), shape=(n, n))
    return NormalizedLaplacian(matrix=m, degrees=_frozen(deg),
                               segments=grid.segments())


@dataclass
class DenoiseReport:
    """Run metrics.  PSNR fields are filled by callers that hold the clean
    reference.  filter_seconds is the wall clock of laying out and filtering
    the noisy image, plus graph assembly and the fill plan on the call that
    made them (not on a call that reuses them for the same problem: the same
    guide and mask objects, weights and patch size); it is deliberately
    excluded from the deterministic CSV serialization."""

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
            name = reference_name(FilterKind(self.params["filter"]), self.params["k"])
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


@dataclass(frozen=True, eq=False)
class _Problem:
    """One assembled denoise problem: the block operator L and the mask's
    fill plan, with what they are made from; ``refs`` are weak references
    to the guide and the mask, whose callbacks drop the memo when either dies."""

    refs: tuple
    weights: WeightParams
    patch_size: int
    L: NormalizedLaplacian
    plan: FillPlan

    def serves(self, guide: ImageGray, mask: HoleMask, weights: WeightParams,
               patch_size: int) -> bool:
        """Whether these inputs pose this problem: the same guide and mask
        objects (whose samples cannot change) and equal parameters."""
        return (all(r() is x for r, x in zip(self.refs, (guide, mask)))
                and self.weights == weights and self.patch_size == patch_size)


_memo: _Problem | None = None


def _forget(ref: weakref.ref) -> None:
    """Weak-reference callback: an input of the memoized problem died."""
    global _memo
    if _memo is not None and any(r is ref for r in _memo.refs):
        _memo = None


def _assemble(guide: ImageGray, mask: HoleMask, grid: PatchGrid,
              weights: WeightParams, patch_size: int) -> _Problem:
    """This problem: the memo if it serves these inputs, else assembled and
    memoized in its place."""
    global _memo
    # threads may race on the slot: each call uses the problem it checked or
    # built, so a lost update costs a rebuild, never a wrong operator
    m = _memo
    if m is not None and m.serves(guide, mask, weights, patch_size):
        return m
    # drop the old problem first, so that the call's peak does not hold two
    _memo = m = None
    _memo = m = _Problem(tuple(weakref.ref(x, _forget) for x in (guide, mask)), weights,
                         patch_size, block_operator(guide, mask, grid, weights),
                         fill_plan(mask))
    return m


def denoise(noisy: ImageGray, guide: ImageGray, mask: HoleMask, spec: FilterSpec,
            weights: WeightParams, patch_size: int = 64,
            workers: int = 1) -> tuple[ImageGray, DenoiseReport]:
    """Filter each patch on its own guide-derived graph, all patches in one
    pass through the block-diagonal operator, then median-fill the hole
    pixels of the filtered image.  ``workers`` must be at least 1; it is
    accepted for compatibility and has no effect.

    The operator and the mask's fill plan are made once per problem (see the
    module docstring): a call with the same guide and mask objects, weights
    and patch size as the one before reuses them, whatever its noisy image.
    They keep about 48 B/pixel (DIA data and degrees) plus 16 B per fillable
    hole alive until the guide or the mask dies or another problem comes."""
    if not (_integer(workers) and workers >= 1):
        raise ValueError("workers must be an integer >= 1")
    check_same_shape(noisy, guide, "noisy/guide")
    check_same_shape(noisy, mask, "noisy/mask")
    grid = split_patches(noisy, patch_size)
    # block_operator's first-use import, loaded before the clock starts so
    # that filter_seconds times assembly and filtering only
    import scipy.sparse  # noqa: F401
    t0 = time.perf_counter()
    b = grid.to_nodes(noisy.to_array(), 0.0)
    m = _assemble(guide, mask, grid, weights, patch_size)
    filtered = ImageGray._own(grid.from_nodes(apply_filter(spec, m.L, b)))
    filter_seconds = time.perf_counter() - t0
    filled = median_fill(filtered, mask, m.plan)
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
