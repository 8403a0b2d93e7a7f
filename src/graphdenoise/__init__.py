"""Guided graph-spectral image denoising.

Enhances a noisy view of a rectified stereo pair using a depth-warped
high-quality view as guidance.  A bilateral 4-connected pixel graph is
built from the warped guide (holes excluded), and the noisy view is
filtered with fast Krylov-subspace graph filters -- a minimax Chebyshev
low-pass and conjugate-gradient iterations -- alongside one-step bilateral
and regularized-least-squares baselines.  A dense spectral oracle validates
every fast path.
"""

from .errors import (DimensionMismatchError, FileFormatError,
                     GraphDenoiseError, NumericError)
from .filters import (FilterKind, FilterSpec, PolyExpansion, apply_filter,
                      cg_filter, cheb_design, gbjbf_degree, jbf,
                      poly_expand_gbjbf, poly_filter, quadratic_objective)
from .graph import (NormalizedLaplacian, PixelGraph, WeightParams, build_graph,
                    normalize_signal, normalized_laplacian)
from .image import HoleMask, ImageGray
from .dibr import (DepthMap, WarpParams, WarpResult, interp_subpel,
                   median_fill, warp_guide)
from .oracle import (EigenDecomposition, SpectralResponse, dense_eig,
                     exact_filter, krylov_minimize, measure_response)
from .pipeline import (DenoiseReport, NoiseSpec, PatchGrid,
                       add_gaussian_noise, denoise, psnr, split_patches)
from .scene import StereoScene, synth_scene

__version__ = "0.1.0"

__all__ = [
    "DenoiseReport", "DepthMap", "DimensionMismatchError",
    "EigenDecomposition", "FileFormatError", "FilterKind", "FilterSpec",
    "GraphDenoiseError", "HoleMask", "ImageGray", "NoiseSpec",
    "NormalizedLaplacian", "NumericError", "PatchGrid", "PixelGraph",
    "PolyExpansion", "SpectralResponse", "StereoScene", "WarpParams",
    "WarpResult", "WeightParams", "add_gaussian_noise", "apply_filter",
    "build_graph", "cg_filter", "cheb_design", "denoise", "dense_eig",
    "exact_filter", "gbjbf_degree", "interp_subpel", "jbf",
    "krylov_minimize", "measure_response", "median_fill",
    "normalize_signal", "normalized_laplacian", "poly_expand_gbjbf",
    "poly_filter", "psnr", "quadratic_objective", "split_patches",
    "synth_scene", "warp_guide",
]
