"""Command-line surface: scene synthesis, warping, denoising, PSNR, and
spectral-response export.

Exit codes: 0 ok, 2 usage, 3 I/O or file-format failure, 4 numeric failure.
All outputs are written atomically (temp file + rename), so failed runs
leave no partial files behind.
"""
from __future__ import annotations

import argparse
import math
import sys
from functools import partial

import numpy as np

from . import dibr, pipeline, scene
from .errors import DimensionMismatchError, FileFormatError, NumericError
from .filters import FILTERS, MAX_K, FilterKind, FilterSpec
from .graph import WeightParams, normalize_signal
from .image import (HoleMask, atomic_write_bytes, load_image, load_mask,
                    save_image, save_mask)
from .oracle import dense_eig, measure_response

_FILTER_CHOICES = [k.value for k in FilterKind]
_SPECTRAL_PATCH_CAP = 32


def _add_filter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--filter", required=True, choices=_FILTER_CHOICES)
    p.add_argument("--k", type=int, default=3,
                   help=f"degree / iteration count (1 to {MAX_K})")
    p.add_argument("--l", type=float, default=0.5, help="stop-band start (cheb)")
    p.add_argument("--rho", type=float, default=2.0, help="regularization (gbjbf/poly)")
    p.add_argument("--sigma-r", type=float, default=10.0, dest="sigma_r",
                   help="bilateral intensity kernel width")


def _filter_spec(args) -> FilterSpec:
    return FilterSpec(kind=FilterKind(args.filter), k=args.k, l=args.l, rho=args.rho)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="graphdenoise")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write the bundled synthetic stereo scene")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=scene.DEFAULT_SEED)
    p.add_argument("--size", type=int, default=256,
                   help=f"scene side in pixels (64 to {scene.MAX_SIZE})")

    p = sub.add_parser("warp", help="depth-warp a source view into a guide image")
    p.add_argument("--source", required=True)
    p.add_argument("--depth", required=True)
    p.add_argument("--scale", type=float, required=True,
                   help="disparity units per stored depth integer")
    p.add_argument("--direction", choices=["left-to-right", "right-to-left"],
                   default="left-to-right")
    p.add_argument("--out", required=True)

    p = sub.add_parser("denoise", help="guided graph-filter denoising")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--noisy")
    src.add_argument("--clean")
    p.add_argument("--sigma", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--guide", required=True)
    p.add_argument("--mask", required=True)
    _add_filter_flags(p)
    p.add_argument("--patch", type=int, default=64)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect (all "
                        "patches are filtered in one pass)")
    p.add_argument("--check-oracle", action="store_true", dest="check_oracle",
                   help="verify every patch against the dense oracle "
                        "(requires --patch <= 32)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("psnr", help="print PSNR between two images (dB)")
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("spectral-response",
                       help="measure a filter's per-eigenvalue response on one patch")
    p.add_argument("--guide", required=True)
    p.add_argument("--mask")
    p.add_argument("--input", required=True)
    _add_filter_flags(p)
    p.add_argument("--x0", type=int, default=0)
    p.add_argument("--y0", type=int, default=0)
    p.add_argument("--size", type=int, default=16)
    p.add_argument("--out", required=True)
    return ap


def cmd_synth(args) -> int:
    import os

    sc = scene.synth_scene(size=args.size, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    save_image(os.path.join(args.out, "left.pgm"), sc.left)
    save_image(os.path.join(args.out, "right.pgm"), sc.right)
    dibr.save_depth(os.path.join(args.out, "depth.pgm"), sc.depth, scene.DEPTH_SCALE)
    scene.write_meta(os.path.join(args.out, "scene.meta"), sc)
    return 0


def cmd_warp(args) -> int:
    import os

    source = load_image(args.source)
    depth = dibr.load_depth(args.depth, args.scale)
    params = dibr.WarpParams(direction=args.direction.replace("-", "_"))
    result = dibr.warp_guide(source, depth, params)
    os.makedirs(args.out, exist_ok=True)
    save_image(os.path.join(args.out, "guide.pgm"), result.guide)
    save_mask(os.path.join(args.out, "mask.pbm"), result.mask)
    return 0


def cmd_denoise(args) -> int:
    import os

    # usage errors before any I/O
    spec = _filter_spec(args)
    weights = WeightParams(sigma_r=args.sigma_r)
    if args.check_oracle and args.patch > _SPECTRAL_PATCH_CAP:
        raise ValueError("--check-oracle requires --patch <= 32")
    guide = load_image(args.guide)
    mask = load_mask(args.mask)
    clean = None
    if args.noisy is not None:
        noisy = load_image(args.noisy)
    else:
        clean = load_image(args.clean)
        noisy = pipeline.add_gaussian_noise(
            clean, pipeline.NoiseSpec(sigma=args.sigma, seed=args.seed))
    if spec.kind is FilterKind.K_CG:
        print("warning: the 'cg' variant (x0 = f = b) amplifies the image "
              "mean on typical inputs; 'cg0' is the stable choice",
              file=sys.stderr)

    denoised, report = pipeline.denoise(noisy, guide, mask, spec, weights,
                                        patch_size=args.patch, workers=args.threads)
    if args.check_oracle:
        _verify_against_oracle(noisy, denoised, guide, mask, spec, weights, args.patch)
    if clean is not None:
        report.psnr_noisy_db = pipeline.psnr(noisy, clean)
        report.psnr_denoised_db = pipeline.psnr(denoised, clean)
        report.params["sigma"] = args.sigma
        report.params["seed"] = args.seed
    # thread count deliberately not echoed: outputs are contractually
    # independent of it, and reports must be byte-identical across runs

    os.makedirs(args.out, exist_ok=True)
    save_image(os.path.join(args.out, "denoised.pgm"), denoised)
    if clean is not None:
        save_image(os.path.join(args.out, "noisy.pgm"), noisy)
    atomic_write_bytes(os.path.join(args.out, "report.csv"),
                       report.to_csv().encode("ascii"))
    atomic_write_bytes(os.path.join(args.out, "report.txt"),
                       report.to_text().encode("ascii"))
    print(f"filtered {report.n_patches} patches in "
          f"{report.filter_seconds:.3f}s", file=sys.stderr)
    return 0


def _verify_against_oracle(noisy, denoised, guide, mask, spec, weights, patch_size,
                           tol=1e-6) -> None:
    """Cross-check every patch of the denoised image against the dense
    oracle run on that patch's own graph.

    Comparison runs in the normalized domain on non-isolated nodes (the
    dispatcher intentionally passes isolated pixels through unchanged, and
    the median fill touches only holes, which are never live nodes).  The
    reference side assembles each patch graph independently of the fast
    path's block operator.
    """
    reference = FILTERS[spec.kind].reference
    for patch in pipeline.split_patches(noisy, patch_size).patches:
        L = pipeline.patch_operator(guide, mask, patch, weights)
        live = L.degrees > 0
        if not np.any(live):
            continue
        fast_norm = normalize_signal(L, pipeline.extract_patch(denoised, patch).samples)
        b = normalize_signal(L, pipeline.extract_patch(noisy, patch).samples)
        ref = reference(spec, L, b)
        err = (np.max(np.abs(fast_norm[live] - ref[live]))
               / max(1.0, np.max(np.abs(ref[live]))))
        if err > tol:
            raise NumericError(f"oracle check failed on patch {patch}: {err:g} > {tol:g}")


def cmd_psnr(args) -> int:
    a = load_image(args.a)
    b = load_image(args.b)
    v = pipeline.psnr(a, b)
    print("inf" if math.isinf(v) else f"{v:.2f}")
    return 0


def cmd_spectral_response(args) -> int:
    if not (1 <= args.size <= _SPECTRAL_PATCH_CAP):
        raise ValueError(
            f"spectral-response patch size must be in [1, {_SPECTRAL_PATCH_CAP}]")
    spec = _filter_spec(args)
    weights = WeightParams(sigma_r=args.sigma_r)
    guide = load_image(args.guide)
    signal = load_image(args.input)
    if args.mask is not None:
        mask = load_mask(args.mask)
    else:
        mask = HoleMask.all_false(guide.width, guide.height)
    x0, y0, size = args.x0, args.y0, args.size
    if x0 < 0 or y0 < 0 or x0 + size > guide.width or y0 + size > guide.height:
        raise ValueError("patch window falls outside the guide image")
    patch = (x0, y0, size, size)
    L = pipeline.patch_operator(guide, mask, patch, weights)
    b = normalize_signal(L, pipeline.extract_patch(signal, patch).samples)
    response = measure_response(partial(FILTERS[spec.kind].fast, spec, L),
                                dense_eig(L), b)
    response.write_csv(args.out)
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "warp": cmd_warp,
    "denoise": cmd_denoise,
    "psnr": cmd_psnr,
    "spectral-response": cmd_spectral_response,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FileFormatError, DimensionMismatchError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3 if isinstance(e, FileFormatError) else 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (NumericError, ArithmeticError, MemoryError) as e:
        # a bare MemoryError has an empty message
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
