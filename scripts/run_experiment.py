#!/usr/bin/env python3
"""End-to-end denoising experiment on the bundled synthetic stereo scene.

Synthesizes the scene, warps the high-quality left view into the right
view's perspective, degrades the right view with Gaussian noise, runs every
filter, and prints a PSNR table next to the published reference results.
Every filter runs on the same inputs, so ``denoise`` assembles the graph
operator once: the first filter's time includes that assembly.
"""
import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from graphdenoise import (FilterKind, FilterSpec, NoiseSpec, WarpParams,
                          WeightParams, add_gaussian_noise, denoise, psnr,
                          synth_scene, warp_guide)
from graphdenoise.pipeline import reference_comparison, reference_name


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--size", type=int, default=256)
    ap.add_argument("--sigma", type=float, default=10.0)
    ap.add_argument("--scene-seed", type=int, default=2014)
    ap.add_argument("--noise-seed", type=int, default=1234)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--sigma-r", type=float, default=10.0)
    ap.add_argument("--patch", type=int, default=64)
    args = ap.parse_args()

    scene = synth_scene(size=args.size, seed=args.scene_seed)
    warp = warp_guide(scene.left, scene.depth, WarpParams(direction="left_to_right"))
    noisy = add_gaussian_noise(scene.right,
                               NoiseSpec(sigma=args.sigma, seed=args.noise_seed))
    weights = WeightParams(sigma_r=args.sigma_r)

    base = psnr(noisy, scene.right)
    print(f"scene {args.size}x{args.size}, sigma={args.sigma}, "
          f"holes={int(warp.mask.flags.sum())}, noisy PSNR {base:.2f} dB\n")

    results = {}
    for kind in FilterKind:
        spec = FilterSpec(kind=kind, k=args.k)
        t0 = time.perf_counter()
        out, _report = denoise(noisy, warp.guide, warp.mask, spec, weights,
                               patch_size=args.patch)
        dt = time.perf_counter() - t0
        val = psnr(out, scene.right)
        name = reference_name(kind, args.k)
        results[name] = val
        print(f"{name:<7} PSNR {val:8.2f} dB  (gain {val - base:+7.2f} dB, {dt:5.2f}s)")

    print()
    print(reference_comparison(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
