#!/usr/bin/env python3
"""Export measured spectral responses of every filter to CSV for plotting.

Builds one oracle-sized patch graph from the synthetic scene's warped guide
and measures each filter's per-eigenvalue transfer factor on the noisy
patch.  The conjugate-gradient filters are input-adaptive, so their CSVs
are worth re-exporting for several inputs.
"""
import argparse
import os
import sys
from functools import partial

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from graphdenoise import (FilterKind, FilterSpec, NoiseSpec, WarpParams,
                          WeightParams, add_gaussian_noise, dense_eig,
                          measure_response, normalize_signal, synth_scene,
                          warp_guide)
from graphdenoise.filters import FILTERS
from graphdenoise.pipeline import extract_patch, patch_operator


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="responses")
    ap.add_argument("--size", type=int, default=16)
    ap.add_argument("--x0", type=int, default=16)
    ap.add_argument("--y0", type=int, default=16)
    ap.add_argument("--sigma", type=float, default=10.0)
    ap.add_argument("--k", type=int, default=3)
    args = ap.parse_args()

    scene = synth_scene()
    warp = warp_guide(scene.left, scene.depth, WarpParams())
    noisy = add_gaussian_noise(scene.right, NoiseSpec(sigma=args.sigma, seed=1234))

    patch = (args.x0, args.y0, args.size, args.size)
    L = patch_operator(warp.guide, warp.mask, patch, WeightParams())
    eig = dense_eig(L)
    b = normalize_signal(L, extract_patch(noisy, patch).samples)

    os.makedirs(args.out, exist_ok=True)
    for kind in FilterKind:
        spec = FilterSpec(kind=kind, k=args.k)
        resp = measure_response(partial(FILTERS[kind].fast, spec, L), eig, b)
        path = os.path.join(args.out, f"{kind.value}_k{args.k}.csv")
        resp.write_csv(path)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
