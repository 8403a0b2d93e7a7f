#!/usr/bin/env python3
"""Print a SHA-256 fingerprint of every output the bit-identical rule covers.

One ``name sha256`` line per output, in a fixed order:

* ``workloads``: all six filters through ``denoise()`` on the denoise
  inputs of the benchmark's three workloads (``perfbench/workloads.py``,
  imported read-only) for seeds 101 and 102;
* ``ragged``: all six filters on seeded random images with holes whose
  tilings end in ragged patches, at sigma_r 10 and 3, plus each block
  operator itself (its DIA offsets and data and its degrees), all six
  filters' ``apply_filter`` on it (whose values at isolated nodes
  ``denoise``'s median fill mostly overwrites), a ``.fast`` line per
  filter, its registry fast path on the normalized signal, which keeps
  the filter's own values at isolated nodes (``apply_filter`` overwrites
  them), and the per-segment ``CGInfo`` of ``cg`` and ``cg0`` on it;
* ``scene``: the float64 left, right and depth samples of ``synth_scene``
  for a few (size, seed) pairs, which 8-bit PGMs would round away, each
  view followed by its ``.u8`` line;
* ``warp``: guide, mask and phase counts of ``warp_guide`` on the
  benchmark's generated ramp inputs for seeds 101 and 102 (float sources,
  all four quarter-pel phases) in both directions (the left view warped
  left to right, the right view right to left, where nearly every
  background pixel has a deeper pixel within the occlusion band) and on
  the bundled 256x256 scene's left view in both directions, under its own
  depth, under seeded uniform-noise depth (nearly every pixel a candidate
  of the occlusion test) and under rows that rise away from the side a
  cover comes from, except for a few step rows (so the steps, not the
  map's range, set the shifts tested), each guide followed by its ``.u8``
  line;
* ``fill``: ``median_fill`` on seeded images whose few distinct values
  make ties of 0.0 and -0.0 common, with and without NaN samples, at
  three hole densities, including 1-pixel-wide and 1-pixel-tall images;
* ``cli``: every file the CLI writes for the bundled 128x128 scene
  (``synth``, ``warp``, ``denoise --patch 32 --check-oracle`` and
  ``--patch 64`` for every filter, ``spectral-response`` for every filter)
  and the CSVs of ``scripts/export_responses.py``.

Each float64 ``denoise`` output of ``workloads`` and ``ragged``, each scene
view and each warped guide is followed by a ``.u8`` line hashing the
8-bit image ``save_image`` would write (``quantize_u8``), so a diff shows
at once whether a change that moves float64 digits on purpose moved any
8-bit image.  In ``workloads`` a
``.fresh`` line comes next: the same filter's float64 output on fresh
copies of the inputs.  The six filters of the main lines run one after
another on the same input objects, as a filter sweep does, so they may
share one assembled operator; each ``.fresh`` line is a problem of its
own and must hash the same as its main line.  Last comes a ``.renoise``
line: the same filter's float64 output on a second noisy view of the
clean image (noise seed + 1000), swept right after the main lines on the
same guide and mask objects, so it may reuse their operator.

Outputs are bit-identical between two checkouts when the lines are:

    python scripts/fingerprint.py > new.txt
    python scripts/fingerprint.py --root ../parent > old.txt
    diff old.txt new.txt

``--root`` picks the checkout whose ``src`` and ``perfbench`` are used.
BLAS and OpenMP are pinned to one thread unless the environment says
otherwise.
"""
import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
KINDS = ("jbf", "gbjbf", "poly", "cheb", "cg", "cg0")
SEEDS = (101, 102)
# (width, height, patch): every tiling ends in ragged patches
RAGGED = ((100, 150, 64), (33, 97, 16), (65, 9, 8), (130, 75, 48))
# (size, seed) of the bundled scenes: odd, ragged and large sizes
SCENES = ((64, 2014), (100, 3), (257, 11), (1000, 2014))
# (width, height) of the median-fill images
FILLS = ((37, 23), (1, 19), (19, 1))


def emit(name: str, data: bytes) -> None:
    print(f"{name} {hashlib.sha256(data).hexdigest()}", flush=True)


def emit_image(name: str, img) -> None:
    """An image's float64 samples, then its 8-bit quantization."""
    from graphdenoise.image import quantize_u8

    emit(name, img.samples.tobytes())
    emit(f"{name}.u8", quantize_u8(img).tobytes())


def section_workloads() -> None:
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for wname, cls in workloads.WORKLOADS.items():
            for seed in SEEDS:
                w = cls(seed, os.path.join(tmp, f"{wname}-{seed}"))
                w.setup()
                w.frame()
                *inputs, clean = w.filter_inputs()
                outs = [workloads.denoise(*inputs, kind) for kind in KINDS]
                # a second noisy view on the same guide and mask objects, swept
                # before the fresh problems below take the memo's place
                renoised = workloads.noisy_view(clean, seed + 1000)
                reouts = [workloads.denoise(renoised, *inputs[1:], kind) for kind in KINDS]
                for kind, out, reout in zip(KINDS, outs, reouts):
                    name = f"workloads/{wname}/seed{seed}/{kind}"
                    emit_image(name, out)
                    fresh = [type(x).from_array(x.to_array().copy()) for x in inputs]
                    emit(f"{name}.fresh", workloads.denoise(*fresh, kind).samples.tobytes())
                    emit(f"{name}.renoise", reout.samples.tobytes())


def section_ragged() -> None:
    import numpy as np

    from graphdenoise import (FilterKind, FilterSpec, HoleMask, ImageGray,
                              WeightParams, apply_filter, denoise,
                              normalize_signal)
    from graphdenoise.filters import FILTERS, cg_filter
    from graphdenoise.pipeline import block_operator, split_patches

    for width, height, patch in RAGGED:
        rng = np.random.default_rng(width * 1000 + height)
        clean = rng.uniform(40.0, 215.0, (height, width))
        guide = ImageGray.from_array(clean + rng.normal(0.0, 2.0, clean.shape))
        noisy = ImageGray.from_array(clean + rng.normal(0.0, 10.0, clean.shape))
        mask = HoleMask.from_array(rng.random(clean.shape) < 0.1)
        for sigma_r in (10.0, 3.0):
            tag = f"ragged/{width}x{height}p{patch}/sr{sigma_r:g}"
            weights = WeightParams(sigma_r=sigma_r)
            for kind in KINDS:
                out, _ = denoise(noisy, guide, mask, FilterSpec(FilterKind(kind)),
                                 weights, patch_size=patch)
                emit_image(f"{tag}/{kind}", out)
            grid = split_patches(noisy, patch)
            L = block_operator(guide, mask, grid, weights)
            emit(f"{tag}/operator", L.matrix.offsets.tobytes() + L.matrix.data.tobytes()
                 + L.degrees.tobytes())
            b_hat = grid.to_nodes(noisy.to_array(), 0.0)
            for kind in KINDS:
                emit(f"{tag}/{kind}.apply_filter",
                     apply_filter(FilterSpec(FilterKind(kind)), L, b_hat).tobytes())
            b = normalize_signal(L, b_hat)
            for kind in KINDS:
                spec = FilterSpec(FilterKind(kind))
                emit(f"{tag}/{kind}.fast", FILTERS[spec.kind].fast(spec, L, b).tobytes())
            for variant in ("cg", "cg0"):
                _, info = cg_filter(L, b, 3, variant, return_info=True)
                emit(f"{tag}/{variant}.info",
                     info.iterations.tobytes() + info.breakdown.tobytes())


def section_scene() -> None:
    from graphdenoise import synth_scene

    for size, seed in SCENES:
        sc = synth_scene(size, seed)
        tag = f"scene/{size}s{seed}"
        emit_image(f"{tag}/left", sc.left)
        emit_image(f"{tag}/right", sc.right)
        emit(f"{tag}/depth", sc.depth.values.tobytes())


def section_warp() -> None:
    import numpy as np
    import workloads

    from graphdenoise import DepthMap, WarpParams, synth_scene, warp_guide

    cases = []
    for seed in SEEDS:
        left, right, depth, _noise_seed = workloads.ramp_inputs(seed)
        for direction, source in (("left_to_right", left), ("right_to_left", right)):
            cases.append((f"ramp/seed{seed}/{direction}", source, depth, direction))
    scene = synth_scene(size=256)
    rng = np.random.default_rng(256)
    # nearly every pixel a candidate of the occlusion test
    noise = DepthMap.from_array(rng.uniform(0.0, 16.0, (256, 256)))
    # rows rising to the right on bases far apart, so no row has a drop
    # left to right; then a step down of 1 to 3 px in every 32nd row
    rows = np.cumsum(rng.uniform(0.0, 0.05, (256, 256)), axis=1)
    rows += rng.uniform(3.0, 11.0, (256, 1))
    for row in range(0, 256, 32):
        rows[row, rng.integers(1, 256):] -= rng.uniform(1.0, 3.0)
    # mirrored for right_to_left, whose covers come from the right
    rising = (DepthMap.from_array(rows), DepthMap.from_array(rows[:, ::-1]))
    for tag, depths in (("scene256", (scene.depth, scene.depth)),
                        ("noise256", (noise, noise)), ("monotone256", rising)):
        for direction, depth in zip(("left_to_right", "right_to_left"), depths):
            cases.append((f"{tag}/{direction}", scene.left, depth, direction))
    for tag, source, depth, direction in cases:
        r = warp_guide(source, depth, WarpParams(direction))
        emit_image(f"warp/{tag}/guide", r.guide)
        emit(f"warp/{tag}/mask", r.mask.flags.tobytes())
        emit(f"warp/{tag}/phase_counts", r.phase_counts.tobytes())


def section_fill() -> None:
    import numpy as np

    from graphdenoise import HoleMask, ImageGray, median_fill

    for width, height in FILLS:
        rng = np.random.default_rng(width * 1000 + height)
        for values, extra in (("signed0", ()), ("nan", (np.nan,))):
            a = rng.choice([-0.0, 0.0, 1.5, 7.0, 255.0, *extra], (height, width))
            bump = rng.random(a.shape) < 0.5   # adding 0.0 would turn -0.0 into 0.0
            a[bump] += rng.uniform(0.0, 255.0, np.count_nonzero(bump))
            img = ImageGray.from_array(a)
            for density in (0.1, 0.5, 0.9):
                mask = HoleMask.from_array(rng.random(a.shape) < density)
                emit(f"fill/{width}x{height}/{values}/d{density:g}",
                     median_fill(img, mask).samples.tobytes())


def emit_tree(prefix: str, root: str) -> None:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for f in sorted(filenames):
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                emit(f"{prefix}/{os.path.relpath(path, root)}", fh.read())


def section_cli(root: str) -> None:
    from graphdenoise import cli

    def run(name, *argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
        emit(f"cli/exit/{name}", str(rc).encode())

    with tempfile.TemporaryDirectory() as tmp:
        s, w = f"{tmp}/scene", f"{tmp}/warped"
        os.makedirs(f"{tmp}/spectral")
        run("synth", "synth", "--out", s, "--size", "128")
        run("warp", "warp", "--source", f"{s}/left.pgm", "--depth", f"{s}/depth.pgm",
            "--scale", "0.015625", "--out", w)
        for kind in KINDS:
            inputs = ("--guide", f"{w}/guide.pgm", "--mask", f"{w}/mask.pbm",
                      "--filter", kind)
            for patch, check in (("32", ("--check-oracle",)), ("64", ())):
                run(f"denoise/{kind}-p{patch}", "denoise", "--clean", f"{s}/right.pgm",
                    "--sigma", "10", "--seed", "1234", *inputs, "--patch", patch,
                    *check, "--out", f"{tmp}/denoise/{kind}-p{patch}")
            run(f"spectral/{kind}", "spectral-response", *inputs,
                "--input", f"{s}/right.pgm", "--x0", "16", "--y0", "16",
                "--out", f"{tmp}/spectral/{kind}.csv")
        r = subprocess.run([sys.executable, os.path.join(root, "scripts", "export_responses.py"),
                            "--out", f"{tmp}/responses"],
                           capture_output=True)
        emit("cli/exit/export_responses", str(r.returncode).encode())
        for d in ("scene", "warped", "denoise", "spectral", "responses"):
            emit_tree(f"cli/{d}", f"{tmp}/{d}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=os.path.join(HERE, os.pardir),
                    help="checkout to fingerprint (default: this one)")
    args = ap.parse_args()

    # before numpy is first imported, and inherited by export_responses.py
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    section_workloads()
    section_ragged()
    section_scene()
    section_warp()
    section_fill()
    section_cli(root)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
