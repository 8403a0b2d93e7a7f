#!/usr/bin/env python3
"""Print a SHA-256 fingerprint of every output the bit-identical rule covers.

One ``name sha256`` line per output, in a fixed order:

* ``workloads``: all six filters through ``denoise()`` on the denoise
  inputs of the benchmark's three workloads (``perfbench/workloads.py``,
  imported read-only) for seeds 101 and 102;
* ``ragged``: all six filters on seeded random images with holes whose
  tilings end in ragged patches, at sigma_r 10 and 3, plus the per-segment
  ``CGInfo`` of ``cg`` and ``cg0`` on their block operators;
* ``cli``: every file the CLI writes for the bundled 128x128 scene
  (``synth``, ``warp``, ``denoise --patch 32 --check-oracle`` and
  ``--patch 64`` for every filter, ``spectral-response`` for every filter)
  and the CSVs of ``scripts/export_responses.py``.

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


def emit(name: str, data: bytes) -> None:
    print(f"{name} {hashlib.sha256(data).hexdigest()}", flush=True)


def section_workloads() -> None:
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        for wname, cls in workloads.WORKLOADS.items():
            for seed in SEEDS:
                w = cls(seed, os.path.join(tmp, f"{wname}-{seed}"))
                w.setup()
                w.frame()
                noisy, guide, mask, _clean = w.filter_inputs()
                for kind in KINDS:
                    out = workloads.denoise(noisy, guide, mask, kind)
                    emit(f"workloads/{wname}/seed{seed}/{kind}", out.samples.tobytes())


def section_ragged() -> None:
    import numpy as np

    from graphdenoise import (FilterKind, FilterSpec, HoleMask, ImageGray,
                              WeightParams, denoise, normalize_signal)
    from graphdenoise.filters import cg_filter
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
                emit(f"{tag}/{kind}", out.samples.tobytes())
            grid = split_patches(noisy, patch)
            L = block_operator(guide, mask, grid, weights)
            b = normalize_signal(L, grid.to_nodes(noisy.to_array(), 0.0))
            for variant in ("cg", "cg0"):
                _, info = cg_filter(L, b, 3, variant, return_info=True)
                emit(f"{tag}/{variant}.info",
                     info.iterations.tobytes() + info.breakdown.tobytes())


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
    section_cli(root)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
