"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to see them).

Criterion 6 exercises the end-to-end pipeline on the bundled synthetic
scene; its conjugate-gradient PSNR clauses are currently expected to fail
-- see the assertion message there for the numeric evidence.
"""
import math
import os
import subprocess
import sys
import time

import numpy as np

from graphdenoise import (FilterKind, FilterSpec, NoiseSpec, WarpParams,
                          WeightParams, add_gaussian_noise, cg_filter,
                          cheb_design, dense_eig, denoise,
                          exact_filter, gbjbf_degree, jbf, krylov_minimize,
                          measure_response, normalized_laplacian,
                          poly_expand_gbjbf, poly_filter, psnr,
                          quadratic_objective, synth_scene, warp_guide)
from graphdenoise.dibr import (HALF_TAPS, QUARTER_TAPS, THREE_QUARTER_TAPS,
                               DepthMap, interp_subpel)
from graphdenoise.image import ImageGray
from graphdenoise.oracle import cheb_response
from graphdenoise.pipeline import reference_comparison

from conftest import random_connected_graph, random_guide_patch, two_node_graph

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} ({name}): {status}{suffix}")


def test_criterion_1_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(50):
        g, L = random_guide_patch(rng, 16, 16, sigma_r=10.0)
        eig = dense_eig(L)
        b = rng.normal(128.0, 40.0, g.n_nodes)
        d = cheb_design(3, 0.5)
        p = poly_expand_gbjbf(3, 2.0)
        pairs = [
            (jbf(L, b), exact_filter(eig, lambda lam: 1.0 - lam, b)),
            (poly_filter(L, b, d), exact_filter(eig, cheb_response(3, 0.5), b)),
            (poly_filter(L, b, p), exact_filter(eig, p.evaluate, b)),
        ]
        for fast, ref in pairs:
            err = np.max(np.abs(fast - ref)) / max(1.0, np.max(np.abs(ref)))
            worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(1, "oracle equivalence", ok,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 30.0


def test_criterion_2_chebyshev_minimax():
    worst_level = worst_ripple = worst_dc = 0.0
    for k in (1, 2, 3, 5, 8):
        for l in (0.3, 0.5, 1.0):
            d = cheb_design(k, l)
            z0 = -(2.0 + l) / (2.0 - l)
            level = 1.0 / math.cosh(k * math.acosh(-z0))
            lam = np.linspace(l, 2.0, 10001)
            sampled = np.max(np.abs(d.evaluate(lam)))
            worst_level = max(worst_level, abs(sampled - level))
            extrema = 0.5 * (2 - l) * np.cos(np.pi * np.arange(k + 1) / k) \
                + 0.5 * (2 + l)
            vals = d.evaluate(extrema)
            worst_ripple = max(worst_ripple, np.max(np.abs(np.abs(vals) - level)))
            assert np.all(vals[:-1] * vals[1:] < 0), "extrema must alternate in sign"
            worst_dc = max(worst_dc, abs(d.evaluate(0.0) - 1.0))
    ok = worst_level <= 1e-10 and worst_ripple <= 1e-10 and worst_dc <= 1e-12
    _report(2, "chebyshev minimax", ok,
            f"level err {worst_level:.1e}, ripple err {worst_ripple:.1e}, "
            f"dc err {worst_dc:.1e}")
    assert worst_level <= 1e-10
    assert worst_ripple <= 1e-10
    assert worst_dc <= 1e-12


def test_criterion_3_cg_variational_optimality():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        g = random_connected_graph(rng)
        L = normalized_laplacian(g)
        b = rng.normal(0.0, 1.0, g.n_nodes)
        for variant in ("cg", "cg0"):
            f = b if variant == "cg" else np.zeros_like(b)
            prev = quadratic_objective(L, b, f)
            for k in range(1, 5):
                x, info = cg_filter(L, b, k, variant, return_info=True)
                assert not info.breakdown, (
                    "draw produced a degenerate Krylov problem; the "
                    "brute-force reference would be unbounded")
                ref = krylov_minimize(L, b, f, k)
                err = np.max(np.abs(x - ref)) / max(1.0, np.max(np.abs(ref)))
                worst = max(worst, err)
                obj = quadratic_objective(L, x, f)
                assert obj <= prev + 1e-10 * (1.0 + abs(prev)), \
                    "objective must be non-increasing in k"
                prev = obj
    ok = worst <= 1e-8
    _report(3, "cg variational optimality", ok, f"worst err {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_4_hand_computed_vectors():
    L = normalized_laplacian(two_node_graph())
    b = np.array([1.0, 0.0])
    cases = [
        ("jbf", jbf(L, b), [0.0, 1.0]),
        ("1-cheb", poly_filter(L, b, cheb_design(1, 0.5)), [0.2, 0.8]),
        ("1-cg", cg_filter(L, b, 1, "cg"), [1.0, 1.0]),
        ("1-cg0", cg_filter(L, b, 1, "cg0"), [0.5, 0.5]),
        ("gbjbf rho=2", poly_filter(L, b, poly_expand_gbjbf(gbjbf_degree(2.0), 2.0)),
         [5.0 / 9.0, 4.0 / 9.0]),
    ]
    worst = max(np.max(np.abs(np.asarray(got) - np.asarray(want)))
                for _, got, want in cases)
    ok = worst <= 1e-9
    _report(4, "hand-computed two-node vectors", ok, f"worst err {worst:.1e}")
    for name, got, want in cases:
        np.testing.assert_allclose(got, want, atol=1e-9, err_msg=name)


def test_criterion_5_spectral_response_measurement():
    rng = np.random.default_rng(505)
    g, L = random_guide_patch(rng, 16, 16, sigma_r=10.0)
    eig = dense_eig(L)
    b = rng.normal(128.0, 40.0, g.n_nodes)

    r_jbf = measure_response(lambda s: jbf(L, s), eig, b)
    err_jbf = np.max(np.abs(r_jbf.h[r_jbf.valid]
                            - (1.0 - eig.eigenvalues)[r_jbf.valid]))

    series = poly_expand_gbjbf(gbjbf_degree(2.0), 2.0)
    r_g = measure_response(lambda s: poly_filter(L, s, series), eig, b)
    target = 1.0 / (1.0 + 2.0 * eig.eigenvalues**2)
    err_g = np.max(np.abs(r_g.h[r_g.valid] - target[r_g.valid]))

    b2 = rng.normal(128.0, 40.0, g.n_nodes)
    r1 = measure_response(lambda s: cg_filter(L, s, 3, "cg"), eig, b)
    r2 = measure_response(lambda s: cg_filter(L, s, 3, "cg"), eig, b2)
    both = r1.valid & r2.valid
    gap = np.max(np.abs(r1.h[both] - r2.h[both]))

    ok = err_jbf <= 1e-8 and err_g <= 1e-8 and gap > 1e-3
    _report(5, "spectral response measurement", ok,
            f"jbf err {err_jbf:.1e}, gbjbf err {err_g:.1e}, cg gap {gap:.2e}")
    assert err_jbf <= 1e-8
    assert err_g <= 1e-8
    assert gap > 1e-3, "3-cg response must depend on the input"


def test_criterion_6_end_to_end_margins():
    t0 = time.perf_counter()
    scene = synth_scene(size=256, seed=2014)
    warp = warp_guide(scene.left, scene.depth, WarpParams())
    noisy = add_gaussian_noise(scene.right, NoiseSpec(sigma=10.0, seed=1234))
    weights = WeightParams(sigma_r=10.0)
    base = psnr(noisy, scene.right)

    results = {}
    for label, kind in (("JBF", FilterKind.JBF), ("3-CHEB", FilterKind.K_CHEB),
                        ("3-CG", FilterKind.K_CG)):
        out, _ = denoise(noisy, warp.guide, warp.mask, FilterSpec(kind, k=3),
                         weights, patch_size=64)
        results[label] = psnr(out, scene.right)
    elapsed = time.perf_counter() - t0

    print()
    print(f"noisy PSNR {base:.2f} dB; "
          + ", ".join(f"{k} {v:.2f} dB" for k, v in results.items()))
    print(reference_comparison(results))

    cheb_gain_ok = results["3-CHEB"] >= base + 2.0
    cg_gain_ok = results["3-CG"] >= base + 2.0
    cg_vs_jbf_ok = results["3-CG"] >= results["JBF"] - 0.5
    runtime_ok = elapsed < 60.0
    ok = cheb_gain_ok and cg_gain_ok and cg_vs_jbf_ok and runtime_ok
    _report(6, "end-to-end denoising margins", ok,
            f"noisy {base:.2f}, cheb {results['3-CHEB']:.2f}, "
            f"cg {results['3-CG']:.2f}, jbf {results['JBF']:.2f}, {elapsed:.1f}s")

    assert runtime_ok
    assert cheb_gain_ok, f"3-CHEB gain {results['3-CHEB'] - base:.2f} dB < 2.0 dB"
    # The two clauses below fail by design of the k-CG filter itself: with
    # x0 = f = b the data has a large component along the Laplacian
    # nullspace (any nonnegative image does), the quadratic x^T L x - 2 x^T b
    # is unbounded along it, and the CG step sizes alpha = r^T r / p^T L p
    # inherit the huge nullspace energy of r, so the iterates blow up by
    # orders of magnitude (DC response ~1e3..1e4 instead of ~1).  The same
    # algorithm is pinned exactly by the hand-computed vectors and the
    # Krylov-minimizer equivalence above ([1,0] -> [1,1] already shows the
    # DC pump at n=2), so these margins cannot hold simultaneously with
    # them.  The CG0 variant (f = 0 keeps every search direction orthogonal
    # to the nullspace) achieves the margins comfortably.
    assert cg_gain_ok, (
        f"3-CG gain {results['3-CG'] - base:.2f} dB < 2.0 dB "
        f"(3-CG PSNR {results['3-CG']:.2f} dB)")
    assert cg_vs_jbf_ok, (
        f"3-CG {results['3-CG']:.2f} dB < JBF {results['JBF']:.2f} dB - 0.5")


def test_criterion_7_dibr_contracts():
    from graphdenoise import warp_guide as wg

    rng = np.random.default_rng(77)
    src = ImageGray.from_array(rng.uniform(0.0, 255.0, (12, 20)))

    zero = wg(src, DepthMap.from_array(np.zeros((12, 20))), WarpParams())
    identity_ok = (np.array_equal(zero.guide.samples, src.samples)
                   and not zero.mask.flags.any())

    one = wg(src, DepthMap.from_array(np.ones((12, 20))), WarpParams())
    s = src.to_array()
    shift_ok = (np.array_equal(one.guide.to_array()[:, :-1], s[:, 1:])
                and bool(one.mask.to_array()[:, -1].all())
                and not one.mask.to_array()[:, :-1].any())

    sums_ok = (HALF_TAPS.sum() == 64 and QUARTER_TAPS.sum() == 64
               and THREE_QUARTER_TAPS.sum() == 64)
    samples = rng.uniform(0.0, 255.0, 8)
    phase0_ok = interp_subpel(samples, 0.0) == samples[3]

    ok = identity_ok and shift_ok and sums_ok and phase0_ok
    _report(7, "dibr contracts", ok,
            f"identity {identity_ok}, shift {shift_ok}, "
            f"kernel sums {sums_ok}, phase0 {phase0_ok}")
    assert identity_ok and shift_ok and sums_ok and phase0_ok


def test_criterion_8_pipeline_determinism(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))

    def run_pipeline(tag: str, threads: int) -> dict:
        base = tmp_path / tag
        scene_dir = base / "scene"
        warp_dir = base / "warp"
        out_dir = base / "out"
        cmds = [
            ["synth", "--out", str(scene_dir), "--seed", "2014", "--size", "192"],
            ["warp", "--source", str(scene_dir / "left.pgm"),
             "--depth", str(scene_dir / "depth.pgm"), "--scale", "0.015625",
             "--out", str(warp_dir)],
            ["denoise", "--clean", str(scene_dir / "right.pgm"),
             "--sigma", "10", "--seed", "1234",
             "--guide", str(warp_dir / "guide.pgm"),
             "--mask", str(warp_dir / "mask.pbm"),
             "--filter", "cheb", "--k", "3", "--patch", "64",
             "--threads", str(threads), "--out", str(out_dir)],
        ]
        for cmd in cmds:
            proc = subprocess.run([sys.executable, "-m", "graphdenoise"] + cmd,
                                  capture_output=True, env=env, cwd=ROOT)
            assert proc.returncode == 0, proc.stderr.decode()
        files = {}
        for d in (scene_dir, warp_dir, out_dir):
            for p in sorted(d.iterdir()):
                files[f"{d.name}/{p.name}"] = p.read_bytes()
        return files

    runs = [run_pipeline("a1", 1), run_pipeline("a2", 1),
            run_pipeline("b1", 4), run_pipeline("b2", 4)]
    names = set(runs[0])
    ok = all(set(r) == names for r in runs) and all(
        r[n] == runs[0][n] for r in runs[1:] for n in names)
    _report(8, "pipeline determinism", ok,
            f"{len(names)} artifacts compared across 4 runs, 1 and 4 threads")
    for r in runs[1:]:
        assert set(r) == names
        for n in names:
            assert r[n] == runs[0][n], f"{n} differs between runs"
