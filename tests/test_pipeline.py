import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from graphdenoise import (DimensionMismatchError, FilterKind, FilterSpec,
                          HoleMask, ImageGray, NoiseSpec, WeightParams,
                          add_gaussian_noise, apply_filter, build_graph,
                          denoise, median_fill, merge_patches, pipeline, psnr,
                          split_patches)
from graphdenoise.pipeline import (PatchGrid, block_operator, extract_patch,
                                   patch_operator)

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestNoise:
    def test_sigma_zero_bit_identical(self, rng):
        img = ImageGray.from_array(rng.uniform(0, 255, (16, 16)))
        out = add_gaussian_noise(img, NoiseSpec(sigma=0.0, seed=9))
        assert np.array_equal(out.samples, img.samples)

    def test_same_seed_same_noise(self, rng):
        img = ImageGray.from_array(rng.uniform(0, 255, (32, 32)))
        a = add_gaussian_noise(img, NoiseSpec(sigma=10.0, seed=7))
        b = add_gaussian_noise(img, NoiseSpec(sigma=10.0, seed=7))
        c = add_gaussian_noise(img, NoiseSpec(sigma=10.0, seed=8))
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_sample_std_near_sigma(self):
        img = ImageGray.from_array(np.full((512, 512), 100.0))
        out = add_gaussian_noise(img, NoiseSpec(sigma=10.0, seed=3))
        assert 9.8 <= np.std(out.samples - img.samples) <= 10.2


class TestPatches:
    def test_128_gives_four_patches(self, rng):
        img = ImageGray.from_array(rng.uniform(0, 255, (128, 128)))
        grid = split_patches(img, 64)
        assert len(grid.patches) == 4

    def test_edge_remainders(self, rng):
        img = ImageGray.from_array(rng.uniform(0, 255, (70, 100)))
        grid = split_patches(img, 64)
        sizes = [(w, h) for (_, _, w, h) in grid.patches]
        assert sizes == [(64, 64), (36, 64), (64, 6), (36, 6)]

    def test_tiles_cover_disjointly(self, rng):
        img = ImageGray.from_array(rng.uniform(0, 255, (70, 100)))
        grid = split_patches(img, 64)
        count = np.zeros((70, 100), int)
        for x0, y0, w, h in grid.patches:
            count[y0 : y0 + h, x0 : x0 + w] += 1
        assert np.all(count == 1)

    def test_merge_is_left_inverse(self, rng):
        img = ImageGray.from_array(rng.uniform(0, 255, (70, 100)))
        grid = split_patches(img, 64)
        back = merge_patches(grid, [extract_patch(img, p) for p in grid.patches])
        assert np.array_equal(back.samples, img.samples)

    def test_small_patch_rejected(self, rng):
        img = ImageGray.from_array(rng.uniform(0, 255, (16, 16)))
        with pytest.raises(ValueError):
            split_patches(img, 7)


class TestDenoise:
    def _inputs(self, rng, size=32):
        clean = ImageGray.from_array(
            128 + 40 * np.sin(np.arange(size) / 5.0)[None, :]
            + 20 * np.cos(np.arange(size) / 7.0)[:, None])
        guide = clean
        noisy = add_gaussian_noise(clean, NoiseSpec(sigma=10.0, seed=5))
        return clean, guide, noisy

    def test_all_hole_mask_returns_noisy(self, rng):
        _, guide, noisy = self._inputs(rng)
        mask = HoleMask.from_array(np.ones((32, 32), bool))
        for kind in (FilterKind.JBF, FilterKind.K_CHEB, FilterKind.K_CG):
            out, report = denoise(noisy, guide, mask, FilterSpec(kind),
                                  WeightParams(), patch_size=16)
            # every node is isolated -> filter is identity; median fill
            # has no available neighbors anywhere -> values survive
            assert np.array_equal(out.samples, noisy.samples)
            ref = median_fill(noisy, mask)
            assert np.array_equal(out.samples, ref.samples)
            assert report.hole_pixels == 32 * 32

    def test_constant_guide_jbf_matches_dense_neighborhood_average(self, rng):
        # uniform weights: one JBF step equals the row-stochastic
        # neighbor average D^{-1} W applied to the noisy image
        size = 16
        guide = ImageGray.from_array(np.full((size, size), 90.0))
        noisy = ImageGray.from_array(rng.uniform(0, 255, (size, size)))
        mask = HoleMask.all_false(size, size)
        out, _ = denoise(noisy, guide, mask, FilterSpec(FilterKind.JBF),
                         WeightParams(), patch_size=size)
        g = build_graph(guide, mask, WeightParams())
        n = size * size
        W = np.zeros((n, n))
        for i, j, w in g.edges():
            W[i, j] = W[j, i] = w
        ref = (W / W.sum(axis=1, keepdims=True)) @ noisy.samples
        np.testing.assert_allclose(out.samples, ref, atol=1e-10)

    # a regular tiling, and a ragged one whose operator mixes 4096-node
    # patches with <= 2048-node edge tiles
    TILINGS = {"32x32/16": (32, 32, 16), "100x150/64": (100, 150, 64)}

    def _tiled_inputs(self, rng, tiling):
        h, w, patch = self.TILINGS[tiling]
        y, x = np.mgrid[0:h, 0:w]
        guide = ImageGray.from_array(128 + 40 * np.sin(x / 5.0) + 20 * np.cos(y / 7.0))
        noisy = add_gaussian_noise(guide, NoiseSpec(sigma=10.0, seed=5))
        mask = HoleMask.from_array(rng.random((h, w)) < 0.05)
        return noisy, guide, mask, patch

    @pytest.mark.parametrize("tiling", list(TILINGS))
    @pytest.mark.parametrize("kind", [k.value for k in FilterKind])
    def test_patch_independence_shuffled_order(self, rng, kind, tiling):
        noisy, guide, mask, patch = self._tiled_inputs(rng, tiling)
        spec = FilterSpec(FilterKind(kind))
        weights = WeightParams()
        out, _ = denoise(noisy, guide, mask, spec, weights, patch_size=patch)

        grid = split_patches(noisy, patch)
        order = rng.permutation(len(grid.patches))
        tiles = [None] * len(grid.patches)
        for idx in order:
            p = grid.patches[idx]
            g, L = patch_operator(guide, mask, p, weights)
            y = apply_filter(spec, L, g, extract_patch(noisy, p).samples)
            x0, y0, w, h = p
            tiles[idx] = ImageGray(w, h, y)
        ref = median_fill(merge_patches(grid, tiles), mask)
        assert np.array_equal(out.samples, ref.samples)

    @pytest.mark.parametrize("tiling", list(TILINGS))
    def test_block_operator_segments_are_the_patch_operators(self, rng, tiling):
        noisy, guide, mask, patch = self._tiled_inputs(rng, tiling)
        grid = split_patches(noisy, patch)
        graph, L = block_operator(guide, mask, grid, WeightParams())
        assert len(L.segments) == len(grid.patches)
        assert graph.n_nodes == L.n == len(grid.patches) * patch**2
        x = rng.normal(0, 1, L.n)      # padding and other patches carry data too
        lx = L.apply(x)
        dots = L.dot(x, lx)
        degrees, xs, lxs = L.parts(graph.degrees), L.parts(x), L.parts(lx)
        csr = L.matrix.tocsr()
        for i, p in enumerate(grid.patches):
            g, Lp = patch_operator(guide, mask, p, WeightParams())
            assert degrees[i].tobytes() == g.degrees.tobytes()
            assert lxs[i].tobytes() == Lp.apply(xs[i]).tobytes()
            assert dots[i] == xs[i] @ lxs[i]
            slab = L.slab(i)
            idx = np.arange(slab.stop - slab.start)[L.segments[i]]
            block = csr[slab, slab][idx][:, idx]
            assert block.toarray().tobytes() == Lp.dense().tobytes()
        # padding nodes are isolated
        padding = grid.to_nodes(np.zeros((noisy.height, noisy.width), bool), True)
        assert not np.any(graph.degrees[padding])
        assert sum(d.size for d in degrees) == L.n - padding.sum() == noisy.samples.size

    def test_tile_layout_round_trip(self, rng):
        img = rng.uniform(0, 255, (70, 100))
        grid = PatchGrid(width=100, height=70, patch_size=64)
        nodes = grid.to_nodes(img, np.nan)
        assert nodes.size == 4 * 64 * 64
        assert np.array_equal(grid.from_nodes(nodes), img)
        for t, ((x0, y0, w, h), seg) in enumerate(zip(grid.patches, grid.segments())):
            tile = nodes[t * 64 * 64:(t + 1) * 64 * 64][seg]
            assert np.array_equal(tile, img[y0:y0 + h, x0:x0 + w].ravel())
        assert np.isnan(nodes).sum() == nodes.size - img.size

    def test_denoise_filters_the_whole_image_in_one_call(self, rng, monkeypatch):
        noisy, guide, mask, patch = self._tiled_inputs(rng, "100x150/64")
        calls = []
        real = pipeline.apply_filter
        monkeypatch.setattr(pipeline, "apply_filter",
                            lambda *a: calls.append(a[1].n) or real(*a))

        def forbidden(*a, **k):
            raise AssertionError("denoise assembled a per-patch graph")

        monkeypatch.setattr(pipeline, "build_graph", forbidden)
        monkeypatch.setattr(pipeline, "normalized_laplacian", forbidden)
        denoise(noisy, guide, mask, FilterSpec(FilterKind.K_CG0), WeightParams(),
                patch_size=patch)
        assert calls == [6 * 64 * 64]

    GBJBF_RUN = """
import hashlib, sys
import numpy as np
from graphdenoise import (FilterKind, FilterSpec, HoleMask, ImageGray, NoiseSpec,
                          WeightParams, add_gaussian_noise, denoise)
guide = ImageGray.from_array(np.random.default_rng(7).uniform(0, 255, (96, 96)))
noisy = add_gaussian_noise(guide, NoiseSpec(sigma=10.0, seed=3))
out, _ = denoise(noisy, guide, HoleMask.all_false(96, 96), FilterSpec(FilterKind.GBJBF),
                 WeightParams(sigma_r=10.0), patch_size=int(sys.argv[1]))
print(noisy.samples.min(), noisy.samples.max(), out.samples.min(), out.samples.max(),
      hashlib.sha256(out.samples.tobytes()).hexdigest())
"""

    @pytest.mark.parametrize("patch", [32, 64])   # 64: ragged 96x32 edge tiles
    def test_gbjbf_bounded_and_reproducible_across_blas_threads(self, patch):
        # a random guide at sigma_r 10 has edge weights down to ~1e-141, so
        # some nodes are nearly isolated; the BLAS thread count is fixed at
        # process start, hence one subprocess per count
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=SRC)
            r = subprocess.run([sys.executable, "-c", self.GBJBF_RUN, str(patch)],
                               env=env, capture_output=True, text=True, timeout=300)
            assert r.returncode == 0, r.stderr
            lo, hi, out_lo, out_hi, digest = r.stdout.split()
            assert float(lo) <= float(out_lo) and float(out_hi) <= float(hi)
            digests.append(digest)
        assert digests[0] == digests[1]

    def test_worker_count_does_not_change_output(self, rng):
        clean, guide, noisy = self._inputs(rng)
        mask = HoleMask.from_array(rng.random((32, 32)) < 0.05)
        spec = FilterSpec(FilterKind.K_CG0)
        a, ra = denoise(noisy, guide, mask, spec, WeightParams(), patch_size=16,
                        workers=1)
        b, rb = denoise(noisy, guide, mask, spec, WeightParams(), patch_size=16,
                        workers=4)
        assert np.array_equal(a.samples, b.samples)
        assert ra.to_csv() == rb.to_csv()

    def test_dimension_mismatch(self, rng):
        clean, guide, noisy = self._inputs(rng)
        with pytest.raises(DimensionMismatchError):
            denoise(noisy, guide, HoleMask.all_false(8, 8),
                    FilterSpec(FilterKind.JBF), WeightParams())

    def test_report_serialization(self, rng):
        clean, guide, noisy = self._inputs(rng)
        mask = HoleMask.from_array(rng.random((32, 32)) < 0.05)
        out, report = denoise(noisy, guide, mask, FilterSpec(FilterKind.JBF),
                              WeightParams(), patch_size=16)
        report.psnr_noisy_db = psnr(noisy, clean)
        report.psnr_denoised_db = psnr(out, clean)
        csv = report.to_csv()
        assert csv.startswith("metric,value\n")
        assert "\npsnr_noisy_db," in csv
        assert f"\nhole_pixels,{report.hole_pixels}\n" in csv
        assert report.filter_seconds > 0
        # wall-clock timing must stay out of the deterministic serialization
        assert format(report.filter_seconds, ".17g") not in csv
        assert "seconds" not in csv
        txt = report.to_text()
        assert "reference comparison" in txt


class TestPsnr:
    def test_identical_images_flag_infinite(self, rng):
        img = ImageGray.from_array(rng.uniform(0, 255, (8, 8)))
        assert math.isinf(psnr(img, img))

    def test_unit_mse(self):
        a = ImageGray.from_array(np.zeros((10, 10)))
        b = ImageGray.from_array(np.ones((10, 10)))
        assert psnr(a, b) == pytest.approx(48.1308, abs=1e-3)

    def test_full_scale_error_is_zero_db(self):
        a = ImageGray.from_array(np.zeros((4, 4)))
        b = ImageGray.from_array(np.full((4, 4), 255.0))
        assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self, rng):
        a = ImageGray.from_array(rng.uniform(0, 255, (9, 9)))
        b = ImageGray.from_array(rng.uniform(0, 255, (9, 9)))
        assert psnr(a, b) == psnr(b, a)

    def test_dimension_mismatch(self, rng):
        a = ImageGray.from_array(rng.uniform(0, 255, (4, 4)))
        b = ImageGray.from_array(rng.uniform(0, 255, (4, 5)))
        with pytest.raises(DimensionMismatchError):
            psnr(a, b)
