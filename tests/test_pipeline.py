import gc
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given
from hypothesis import strategies as st

from graphdenoise import (DimensionMismatchError, FilterKind, FilterSpec,
                          HoleMask, ImageGray, NoiseSpec, WeightParams,
                          add_gaussian_noise, apply_filter, build_graph,
                          denoise, dibr, median_fill, normalized_laplacian,
                          pipeline, psnr, split_patches, synth_scene)
from graphdenoise.graph import NormalizedLaplacian
from graphdenoise.image import _frozen, check_same_shape
from graphdenoise.filters import cheb_design, gbjbf_degree, poly_expand_gbjbf
from graphdenoise.oracle import cheb_response, gbjbf_response
from graphdenoise.pipeline import (PatchGrid, block_operator, extract_patch,
                                   patch_operator)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def reference_bilateral_weights(d, params):
    """The weight formula as a fresh array, as it was before it wrote into d."""
    with np.errstate(over="ignore"):
        return np.exp(-(d**2) * (1.0 / (2.0 * params.sigma_r**2)))


def reference_block_operator(guide, mask, grid, weights):
    """The replaced assembly on (tile, row, col) views, kept verbatim."""
    check_same_shape(guide, mask, "guide/mask")
    ch, cw = grid.cell
    g = grid.to_nodes(guide.to_array(), 0.0).reshape(-1, ch, cw)
    ok = ~grid.to_nodes(mask.to_array(), True).reshape(-1, ch, cw)

    right = np.zeros_like(g)   # weight of the edge to the next column
    down = np.zeros_like(g)    # weight of the edge to the next row
    d = g[:, :, :-1] - g[:, :, 1:]
    right[:, :, :-1] = np.where(ok[:, :, :-1] & ok[:, :, 1:],
                                reference_bilateral_weights(d, weights), 0.0)
    d = g[:, :-1, :] - g[:, 1:, :]
    down[:, :-1, :] = np.where(ok[:, :-1, :] & ok[:, 1:, :],
                               reference_bilateral_weights(d, weights), 0.0)
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
    data[0] = -s_down             # A[v + cw, v]
    data[1] = -s_right            # A[v + 1, v]
    data[2] = noniso.ravel()      # A[v, v]
    data[3, 1:] = -s_right[:-1]   # A[v - 1, v]
    data[4, cw:] = -s_down[:-cw]  # A[v - cw, v]
    m = sp.dia_matrix((data, np.array([-cw, -1, 0, 1, cw])), shape=(n, n))
    return NormalizedLaplacian(matrix=m, degrees=_frozen(deg.ravel()),
                               segments=grid.segments())


# 1-wide and 1-high images, ragged patches and patches larger than the
# image, all-hole tiles, and sigma_r from all-underflowing to near-uniform
# weights
@example(seed=0, width=1, height=70, patch=80, holes=0.0, sigma_r=10.0)
@example(seed=1, width=70, height=1, patch=8, holes=0.2, sigma_r=1e3)
@example(seed=2, width=33, height=47, patch=16, holes=1.0, sigma_r=0.5)
@example(seed=3, width=45, height=30, patch=16, holes=0.1, sigma_r=10.0)
@given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 70),
       height=st.integers(1, 70), patch=st.integers(8, 80),
       holes=st.floats(0.0, 1.0), sigma_r=st.sampled_from([0.5, 10.0, 1e3]))
def test_block_operator_matches_the_replaced_assembly_bitwise(seed, width, height, patch,
                                                              holes, sigma_r):
    rng = np.random.default_rng(seed)
    guide = ImageGray.from_array(rng.uniform(0, 255, (height, width)))
    mask = HoleMask.from_array(rng.random((height, width)) < holes)
    grid, weights = split_patches(guide, patch), WeightParams(sigma_r)
    L = block_operator(guide, mask, grid, weights)
    ref = reference_block_operator(guide, mask, grid, weights)
    assert L.matrix.offsets.tobytes() == ref.matrix.offsets.tobytes()
    assert L.matrix.data.tobytes() == ref.matrix.data.tobytes()
    assert L.degrees.tobytes() == ref.degrees.tobytes()
    assert len(L.segments) == len(ref.segments)
    for s, r in zip(L.segments, ref.segments):
        assert type(s) is type(r)
        assert s == r if isinstance(s, slice) else s.tobytes() == r.tobytes()


# a one-row image whose cell width equals n, so n itself would collide
# with the offset cw; a one-column image; ragged tilings; a single patch
# as the CSR operator of its own graph
@pytest.mark.parametrize("h, w, patch, csr", [(1, 30, 64, False), (30, 1, 8, False),
                                              (20, 33, 16, False), (45, 30, 16, False),
                                              (20, 33, 64, True)])
def test_off_diagonal_is_the_operator_without_its_diagonal(rng, h, w, patch, csr):
    guide = ImageGray.from_array(rng.uniform(0, 255, (h, w)))
    mask = HoleMask.from_array(rng.random((h, w)) < 0.1)
    if csr:
        L = patch_operator(guide, mask, (0, 0, w, h), WeightParams())
    else:
        L = block_operator(guide, mask, split_patches(guide, patch), WeightParams())
    N = L.off_diagonal
    assert N is L.off_diagonal                     # built once
    assert N.degrees is L.degrees and N.segments == L.segments
    live = L.degrees > 0
    if csr:
        assert N.matrix.format == "csr" and N.matrix.has_sorted_indices
        assert N.matrix.nnz == L.matrix.nnz - np.count_nonzero(live)
    else:
        # the same DIA data, its diagonal row moved outside the matrix
        assert np.shares_memory(N.matrix.data, L.matrix.data)
        assert N.matrix.nnz == L.matrix.nnz - L.n
        assert N.matrix.offsets.tolist() == [-min(patch, max(w, 2)), -1, L.n + 1, 1,
                                             min(patch, max(w, 2))]
    expected = L.matrix.toarray()
    np.fill_diagonal(expected, 0.0)
    assert N.matrix.toarray().tobytes() == expected.tobytes()
    x = rng.normal(0, 1, L.n)
    np.testing.assert_allclose(N.apply(x)[live], (L.apply(x) - x)[live], rtol=0, atol=1e-15)
    assert not np.any(N.apply(x)[~live])


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

    @pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(2.0), "7", -1])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            NoiseSpec(1.0, seed)

    def test_numpy_integer_seed_is_the_same_seed(self, rng):
        img = ImageGray.from_array(rng.uniform(0, 255, (8, 8)))
        a = add_gaussian_noise(img, NoiseSpec(sigma=10.0, seed=np.uint32(7)))
        b = add_gaussian_noise(img, NoiseSpec(sigma=10.0, seed=7))
        assert a.samples.tobytes() == b.samples.tobytes()

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

    def test_small_patch_rejected(self, rng):
        img = ImageGray.from_array(rng.uniform(0, 255, (16, 16)))
        with pytest.raises(ValueError):
            split_patches(img, 7)

    @pytest.mark.parametrize("patch", [8.5, 16.0, np.float64(32.0), "16"])
    def test_non_integral_patch_size_rejected(self, patch):
        with pytest.raises(ValueError, match="patch_size"):
            PatchGrid(16, 16, patch)

    def test_numpy_integer_patch_size_is_the_same_grid(self):
        assert PatchGrid(40, 30, np.int64(16)) == PatchGrid(40, 30, 16)

    @pytest.mark.parametrize("width,height", [(0, 5), (-3, 5), (5, 0), (True, 5),
                                              (5.5, 5), (5, np.float64(5.0)), (5, "5")])
    def test_dimensions_follow_the_raster_rule(self, width, height):
        with pytest.raises(DimensionMismatchError, match="integer >= 1"):
            PatchGrid(width, height, 8)

    def test_numpy_integer_dimensions_are_stored_as_ints(self):
        grid = PatchGrid(np.int64(40), np.uint8(30), 16)
        assert type(grid.width) is int and type(grid.height) is int
        assert grid == PatchGrid(40, 30, 16)

    # one-row and one-column images, images smaller than the patch, whole
    # and ragged tilings
    @example(seed=0, width=1, height=30, patch=8)
    @example(seed=1, width=30, height=1, patch=64)
    @example(seed=2, width=64, height=128, patch=32)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 90),
           height=st.integers(1, 90), patch=st.integers(8, 100))
    def test_to_nodes_matches_the_replaced_padded_copy(self, seed, width, height, patch):
        def reference_to_nodes(grid, a, fill):
            """The replaced padded image and its tile-major copy, verbatim."""
            ty, tx, ch, cw = grid._tiles()
            pad = np.full((ty * ch, tx * cw), fill, dtype=np.asarray(a).dtype)
            pad[: grid.height, : grid.width] = a
            return pad.reshape(ty, ch, tx, cw).swapaxes(1, 2).reshape(-1)

        rng = np.random.default_rng(seed)
        grid = PatchGrid(width, height, patch)
        for a, fill in ((rng.uniform(0, 255, (height, width)), 0.0),
                        (rng.random((height, width)) < 0.3, True)):
            nodes = grid.to_nodes(a, fill)
            ref = reference_to_nodes(grid, a, fill)
            assert nodes.dtype == ref.dtype and nodes.tobytes() == ref.tobytes()
            assert grid.from_nodes(nodes).tobytes() == a.tobytes()


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
        filtered = np.empty((noisy.height, noisy.width))
        for idx in rng.permutation(len(grid.patches)):
            p = grid.patches[idx]
            L = patch_operator(guide, mask, p, weights)
            x0, y0, w, h = p
            filtered[y0:y0 + h, x0:x0 + w] = apply_filter(
                spec, L, extract_patch(noisy, p).samples).reshape(h, w)
        ref = median_fill(ImageGray.from_array(filtered), mask)
        assert np.array_equal(out.samples, ref.samples)

    @pytest.mark.parametrize("tiling", list(TILINGS))
    def test_block_operator_segments_are_the_patch_operators(self, rng, tiling):
        noisy, guide, mask, patch = self._tiled_inputs(rng, tiling)
        grid = split_patches(noisy, patch)
        L = block_operator(guide, mask, grid, WeightParams())
        assert len(L.segments) == len(grid.patches)
        assert L.n == L.matrix.shape[0] == len(grid.patches) * patch**2
        x = rng.normal(0, 1, L.n)      # padding and other patches carry data too
        lx = L.apply(x)
        dots = L.dot(x, lx)
        csr = L.matrix.tocsr()
        m = L.n // len(L.segments)
        degrees = []
        for i, (p, s) in enumerate(zip(grid.patches, L.segments)):
            Lp = patch_operator(guide, mask, p, WeightParams())   # via build_graph
            assert Lp.n == Lp.matrix.shape[0] == Lp.degrees.size
            degrees.append(L.rows(L.degrees)[i][s])
            xi, lxi = L.rows(x)[i][s], L.rows(lx)[i][s]
            assert degrees[i].tobytes() == Lp.degrees.tobytes()
            assert lxi.tobytes() == Lp.apply(xi).tobytes()
            assert dots[i] == xi @ lxi
            idx = i * m + np.arange(m)[s]
            block = csr[idx][:, idx]
            assert block.toarray().tobytes() == Lp.dense().tobytes()
        # padding nodes are isolated
        padding = grid.to_nodes(np.zeros((noisy.height, noisy.width), bool), True)
        assert not np.any(L.degrees[padding])
        assert sum(d.size for d in degrees) == L.n - padding.sum() == noisy.samples.size

    # an image smaller than its patch, which is one tile filling its
    # clipped cell, and one only lower than its patch, which ends in a
    # ragged tile
    SMALL_IMAGES = {"40x50/64": (40, 50, 64), "40x80/64": (40, 80, 64)}

    @pytest.mark.parametrize("layout", [*TILINGS, *SMALL_IMAGES, "one graph"])
    def test_dot_is_each_graphs_own_dot(self, rng, layout):
        # the ragged tilings, images smaller than the patch, and the
        # single segment of an operator built from one PixelGraph
        if layout == "one graph":
            L = normalized_laplacian(build_graph(
                ImageGray.from_array(rng.uniform(0, 255, (17, 23))),
                HoleMask.from_array(rng.random((17, 23)) < 0.1), WeightParams()))

            def part(v, i):
                return v
        else:
            h, w, patch = {**self.TILINGS, **self.SMALL_IMAGES}[layout]
            guide = ImageGray.from_array(rng.uniform(0, 255, (h, w)))
            grid = split_patches(guide, patch)
            L = block_operator(guide, HoleMask.from_array(rng.random((h, w)) < 0.1),
                               grid, WeightParams())

            def part(v, i):     # patch i's nodes, read off the tile layout
                _, _, pw, ph = grid.patches[i]
                return v.reshape(-1, *grid.cell)[i, :ph, :pw].ravel()
        # padding carries data too, and values spanning six decades make a
        # sum in any other order than x_i @ y_i show in the last bits
        x, y = (rng.normal(0, 1, L.n) * 10.0 ** rng.uniform(-3, 3, L.n) for _ in range(2))
        dots = L.dot(x, y)
        assert dots.shape == (len(L.segments),)
        for i in range(len(L.segments)):
            assert dots[i].tobytes() == (part(x, i) @ part(y, i)).tobytes()

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

    @pytest.mark.parametrize("h, w", [(24, 24), (20, 36), (20, 1), (1, 30)])
    @pytest.mark.parametrize("kind", [k.value for k in FilterKind])
    def test_patch_larger_than_the_image_pads_nothing(self, rng, kind, h, w):
        guide = ImageGray.from_array(rng.uniform(0, 255, (h, w)))
        noisy = add_gaussian_noise(guide, NoiseSpec(sigma=10.0, seed=5))
        mask = HoleMask.from_array(rng.random((h, w)) < 0.1)
        spec, weights = FilterSpec(FilterKind(kind)), WeightParams()
        side = max(h, w, pipeline.MIN_PATCH_SIZE)
        outs = [denoise(noisy, guide, mask, spec, weights, patch_size=p)[0]
                .samples.tobytes() for p in (side, side + 1, 4096, 10**6)]
        assert outs == outs[:1] * 4
        # the one tile filtered on its own graph
        patch = (0, 0, w, h)
        ref = apply_filter(spec, patch_operator(guide, mask, patch, weights), noisy.samples)
        assert outs[0] == median_fill(ImageGray(w, h, ref), mask).samples.tobytes()
        # at least 2 wide, so the DIA offsets -cw, -1, 0, 1, cw are distinct
        grid = split_patches(noisy, 10**6)
        assert grid.cell == (h, max(w, 2))
        assert block_operator(guide, mask, grid, weights).n == h * max(w, 2)

    def test_report_lines_the_run_up_with_its_published_row(self, rng):
        clean, guide, noisy = self._inputs(rng)
        out, report = denoise(noisy, guide, HoleMask.all_false(32, 32),
                              FilterSpec(FilterKind.K_CHEB, k=3), WeightParams(),
                              patch_size=16)
        report.psnr_noisy_db = psnr(noisy, clean)
        report.psnr_denoised_db = psnr(out, clean)
        table = report.to_text().split("reference comparison")[1].splitlines()
        rows = [row for row in table if row.startswith("3-CHEB")]
        assert len(rows) == 1
        assert f"{report.psnr_denoised_db:.2f}" in rows[0] and "35.67" in rows[0]
        assert not any(row.lower().startswith("cheb") for row in table)

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

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, rng, workers):
        clean, guide, noisy = self._inputs(rng)
        with pytest.raises(ValueError, match="workers"):
            denoise(noisy, guide, HoleMask.all_false(32, 32),
                    FilterSpec(FilterKind.JBF), WeightParams(), workers=workers)

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


class TestAssemblyMemo:
    """denoise assembles a problem once and reuses its operator and fill
    plan for the same guide and mask objects, whose samples cannot change,
    whatever the noisy image."""

    @staticmethod
    def _spy(monkeypatch) -> list:
        """Weak references to the operators denoise assembles from now on."""
        built = []
        real = pipeline.block_operator

        def block_operator(*args):
            L = real(*args)
            built.append(weakref.ref(L))
            return L

        monkeypatch.setattr(pipeline, "block_operator", block_operator)
        return built

    @staticmethod
    def _plan_spy(monkeypatch) -> list:
        """The fill plans denoise makes from now on."""
        plans = []
        real = pipeline.fill_plan

        def fill_plan(mask):
            plans.append(real(mask))
            return plans[-1]

        # median_fill plans for itself when it is not handed the memo's plan
        monkeypatch.setattr(pipeline, "fill_plan", fill_plan)
        monkeypatch.setattr(dibr, "fill_plan", fill_plan)
        return plans

    @staticmethod
    def _arrays(seed, shape=(40, 70)):
        rng = np.random.default_rng(seed)
        clean = rng.uniform(40.0, 215.0, shape)
        return {"noisy": clean + rng.normal(0.0, 10.0, shape),
                "guide": clean + rng.normal(0.0, 2.0, shape),
                "mask": rng.random(shape) < 0.1}

    @staticmethod
    def _images(arrays):
        return (ImageGray.from_array(arrays["noisy"]), ImageGray.from_array(arrays["guide"]),
                HoleMask.from_array(arrays["mask"]))

    @classmethod
    def _problem(cls, seed):
        return cls._images(cls._arrays(seed))

    @staticmethod
    def _fresh(images, spec, weights, patch) -> bytes:
        """The output on new copies of the inputs, a problem of its own."""
        copies = [type(x).from_array(x.to_array()) for x in images]
        return denoise(*copies, spec, weights, patch_size=patch)[0].samples.tobytes()

    def test_every_filter_gives_the_fresh_bytes_one_assembly_per_problem(
            self, monkeypatch):
        A, B = self._problem(1), self._problem(2)
        runs = [(A, WeightParams(), 16), (B, WeightParams(), 16),
                (A, WeightParams(), 16), (A, WeightParams(3.0), 16),
                (A, WeightParams(3.0), 32)]
        specs = [FilterSpec(kind) for kind in FilterKind]
        expected = [[self._fresh(p, spec, w, patch) for spec in specs]
                    for p, w, patch in runs]
        built = self._spy(monkeypatch)
        for (p, w, patch), want in zip(runs, expected):
            got = [denoise(*p, spec, w, patch_size=patch)[0].samples.tobytes()
                   for spec in specs]
            assert got == want
        assert len(built) == len(runs)

    # (40, 70) in 16-pixel tiles ends in a ragged tile row (rows 32-39) and
    # column (columns 64-69), which b holds in blocks of their own; no
    # pixel written is a hole, so each write changes a fresh problem's output
    @pytest.mark.parametrize("which,at", [
        *(pytest.param(which, (5, 8), id=which)
          for which in ("noisy", "guide", "mask", "noisy -0.0")),
        pytest.param("noisy", (37, 7), id="noisy ragged row"),
        pytest.param("noisy", (5, 67), id="noisy ragged column"),
        pytest.param("noisy", (37, 67), id="noisy ragged corner"),
        pytest.param("noisy -0.0", (37, 67), id="noisy -0.0 ragged corner")])
    def test_a_changed_caller_array_is_assembled_again(self, monkeypatch, which, at):
        """A write to a caller's array after from_array cannot reach the
        images made from it: denoise on them reuses the operator and gives
        the bytes from before the write.  Images made again from the arrays
        are new guide and mask objects, a new problem, assembled again."""
        arrays = self._arrays(3)
        arrays["noisy"][at] = 0.0
        images = self._images(arrays)
        spec, weights = FilterSpec(FilterKind.K_CHEB), WeightParams()
        before = denoise(*images, spec, weights, patch_size=16)[0].samples.tobytes()
        a = arrays[which.split()[0]]
        if which == "noisy -0.0":
            a[at] = -0.0   # equal to 0.0, but not the same bits
        else:
            a[at] = ~a[at] if a.dtype == bool else a[at] + 1.0
        built = self._spy(monkeypatch)
        out, _ = denoise(*images, spec, weights, patch_size=16)
        assert built == []
        # the fresh problem copies the images' samples as they are now
        assert out.samples.tobytes() == before == self._fresh(images, spec, weights, 16)
        built.clear()
        remade = self._images(arrays)
        out, _ = denoise(*remade, spec, weights, patch_size=16)
        assert len(built) == 1
        assert out.samples.tobytes() == self._fresh(remade, spec, weights, 16)

    def test_a_sweep_plans_the_fill_once_per_mask(self, monkeypatch):
        arrays = self._arrays(7)
        images = self._images(arrays)
        specs = [FilterSpec(kind) for kind in FilterKind]
        expected = [self._fresh(images, spec, WeightParams(), 16) for spec in specs]
        plans = self._plan_spy(monkeypatch)
        got = [denoise(*images, spec, WeightParams(), patch_size=16)[0].samples.tobytes()
               for spec in specs]
        assert len(specs) == 6 and len(plans) == 1
        assert got == expected
        # a new mask with more holes: a new problem, a new plan
        arrays["mask"][::3, ::2] = True
        images = (*images[:2], HoleMask.from_array(arrays["mask"]))
        out, _ = denoise(*images, specs[0], WeightParams(), patch_size=16)
        assert len(plans) == 2 and plans[1].holes.size > plans[0].holes.size
        assert out.samples.tobytes() == self._fresh(images, specs[0], WeightParams(), 16)

    @pytest.mark.parametrize("kind", list(FilterKind), ids=lambda kind: kind.value)
    def test_a_new_noisy_view_reuses_the_operator_and_the_plan(self, monkeypatch, kind):
        """The graph is made from the guide and the mask: a second noisy
        view on the same guide and mask objects assembles nothing and plans
        no fill, and its output is its own, the bytes of a fresh problem."""
        noisy, guide, mask = self._problem(8)
        renoised = add_gaussian_noise(noisy, NoiseSpec(10.0, 9))
        spec, weights = FilterSpec(kind), WeightParams()
        expected = self._fresh((renoised, guide, mask), spec, weights, 16)
        first = denoise(noisy, guide, mask, spec, weights, patch_size=16)[0]
        built, plans = self._spy(monkeypatch), self._plan_spy(monkeypatch)
        out, _ = denoise(renoised, guide, mask, spec, weights, patch_size=16)
        assert built == [] and plans == []
        assert out.samples.tobytes() == expected != first.samples.tobytes()

    def test_the_memo_lets_its_operator_go(self, monkeypatch):
        built = self._spy(monkeypatch)
        spec, weights = FilterSpec(FilterKind.JBF), WeightParams()
        A = self._problem(4)
        denoise(*A, spec, weights, patch_size=16)
        assert built[0]() is not None
        del A
        gc.collect()
        assert built[0]() is None
        A, B = self._problem(4), self._problem(5)
        denoise(*A, spec, weights, patch_size=16)
        denoise(*B, spec, weights, patch_size=16)
        assert built[1]() is None and built[2]() is not None
        del A, B
        # the operator lives as long as the guide and the mask it is made
        # from, not as long as the noisy image
        for drop in ("noisy", "guide", "mask"):
            images = dict(zip(("noisy", "guide", "mask"), self._problem(5)))
            denoise(*images.values(), spec, weights, patch_size=16)
            del images[drop]
            gc.collect()
            assert (built[-1]() is None) == (drop != "noisy"), drop

    def test_a_reuse_still_checks_the_patch_size(self):
        A = self._problem(6)
        denoise(*A, FilterSpec(FilterKind.JBF), WeightParams(), patch_size=16)
        with pytest.raises(ValueError, match="patch_size"):
            denoise(*A, FilterSpec(FilterKind.JBF), WeightParams(), patch_size=16.0)


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


_ZEROS = ImageGray.from_array(np.zeros((8, 8)))


@pytest.mark.parametrize("call", [
    pytest.param(lambda v: FilterSpec(FilterKind.K_CHEB, k=v), id="FilterSpec-k"),
    pytest.param(lambda v: NoiseSpec(10.0, v), id="NoiseSpec-seed"),
    pytest.param(lambda v: synth_scene(64, v), id="synth_scene-seed"),
    pytest.param(lambda v: denoise(_ZEROS, _ZEROS, HoleMask.all_false(8, 8),
                                   FilterSpec(FilterKind.JBF), WeightParams(),
                                   patch_size=8, workers=v), id="denoise-workers"),
    pytest.param(lambda v: cheb_response(v, 0.5), id="cheb_response-k")])
@pytest.mark.parametrize("value", [True, 2.5, np.int64(3)], ids=["bool", "float", "int64"])
def test_integer_parameters_reject_bools_and_fractions(call, value):
    """The rule the rasters apply to width and height: numbers.Integral and
    not bool, so numpy integers pass."""
    if isinstance(value, np.integer):
        call(value)
    else:
        with pytest.raises(ValueError, match="integer"):
            call(value)


def test_filter_spec_stores_k_as_an_int():
    spec = FilterSpec(FilterKind.K_CHEB, k=np.int64(4))
    assert type(spec.k) is int and spec == FilterSpec(FilterKind.K_CHEB, k=4)


@pytest.mark.parametrize("call, read", [
    pytest.param(lambda v: FilterSpec(FilterKind.K_CHEB, l=v), lambda s: s.l,
                 id="FilterSpec-l"),
    pytest.param(lambda v: FilterSpec(FilterKind.K_POLY, rho=v), lambda s: s.rho,
                 id="FilterSpec-rho"),
    pytest.param(lambda v: NoiseSpec(v, 0), lambda s: s.sigma, id="NoiseSpec-sigma"),
    pytest.param(lambda v: WeightParams(v), lambda s: s.sigma_r,
                 id="WeightParams-sigma_r")])
@pytest.mark.parametrize("value", [True, "1.0", 10**400, np.float32(0.7), np.int64(1)],
                         ids=["bool", "str", "huge-int", "float32", "int64"])
def test_real_parameters_reject_bools_and_store_floats(call, read, value):
    """One rule for every real parameter: numbers.Real, not bool, and in
    float range, kept as the Python float it is computed with."""
    if type(value) in (bool, str, int):   # int: 10**400 here
        with pytest.raises(ValueError, match="real number"):
            call(value)
    else:
        stored = read(call(value))
        assert type(stored) is float and stored == float(value)


@pytest.mark.parametrize("call", [
    pytest.param(lambda v: cheb_response(3, v), id="cheb_response-l"),
    pytest.param(lambda v: cheb_design(3, v), id="cheb_design-l"),
    pytest.param(gbjbf_response, id="gbjbf_response-rho"),
    pytest.param(gbjbf_degree, id="gbjbf_degree-rho"),
    pytest.param(lambda v: poly_expand_gbjbf(3, v), id="poly_expand_gbjbf-rho")])
@pytest.mark.parametrize("value", [True, "0.5", 10**400], ids=["bool", "str", "huge-int"])
def test_series_designs_apply_the_real_parameter_rule(call, value):
    """The rule holds at the designs' own entry points, not only through
    FilterSpec."""
    with pytest.raises(ValueError, match="real number"):
        call(value)


def test_series_designs_compute_with_the_float_of_a_numpy_real():
    assert gbjbf_degree(np.float32(2.0)) == gbjbf_degree(np.int64(2)) == gbjbf_degree(2.0)
    for got, want in ((cheb_design(3, np.float32(0.5)), cheb_design(3, 0.5)),
                      (poly_expand_gbjbf(3, np.int64(2)), poly_expand_gbjbf(3, 2.0))):
        assert got.coeffs.tobytes() == want.coeffs.tobytes()
    lam = np.linspace(0.0, 2.0, 9)
    assert gbjbf_response(np.float32(2.0))(lam).tobytes() == gbjbf_response(2.0)(lam).tobytes()


def test_report_prints_the_rho_the_series_runs_at():
    # np.float32(2.1) is 2.0999999046325684 as a float
    spec = FilterSpec(FilterKind.K_POLY, rho=np.float32(2.1))
    _, report = denoise(_ZEROS, _ZEROS, HoleMask.all_false(8, 8), spec, WeightParams(),
                        patch_size=8)
    assert "rho,2.0999999046325684\n" in report.to_csv()
    assert spec == FilterSpec(FilterKind.K_POLY, rho=float(np.float32(2.1)))


def test_report_prints_an_infinite_psnr_as_inf():
    # a clean reference equal to the denoised image: the MSE is 0
    out, report = denoise(_ZEROS, _ZEROS, HoleMask.all_false(8, 8), FilterSpec(FilterKind.JBF),
                          WeightParams(), patch_size=8)
    report.psnr_noisy_db = report.psnr_denoised_db = psnr(out, _ZEROS)
    assert "psnr_noisy_db,inf\npsnr_denoised_db,inf\n" in report.to_csv()
