import functools
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdenoise import (DepthMap, DimensionMismatchError, HoleMask,
                          ImageGray, WarpParams, WeightParams, build_graph,
                          interp_subpel, median_fill, warp_guide)
from graphdenoise.dibr import (HALF_TAPS, OCCLUSION_DISPARITY_STEP_PX,
                               OCCLUSION_RADIUS_PX, PHASES, QUARTER_TAPS,
                               THREE_QUARTER_TAPS, WarpResult, fill_plan,
                               load_depth, save_depth)


class TestInterpKernels:
    def test_taps_sum_to_unity(self):
        assert HALF_TAPS.sum() == 64
        assert QUARTER_TAPS.sum() == 64
        assert THREE_QUARTER_TAPS.sum() == 64

    def test_phase_zero_is_exact_center(self):
        s = np.array([9.0, 8, 7, 3.125, 5, 4, 2, 1])
        assert interp_subpel(s, 0.0) == 3.125

    @pytest.mark.parametrize("phase", [0.0, 0.25, 0.5, 0.75])
    def test_constant_samples_reproduced(self, phase):
        s = np.full(8, 77.25)
        assert interp_subpel(s, phase) == pytest.approx(77.25, abs=1e-12)

    def test_half_pel_on_ramp_hits_midpoint(self):
        s = np.arange(8, dtype=float)
        direct = float(HALF_TAPS @ s) / 64.0
        v = interp_subpel(s, 0.5)
        assert v == direct
        assert v == pytest.approx(3.5, abs=1e-12)  # 8-tap kernel is symmetric

    def test_quarter_pel_against_direct_convolution(self):
        def direct(window, taps):
            # the taps summed left to right in Python floats
            samples, taps = window.tolist(), taps.tolist()
            v = samples[0] * taps[0]
            for sample, tap in zip(samples[1:], taps[1:]):
                v += sample * tap
            return v / 64.0

        rng = np.random.default_rng(5)
        s = rng.uniform(0, 255, 8)
        assert interp_subpel(s, 0.25) == direct(s[0:7], QUARTER_TAPS)
        assert interp_subpel(s, 0.75) == direct(s[1:8], THREE_QUARTER_TAPS)
        # a stack of windows gives, bit for bit, each window's own tap sum
        windows = rng.uniform(-300, 300, (10_000, 8)) * rng.choice([1e-3, 1, 1e3], (10_000, 1))
        refs = {0.0: lambda win: win[3],
                0.25: lambda win: direct(win[0:7], QUARTER_TAPS),
                0.5: lambda win: direct(win, HALF_TAPS),
                0.75: lambda win: direct(win[1:8], THREE_QUARTER_TAPS)}
        for phase, one in refs.items():
            batch = interp_subpel(windows.reshape(-1), phase, 8 * np.arange(10_000))
            assert batch.shape == (10_000,)
            assert batch.tobytes() == np.array([one(win) for win in windows]).tobytes()
            scalar = [interp_subpel(win, phase) for win in windows]
            assert all(isinstance(v, float) for v in scalar)
            assert batch.tobytes() == np.array(scalar).tobytes()

    def test_windows_start_anywhere_in_the_samples(self, rng):
        s = rng.uniform(0, 255, 30)
        starts = np.array([22, 0, 5, 5, 13])
        for phase in PHASES:
            batch = interp_subpel(s, phase, starts)
            assert batch.tobytes() == np.array(
                [interp_subpel(s[b : b + 8], phase) for b in starts]).tobytes()
            assert interp_subpel(s, phase, np.array([], np.int64)).shape == (0,)
            grid = interp_subpel(s, phase, np.array([[3, 1], [0, 22]]))
            assert grid.shape == (2, 2) and grid[1, 1] == batch[0]

    def test_rejects_bad_arguments(self):
        with pytest.raises(DimensionMismatchError):
            interp_subpel(np.zeros(7), 0.5)
        with pytest.raises(ValueError):
            interp_subpel(np.zeros(8), 0.3)
        for starts in (-1, 3, np.array([0, 3])):
            with pytest.raises(DimensionMismatchError):
                interp_subpel(np.zeros(10), 0.5, starts)
        with pytest.raises(DimensionMismatchError):
            interp_subpel(np.zeros((2, 8)), 0.5)
        with pytest.raises(ValueError, match="integers"):
            interp_subpel(np.zeros(8), 0.5, 0.0)


class TestWarpGuide:
    def _image(self, rng, w=24, h=10):
        return ImageGray.from_array(rng.uniform(0, 255, (h, w)))

    def test_zero_disparity_is_bitexact_identity(self, rng):
        src = self._image(rng)
        depth = DepthMap.from_array(np.zeros((src.height, src.width)))
        res = warp_guide(src, depth, WarpParams())
        assert np.array_equal(res.guide.samples, src.samples)
        assert not res.mask.flags.any()

    def test_integer_disparity_is_column_shift(self, rng):
        src = self._image(rng)
        depth = DepthMap.from_array(np.ones((src.height, src.width)))
        res = warp_guide(src, depth, WarpParams(direction="left_to_right"))
        g = res.guide.to_array()
        s = src.to_array()
        assert np.array_equal(g[:, :-1], s[:, 1:])
        m = res.mask.to_array()
        assert m[:, -1].all() and not m[:, :-1].any()

    def test_integer_disparities_never_use_fractional_kernels(self, rng):
        src = self._image(rng)
        depth = DepthMap.from_array(np.full((src.height, src.width), 3.0))
        res = warp_guide(src, depth, WarpParams())
        assert res.phase_counts[0] > 0
        assert res.phase_counts[1] == res.phase_counts[2] == res.phase_counts[3] == 0

    def test_half_pel_disparity_matches_kernel(self, rng):
        src = self._image(rng, w=32)
        depth = DepthMap.from_array(np.full((src.height, src.width), 0.5))
        res = warp_guide(src, depth, WarpParams())
        s = src.to_array()
        g = res.guide.to_array()
        m = res.mask.to_array()
        for row in range(src.height):
            for u in range(3, src.width - 5):
                assert not m[row, u]
                expected = interp_subpel(s[row, u - 3 : u + 5], 0.5)
                assert g[row, u] == pytest.approx(expected, abs=0)

    def test_right_to_left_direction(self, rng):
        src = self._image(rng)
        depth = DepthMap.from_array(np.ones((src.height, src.width)))
        res = warp_guide(src, depth, WarpParams(direction="right_to_left"))
        g = res.guide.to_array()
        s = src.to_array()
        assert np.array_equal(g[:, 1:], s[:, :-1])
        assert res.mask.to_array()[:, 0].all()

    def test_occlusion_band_marked(self):
        # one row: foreground block (disparity 6) left of background
        # (disparity 1); background pixels just right of the block map onto
        # source positions covered by the foreground
        w = 40
        depth = np.ones((1, w))
        depth[0, 10:20] = 6.0
        src = ImageGray.from_array(np.linspace(0, 255, w)[None, :])
        res = warp_guide(src, DepthMap.from_array(depth), WarpParams())
        m = res.mask.to_array()[0]
        covered = [u for u in range(20, w) if 10 + 6 - 0.75 <= u + 1 <= 19 + 6 + 0.75]
        assert covered, "test setup should produce an occlusion band"
        for u in covered:
            assert m[u]
        assert not m[:10].any()

    def test_dimension_mismatch(self, rng):
        src = self._image(rng)
        with pytest.raises(DimensionMismatchError):
            warp_guide(src, DepthMap.from_array(np.zeros((3, 3))), WarpParams())

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), width=st.integers(1, 64),
           height=st.integers(1, 5), integer_source=st.booleans(),
           spread=st.sampled_from(["zero", "small", "wide", "layered", "rows",
                                   "islands", "monotone"]),
           direction=st.sampled_from(["left_to_right", "right_to_left"]))
    # the widest possible cover: pixel 0 covers pixel w - 1, or the reverse
    @example(seed=0, width=10, height=1, integer_source=False, spread="edge",
             direction="left_to_right")
    @example(seed=0, width=10, height=1, integer_source=False, spread="edge",
             direction="right_to_left")
    @example(seed=1, width=12, height=1, integer_source=False, spread="rows",
             direction="left_to_right")
    @example(seed=1, width=12, height=1, integer_source=False, spread="rows",
             direction="right_to_left")
    @example(seed=2, width=40, height=3, integer_source=False, spread="islands",
             direction="left_to_right")
    @example(seed=2, width=40, height=3, integer_source=False, spread="islands",
             direction="right_to_left")
    # no row has a drop, and the steps of a few rows, not the map's wide
    # range, set the band: 3 shifts in a window of 31 columns
    @example(seed=3, width=40, height=3, integer_source=False, spread="monotone",
             direction="left_to_right")
    @example(seed=3, width=40, height=3, integer_source=False, spread="monotone",
             direction="right_to_left")
    # 1 wide: the rows' disparities lie more than 1 px apart, so the range
    # exceeds 1 px, but the window is 0 columns and no cover can exist
    @example(seed=52, width=1, height=3, integer_source=False, spread="small",
             direction="left_to_right")
    @example(seed=25, width=1, height=4, integer_source=False, spread="wide",
             direction="right_to_left")
    @example(seed=31, width=1, height=2, integer_source=True, spread="layered",
             direction="right_to_left")
    # 2 wide, one cover in each direction
    @example(seed=13, width=2, height=3, integer_source=False, spread="small",
             direction="left_to_right")
    @example(seed=9, width=2, height=3, integer_source=False, spread="small",
             direction="right_to_left")
    @example(seed=43, width=2, height=3, integer_source=True, spread="layered",
             direction="left_to_right")
    @example(seed=43, width=2, height=3, integer_source=True, spread="layered",
             direction="right_to_left")
    def test_matches_per_row_loop_bitwise(self, seed, width, height, integer_source,
                                          spread, direction):
        if spread == "rows":
            height += 4  # room for every row kind
        elif spread in ("islands", "monotone"):
            height += 2  # room for rows with and without islands or steps
        r = np.random.default_rng(seed)
        src = r.uniform(0, 255, (height, width))
        if integer_source:
            src = np.floor(src)
        shape = (height, width)
        if spread == "zero":
            disp = np.full(shape, r.uniform(0.0, 5.0))
        elif spread == "layered":
            # a foreground layer whose disparity step covers background
            # pixels at a column shift anywhere from 1 to w
            step = r.uniform(1.0, width + 1.0, (height, 1))
            disp = np.where(r.random(shape) < 0.3, step, 0.0) + r.uniform(0.0, 2.0)
        elif spread == "edge":
            disp = np.zeros(shape)
            disp[:, 0 if direction == "left_to_right" else -1] = width - 1
        elif spread == "rows":
            disp = _mixed_rows(r, height, width, direction)
        elif spread == "islands":
            disp = _islands(r, height, width)
        elif spread == "monotone":
            disp = _monotone_rows(r, height, width, direction)
        else:
            disp = r.uniform(0.0, 3.0 if spread == "small" else 2.5 * width + 10.0, shape)
        if spread not in ("rows", "monotone"):
            # quarter-pel steps plus offsets that round either way, so every
            # phase, tie and occlusion edge case comes up
            disp = np.where(r.random(shape) < 0.5, np.round(4 * disp) / 4, disp)
        source, depth = ImageGray.from_array(src), DepthMap.from_array(disp)
        params = WarpParams(direction=direction)
        _assert_same_warp(warp_guide(source, depth, params),
                          _warp_guide_loop(source, depth, params))

    @pytest.mark.parametrize("huge", [1e300, np.finfo(np.float64).max])
    @pytest.mark.parametrize("direction", ["left_to_right", "right_to_left"])
    def test_huge_disparity_is_a_hole_without_warnings(self, rng, huge, direction):
        src = ImageGray.from_array(rng.uniform(0, 255, (3, 64)))
        disp = rng.uniform(0.0, 6.0, (3, 64))
        disp[1, 20] = huge
        params = WarpParams(direction=direction)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = warp_guide(src, DepthMap.from_array(disp), params)
        assert res.mask.to_array()[1, 20]
        # any disparity that leaves the image far behind gives the same warp
        disp[1, 20] = 1e6
        _assert_same_warp(res, _warp_guide_loop(src, DepthMap.from_array(disp), params))

    @pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
    def test_a_later_write_to_the_callers_array_cannot_break_the_depth_map(
            self, rng, bad):
        # the map checked its own copy; the caller's array may change after
        src = ImageGray.from_array(rng.uniform(0, 255, (4, 32)))
        disp = rng.uniform(0.0, 6.0, (4, 32))
        depth = DepthMap.from_array(disp)
        want = warp_guide(src, depth, WarpParams())
        disp[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = warp_guide(src, depth, WarpParams())
        _assert_same_warp(got, want)

    @pytest.mark.parametrize("direction", ["left_to_right", "right_to_left"])
    def test_bundled_scene_with_absent_phases_matches_per_row_loop(self, direction):
        from graphdenoise import synth_scene

        sc = synth_scene(size=128)
        params = WarpParams(direction=direction)
        res = warp_guide(sc.left, sc.depth, params)
        # whole- and half-pel disparities only: phases 0.25 and 0.75 have no pixels
        assert res.phase_counts[0] > 0 and res.phase_counts[2] > 0
        assert res.phase_counts[1] == res.phase_counts[3] == 0
        _assert_same_warp(res, _warp_guide_loop(sc.left, sc.depth, params))

    @pytest.mark.parametrize("seed", [101, 102])
    @pytest.mark.parametrize("direction", ["left_to_right", "right_to_left"])
    def test_ramp_with_all_four_phases_matches_per_row_loop(self, monkeypatch, seed,
                                                            direction):
        # the benchmark's generated ramp: its depth map reaches all four phases
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from workloads import ramp_inputs

        left, right, depth, _ = ramp_inputs(seed)
        params = WarpParams(direction=direction)
        source = left if direction == "left_to_right" else right
        res = warp_guide(source, depth, params)
        assert np.all(res.phase_counts > 0)
        _assert_same_warp(res, _warp_guide_loop(source, depth, params))

    def test_mask_iff_isolated_after_build(self):
        from graphdenoise import synth_scene

        sc = synth_scene(size=96, seed=11)
        res = warp_guide(sc.left, sc.depth, WarpParams())
        g = build_graph(res.guide, res.mask, WeightParams())
        iso = g.degrees == 0
        assert np.array_equal(iso, res.mask.flags)


def _mixed_rows(r, height, width, direction) -> np.ndarray:
    """height >= 5 rows, each kind below at least once, in random order.  A
    row's drop is its largest d_j - d_i with pixel j on the side a cover
    comes from (the left for left_to_right, the right for right_to_left)."""
    u = np.arange(width)
    cut = r.integers(1, max(width, 2))  # the drop sits between cut - 1 and cut
    base = r.integers(0, 40) / 4
    kinds = [
        np.full(width, base),                                    # flat
        np.sort(r.uniform(0.0, 2.5 * width + 10.0, width)),     # wide, no drop
        base + np.where(u < cut, 1.0, 0.0),                      # drop of 1.0
        np.where(u < cut, np.nextafter(1.0, 2.0), 0.0),          # just above 1
        np.where(u == 0, width - 1.0, 0.0),                      # full width
    ]
    rows = np.stack([kinds[k] for k in r.permutation(np.arange(height) % 5)])
    # kinds are written for left_to_right; a mirrored row serves right_to_left
    return rows if direction == "left_to_right" else rows[:, ::-1].copy()


def _monotone_rows(r, height, width, direction) -> np.ndarray:
    """Rows that rise away from the side a cover comes from, so that no row
    has a drop, on bases far apart, so that the map's range is wide; then,
    in about half of the rows, a step down of 1 to 3 px at a random column,
    so that the candidates, not the range, set the band of shifts tested."""
    rise = np.cumsum(r.uniform(0.0, 0.5, (height, width)), axis=1)
    disp = rise + r.uniform(3.0, width + 3.0, (height, 1))
    for row in np.flatnonzero(r.random(height) < 0.5):
        disp[row, r.integers(1, max(width, 2)):] -= r.uniform(1.0, 3.0)
    # written for left_to_right; a mirrored map serves right_to_left
    return disp if direction == "left_to_right" else disp[:, ::-1].copy()


def _islands(r, height, width) -> np.ndarray:
    """A flat background with, in a random half of the rows, two narrow
    foreground islands far apart: one within the first quarter of the row,
    one within the last, often at the row's very end.  Only pixels near an
    island can be covered, so the covered columns of different rows, and the
    rows with a candidate, are far apart, and a cover's column span plus
    its band often reaches a row end."""
    disp = np.full((height, width), r.uniform(0.0, 2.0))
    quarter = max(width // 4, 1)
    for row in np.flatnonzero(r.random(height) < 0.5):
        for left in (True, False):
            x, n = r.integers(0, quarter), r.integers(1, 4)
            cols = slice(x, x + n) if left else slice(max(width - x - n, 0), width - x)
            disp[row, cols] += r.uniform(1.0, width / 2 + 2.0)
    return disp


def _assert_same_warp(got: WarpResult, want: WarpResult) -> None:
    assert got.guide.samples.tobytes() == want.guide.samples.tobytes()
    assert got.mask.flags.tobytes() == want.mask.flags.tobytes()
    assert got.phase_counts.tobytes() == want.phase_counts.tobytes()


def _warp_guide_loop(source, depth, params) -> WarpResult:
    """Reference warp: one row at a time, a w x w pairwise occlusion test
    and one scalar interp_subpel call per fractional pixel.  Quantization
    is unclipped, so a disparity beyond ~2e18 makes its cast undefined."""
    h, w = source.height, source.width
    src = source.to_array()
    disp = depth.to_array()
    sign = 1.0 if params.direction == "left_to_right" else -1.0

    guide = np.zeros((h, w), dtype=np.float64)
    hole = np.zeros((h, w), dtype=bool)
    phase_counts = np.zeros(4, dtype=np.int64)
    u = np.arange(w, dtype=np.float64)

    for row in range(h):
        d = disp[row]
        up = u + sign * d
        q4 = np.floor(4.0 * up + 0.5).astype(np.int64)
        oob = (q4 < 0) | (q4 > 4 * (w - 1))
        # z-ordering occlusion test on the unquantized positions
        covered = (
            (np.abs(up[None, :] - up[:, None]) <= OCCLUSION_RADIUS_PX)
            & (d[None, :] - d[:, None] > OCCLUSION_DISPARITY_STEP_PX)
        ).any(axis=1)
        bad = oob | covered
        hole[row] = bad

        base = q4 // 4
        ph = q4 % 4
        vis = ~bad
        line = src[row]
        # phase 0 is an exact integer copy
        sel = vis & (ph == 0)
        if np.any(sel):
            guide[row, sel] = line[base[sel]]
            phase_counts[0] += int(sel.sum())
        # fractional phases sample through the tap kernels, with boundary
        # replication for windows that leave the row
        for col in np.nonzero(vis & (ph != 0))[0]:
            window = np.clip(np.arange(base[col] - 3, base[col] + 5), 0, w - 1)
            guide[row, col] = interp_subpel(line[window], PHASES[ph[col]])
            phase_counts[ph[col]] += 1

    return WarpResult(
        guide=ImageGray.from_array(guide),
        mask=HoleMask.from_array(hole),
        phase_counts=phase_counts,
    )


# The float-source guides of the benchmark's ramp (seed 401, each view in
# its warp direction) and of the float 256x256 scene's left view in both
# directions, hashed in a fresh process whose OpenBLAS setting is fixed
# before numpy loads.
_HASH_FLOAT_GUIDES = """
import hashlib
from workloads import ramp_inputs
from graphdenoise import WarpParams, synth_scene, warp_guide
left, right, depth, _ = ramp_inputs(401)
scene = synth_scene(size=256)
h = hashlib.sha256()
for source, disparity, direction in ((left, depth, "left_to_right"),
                                     (right, depth, "right_to_left"),
                                     (scene.left, scene.depth, "left_to_right"),
                                     (scene.left, scene.depth, "right_to_left")):
    h.update(warp_guide(source, disparity, WarpParams(direction)).guide.samples.tobytes())
print(h.hexdigest())
"""

_BLAS_SETTINGS = {"threads1": {"OPENBLAS_NUM_THREADS": "1"},
                  "threads2": {"OPENBLAS_NUM_THREADS": "2"},
                  "Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
                  "Haswell": {"OPENBLAS_CORETYPE": "Haswell"}}


@functools.cache
def _float_guides_hash(setting: str) -> str:
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    env.update(OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(root / "perfbench")]))
    env.update(_BLAS_SETTINGS[setting])
    r = subprocess.run([sys.executable, "-c", _HASH_FLOAT_GUIDES], env=env,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    return r.stdout.strip()


def _has_avx2() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return False
    return bool(__cpu_features__.get("AVX2"))


@pytest.mark.skipif(
    "openblas" not in np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    .get("name", ""), reason="numpy is not linked to OpenBLAS")
@pytest.mark.parametrize("setting", ["threads2", "Prescott", "Haswell"])
def test_float_warp_guides_do_not_depend_on_openblas(setting):
    # the tap sums use no BLAS, so OpenBLAS's thread count and the kernel
    # it picks for the CPU cannot move a guide bit
    if setting == "Haswell" and not _has_avx2():
        pytest.skip("OpenBLAS's Haswell kernel needs AVX2")
    assert _float_guides_hash(setting) == _float_guides_hash("threads1")


class TestMedianFill:
    def test_no_holes_is_identity(self, rng):
        img = ImageGray.from_array(rng.uniform(0, 255, (6, 6)))
        out = median_fill(img, HoleMask.all_false(6, 6))
        assert np.array_equal(out.samples, img.samples)

    def test_uniform_neighbors(self):
        a = np.full((3, 3), 9.0)
        a[1, 1] = 500.0
        m = np.zeros((3, 3), bool)
        m[1, 1] = True
        out = median_fill(ImageGray.from_array(a), HoleMask.from_array(m))
        assert out.to_array()[1, 1] == 9.0

    def test_lower_middle_statistic_for_eight_neighbors(self):
        a = np.array([[1.0, 2, 3], [4, 99, 5], [6, 7, 8]])
        m = np.zeros((3, 3), bool)
        m[1, 1] = True
        out = median_fill(ImageGray.from_array(a), HoleMask.from_array(m))
        assert out.to_array()[1, 1] == 4.0

    def test_hole_with_no_available_neighbors_keeps_value(self):
        a = np.full((3, 3), 7.0)
        a[1, 1] = 123.0
        m = np.ones((3, 3), bool)  # everything is a hole
        out = median_fill(ImageGray.from_array(a), HoleMask.from_array(m))
        assert np.array_equal(out.samples, a.ravel())

    def test_non_hole_pixels_untouched(self, rng):
        a = rng.uniform(0, 255, (5, 8))
        m = rng.random((5, 8)) < 0.3
        out = median_fill(ImageGray.from_array(a), HoleMask.from_array(m))
        assert np.array_equal(out.to_array()[~m], a[~m])

    @given(st.integers(0, 2**32 - 1))
    def test_idempotent(self, seed):
        r = np.random.default_rng(seed)
        a = r.uniform(0, 255, (6, 6))
        m = r.random((6, 6)) < 0.3
        img = ImageGray.from_array(a)
        mask = HoleMask.from_array(m)
        once = median_fill(img, mask)
        twice = median_fill(once, mask)
        assert np.array_equal(once.samples, twice.samples)


    @given(st.integers(1, 20), st.integers(1, 20), st.floats(0.0, 1.0), st.booleans(),
           st.integers(0, 2**32 - 1))
    @example(1, 17, 0.5, False, 1)     # 1 pixel wide
    @example(17, 1, 0.5, True, 2)      # 1 pixel tall
    @example(5, 6, 1.0, False, 3)      # every pixel a hole: none has a neighbor
    @example(1, 1, 1.0, True, 4)
    def test_matches_per_hole_loop(self, h, w, density, nan, seed):
        r = np.random.default_rng(seed)
        # few distinct values (signed zeros among them) make ties common;
        # NaN samples, drawn in half the examples, count as unavailable,
        # infinities as values
        a = r.choice([-0.0, 0.0, 1.5, 7.0, 255.0, np.inf, -np.inf] + [np.nan] * nan, (h, w))
        bump = r.random((h, w)) < 0.5   # adding 0.0 elsewhere would turn -0.0 into 0.0
        a[bump] += r.uniform(0, 255, np.count_nonzero(bump))
        m = r.random((h, w)) < density
        img, mask = ImageGray.from_array(a), HoleMask.from_array(m)
        before, want = a.tobytes(), _median_fill_loop(a, m).tobytes()
        assert median_fill(img, mask).to_array().tobytes() == want
        plan = fill_plan(mask)
        assert median_fill(img, mask, plan).to_array().tobytes() == want
        assert a.tobytes() == before   # img is a view of a: the fills wrote a copy

    def test_one_plan_serves_each_image_on_its_mask(self, rng):
        m = rng.random((9, 11)) < 0.3
        mask = HoleMask.from_array(m)
        plan = fill_plan(mask)
        # what the memo keeps: a flat index and 8 availability bytes per hole
        assert plan.holes.nbytes + plan.gone.nbytes == 16 * plan.holes.size > 0
        for _ in range(2):
            a = rng.uniform(0, 255, (9, 11))
            out = median_fill(ImageGray.from_array(a), mask, plan)
            assert out.to_array().tobytes() == _median_fill_loop(a, m).tobytes()
        with pytest.raises(DimensionMismatchError):
            median_fill(ImageGray.from_array(a[:, :10]),
                        HoleMask.from_array(m[:, :10]), plan)


def _median_fill_loop(src, hole):
    """Reference median fill: one hole at a time, Python list median of
    the in-bounds, non-hole, non-NaN neighbors."""
    h, w = src.shape
    out = src.copy()
    for y, x in zip(*np.nonzero(hole)):
        vals = []
        for dy in (-1, 0, 1):
            for dx in (-1, 0, 1):
                if dy == 0 and dx == 0:
                    continue
                yy, xx = y + dy, x + dx
                if (0 <= yy < h and 0 <= xx < w and not hole[yy, xx]
                        and not np.isnan(src[yy, xx])):
                    vals.append(src[yy, xx])
        if vals:
            vals.sort()
            out[y, x] = vals[(len(vals) - 1) // 2]
    return out


class TestDepthIo:
    def test_16bit_round_trip(self, tmp_path, rng):
        # quarter-disparity steps of 1/64 px are exactly representable
        vals = rng.integers(0, 1200, (9, 13)).astype(np.float64) * 0.015625
        d = DepthMap.from_array(vals)
        p = tmp_path / "depth.pgm"
        save_depth(p, d, 0.015625)
        back = load_depth(p, 0.015625)
        assert np.array_equal(back.values, d.values)
        assert p.read_bytes().startswith(b"P5\n13 9\n65535\n")
