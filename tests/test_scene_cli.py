import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdenoise import (FilterKind, WarpParams, pipeline, scene, synth_scene,
                          warp_guide)
from graphdenoise.cli import main
from graphdenoise.dibr import DepthMap, load_depth
from graphdenoise.filters import FILTERS, FilterDef
from graphdenoise.image import (ImageGray, load_image, load_mask, quantize_u8, read_pgm,
                               write_pbm, write_pgm)
from graphdenoise.scene import (_N_WAVES, _TEXTURE_SPAN, BACKGROUND_DISPARITY_PX,
                                DEPTH_SCALE, DEFAULT_SEED, FOREGROUND_DISPARITY_PX,
                                MAX_SIZE, StereoScene, _plane_wave_texture,
                                foreground_rect)


def _synth_scene_where(size: int = 256, seed: int = DEFAULT_SEED) -> StereoScene:
    """Reference: both textures on the whole grid, picked per pixel by np.where.

    The previous ``synth_scene``, kept verbatim so the once-per-sample
    rewrite stays pinned to it.
    """
    if not 64 <= size <= MAX_SIZE:
        raise ValueError(f"scene size must be in [64, {MAX_SIZE}]")
    rng = np.random.default_rng(np.random.PCG64(seed))
    f_bg = _plane_wave_texture(rng, base=150.0)
    f_fg = _plane_wave_texture(rng, base=95.0)
    x0, y0, x1, y1 = foreground_rect(size)

    u = np.arange(size, dtype=np.float64)[None, :]
    v = np.arange(size, dtype=np.float64)[:, None]
    in_fg = (u >= x0) & (u < x1) & (v >= y0) & (v < y1)
    right = np.where(in_fg, f_fg(u, v), f_bg(u, v))
    disp = np.where(in_fg, FOREGROUND_DISPARITY_PX, BACKGROUND_DISPARITY_PX)

    # In the left view the foreground sits FOREGROUND_DISPARITY_PX to the
    # right and hides the background behind it.
    uf = u - FOREGROUND_DISPARITY_PX
    in_left_fg = (uf >= x0) & (uf < x1) & (v >= y0) & (v < y1)
    left = np.where(in_left_fg, f_fg(uf, v), f_bg(u - BACKGROUND_DISPARITY_PX, v))

    meta = {
        "seed": int(seed),
        "size": int(size),
        "disparity_scale": DEPTH_SCALE,
        "background_disparity_px": BACKGROUND_DISPARITY_PX,
        "foreground_disparity_px": FOREGROUND_DISPARITY_PX,
        "foreground_rect_x0y0x1y1": [x0, y0, x1, y1],
        "warp_direction": "left_to_right",
    }
    return StereoScene(
        left=ImageGray.from_array(left),
        right=ImageGray.from_array(right),
        depth=DepthMap.from_array(disp),
        meta=meta,
    )


def _plane_wave_texture_per_sample(rng: np.random.Generator, base: float):
    """The previous ``_plane_wave_texture``, kept verbatim: each wave's cosine
    of its summed argument, taken at every sample."""
    amps = rng.uniform(0.5, 1.0, _N_WAVES)
    amps *= _TEXTURE_SPAN / amps.sum()
    periods = rng.uniform(14.0, 60.0, _N_WAVES)
    angles = rng.uniform(0.0, 2.0 * np.pi, _N_WAVES)
    phases = rng.uniform(0.0, 2.0 * np.pi, _N_WAVES)
    fu = np.cos(angles) / periods
    fv = np.sin(angles) / periods

    def f(u, v):
        out = np.full(np.broadcast(u, v).shape, base, dtype=np.float64)
        for a, cu, cv, p in zip(amps, fu, fv, phases):
            out = out + a * np.cos(2.0 * np.pi * (cu * u + cv * v) + p)
        return out

    return f


def _synth_scene_per_sample(size: int, seed: int) -> StereoScene:
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scene, "_plane_wave_texture", _plane_wave_texture_per_sample)
        return synth_scene(size, seed)


# The separable texture moved samples by at most 2.1e-12 on 50 scenes of
# sizes up to 1024 (2.6e-12 at 2048); the bound keeps a margin over that.
SEPARABLE_ATOL = 1e-11


class TestScene:
    @given(size=st.integers(64, 300), seed=st.integers(0, 2**32 - 1))
    @example(size=1000, seed=DEFAULT_SEED)
    @example(size=1024, seed=DEFAULT_SEED)
    def test_matches_whole_grid_reference_bitwise(self, size, seed):
        got, ref = synth_scene(size, seed), _synth_scene_where(size, seed)
        assert got.left.samples.tobytes() == ref.left.samples.tobytes()
        assert got.right.samples.tobytes() == ref.right.samples.tobytes()
        assert got.depth.values.tobytes() == ref.depth.values.tobytes()
        assert got.meta == ref.meta

    @given(size=st.integers(64, 300), seed=st.integers(0, 2**32 - 1))
    @example(size=1000, seed=DEFAULT_SEED)
    @example(size=1024, seed=DEFAULT_SEED)
    def test_separable_texture_matches_per_sample_cosines(self, size, seed):
        got, ref = synth_scene(size, seed), _synth_scene_per_sample(size, seed)
        for view in ("left", "right"):
            diff = np.abs(getattr(got, view).samples - getattr(ref, view).samples)
            assert diff.max() <= SEPARABLE_ATOL
        assert got.depth.values.tobytes() == ref.depth.values.tobytes()
        assert got.meta == ref.meta

    @pytest.mark.parametrize("size, seed", [(64, 2014), (100, 3), (257, 11), (1000, 2014),
                                            (128, DEFAULT_SEED), (256, DEFAULT_SEED)])
    def test_separable_texture_moves_no_8bit_sample(self, size, seed):
        # the fingerprint's four scenes and the CLI's default sizes
        got, ref = synth_scene(size, seed), _synth_scene_per_sample(size, seed)
        assert quantize_u8(got.left).tobytes() == quantize_u8(ref.left).tobytes()
        assert quantize_u8(got.right).tobytes() == quantize_u8(ref.right).tobytes()

    def test_texture_broadcasts_real_coordinates(self):
        # fractional and negative coordinates, broadcast shapes and scalars
        coords = np.random.default_rng(3).uniform(-50.0, 300.0, 7)
        cases = [(coords, coords[::-1]), (coords[None, :], coords[:5, None]),
                 (coords.reshape(7, 1, 1), coords[:3]), (coords[2], coords[:4]),
                 (2.5, -1.25)]
        for u, v in cases:
            got = _plane_wave_texture(np.random.default_rng(9), 150.0)(u, v)
            ref = _plane_wave_texture_per_sample(np.random.default_rng(9), 150.0)(u, v)
            assert np.shape(got) == np.shape(ref) == np.broadcast(u, v).shape
            assert np.max(np.abs(got - ref)) <= SEPARABLE_ATOL

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            synth_scene(size=64, seed=-1)

    @pytest.mark.parametrize("size, seed", [(100.5, 1), (np.float64(128.0), 1), ("128", 1),
                                            (128, 2.0), (128, np.float64(3.0))])
    def test_non_integral_size_or_seed_rejected_before_any_texture(self, monkeypatch,
                                                                   size, seed):
        # the NoiseSpec/PatchGrid rule; these used to fail with a TypeError,
        # a float size after the background had been evaluated
        def no_texture(*args, **kwargs):
            raise AssertionError("a texture was made")

        monkeypatch.setattr(scene, "_plane_wave_texture", no_texture)
        with pytest.raises(ValueError, match="must be integers"):
            synth_scene(size, seed)

    def test_numpy_integer_size_and_seed_accepted(self):
        got, ref = synth_scene(np.int64(64), np.uint32(7)), synth_scene(64, 7)
        assert got.left.samples.tobytes() == ref.left.samples.tobytes()
        assert got.right.samples.tobytes() == ref.right.samples.tobytes()
        assert got.meta == ref.meta

    def test_deterministic_per_seed(self):
        a = synth_scene(size=128, seed=4)
        b = synth_scene(size=128, seed=4)
        c = synth_scene(size=128, seed=5)
        assert np.array_equal(a.right.samples, b.right.samples)
        assert np.array_equal(a.left.samples, b.left.samples)
        assert not np.array_equal(a.right.samples, c.right.samples)

    def test_two_disparity_levels(self):
        sc = synth_scene(size=128, seed=4)
        assert set(np.unique(sc.depth.values)) == {4.0, 10.5}
        x0, y0, x1, y1 = foreground_rect(128)
        d = sc.depth.to_array()
        assert np.all(d[y0:y1, x0:x1] == 10.5)

    def test_intensities_in_8bit_range(self):
        sc = synth_scene(size=128, seed=4)
        for img in (sc.left, sc.right):
            assert img.samples.min() >= 0.0 and img.samples.max() <= 255.0

    def test_warped_guide_matches_target_where_visible(self):
        # away from holes and the foreground boundary, the warped left view
        # reproduces the right view up to sub-pel interpolation error
        sc = synth_scene(size=128, seed=4)
        res = warp_guide(sc.left, sc.depth, WarpParams())
        err = np.abs(res.guide.to_array() - sc.right.to_array())
        vis = ~res.mask.to_array()
        assert np.median(err[vis]) < 0.5
        assert np.percentile(err[vis], 95) < 5.0

    def test_half_pel_foreground_exercises_interpolation(self):
        sc = synth_scene(size=128, seed=4)
        res = warp_guide(sc.left, sc.depth, WarpParams())
        assert res.phase_counts[2] > 0  # half-pel foreground
        assert res.phase_counts[0] > 0  # integer background


def _quantize_u8_away_from_zero(img: ImageGray) -> np.ndarray:
    """The previous ``quantize_u8``, kept verbatim as the reference."""
    x = img.to_array()
    q = np.trunc(x + np.copysign(0.5, x))
    return np.clip(q, 0.0, 255.0).astype(np.uint8)


# signed zeros, ties on both sides of 0 and at the top, the doubles next to
# them, infinities and values beyond any integer dtype
_QUANTIZE_EDGES = [0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 254.5, 255.5, 256.5, -254.5,
                   -255.5, np.nextafter(0.5, 0.0), np.nextafter(-0.5, 0.0),
                   np.nextafter(254.5, 0.0), np.nextafter(255.5, 0.0),
                   np.nextafter(255.5, np.inf), np.inf, -np.inf, 2.0**52 + 1.0,
                   2.0**63, -2.0**63, 1e300, -1e300, np.finfo(float).max,
                   -np.finfo(float).max, 5e-324, -5e-324]


class TestPnmIo:
    @given(st.lists(st.one_of(st.floats(allow_nan=False),
                              st.floats(-300.0, 300.0),
                              st.integers(-600, 600).map(lambda n: n / 2)),
                    min_size=1, max_size=64))
    @example(_QUANTIZE_EDGES)
    def test_quantize_u8_rounds_half_away_from_zero(self, values):
        img = ImageGray.from_array(np.array(values, dtype=np.float64)[None, :])
        got = quantize_u8(img)
        assert got.dtype == np.uint8 and got.shape == (1, len(values))
        assert got.tobytes() == _quantize_u8_away_from_zero(img).tobytes()

    @pytest.mark.parametrize("maxval, dtype", [(255, np.uint8), (65535, np.uint16)])
    def test_raster_keeps_its_sample_width(self, tmp_path, maxval, dtype):
        # no widening to int64: uint8, or uint16 in native byte order
        arr = np.array([[0, 1, maxval // 2], [maxval - 1, maxval, 7]])
        p = tmp_path / "a.pgm"
        write_pgm(p, arr, maxval=maxval)
        back, got = read_pgm(p)
        assert got == maxval and back.dtype == dtype and back.dtype.isnative
        assert back.tolist() == arr.tolist()

    def test_pgm8_round_trip(self, tmp_path, rng):
        arr = rng.integers(0, 256, (7, 11))
        p = tmp_path / "a.pgm"
        write_pgm(p, arr, maxval=255)
        back, maxval = read_pgm(p)
        assert maxval == 255 and np.array_equal(back, arr)

    def test_pbm_round_trip(self, tmp_path, rng):
        from graphdenoise import HoleMask
        from graphdenoise.image import load_mask, save_mask

        m = HoleMask.from_array(rng.random((9, 13)) < 0.4)
        p = tmp_path / "m.pbm"
        save_mask(p, m)
        assert np.array_equal(load_mask(p).flags, m.flags)

    def test_truncated_file_rejected(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n4 4\n255\nabc")
        from graphdenoise import FileFormatError

        with pytest.raises(FileFormatError):
            read_pgm(p)

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# a comment\n2 2\n255\n\x01\x02\x03\x04")
        arr, maxval = read_pgm(p)
        assert arr.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("header", [b"P5\n4#c\n4\n255\n", b"P5\n4 4\n255#c\n"])
    def test_comment_right_after_a_header_token(self, tmp_path, header):
        # pgm(5): a comment may follow a token directly, also the maxval
        raster = bytes(range(16))
        plain, commented = tmp_path / "a.pgm", tmp_path / "b.pgm"
        plain.write_bytes(b"P5\n4 4\n255\n" + raster)
        commented.write_bytes(header + raster)
        assert read_pgm(commented)[0].tobytes() == read_pgm(plain)[0].tobytes()

    def test_token_with_trailing_garbage_rejected(self, tmp_path):
        from graphdenoise import FileFormatError

        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n4x\n4\n255\n" + bytes(16))
        with pytest.raises(FileFormatError, match="4x"):
            read_pgm(p)

    @pytest.mark.parametrize("token", [b"1_6", b"+4", b"-4", b"0x4", b"4.0",
                                       "\u0664".encode()])
    def test_header_token_other_than_ascii_digits_rejected(self, tmp_path, token):
        # pgm(5): a header number is ASCII decimal digits; int() took "1_6" as 16
        from graphdenoise import FileFormatError

        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5\n" + token + b" 4\n255\n" + bytes(64))
        with pytest.raises(FileFormatError, match="bad netpbm header token"):
            read_pgm(p)

    def test_header_token_with_leading_zero_loads(self, tmp_path):
        p = tmp_path / "z.pgm"
        p.write_bytes(b"P5\n04 02\n0255\n" + bytes(range(8)))
        arr, maxval = read_pgm(p)
        assert maxval == 255 and arr.tolist() == [[0, 1, 2, 3], [4, 5, 6, 7]]


class TestCli:
    def _synth(self, tmp_path, size=96):
        out = tmp_path / "scene"
        assert main(["synth", "--out", str(out), "--seed", "4",
                     "--size", str(size)]) == 0
        return out

    def _warp(self, tmp_path, scene_dir):
        out = tmp_path / "warp"
        assert main(["warp", "--source", str(scene_dir / "left.pgm"),
                     "--depth", str(scene_dir / "depth.pgm"),
                     "--scale", str(DEPTH_SCALE),
                     "--out", str(out)]) == 0
        return out

    def test_synth_writes_deterministic_files(self, tmp_path):
        a = self._synth(tmp_path / "a")
        b = self._synth(tmp_path / "b")
        for name in ("left.pgm", "right.pgm", "depth.pgm", "scene.meta"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        meta = json.loads((a / "scene.meta").read_text())
        assert meta["disparity_scale"] == DEPTH_SCALE
        # the stored 16-bit depth decodes to exactly the two scene levels
        from graphdenoise.dibr import load_depth

        depth = load_depth(a / "depth.pgm", meta["disparity_scale"])
        assert set(np.unique(depth.values)) == {4.0, 10.5}

    def test_warp_outputs(self, tmp_path):
        scene_dir = self._synth(tmp_path)
        warp_dir = self._warp(tmp_path, scene_dir)
        guide = load_image(warp_dir / "guide.pgm")
        mask = load_mask(warp_dir / "mask.pbm")
        assert (guide.width, guide.height) == (96, 96)
        assert 0 < mask.flags.sum() < mask.flags.size // 4

    def test_denoise_and_psnr(self, tmp_path, capsys):
        scene_dir = self._synth(tmp_path)
        warp_dir = self._warp(tmp_path, scene_dir)
        out = tmp_path / "run"
        rc = main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                   "--sigma", "10", "--seed", "1234",
                   "--guide", str(warp_dir / "guide.pgm"),
                   "--mask", str(warp_dir / "mask.pbm"),
                   "--filter", "cheb", "--k", "3", "--patch", "32",
                   "--out", str(out)])
        assert rc == 0
        report = (out / "report.csv").read_text()
        assert report.startswith("metric,value\n")
        for key in ("filter,cheb", "k,3", "l,0.5", "rho,2", "sigma_r,10",
                    "patch,32", "psnr_noisy_db,", "psnr_denoised_db,"):
            assert key in report
        txt = (out / "report.txt").read_text()
        assert "reference comparison" in txt

        rc = main(["psnr", str(out / "denoised.pgm"), str(scene_dir / "right.pgm")])
        assert rc == 0
        printed = capsys.readouterr().out.strip()
        float(printed)  # two-decimal dB value
        assert "." in printed and len(printed.split(".")[1]) == 2

        rc = main(["psnr", str(scene_dir / "right.pgm"), str(scene_dir / "right.pgm")])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "inf"

    def test_denoise_rerun_byte_identical(self, tmp_path):
        scene_dir = self._synth(tmp_path)
        warp_dir = self._warp(tmp_path, scene_dir)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                         "--sigma", "10", "--seed", "1234",
                         "--guide", str(warp_dir / "guide.pgm"),
                         "--mask", str(warp_dir / "mask.pbm"),
                         "--filter", "cg0", "--k", "3", "--patch", "32",
                         "--out", str(out)]) == 0
            outs.append(out)
        for name in ("denoised.pgm", "noisy.pgm", "report.csv", "report.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_check_oracle_flag(self, tmp_path):
        scene_dir = self._synth(tmp_path)
        warp_dir = self._warp(tmp_path, scene_dir)
        out = tmp_path / "chk"
        rc = main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                   "--sigma", "5", "--seed", "2",
                   "--guide", str(warp_dir / "guide.pgm"),
                   "--mask", str(warp_dir / "mask.pbm"),
                   "--filter", "poly", "--k", "3", "--patch", "16",
                   "--check-oracle", "--out", str(out)])
        assert rc == 0
        # oracle checking is restricted to oracle-sized patches
        rc = main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                   "--guide", str(warp_dir / "guide.pgm"),
                   "--mask", str(warp_dir / "mask.pbm"),
                   "--filter", "poly", "--patch", "64",
                   "--check-oracle", "--out", str(tmp_path / "chk2")])
        assert rc == 2

    @pytest.mark.parametrize("kind", ["cg", "cg0"])
    def test_check_oracle_holds_at_the_k_cap_of_the_bundled_scene(self, tmp_path, kind):
        cap = FILTERS[FilterKind(kind)].check_max_k
        assert cap < 256
        # the bundled scene at the patch size that binds every cap
        scene_dir = tmp_path / "scene"
        assert main(["synth", "--out", str(scene_dir)]) == 0
        warp_dir = self._warp(tmp_path, scene_dir)
        inputs = ["denoise", "--clean", str(scene_dir / "right.pgm"),
                  "--guide", str(warp_dir / "guide.pgm"),
                  "--mask", str(warp_dir / "mask.pbm"), "--filter", kind,
                  "--patch", "8", "--check-oracle"]
        assert main([*inputs, "--k", str(cap), "--out", str(tmp_path / "at")]) == 0

    @pytest.mark.parametrize("l", ["0.1", "0.5", "1.9"])
    def test_cheb_check_oracle_holds_at_max_k(self, tmp_path, l):
        # the root product cheb ran before failed here at --l 0.1 from k 40
        scene_dir = tmp_path / "scene"
        assert main(["synth", "--out", str(scene_dir)]) == 0
        warp_dir = self._warp(tmp_path, scene_dir)
        assert main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                     "--guide", str(warp_dir / "guide.pgm"),
                     "--mask", str(warp_dir / "mask.pbm"), "--filter", "cheb",
                     "--k", "256", "--l", l, "--patch", "8", "--check-oracle",
                     "--out", str(tmp_path / "run")]) == 0

    def test_gbjbf_check_oracle_holds_at_rho_3000(self, tmp_path):
        # the conjugate-gradient solve gbjbf ran before stalled here (exit 4)
        scene_dir = tmp_path / "scene"
        assert main(["synth", "--out", str(scene_dir), "--size", "128"]) == 0
        warp_dir = self._warp(tmp_path, scene_dir)
        assert main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                     "--guide", str(warp_dir / "guide.pgm"),
                     "--mask", str(warp_dir / "mask.pbm"), "--filter", "gbjbf",
                     "--rho", "3000", "--patch", "32", "--check-oracle",
                     "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("kind", list(FilterKind))
    def test_check_oracle_k_above_the_cap_is_usage_error(self, tmp_path, capsys, kind):
        cap = FILTERS[kind].check_max_k
        missing = str(tmp_path / "missing.pgm")
        out = tmp_path / "run"
        argv = ["denoise", "--clean", missing, "--guide", missing,
                "--mask", str(tmp_path / "missing.pbm"), "--filter", kind.value,
                "--patch", "32", "--check-oracle", "--out", str(out)]
        if cap < 256:
            # rejected before any input is read: the inputs do not exist
            assert main([*argv, "--k", str(cap + 1)]) == 2
            assert f"--k <= {cap}" in capsys.readouterr().err
        # at the cap the run goes on to read its (missing) inputs
        assert main([*argv, "--k", str(cap)]) == 3
        assert not out.exists()

    def test_spectral_response_csv(self, tmp_path):
        scene_dir = self._synth(tmp_path)
        warp_dir = self._warp(tmp_path, scene_dir)
        out_csv = tmp_path / "resp.csv"
        rc = main(["spectral-response", "--guide", str(warp_dir / "guide.pgm"),
                   "--mask", str(warp_dir / "mask.pbm"),
                   "--input", str(scene_dir / "right.pgm"),
                   "--filter", "jbf", "--size", "16", "--x0", "8", "--y0", "8",
                   "--out", str(out_csv)])
        assert rc == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "lambda,h,valid"
        assert len(lines) == 1 + 256
        lam, h, valid = lines[1].split(",")
        assert valid in ("true", "false")

    @pytest.mark.parametrize("kind", list(FilterKind))
    def test_every_filter_kind_through_the_registry(self, tmp_path, kind):
        assert kind in FILTERS
        scene_dir = self._synth(tmp_path)
        warp_dir = self._warp(tmp_path, scene_dir)
        rc = main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                   "--guide", str(warp_dir / "guide.pgm"),
                   "--mask", str(warp_dir / "mask.pbm"),
                   "--filter", kind.value, "--patch", "16",
                   "--check-oracle", "--out", str(tmp_path / "run")])
        assert rc == 0
        out_csv = tmp_path / "resp.csv"
        rc = main(["spectral-response", "--guide", str(warp_dir / "guide.pgm"),
                   "--mask", str(warp_dir / "mask.pbm"),
                   "--input", str(scene_dir / "right.pgm"),
                   "--filter", kind.value, "--size", "16", "--x0", "8", "--y0", "8",
                   "--out", str(out_csv)])
        assert rc == 0
        assert len(out_csv.read_text().splitlines()) == 1 + 256

    @pytest.mark.parametrize("kind", [FilterKind.K_CHEB, FilterKind.GBJBF])
    def test_check_oracle_catches_a_broken_fast_path(self, tmp_path, monkeypatch, kind):
        scene_dir = self._synth(tmp_path, size=64)
        warp_dir = self._warp(tmp_path, scene_dir)
        real = FILTERS[kind]
        monkeypatch.setitem(FILTERS, kind, FilterDef(
            fast=lambda spec, L, x: real.fast(spec, L, x) * (1.0 + 1e-4),
            reference=real.reference))
        out = tmp_path / "run"
        rc = main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                   "--guide", str(warp_dir / "guide.pgm"),
                   "--mask", str(warp_dir / "mask.pbm"),
                   "--filter", kind.value, "--patch", "32",
                   "--check-oracle", "--out", str(out)])
        assert rc == 4
        assert not out.exists()

    def test_nonfinite_reference_or_response_is_numeric_error(self, tmp_path,
                                                              monkeypatch):
        # both run with numpy's overflow warnings off, so only an explicit
        # check stops a NaN reference or an inf response
        scene_dir = self._synth(tmp_path, size=64)
        warp_dir = self._warp(tmp_path, scene_dir)
        real = FILTERS[FilterKind.K_CHEB]
        monkeypatch.setitem(FILTERS, FilterKind.K_CHEB, FilterDef(
            fast=lambda spec, L, x: real.fast(spec, L, x) * np.inf,
            reference=lambda spec, L, x: np.full_like(x, np.nan)))
        inputs = ["--guide", str(warp_dir / "guide.pgm"),
                  "--mask", str(warp_dir / "mask.pbm"), "--filter", "cheb"]
        monkeypatch.setattr(pipeline, "apply_filter", lambda spec, L, b: b)
        out = tmp_path / "run"
        assert main(["denoise", "--clean", str(scene_dir / "right.pgm"), *inputs,
                     "--patch", "32", "--check-oracle", "--out", str(out)]) == 4
        assert not out.exists()
        out = tmp_path / "r.csv"
        assert main(["spectral-response", "--input", str(scene_dir / "right.pgm"),
                     *inputs, "--out", str(out)]) == 4
        assert not out.exists()

    def test_check_oracle_filters_once(self, tmp_path, monkeypatch):
        scene_dir = self._synth(tmp_path)
        warp_dir = self._warp(tmp_path, scene_dir)
        calls = {"apply_filter": 0, "build_graph": 0}

        def counted(name):
            real = getattr(pipeline, name)

            def wrapper(*a, **k):
                calls[name] += 1
                return real(*a, **k)
            monkeypatch.setattr(pipeline, name, wrapper)

        counted("apply_filter")
        counted("build_graph")
        rc = main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                   "--guide", str(warp_dir / "guide.pgm"),
                   "--mask", str(warp_dir / "mask.pbm"),
                   "--filter", "cg0", "--patch", "32",
                   "--check-oracle", "--out", str(tmp_path / "run")])
        assert rc == 0
        # one filter pass for the image; one reference graph per 32x32 patch
        assert calls == {"apply_filter": 1, "build_graph": 9}

    @pytest.mark.parametrize("sigma_r", ["1e-300", "1e200", "inf"])
    def test_broken_sigma_r_is_usage_error(self, tmp_path, sigma_r):
        scene_dir = self._synth(tmp_path, size=64)
        warp_dir = self._warp(tmp_path, scene_dir)
        out = tmp_path / "run"
        rc = main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                   "--guide", str(warp_dir / "guide.pgm"),
                   "--mask", str(warp_dir / "mask.pbm"),
                   "--filter", "cheb", "--sigma-r", sigma_r, "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    def test_overflowing_psnr_is_numeric_error(self, tmp_path):
        scene_dir = self._synth(tmp_path, size=64)
        warp_dir = self._warp(tmp_path, scene_dir)
        out = tmp_path / "run"
        rc = main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                   "--sigma", "1e300",
                   "--guide", str(warp_dir / "guide.pgm"),
                   "--mask", str(warp_dir / "mask.pbm"),
                   "--filter", "cheb", "--out", str(out)])
        assert rc == 4
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("exc", [MemoryError, OverflowError])
    def test_out_of_memory_or_arithmetic_error_is_numeric_error(
            self, tmp_path, monkeypatch, capsys, exc):
        # stands in for an extreme --size: nothing is allocated at that size
        def fail(**kwargs):
            raise exc()

        monkeypatch.setattr(scene, "synth_scene", fail)
        out = tmp_path / "scene"
        assert main(["synth", "--out", str(out), "--size", "100000"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_scene_size_above_the_cap_is_usage_error(self, tmp_path, capsys):
        # rejected before anything is allocated at that size
        with pytest.raises(ValueError, match="scene size"):
            synth_scene(size=scene.MAX_SIZE + 1)
        out = tmp_path / "scene"
        assert main(["synth", "--out", str(out), "--size", str(scene.MAX_SIZE + 1)]) == 2
        assert "scene size must be in [64, 4096]" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "scene"
        assert main(["synth", "--out", str(out), "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("inputs", ["missing", "present"])
    def test_overflowing_scale_is_usage_error_before_any_input(self, tmp_path, capsys,
                                                               inputs):
        if inputs == "present":
            scene_dir = self._synth(tmp_path, size=64)
            source, depth = scene_dir / "left.pgm", scene_dir / "depth.pgm"
        else:
            source = depth = tmp_path / "missing.pgm"
        out = tmp_path / "warp"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["warp", "--source", str(source), "--depth", str(depth),
                       "--scale", "1e307", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "scale" in err and "Warning" not in err
        assert not out.exists()

    def test_overflowing_noise_is_numeric_error_without_warnings(self, tmp_path, capsys):
        scene_dir = self._synth(tmp_path, size=64)
        warp_dir = self._warp(tmp_path, scene_dir)
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                       "--sigma", "1e308", "--guide", str(warp_dir / "guide.pgm"),
                       "--mask", str(warp_dir / "mask.pbm"),
                       "--filter", "cheb", "--out", str(out)])
        assert rc == 4
        err = capsys.readouterr().err
        assert "not finite" in err and "Warning" not in err
        assert not out.exists()

    def test_underflowing_weights_are_zero_without_warnings(self, tmp_path, capsys):
        # 1/(2 sigma_r^2) is finite, but (g_i - g_j)^2 times it overflows
        scene_dir = self._synth(tmp_path, size=64)
        warp_dir = self._warp(tmp_path, scene_dir)
        guide, mask = str(warp_dir / "guide.pgm"), str(warp_dir / "mask.pbm")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                         "--guide", guide, "--mask", mask, "--filter", "cheb",
                         "--sigma-r", "1e-154", "--out", str(tmp_path / "run")]) == 0
            assert main(["spectral-response", "--guide", guide, "--mask", mask,
                         "--input", str(scene_dir / "right.pgm"), "--filter", "cheb",
                         "--sigma-r", "1e-154", "--out", str(tmp_path / "r.csv")]) == 0
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e307, float("inf")])
    def test_load_depth_overflow_is_value_error_without_warnings(self, tmp_path, scale):
        p = tmp_path / "depth.pgm"
        write_pgm(p, np.array([[0, 1], [65534, 65535]]), maxval=65535)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be finite"):
                load_depth(p, scale)

    @pytest.mark.parametrize("k", ["257", "10000"])
    def test_k_above_the_cap_is_usage_error(self, tmp_path, k):
        # rejected before any input is read: the inputs do not exist
        missing = str(tmp_path / "missing.pgm")
        out = tmp_path / "run"
        rc = main(["denoise", "--clean", missing, "--guide", missing,
                   "--mask", str(tmp_path / "missing.pbm"),
                   "--filter", "poly", "--k", k, "--out", str(out)])
        assert rc == 2
        assert not out.exists()
        rc = main(["spectral-response", "--guide", missing, "--input", missing,
                   "--filter", "cg0", "--k", k, "--out", str(out / "r.csv")])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("denoise", "--patch", "4"), ("denoise", "--sigma", "-1"),
        ("denoise", "--sigma", "nan"), ("denoise", "--seed", "-1"),
        ("warp", "--scale", "-1"), ("warp", "--scale", "nan"),
        ("warp", "--scale", "inf"), ("spectral-response", "--x0", "-1"),
        ("spectral-response", "--y0", "-1"), ("denoise", "--rho", "inf"),
        ("spectral-response", "--rho", "inf"), ("denoise", "--rho", "1e4"),
        ("spectral-response", "--rho", "1e4"), ("denoise", "--threads", "0"),
        ("denoise", "--threads", "-3")])
    def test_bad_flag_is_usage_error_before_any_input(self, tmp_path, capsys,
                                                      command, flag, value):
        # gbjbf: --rho 1e4 needs a series degree above MAX_K
        missing = str(tmp_path / "missing.pgm")
        out = tmp_path / "run"
        if command == "denoise":
            argv = ["denoise", "--clean", missing, "--guide", missing,
                    "--mask", str(tmp_path / "missing.pbm"), "--filter", "gbjbf"]
        elif command == "warp":
            argv = ["warp", "--source", missing, "--depth", missing, "--scale", "1"]
        else:
            argv = ["spectral-response", "--guide", missing, "--input", missing,
                    "--mask", str(tmp_path / "missing.pbm"), "--filter", "gbjbf"]
        assert main([*argv, flag, value, "--out", str(out)]) == 2
        assert flag.lstrip("-") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("header", [b"P4\n0 5\n", b"P4\n64 0\n"])
    def test_empty_mask_is_format_error(self, tmp_path, header):
        scene_dir = self._synth(tmp_path, size=64)
        warp_dir = self._warp(tmp_path, scene_dir)
        (warp_dir / "mask.pbm").write_bytes(header)
        out = tmp_path / "run"
        rc = main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                   "--guide", str(warp_dir / "guide.pgm"),
                   "--mask", str(warp_dir / "mask.pbm"),
                   "--filter", "cheb", "--out", str(out)])
        assert rc == 3
        assert not out.exists() or not any(out.iterdir())

    def test_pgm_sample_above_maxval_is_format_error(self, tmp_path, rng):
        image, mask = tmp_path / "image.pgm", tmp_path / "mask.pbm"
        write_pgm(image, rng.integers(0, 256, (16, 16)))
        write_pbm(mask, np.zeros((16, 16), bool))
        guide, depth = tmp_path / "guide.pgm", tmp_path / "depth.pgm"
        guide.write_bytes(b"P5\n16 16\n100\n" + bytes([200]) * 256)
        depth.write_bytes(b"P5\n16 16\n1000\n" + b"\xff\xff" * 256)
        out = tmp_path / "run"
        assert main(["denoise", "--clean", str(image), "--guide", str(guide),
                     "--mask", str(mask), "--filter", "cheb", "--out", str(out)]) == 3
        assert not out.exists() or not any(out.iterdir())
        assert main(["warp", "--source", str(image), "--depth", str(depth),
                     "--scale", str(DEPTH_SCALE), "--out", str(out)]) == 3
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("header", [b"P5\n1_6 16\n255\n", b"P5\n+16 +16\n255\n"])
    def test_header_token_not_ascii_digits_exits_3(self, tmp_path, rng, capsys, header):
        image, mask = tmp_path / "image.pgm", tmp_path / "mask.pbm"
        write_pgm(image, rng.integers(0, 256, (16, 16)))
        write_pbm(mask, np.zeros((16, 16), bool))
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(header + bytes(256))
        depth = tmp_path / "depth.pgm"
        depth.write_bytes(header.replace(b"255", b"1000") + bytes(512))
        out = tmp_path / "run"
        assert main(["denoise", "--clean", str(image), "--guide", str(bad),
                     "--mask", str(mask), "--filter", "cheb", "--out", str(out)]) == 3
        assert main(["warp", "--source", str(image), "--depth", str(depth),
                     "--scale", str(DEPTH_SCALE), "--out", str(out)]) == 3
        assert not out.exists()
        capsys.readouterr()
        assert main(["psnr", str(bad), str(bad)]) == 3
        assert capsys.readouterr().out == ""

    def test_denoise_precomputed_noisy_input(self, tmp_path):
        scene_dir = self._synth(tmp_path)
        warp_dir = self._warp(tmp_path, scene_dir)
        first = tmp_path / "gen"
        assert main(["denoise", "--clean", str(scene_dir / "right.pgm"),
                     "--sigma", "10", "--seed", "3",
                     "--guide", str(warp_dir / "guide.pgm"),
                     "--mask", str(warp_dir / "mask.pbm"),
                     "--filter", "jbf", "--patch", "32",
                     "--out", str(first)]) == 0
        outs = []
        for name in ("pre1", "pre2"):
            out = tmp_path / name
            assert main(["denoise", "--noisy", str(first / "noisy.pgm"),
                         "--guide", str(warp_dir / "guide.pgm"),
                         "--mask", str(warp_dir / "mask.pbm"),
                         "--filter", "jbf", "--patch", "32",
                         "--out", str(out)]) == 0
            outs.append(out)
        assert (outs[0] / "denoised.pgm").read_bytes() == \
            (outs[1] / "denoised.pgm").read_bytes()
        # no PSNR rows and no regenerated noisy image without a clean reference
        report = (outs[0] / "report.csv").read_text()
        assert "psnr" not in report
        assert not (outs[0] / "noisy.pgm").exists()

    def test_warp_direction_flag(self, tmp_path):
        scene_dir = self._synth(tmp_path)
        out = tmp_path / "wrl"
        assert main(["warp", "--source", str(scene_dir / "left.pgm"),
                     "--depth", str(scene_dir / "depth.pgm"),
                     "--scale", str(DEPTH_SCALE),
                     "--direction", "right-to-left",
                     "--out", str(out)]) == 0
        # opposite direction marks holes on the opposite border
        mask = load_mask(out / "mask.pbm").to_array()
        assert mask[:, 0].all()
        assert not mask[:, -1].any()

    def test_spectral_response_without_mask(self, tmp_path):
        scene_dir = self._synth(tmp_path)
        out_csv = tmp_path / "nomask.csv"
        rc = main(["spectral-response", "--guide", str(scene_dir / "right.pgm"),
                   "--input", str(scene_dir / "right.pgm"),
                   "--filter", "cg0", "--k", "2", "--size", "12",
                   "--out", str(out_csv)])
        assert rc == 0
        assert len(out_csv.read_text().splitlines()) == 1 + 144

    @pytest.mark.parametrize("odd_one", ["mask", "input"])
    def test_spectral_response_rejects_inputs_of_different_sizes(self, tmp_path, capsys,
                                                                 odd_one):
        small = self._synth(tmp_path / "small", size=64)
        large = self._synth(tmp_path / "large", size=96)
        out_csv = tmp_path / "resp.csv"
        argv = ["spectral-response", "--guide", str(small / "right.pgm"),
                "--input", str((large if odd_one == "input" else small) / "right.pgm"),
                "--filter", "jbf", "--size", "16", "--out", str(out_csv)]
        if odd_one == "mask":
            argv += ["--mask", str(self._warp(tmp_path / "large", large) / "mask.pbm")]
        assert main(argv) == 2
        assert f"guide/{odd_one}: 64x64 vs 96x96" in capsys.readouterr().err
        assert not out_csv.exists()

    def test_spectral_response_size_cap(self, tmp_path):
        scene_dir = self._synth(tmp_path)
        warp_dir = self._warp(tmp_path, scene_dir)
        rc = main(["spectral-response", "--guide", str(warp_dir / "guide.pgm"),
                   "--input", str(scene_dir / "right.pgm"),
                   "--filter", "jbf", "--size", "33",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert not (tmp_path / "x.csv").exists()

    def test_missing_file_is_io_error(self, tmp_path):
        rc = main(["psnr", str(tmp_path / "nope.pgm"), str(tmp_path / "nope.pgm")])
        assert rc == 3

    def test_unknown_flag_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path), "--bogus", "1"])
        assert exc.value.code == 2

    def test_the_parser_is_built_once_and_a_usage_error_leaves_no_state(self, tmp_path):
        from graphdenoise import cli

        scene_dir = self._synth(tmp_path)
        left, right = str(scene_dir / "left.pgm"), str(scene_dir / "right.pgm")
        conflict = ["denoise", "--noisy", left, "--clean", right, "--guide", left,
                    "--mask", "m.pbm", "--filter", "jbf", "--out", str(tmp_path / "o")]
        calls = [conflict, ["psnr", left, right], ["synth", "--bogus"],
                 ["psnr", right, right]]

        def run(argv, fresh):
            if fresh:
                cli._parser.cache_clear()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as e:     # argparse's usage errors
                    rc = e.code
            return rc, out.getvalue(), err.getvalue()

        cli._parser.cache_clear()
        in_a_row = [run(argv, fresh=False) for argv in calls]
        assert cli._parser.cache_info().misses == 1
        assert [rc for rc, _, _ in in_a_row] == [2, 0, 2, 0]
        assert in_a_row == [run(argv, fresh=True) for argv in calls]

    def test_mismatched_inputs_leave_no_partial_outputs(self, tmp_path):
        scene_dir = self._synth(tmp_path, size=96)
        other = synth_scene(size=64, seed=9)
        from graphdenoise.image import save_image

        small = tmp_path / "small.pgm"
        save_image(small, other.right)
        warp_dir = self._warp(tmp_path, scene_dir)
        out = tmp_path / "broken"
        rc = main(["denoise", "--clean", str(small),
                   "--guide", str(warp_dir / "guide.pgm"),
                   "--mask", str(warp_dir / "mask.pbm"),
                   "--filter", "jbf", "--out", str(out)])
        assert rc == 2
        assert not out.exists() or not any(out.iterdir())


# Extreme and invalid flag values: small, boundary and huge ints, and floats
# with 0, negatives, +-inf, nan, 1e-154 (whose square underflows) and 1e308
INTS = st.one_of(st.integers(-3, 70), st.sampled_from(
    [8, 16, 32, 33, 64, 65, 96, 97, 256, 257, 4096, 4097, 2**31, 2**63, 10**30,
     -2**63]))
FLOATS = st.one_of(st.sampled_from(
    [0.0, -0.0, -1.0, 0.5, 2.0, 10.0, math.inf, -math.inf, math.nan, 1e-154,
     -1e-154, 1e308, -1e308, 5e-324, DEPTH_SCALE]), st.floats(0.01, 100.0), st.floats())
# a valid synth --size above 96 would build a large scene
SIZES = INTS.filter(lambda s: not 96 < s <= MAX_SIZE)
PATCHES = st.one_of(st.integers(0, 80), st.sampled_from([4096, 10**6, 2**62, 10**30]))
BROKEN = ("truncated", "maxval0", "pgm16", "small_mask", "empty", "missing")


def _flag(name, values):
    """--name=value, so that negative and non-finite values reach the parser."""
    return values.map(lambda v: [f"--{name}={v!r}"])


def _optional(name, values):
    return st.one_of(st.just([]), _flag(name, values))


def _inputs(*roles):
    """Each (flag, file) role as {file}, at most one file swapped for a
    broken one; an empty flag is a positional argument."""
    def argv(broken):
        names = [name for _, name in roles]
        if broken is not None:
            names[broken[0] % len(names)] = broken[1]
        return [a for (flag, _), name in zip(roles, names)
                for a in (flag, f"{{{name}}}") if a]

    return st.one_of(st.none(), st.tuples(st.integers(0, 2), st.sampled_from(BROKEN))
                     ).map(argv)


def _argv():
    def join(*parts):
        return st.tuples(*parts).map(lambda ps: sum(ps, []))

    filter_flags = join(st.sampled_from([["--filter", k.value] for k in FilterKind]),
                        _optional("k", INTS), _optional("l", FLOATS),
                        _optional("rho", FLOATS), _optional("sigma-r", FLOATS))
    return st.one_of(
        join(st.just(["synth"]), _optional("size", SIZES), _optional("seed", INTS)),
        join(st.just(["warp"]), _inputs(("--source", "left"), ("--depth", "depth")),
             _flag("scale", FLOATS),
             st.sampled_from([[], ["--direction", "right-to-left"]])),
        join(st.just(["denoise"]),
             st.sampled_from(["--clean", "--noisy"]).flatmap(lambda src: _inputs(
                 (src, "right"), ("--guide", "guide"), ("--mask", "mask"))),
             filter_flags, _optional("patch", PATCHES), _optional("sigma", FLOATS),
             _optional("seed", INTS), _optional("threads", INTS),
             st.sampled_from([[], ["--check-oracle"]])),
        join(st.just(["psnr"]), _inputs(("", "right"), ("", "left"))),
        join(st.just(["spectral-response"]),
             _inputs(("--guide", "guide"), ("--input", "right"), ("--mask", "mask")),
             filter_flags, _optional("x0", INTS), _optional("y0", INTS),
             _optional("size", INTS)))


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A 64x64 scene and its warp, written once, plus broken files."""
    root = tmp_path_factory.mktemp("fuzz")
    scene_dir, warp_dir = root / "scene", root / "warp"
    assert main(["synth", "--out", str(scene_dir), "--size", "64"]) == 0
    assert main(["warp", "--source", str(scene_dir / "left.pgm"),
                 "--depth", str(scene_dir / "depth.pgm"), "--scale", str(DEPTH_SCALE),
                 "--out", str(warp_dir)]) == 0
    files = {"left": scene_dir / "left.pgm", "right": scene_dir / "right.pgm",
             "depth": scene_dir / "depth.pgm", "guide": warp_dir / "guide.pgm",
             "mask": warp_dir / "mask.pbm"}
    files.update({name: root / name for name in BROKEN})
    right = files["right"].read_bytes()
    files["truncated"].write_bytes(right[: len(right) // 2])
    files["maxval0"].write_bytes(b"P5\n64 64\n0\n" + bytes(64 * 64))
    write_pgm(files["pgm16"], np.full((64, 64), 300), maxval=65535)
    write_pbm(files["small_mask"], np.zeros((32, 32), bool))
    files["empty"].write_bytes(b"")
    return root, {name: str(path) for name, path in files.items()}


SCENE_INPUTS = ["--clean", "{right}", "--guide", "{guide}", "--mask", "{mask}"]


class TestCliFuzz:
    @settings(max_examples=300)
    @given(argv=_argv())
    @example(argv=["denoise", *SCENE_INPUTS, "--filter", "poly", "--rho=inf"])
    @example(argv=["denoise", *SCENE_INPUTS, "--filter", "gbjbf", "--rho=inf"])
    @example(argv=["denoise", *SCENE_INPUTS, "--filter", "cheb", "--sigma=1e308"])
    @example(argv=["denoise", *SCENE_INPUTS, "--filter", "cheb", "--sigma-r=1e-154"])
    @example(argv=["spectral-response", "--guide", "{guide}", "--input", "{right}",
                   "--filter", "cheb", "--sigma-r=1e-154"])
    @example(argv=["denoise", *SCENE_INPUTS, "--filter", "gbjbf", "--patch=1000000"])
    # the dense references and spectral-response's unwrapped fast paths
    # at a rho whose rho * lambda^2 overflows
    @example(argv=["denoise", *SCENE_INPUTS, "--filter", "poly", "--rho=1e308",
                   "--patch=8", "--check-oracle"])
    @example(argv=["spectral-response", "--guide", "{guide}", "--input", "{right}",
                   "--filter", "poly", "--rho=1e308"])
    @example(argv=["spectral-response", "--guide", "{guide}", "--input", "{right}",
                   "--filter", "gbjbf", "--rho=1e308"])
    def test_exit_code_contract(self, fuzz_files, argv):
        root, files = fuzz_files
        out = Path(tempfile.mkdtemp(dir=root)) / "out"
        argv = [a.format(**files) for a in argv]
        if argv[0] != "psnr":
            argv += ["--out", str(out)]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            try:
                rc = main(argv)
            except SystemExit as e:     # argparse's usage errors
                rc = e.code
        err = err.getvalue()
        assert rc in (0, 2, 3, 4), (argv, rc, err)
        assert "Traceback" not in err and "Warning" not in err, (argv, err)
        if rc != 0:
            assert not out.exists() or (out.is_dir() and not any(out.iterdir())) \
                or (out.is_file() and out.stat().st_size == 0), argv
