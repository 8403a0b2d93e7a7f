import json

import numpy as np
import pytest

from graphdenoise import (FilterKind, WarpParams, pipeline, scene, synth_scene,
                          warp_guide)
from graphdenoise.cli import main
from graphdenoise.filters import FILTERS, FilterDef
from graphdenoise.image import load_image, load_mask, read_pgm, write_pgm
from graphdenoise.scene import DEPTH_SCALE, foreground_rect


class TestScene:
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


class TestPnmIo:
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
