"""The experiment scripts run from any working directory."""
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from graphdenoise import FilterKind

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    # no PYTHONPATH: each script must find the package from its own location
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


def test_run_experiment_labels_rows_with_k(tmp_path):
    r = run_script("run_experiment.py", "--size", "64", "--k", "2", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    rows = [line.split()[0] for line in r.stdout.splitlines()
            if line.split()[1:2] == ["PSNR"]]
    assert rows == ["JBF", "GBJBF", "2-POLY", "2-CHEB", "2-CG", "2-CG0"]


def test_export_responses_writes_every_kind(tmp_path):
    r = run_script("export_responses.py", "--out", "tmp", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert sorted(p.name for p in (tmp_path / "tmp").iterdir()) == \
        sorted(f"{kind.value}_k3.csv" for kind in FilterKind)


def test_fingerprint_prints_one_hash_per_output(tmp_path, monkeypatch, capsys):
    assert run_script("fingerprint.py", "--help", cwd=tmp_path).returncode == 0
    root = SCRIPTS.parent
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    monkeypatch.syspath_prepend(str(root / "src"))
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPTS / "fingerprint.py")
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)

    fingerprint.section_workloads()
    fingerprint.section_ragged()
    fingerprint.section_scene()
    fingerprint.section_warp()
    fingerprint.section_fill()
    # every CLI step and the export_responses.py subprocess, for one filter
    monkeypatch.setattr(fingerprint, "KINDS", ("cg0",))
    fingerprint.section_cli(str(root))

    lines = dict(line.split(" ") for line in capsys.readouterr().out.splitlines())
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in lines.values())
    names = list(lines)
    # workloads: 3 workloads x 2 seeds x 6 filters x (float64, 8-bit, fresh,
    #            renoise);
    # ragged: 4 tilings x 2 sigma_r x (6 filters x (float64, 8-bit)
    #         + the operator + 6 apply_filter + 6 fast paths + 2 CGInfo);
    # scene: 4 (size, seed) pairs x (left, left.u8, right, right.u8, depth);
    # warp: (2 ramp seeds x 2 directions + 3 depths of the 256x256 scene
    #       x 2 directions) x (guide, mask, phase counts), each guide
    #       followed by its 8-bit line
    assert sum(n.startswith("workloads/") for n in names) == 3 * 2 * 6 * 4
    assert {n.split("/")[1] for n in names if n.startswith("workloads/")} == \
        {"cli_chain", "filter_sweep", "ramp_disparity"}
    assert sum(n.startswith("ragged/") for n in names) == 4 * 2 * 27
    # each float64 denoise output is followed by its 8-bit line
    denoised = [n for n in names if n.startswith(("workloads/", "ragged/"))
                and n.rsplit("/", 1)[1] in {kind.value for kind in FilterKind}]
    assert len(denoised) == 3 * 2 * 6 + 4 * 2 * 6
    assert all(names[names.index(n) + 1] == f"{n}.u8" for n in denoised)
    # ... as is each scene view and each warped guide (below)
    assert sum(n.endswith(".u8") for n in names) == len(denoised) + 4 * 2 + 2 * 2 + 3 * 2
    # then, in workloads, the same filter on fresh copies of the inputs
    fresh = [n for n in denoised if n.startswith("workloads/")]
    assert all(names[names.index(n) + 2] == f"{n}.fresh" for n in fresh)
    assert all(lines[f"{n}.fresh"] == lines[n] for n in fresh)
    assert sum(n.endswith(".fresh") for n in names) == len(fresh)
    # and the same filter on a second noisy view of the same guide and mask
    assert all(names[names.index(n) + 3] == f"{n}.renoise" for n in fresh)
    assert all(lines[f"{n}.renoise"] != lines[n] for n in fresh)
    assert sum(n.endswith(".renoise") for n in names) == len(fresh)
    assert sum(n.endswith("/operator") for n in names) == 4 * 2
    assert sum(n.endswith(".apply_filter") for n in names) == 4 * 2 * 6
    assert sum(n.endswith(".fast") for n in names) == 4 * 2 * 6
    assert [n for n in names if n.startswith("scene/")] == [
        f"scene/{case}/{out}"
        for case in ("64s2014", "100s3", "257s11", "1000s2014")
        for out in ("left", "left.u8", "right", "right.u8", "depth")]
    assert [n for n in names if n.startswith("warp/")] == [
        *(f"warp/ramp/{seed}/{case}/{out}" for seed in ("seed101", "seed102")
          for case in ("left_to_right", "right_to_left")
          for out in ("guide", "guide.u8", "mask", "phase_counts")),
        *(f"warp/{depth}256/{case}/{out}" for depth in ("scene", "noise", "monotone")
          for case in ("left_to_right", "right_to_left")
          for out in ("guide", "guide.u8", "mask", "phase_counts"))]
    # fill: 3 image sizes x (without, with NaN samples) x 3 hole densities
    assert [n for n in names if n.startswith("fill/")] == [
        f"fill/{size}/{values}/d{density}" for size in ("37x23", "1x19", "19x1")
        for values in ("signed0", "nan") for density in ("0.1", "0.5", "0.9")]
    exits = [n for n in names if n.startswith("cli/exit/")]
    assert exits == ["cli/exit/synth", "cli/exit/warp", "cli/exit/denoise/cg0-p32",
                     "cli/exit/denoise/cg0-p64", "cli/exit/spectral/cg0",
                     "cli/exit/export_responses"]
    assert {lines[n] for n in exits} == {hashlib.sha256(b"0").hexdigest()}
    report = ("denoised.pgm", "noisy.pgm", "report.csv", "report.txt")
    assert [n for n in names if n.startswith("cli/") and n not in exits] == [
        *(f"cli/scene/{f}" for f in ("depth.pgm", "left.pgm", "right.pgm", "scene.meta")),
        "cli/warped/guide.pgm", "cli/warped/mask.pbm",
        *(f"cli/denoise/cg0-p32/{f}" for f in report),
        *(f"cli/denoise/cg0-p64/{f}" for f in report),
        "cli/spectral/cg0.csv",
        *sorted(f"cli/responses/{kind.value}_k3.csv" for kind in FilterKind)]
