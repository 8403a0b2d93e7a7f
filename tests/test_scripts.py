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
    # every CLI step and the export_responses.py subprocess, for one filter
    monkeypatch.setattr(fingerprint, "KINDS", ("cg0",))
    fingerprint.section_cli(str(root))

    lines = dict(line.split(" ") for line in capsys.readouterr().out.splitlines())
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in lines.values())
    names = list(lines)
    # workloads: 3 workloads x 2 seeds x 6 filters;
    # ragged: 4 tilings x 2 sigma_r x (6 filters + 2 CGInfo)
    assert sum(n.startswith("workloads/") for n in names) == 3 * 2 * 6
    assert {n.split("/")[1] for n in names if n.startswith("workloads/")} == \
        {"cli_chain", "filter_sweep", "ramp_disparity"}
    assert sum(n.startswith("ragged/") for n in names) == 4 * 2 * 8
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
