"""The experiment scripts run from any working directory."""
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
