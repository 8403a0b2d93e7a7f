"""Each command loads only the scipy it runs.

``synth``, ``warp`` and ``psnr`` need no scipy at all, ``denoise`` needs
``scipy.sparse`` for operator assembly, and ``scipy.linalg`` is the dense
oracle's alone.  Every check runs in a fresh interpreter, since a module
any earlier test imported stays in ``sys.modules``.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = dict(os.environ, PYTHONPATH=SRC)


def _scipy_modules(args, cwd) -> set[str]:
    """The scipy modules a fresh ``python -X importtime <args>`` imports."""
    r = subprocess.run([sys.executable, "-X", "importtime", *args], env=ENV, cwd=cwd,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr[-2000:]
    names = {line.rsplit("|", 1)[-1].strip() for line in r.stderr.splitlines()
             if line.startswith("import time:")}
    return {n for n in names if n == "scipy" or n.startswith("scipy.")}


def test_importing_the_package_and_cli_loads_no_scipy(tmp_path):
    code = ("import sys, graphdenoise, graphdenoise.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    r = subprocess.run([sys.executable, "-c", code], env=ENV, cwd=tmp_path,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """The README chain's scipy imports, command by command."""
    d = tmp_path_factory.mktemp("chain")
    steps = {
        "synth": ["synth", "--out", "scene", "--size", "64"],
        "warp": ["warp", "--source", "scene/left.pgm", "--depth", "scene/depth.pgm",
                 "--scale", "0.015625", "--out", "warped"],
        "denoise": ["denoise", "--clean", "scene/right.pgm", "--guide", "warped/guide.pgm",
                    "--mask", "warped/mask.pbm", "--filter", "cheb", "--out", "run"],
        "psnr": ["psnr", "run/denoised.pgm", "scene/right.pgm"],
    }
    return {name: _scipy_modules(["-m", "graphdenoise", *argv], d)
            for name, argv in steps.items()}


@pytest.mark.parametrize("command", ["synth", "warp", "psnr"])
def test_commands_without_a_graph_load_no_scipy(chain, command):
    assert chain[command] == set()


def test_denoise_loads_scipy_sparse_but_not_scipy_linalg(chain):
    assert "scipy.sparse" in chain["denoise"]
    assert "scipy.linalg" not in chain["denoise"]
