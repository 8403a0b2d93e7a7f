"""The program names the benchmark in ``perfbench/`` calls or wraps.

The benchmark's tracer wraps functions by module and name from outside and
reads attributes off their arguments and results.  A renamed target is
skipped and its per-layer metric silently reads 0; these tests fail
instead.
"""
import importlib
import sys

import numpy as np
import pytest

from graphdenoise import (FilterKind, FilterSpec, HoleMask, ImageGray,
                          WarpParams, WeightParams, build_graph, gbjbf_degree,
                          pipeline, synth_scene, warp_guide)
from graphdenoise.graph import NormalizedLaplacian

WRAPPED = [
    ("cli", "main"), ("image", "read_pgm"), ("image", "read_pbm"),
    ("image", "atomic_write_bytes"), ("scene", "synth_scene"),
    ("dibr", "warp_guide"), ("dibr", "interp_subpel"), ("dibr", "median_fill"),
    ("pipeline", "denoise"), ("pipeline", "add_gaussian_noise"),
    ("pipeline", "psnr"), ("graph", "build_graph"),
    ("graph", "normalized_laplacian"), ("filters", "apply_filter"),
    ("oracle", "dense_eig"),
]


@pytest.mark.parametrize("module,name", WRAPPED)
def test_wrapped_function_exists(module, name):
    assert callable(vars(importlib.import_module(f"graphdenoise.{module}")).get(name))


def test_laplacian_apply_is_defined_on_the_operator_class():
    assert callable(vars(NormalizedLaplacian).get("apply"))


def _spy(monkeypatch, module, name, record):
    """Wrap module.name in every package module that holds it, the way the
    tracer does, recording (args, kwargs, result) of each call."""
    orig = getattr(importlib.import_module(f"graphdenoise.{module}"), name)

    def wrapper(*args, **kwargs):
        result = orig(*args, **kwargs)
        record.append((args, kwargs, result))
        return result

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "graphdenoise" or mod_name.startswith("graphdenoise."):
            for k, v in list(vars(mod).items()):
                if v is orig:
                    monkeypatch.setattr(mod, k, wrapper)


def test_denoise_calls_read_as_the_tracer_reads_them(monkeypatch):
    sc = synth_scene(size=64, seed=3)
    wr = warp_guide(sc.left, sc.depth, WarpParams())
    assert wr.phase_counts.shape == (4,) and wr.mask.flags.sum() > 0
    calls = {name: [] for name in ("apply_filter", "median_fill")}
    _spy(monkeypatch, "filters", "apply_filter", calls["apply_filter"])
    _spy(monkeypatch, "dibr", "median_fill", calls["median_fill"])
    applies = []
    real_apply = NormalizedLaplacian.apply

    def apply(self, x):
        applies.append(int(self.matrix.nnz))
        return real_apply(self, x)

    monkeypatch.setattr(NormalizedLaplacian, "apply", apply)
    out, report = pipeline.denoise(sc.right, wr.guide, wr.mask,
                                   FilterSpec(FilterKind.GBJBF), WeightParams(sigma_r=10.0),
                                   patch_size=32, workers=1)
    assert report.n_patches == 4
    (args, _, _), = calls["apply_filter"]
    assert args[0].kind.value == "gbjbf"
    (args, _, _), = calls["median_fill"]
    assert int(args[1].flags.sum()) == int(wr.mask.flags.sum())
    assert all(nnz > 0 for nnz in applies)
    # filters.gbjbf.applies_per_patch: the series degree at rho 2
    assert len(applies) == gbjbf_degree(2.0) == 34


@pytest.mark.parametrize("direction", ["left_to_right", "right_to_left"])
def test_warp_calls_interp_subpel_once_per_phase(monkeypatch, direction):
    # the tracer reads dibr.interp_subpel.calls as four per warp
    sc = synth_scene(size=64, seed=3)
    calls = []
    _spy(monkeypatch, "dibr", "interp_subpel", calls)
    wr = warp_guide(sc.left, sc.depth, WarpParams(direction=direction))
    assert [args[1] for args, _, _ in calls] == [0.0, 0.25, 0.5, 0.75]
    assert wr.mask.flags.sum() > 0


def test_build_graph_result_carries_edges_and_degrees():
    img = ImageGray.from_array(np.arange(12.0).reshape(3, 4))
    g = build_graph(img, HoleMask.all_false(4, 3), WeightParams())
    assert g.n_edges == 17 and int((g.degrees == 0).sum()) == 0
