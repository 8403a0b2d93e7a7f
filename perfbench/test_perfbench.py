"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import calib  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from graphdenoise import dibr, graph, pipeline  # noqa: E402
from graphdenoise.image import HoleMask, ImageGray  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


# ---------------------------------------------------------------------------
# tail percentile

def test_tail_rule_examples():
    assert run.tail(range(1, 61)) == (83, 50)    # 10 frames above 50
    assert run.tail(range(1, 101)) == (90, 90)
    assert run.tail(range(1, 12)) == (9, 1)
    assert run.tail([3.0, 1.0, 2.0]) == (100, 3.0)   # too few frames


def test_tail_rule_is_highest_percentile_with_ten_beyond():
    for n in range(11, 400):
        xs = list(range(n))
        p, v = run.tail(xs)
        assert sum(x > v for x in xs) >= 10, n
        rank_next = -(-(p + 1) * n // 100)     # nearest rank of p + 1
        assert n - rank_next < 10, n


# ---------------------------------------------------------------------------
# speedometer

def test_normalize_uses_the_probes_taken_since_the_mark():
    sp = calib.Speedometer()
    sp.samples = [1.0, 1.0]          # before the mark: ignored
    sp.spent = 3.0
    mark = sp.mark()
    sp.samples += [2 * calib.NOMINAL_S] * 2 + [9 * calib.NOMINAL_S]
    sp.spent += 0.5                  # the probes' own time comes off
    assert sp.normalize(2.5, mark) == pytest.approx((2.5 - 0.5) / 2)


def test_speedometer_samples_on_a_timer_and_restores_the_handler():
    old = signal.getsignal(signal.SIGALRM)
    sp = calib.Speedometer()
    sp.start()
    try:
        end = time.perf_counter() + 10 * calib.INTERVAL_S
        while time.perf_counter() < end:
            sum(range(1000))
    finally:
        sp.stop()
    assert len(sp.samples) >= 3 and sp.spent >= sum(sp.samples)
    assert signal.getsignal(signal.SIGALRM) is old
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    mark = sp.mark()
    assert sp.normalize(1.0, mark) > 0       # no probe since: takes one
    assert len(sp.samples) == mark[0]


# ---------------------------------------------------------------------------
# self time

def _span(i, name, a, b, parent=None, **kw):
    s = tracer.Span(id=i, name=name, start=a, parent=parent, frame=0, end=b)
    for k, v in kw.items():
        setattr(s, k, v)
    return s


def test_self_time_of_nested_spans():
    # close order: children before parents
    spans = [
        _span(3, "g", 1.5, 2.5, parent=1,
              leaves={"graph.laplacian_apply": [4, 0.25, {}]}),
        _span(1, "a", 1.0, 3.0, parent=0, attrs={"kind": "cheb"}),
        _span(2, "b", 2.0, 4.0, parent=0),   # overlaps a: union [1, 4]
        _span(4, "c", 6.0, 7.0, parent=0),
        _span(0, "root", 0.0, 10.0, leaves={"dibr.interp_subpel": [3, 0.5, {}]}),
    ]
    st = tracer.self_times(spans)
    assert st == pytest.approx({0: 10 - 3 - 1 - 0.5, 1: 2 - 1, 2: 2, 3: 1 - 0.25, 4: 1})
    totals = tracer.aggregate(spans)
    assert totals["root.self_s"] == pytest.approx(5.5)
    assert totals["dibr.interp_subpel.calls"] == 3
    metrics = layers.per_layer(spans, 1)
    assert metrics["filters.cheb.applies_per_patch"] == 4   # the grandchild's leaves
    assert metrics["filters.cheb.s"] == pytest.approx(2.0)


def test_covered_clips_and_merges():
    assert tracer.covered([(-1, 2), (1, 3), (5, 20)], 0, 10) == pytest.approx(8)
    assert tracer.covered([], 0, 1) == 0


# ---------------------------------------------------------------------------
# generated inputs

def test_same_seed_same_inputs():
    a, b, c = (workloads.ramp_inputs(s, 64, 32) for s in (7, 7, 8))
    for x, y in zip(a[:2], b[:2]):
        assert np.array_equal(x.samples, y.samples)
    assert np.array_equal(a[2].values, b[2].values) and a[3] == b[3]
    assert not np.array_equal(a[2].values, c[2].values)
    assert workloads.derive_seeds(7, 2) == workloads.derive_seeds(7, 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ramp_covers_every_quarter_pel_phase(seed):
    w = workloads.RampDisparity(seed, "")
    w.setup()
    w.frame()
    w.validate()
    assert np.all(w.warp.phase_counts > 0)


def test_ramp_validation_rejects_a_missing_phase():
    w = workloads.RampDisparity(0, "")
    w.warp = types.SimpleNamespace(phase_counts=np.array([5, 0, 5, 5]))
    with pytest.raises(workloads.WorkloadInvalid):
        w.validate()


# ---------------------------------------------------------------------------
# tracer

def test_tracer_tolerates_missing_functions(monkeypatch):
    fake = types.ModuleType("graphdenoise.fake_layer")
    fake.f = lambda x: x + 1
    monkeypatch.setitem(sys.modules, fake.__name__, fake)
    t = tracer.Tracer()
    t.install([
        tracer.Target("graphdenoise.dibr", "renamed_away", "dibr.gone"),
        tracer.Target("graphdenoise.no_such_module", "f", "nope"),
        tracer.Target("graphdenoise.graph", "apply", "x", cls="NoSuchOperator"),
        # present, but its counter reads an attribute the result lacks
        tracer.Target(fake.__name__, "f", "fake.f",
                      counts=lambda a, k, r: {"fake.n": r.missing_attr}),
    ])
    try:
        with t.frame(0):
            assert fake.f(1) == 2
    finally:
        t.uninstall()
    assert t.missing == ["graphdenoise.dibr.renamed_away",
                         "graphdenoise.no_such_module.f",
                         "graphdenoise.graph.NoSuchOperator.apply"]
    totals = tracer.aggregate(t.spans)
    assert totals["fake.f.calls"] == 1 and "fake.n" not in totals
    metrics = layers.per_layer(t.spans, 1)
    assert set(metrics) == set(layers.PER_LAYER)
    assert all(v == 0 for v in metrics.values())


def test_tracer_wraps_imported_aliases_and_restores_them():
    orig_build = graph.build_graph
    orig_apply = graph.NormalizedLaplacian.apply
    rng = np.random.default_rng(0)
    img = ImageGray.from_array(rng.uniform(0, 255, (32, 48)))
    mask = HoleMask.from_array(np.zeros((32, 48), bool))
    t = tracer.Tracer()
    t.install(layers.TARGETS)
    try:
        assert pipeline.build_graph is graph.build_graph is not orig_build
        workloads.denoise(img, img, mask, "cheb")     # outside a frame: no spans
        assert t.spans == []
        with t.frame(0):
            workloads.denoise(img, img, mask, "gbjbf")
    finally:
        t.uninstall()
    assert graph.build_graph is orig_build and pipeline.build_graph is orig_build
    assert graph.NormalizedLaplacian.apply is orig_apply
    assert dibr.median_fill is pipeline.median_fill
    assert t.missing == []
    by_id = {s.id: s for s in t.spans}
    parents = {s.name: by_id[s.parent].name for s in t.spans if s.parent is not None}
    assert parents["pipeline.denoise"] == "frame"
    assert parents["graph.build_graph"] == "pipeline.denoise"
    assert parents["oracle.gbjbf_exact"] == "filters.apply_filter"
    m = layers.per_layer(t.spans, 1)
    assert m["pipeline.patches"] == 1 and m["graph.build_graph.calls"] == 1
    assert m["filters.gbjbf.applies_per_patch"] == m["graph.laplacian_apply.calls"] > 0


# ---------------------------------------------------------------------------
# correctness gate

class _Flaky:
    """Frame 2 changes its output, frame 3 goes non-finite, frame 4 raises."""
    width, height = 2, 1

    def __init__(self):
        self.n = 0

    def frame(self):
        self.n += 1
        if self.n == 4:
            raise ValueError("boom")

    def outputs(self):
        v = {1: 0.0, 2: 1.0, 3: np.nan}.get(self.n, 0.0)
        return {"img": ImageGray.from_array([[0.0, v]]), "blob": b"x"}


def test_gate_counts_changed_nonfinite_and_raising_frames():
    frames = run.Frames(_Flaky())
    for _ in range(5):
        frames.run(0)
    assert len(frames.times) == 5 and frames.failed == 3
    assert any("differs from the first frame" in p for p in frames.problems)
    assert any("non-finite" in p for p in frames.problems)
    assert any("boom" in p for p in frames.problems)


# ---------------------------------------------------------------------------
# whole runs

def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run(workload, trace):
    p = _run(["--workload", workload, "--seed", "3", "--seconds", "0.5",
              "--trace", str(trace)])
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in listed}
    detail = json.loads(p.stdout.splitlines()[-2])
    assert detail["oracle_misses"] == [] and detail["provenance"]["seed"] == 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(["--workload", "cli_chain", "--seed", "1", "--seconds", "1"], cwd=tmp_path)
    assert p.returncode != 0 and p.stdout == ""
