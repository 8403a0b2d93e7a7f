"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the program's modules.  Each metric is a per-frame mean over the
traced frames, except ``filters.<kind>.applies_per_patch`` (Laplacian
applies per ``apply_filter`` call of that kind) and the two ``trace.*``
figures.  A metric whose function is gone or never called reads 0.
"""
from __future__ import annotations

import os

from tracer import Target, aggregate, inclusive_leaf_calls

KINDS = ("jbf", "gbjbf", "poly", "cheb", "cg", "cg0")
PHASES = range(4)

P = "graphdenoise."


def _warp_counts(args, kwargs, r):
    out = {f"dibr.phase{i}": int(r.phase_counts[i]) for i in PHASES}
    out["dibr.holes"] = int(r.mask.flags.sum())
    return out


TARGETS = (
    Target(P + "cli", "main", name=lambda a, k: "cli." + str(a[0][0])),
    Target(P + "image", "read_pgm", "image.read",
           counts=lambda a, k, r: {"image.bytes_read": os.path.getsize(a[0])}),
    Target(P + "image", "read_pbm", "image.read",
           counts=lambda a, k, r: {"image.bytes_read": os.path.getsize(a[0])}),
    Target(P + "image", "atomic_write_bytes", "image.write",
           counts=lambda a, k, r: {"image.bytes_written": len(a[1])}),
    Target(P + "scene", "synth_scene", "scene.synth_scene"),
    Target(P + "dibr", "warp_guide", "dibr.warp_guide", counts=_warp_counts),
    Target(P + "dibr", "interp_subpel", "dibr.interp_subpel", leaf=True),
    Target(P + "dibr", "median_fill", "dibr.median_fill",
           counts=lambda a, k, r: {"dibr.median_fill.holes": int(a[1].flags.sum())}),
    Target(P + "pipeline", "denoise", "pipeline.denoise",
           counts=lambda a, k, r: {"pipeline.patches": r[1].n_patches}),
    Target(P + "pipeline", "add_gaussian_noise", "pipeline.add_gaussian_noise"),
    Target(P + "pipeline", "psnr", "pipeline.psnr"),
    Target(P + "graph", "build_graph", "graph.build_graph",
           counts=lambda a, k, r: {"graph.edges": r.n_edges,
                                   "graph.isolated_nodes": int((r.degrees == 0).sum())}),
    Target(P + "graph", "normalized_laplacian", "graph.normalized_laplacian"),
    Target(P + "graph", "apply", "graph.laplacian_apply", cls="NormalizedLaplacian",
           leaf=True,
           counts=lambda a, k, r: {"graph.laplacian_apply.nnz": int(a[0].matrix.nnz)}),
    Target(P + "filters", "apply_filter", "filters.apply_filter",
           attrs=lambda a, k: {"kind": a[0].kind.value}),
    Target(P + "oracle", "gbjbf_exact", "oracle.gbjbf_exact"),
    Target(P + "oracle", "dense_eig", "oracle.dense_eig"),
)

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    **{f"cli.{c}.s": "s" for c in ("synth", "warp", "denoise", "psnr")},
    "image.read.s": "s", "image.write.s": "s",
    "image.bytes_read": "bytes", "image.bytes_written": "bytes",
    "scene.synth_scene.s": "s",
    "dibr.warp_guide.s": "s", "dibr.warp_guide.self_s": "s",
    "dibr.interp_subpel.calls": "count", "dibr.interp_subpel.s": "s",
    **{f"dibr.phase{i}": "count" for i in PHASES},
    "dibr.holes": "count",
    "dibr.median_fill.s": "s", "dibr.median_fill.holes": "count",
    "pipeline.denoise.s": "s", "pipeline.denoise.self_s": "s",
    "pipeline.patches": "count", "pipeline.add_gaussian_noise.s": "s",
    "pipeline.psnr.s": "s",
    "graph.build_graph.s": "s", "graph.build_graph.calls": "count",
    "graph.edges": "count", "graph.isolated_nodes": "count",
    "graph.normalized_laplacian.s": "s",
    "graph.laplacian_apply.calls": "count", "graph.laplacian_apply.s": "s",
    "graph.laplacian_apply.nnz": "count",
    "filters.apply_filter.s": "s", "filters.apply_filter.self_s": "s",
    **{f"filters.{k}.s": "s" for k in KINDS},
    **{f"filters.{k}.applies_per_patch": "count" for k in KINDS},
    "oracle.gbjbf_exact.s": "s", "oracle.gbjbf_exact.calls": "count",
    "oracle.dense_eig.calls": "count",
    "trace.frame_s_p50": "s", "trace.overhead_s": "s",
}


def per_layer(spans, frames: int) -> dict[str, float]:
    """Per-frame means of the span totals, plus per-filter-kind figures
    from the ``apply_filter`` spans, labelled by kind."""
    totals = aggregate(spans)
    incl = inclusive_leaf_calls(spans)
    calls = dict.fromkeys(KINDS, 0)
    applies = dict.fromkeys(KINDS, 0)
    for s in spans:
        kind = s.attrs.get("kind")
        if kind in calls:
            key = f"filters.{kind}.s"
            totals[key] = totals.get(key, 0) + s.end - s.start
            calls[kind] += 1
            applies[kind] += incl[s.id].get("graph.laplacian_apply", 0)
    out = {name: totals.get(name, 0) / frames for name in PER_LAYER}
    for k in KINDS:
        out[f"filters.{k}.applies_per_patch"] = applies[k] / calls[k] if calls[k] else 0
    return out


def shares(metrics: dict, frame_s: float) -> dict[str, float]:
    """Share of the traced frame spent in the layers the workloads separate."""
    def s(*names):
        return sum(metrics[n] for n in names) / frame_s

    return {
        "dibr.warp_guide": s("dibr.warp_guide.s"),
        "graph+filters+median_fill": s("graph.build_graph.s",
                                       "graph.normalized_laplacian.s",
                                       "filters.apply_filter.s",
                                       "dibr.median_fill.s"),
        "dibr.interp_subpel": s("dibr.interp_subpel.s"),
    }
