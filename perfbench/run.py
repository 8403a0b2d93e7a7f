"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it).  One process, one
worker, BLAS/OpenMP pools capped at one thread.  The run sets up the
workload several times (``setup_s`` is the median), then times frames for
``--seconds`` with a correctness gate after every frame, then -- outside the
timing -- computes every filter's PSNR and spot-checks a few 32x32 windows
of every filter against the dense oracle.

Times are normalized to a nominal host speed (see ``calib.py``): a timer
signal samples the host's speed with a fixed probe while the run goes on,
and each frame, set-up and the imports are scaled by the probe's nominal
over its median time during them.  This takes the shared host's changing
speed out of the figures.  The wall-clock figures are in the detail line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` times the
first half of the frames untraced and the second half with the layer
tracer installed, and reports the per-layer metrics plus the tracing
overhead.  The last stdout line is the result object; the line before it
holds provenance and details, which are also written, with the spans of a
traced run, to ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()
import calib  # noqa: E402  (standard library only)

SPEEDO = calib.Speedometer()
if __name__ == "__main__":
    SPEEDO.start()
IMPORT_MARK = SPEEDO.mark()
BLAS_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _v in BLAS_CAPS:
    os.environ[_v] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_REPS = 3
TAIL_BEYOND = 10

# psnr_cg_db stays out: criterion 6 puts it near -75 dB (see README.md)
PSNR_KINDS = ("jbf", "gbjbf", "poly", "cheb", "cg0")
END_TO_END = {
    "frame_s_p50": "s", "frame_s_tail": "s", "mpix_per_s": "Mpx/s",
    "setup_s": "s", "peak_rss_mb": "MB",
    **{f"psnr_{k}_db": "dB" for k in PSNR_KINDS},
}


def tail(values, beyond: int = TAIL_BEYOND) -> tuple[int, float]:
    """(p, value): the highest whole percentile p that leaves at least
    ``beyond`` samples above it, by nearest rank.  With too few samples
    for any such percentile, (100, max)."""
    xs = sorted(values)
    n = len(xs)
    if n <= beyond:
        return 100, xs[-1]
    p = 100 * (n - beyond) // n
    rank = max(1, -(-p * n // 100))
    return p, xs[rank - 1]


def digest(v) -> str:
    """Hash of bytes, an image's samples or a mask's flags."""
    if not isinstance(v, bytes):
        v = (v.samples if hasattr(v, "samples") else v.flags).tobytes()
    return hashlib.sha256(v).hexdigest()


def gate(w, ref: dict | None) -> tuple[dict, list[str]]:
    """Check one frame's outputs: right shape, finite, and bit-identical to
    the run's first frame.  Returns (digests, problems)."""
    outs = w.outputs()
    problems = []
    for key, v in outs.items():
        if not isinstance(v, bytes):
            if (v.width, v.height) != (w.width, w.height):
                problems.append(f"{key}: shape {v.width}x{v.height}")
            if hasattr(v, "samples") and not np.all(np.isfinite(v.samples)):
                problems.append(f"{key}: non-finite samples")
    digests = {k: digest(v) for k, v in outs.items()}
    if ref is not None:
        problems += [f"{k}: differs from the first frame"
                     for k in digests if digests[k] != ref.get(k)]
    return digests, problems


class Frames:
    """Timed frames of one workload, each followed by the untimed gate.

    ``times`` holds every frame's wall time.  With a speedometer, ``run``
    returns the frames' normalized times, else their wall times.
    """

    def __init__(self, w, speedo=None):
        self.w = w
        self.speedo = speedo
        self.times: list[float] = []
        self.probes: list[float] = []   # each frame's median probe time
        self.failed = 0
        self.problems: list[str] = []
        self.ref: dict | None = None

    def run(self, seconds: float, tracer=None) -> list[float]:
        times = []
        deadline = time.perf_counter() + seconds
        while not times or time.perf_counter() < deadline:
            ctx = tracer.frame(len(self.times)) if tracer else contextlib.nullcontext()
            ok = True
            mark = self.speedo.mark() if self.speedo else None
            t0 = time.perf_counter()
            try:
                with ctx:
                    self.w.frame()
            except Exception:  # a failing frame is counted, not fatal
                ok = False
                self.problems.append(traceback.format_exc(limit=3))
            wall = time.perf_counter() - t0
            self.times.append(wall)
            if mark:
                times.append(self.speedo.normalize(wall, mark))
                self.probes.append(self.speedo.probe_s(mark))
            else:
                times.append(wall)
            if ok:
                digests, problems = gate(self.w, self.ref)
                if self.ref is None and not problems:
                    self.ref = digests
                ok = not problems
                self.problems += problems
            self.failed += not ok
        return times


def git_commit(root: str) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, src).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def provenance(w, args) -> dict:
    import workloads

    return {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "width": w.width, "height": w.height,
        "filters": list(w.kinds), "k": workloads.K, "patch": workloads.PATCH,
        "workers": 1,
        "cores": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_caps": {v: os.environ.get(v) for v in BLAS_CAPS},
        "git_commit": git_commit(ROOT), "src_sha256": src_sha256(SRC),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        return _main(args)
    finally:
        SPEEDO.stop()


def _main(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "graphdenoise", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracer as tracing
    import workloads
    import_wall = time.perf_counter() - T0
    import_s = SPEEDO.normalize(import_wall, IMPORT_MARK)

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        try:
            result, detail, spans = run(args, workdir, SPEEDO, import_wall, import_s)
        except workloads.WorkloadInvalid as e:
            print(f"error: invalid workload: {e}", file=sys.stderr)
            return 3
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    tracing.dump(os.path.join(OUT_DIR, name), spans, {"result": result, **detail})
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def run(args, workdir: str, speedo, import_wall: float, import_s: float):
    """Set up, time frames, check; returns (result, detail, spans).
    ``speedo`` is the started speedometer; ``import_s`` is the import time
    normalized, ``import_wall`` as measured."""
    import layers
    import tracer as tracing
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setups, setups_wall = [], []
    for _ in range(SETUP_REPS):
        mark = speedo.mark()
        t0 = time.perf_counter()
        w.setup()
        w.frame()  # warm-up
        setups_wall.append(time.perf_counter() - t0)
        setups.append(speedo.normalize(setups_wall[-1], mark))
    if hasattr(w, "validate"):
        w.validate()

    frames = Frames(w, speedo)
    tracer = None
    if args.trace:
        plain = frames.run(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install(layers.TARGETS)
        try:
            traced = frames.run(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
    else:
        plain = frames.run(args.seconds)
    speedo.stop()

    psnr = workloads.quality(w)
    checks, misses = workloads.oracle_spot_check(w, workdir, args.seed)
    attempted = len(frames.times) + checks
    failed = frames.failed + len(misses)
    p, tail_s = tail(plain)
    wall = frames.times[:len(plain)]
    detail = {
        "provenance": provenance(w, args),
        "frames": len(plain), "frame_s_tail_percentile": p,
        "frame_s_tail_beyond": sum(t > tail_s for t in plain),
        "setup_reps_s": setups, "import_s": import_s,
        "probe_nominal_s": calib.NOMINAL_S, "probes": len(speedo.samples),
        "probe_s_p50": statistics.median(speedo.samples) if speedo.samples else None,
        "wall": {
            "frame_s_p50": statistics.median(wall), "frame_s_tail": tail(wall)[1],
            "mpix_per_s": w.width * w.height * len(wall) / sum(wall) / 1e6,
            "setup_s": import_wall + statistics.median(setups_wall),
        },
        "failed_frames": frames.failed, "oracle_checks": checks,
        "oracle_misses": misses, "failed_frac": failed / attempted,
        "psnr_cg_db": psnr["cg"], "problems": frames.problems[:10],
        "frame_times_s": frames.times, "frame_probe_s": frames.probes,
    }
    if tracer is None:
        metrics = {
            "frame_s_p50": statistics.median(plain),
            "frame_s_tail": tail_s,
            "mpix_per_s": w.width * w.height * len(plain) / sum(plain) / 1e6,
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **{f"psnr_{k}_db": psnr[k] for k in PSNR_KINDS},
        }
        units = END_TO_END
        spans = []
    else:
        metrics = layers.per_layer(tracer.spans, len(traced))
        metrics["trace.frame_s_p50"] = statistics.median(traced)
        metrics["trace.overhead_s"] = metrics["trace.frame_s_p50"] - statistics.median(plain)
        # a workload must keep exercising the layer it exists for
        if w.name == "filter_sweep" and metrics["dibr.warp_guide.s"]:
            raise workloads.WorkloadInvalid("filter_sweep's timed frames ran the warp")
        if metrics["oracle.dense_eig.calls"]:
            raise workloads.WorkloadInvalid("timed frames ran the dense eigensolver")
        detail["traced_frames"] = len(traced)
        detail["missing_targets"] = tracer.missing
        traced_wall = frames.times[len(plain):]
        detail["shares"] = layers.shares(metrics, sum(traced_wall) / len(traced_wall))
        units = layers.PER_LAYER
        spans = tracer.spans
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result, detail, spans


if __name__ == "__main__":
    sys.exit(main())
