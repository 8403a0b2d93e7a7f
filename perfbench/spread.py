"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 101-110 [--workloads a,b] [--seconds 30]
        [--trace-seed 101] [--out perfbench/baseline.json] [--compare FILE]

Runs ``run.py`` once per (workload, seed), one run at a time, and prints for
every end-to-end metric the median of the runs and their spread: the
interquartile range (``statistics.quantiles(values, n=4)``) as a share of
the median.  ``--trace-seed`` adds one traced run per workload for the
per-layer figures.  ``--out`` writes everything as JSON (the format of
``baseline.json``); ``--compare`` prints each median's change against such
a file, the check that two sets of runs of the same code agree.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if p.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    detail, result = (json.loads(line) for line in p.stdout.splitlines()[-2:])
    return result, detail


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / abs(med)}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    other = None
    if args.compare:
        with open(args.compare) as fh:
            other = json.load(fh)["end_to_end"]

    out = {"end_to_end": {}, "per_layer": {}, "provenance": None}
    for wl in args.workloads.split(","):
        values: dict[str, list[float]] = {k: [] for k in bounds}
        frames, tails, cg, failed, attempted = [], [], [], 0, 0
        for seed in args.seeds:
            result, detail = run_once(wl, seed, args.seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{wl} seed {seed}: incorrect: {detail['problems']}")
            for k in values:
                values[k].append(result["metrics"][k]["value"])
            frames.append(detail["frames"])
            tails.append(detail["frame_s_tail_percentile"])
            cg.append(detail["psnr_cg_db"])
            failed += result["failed"]
            attempted += result["attempted"]
            out["provenance"] = {k: v for k, v in detail["provenance"].items()
                                 if k not in ("workload", "seed", "trace", "width",
                                              "height", "filters", "seconds")}
            print(f"{wl} seed {seed}: " + " ".join(
                f"{k}={values[k][-1]:.4g}" for k in values), file=sys.stderr)
        row = {k: quartiles(v) for k, v in values.items()}
        row.update(runs=len(args.seeds), seeds=args.seeds, seconds=args.seconds,
                   frames_median=statistics.median(frames),
                   tail_percentile_median=statistics.median(tails),
                   psnr_cg_db_median=statistics.median(cg),
                   failed=failed, attempted=attempted)
        out["end_to_end"][wl] = row
        print(f"\n{wl}: {len(args.seeds)} runs, {statistics.median(frames)} frames each")
        for k, q in ((k, row[k]) for k in values):
            line = (f"  {k:16s} median {q['median']:<10.5g} spread {q['spread']:6.1%}"
                    f"  (bound {bounds[k]:.3f}, third {bounds[k] / 3:.3f})")
            if other and wl in other:
                was = other[wl][k]["median"]
                line += f"  change {(q['median'] - was) / abs(was):+.1%}"
            print(line)
        if args.trace_seed is not None:
            result, detail = run_once(wl, args.trace_seed, args.seconds, 1)
            out["per_layer"][wl] = {
                "seed": args.trace_seed, "traced_frames": detail["traced_frames"],
                "shares": detail["shares"], "missing_targets": detail["missing_targets"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
