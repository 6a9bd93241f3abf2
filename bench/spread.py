"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 1-10                       # all workloads
    python3 bench/spread.py --workloads variational --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --write bench/baseline.json

Runs ``bench/run.py`` once per workload and seed, one after another, with
the ``run_seconds`` of ``BENCHMARK.json``.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile spread as a share of the median, next to the metric's bound;
a spread above a third of the bound is flagged.  It also checks that each
run was correct and reported exactly the metric names and units listed in
``BENCHMARK.json``.  ``--write`` stores the summary with machine facts.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return {"result": json.loads(lines[-1]), "detail": json.loads(lines[-2]),
            "elapsed_s": elapsed}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(statistics.median(values))
            if statistics.median(values) else 0.0}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write", help="store the summary as JSON at this path")
    args = ap.parse_args()

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    bounds = {m["name"]: m.get("bound") for m in declared}
    summary, worst_ok = {}, True
    facts = None
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            out = run_once(workload, seed, bench["run_seconds"], args.trace)
            res = out["result"]
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != units:
                raise RuntimeError(f"{workload} seed {seed}: metrics {got} != declared {units}")
            if not res["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: incorrect\n{out['detail']}")
            facts = out["detail"]["facts"]
            runs.append(out)
            print(f"{workload} seed {seed}: {out['elapsed_s']:.1f} s, "
                  f"{out['detail']['rounds']} rounds", file=sys.stderr, flush=True)
        rows = {}
        for name in units:
            values = [o["result"]["metrics"][name]["value"] for o in runs]
            row = summarize(values)
            row["values"] = values
            bound = bounds[name]
            row["flag"] = bound is not None and name != "setup_s" and row["spread"] > bound / 3
            worst_ok &= not row["flag"]
            rows[name] = row
            print(f"{workload:12s} {name:48s} median {row['median']:<12.6g} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} spread {row['spread']:.4f}"
                  + (f" bound {bound}" if bound is not None else "")
                  + ("  <-- above bound/3" if row["flag"] else ""), flush=True)
        summary[workload] = {
            "seeds": parse_seeds(args.seeds),
            "elapsed_s": [o["elapsed_s"] for o in runs],
            "metrics": rows,
            "counts_by_seed": {str(s): o["detail"]["counts"]
                               for s, o in zip(parse_seeds(args.seeds), runs)},
        }
    if args.write:
        with open(args.write, "w") as fh:
            json.dump({"trace": args.trace, "run_seconds": bench["run_seconds"], "facts": facts,
                       "workloads": summary}, fh, indent=1)
            fh.write("\n")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
