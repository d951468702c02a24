"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/summarize.py --runs 10 [--workloads search limits]
        [--trace 0|1] [--first-seed N] [--out FILE] [--baseline FILE]

For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median, next to a third of the
metric's bound from BENCHMARK.json.  Seeds are 1..runs unless --first-seed
moves them.  --out writes every run's metrics as JSON; --baseline writes the
summaries (merged into the file if it exists) with the git sha, Python
version and nproc, plus the workload whys and the layer-to-end-to-end map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Which end-to-end metric each module's per-layer metrics should move, on
# which workload.
LAYER_MAP = {
    "search": "wall_s and job_tail_s on search; flat elsewhere",
    "density": "wall_s and job_p50_s on limits; small on explicit",
    "sets": "wall_s and job_tail_s on automata; small on limits",
    "productfree": "automata and explicit",
    "constructions": "job_tail_s on explicit",
    "words": "job_p50_s on explicit",
    "proofkit": "job_p50_s on explicit",
    "cli": "job_p50_s on explicit and limits (JSON emission of long profiles)",
    "peak_rss_mib": "moved mainly by search and explicit",
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    digest = next(l.split()[-1] for l in lines if "outputs sha256" in l)
    return {"seed": seed, "digest": digest, **result}


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write every run's result here")
    p.add_argument("--baseline", help="write the baseline record here")
    args = p.parse_args()

    key = "per_layer" if args.trace else "end_to_end"
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    bounds = {m["name"]: m.get("bound") for m in bench[key]}
    runs: dict[str, list[dict]] = {}
    table: dict[str, dict] = {}
    for w in args.workloads:
        runs[w] = [run_once(w, s, bench["run_seconds"], args.trace)
                   for s in seeds]
        table[w] = {}
        print(f"{w}: correct {all(r['correct'] for r in runs[w])}, "
              f"failed {sum(r['failed'] for r in runs[w])} of "
              f"{sum(r['attempted'] for r in runs[w])} jobs")
        for m, bound in bounds.items():
            values = [r["metrics"][m]["value"] for r in runs[w]]
            s = summary(values)
            s["unit"] = runs[w][0]["metrics"][m]["unit"]
            table[w][m] = s
            limit = f"  (bound/3 {bound / 3:.3f})" if bound else ""
            print(f"  {m:<28} median {s['median']:<14.6g} {s['unit']:<6} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.3f}{limit}", flush=True)

    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    if args.baseline:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
        path = Path(args.baseline)
        record = json.loads(path.read_text()) if path.exists() else {}
        record.update({
            "git_sha": sha or None,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "run_seconds": bench["run_seconds"],
            "layer_map": LAYER_MAP,
        })
        workloads = record.setdefault("workloads", {})
        for w in bench["workloads"]:
            if w["name"] in table:
                entry = workloads.setdefault(w["name"], {})
                entry["why"] = w["why"]
                entry[key] = {"seeds": seeds, "metrics": table[w["name"]]}
        path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
