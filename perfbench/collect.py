"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/trajectory/<sha>.json

Runs are made one after another, each in its own process, from the root
of the checkout.  For every workload and metric it records the values, the
median, the quartiles and the spread (third minus first quartile, as a
share of the median), which is how the benchmark's bounds are judged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sweep-coupled", "sweep-uncoupled", "sweep-wide", "oracles")


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-600:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def summarize(values: list) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]),
                    help=f"comma-separated, from {', '.join(WORKLOADS)}")
    ap.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the summary here as JSON")
    args = ap.parse_args(argv)

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        per_metric, runs = {}, []
        for seed in parse_seeds(args.seeds):
            detail, result = run_one(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "digest": detail.get("digest"),
                         "unit_tail": detail.get("unit_tail")})
            summary.setdefault("provenance", detail["provenance"])
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, {"unit": m["unit"], "values": []})
                per_metric[name]["values"].append(m["value"])
            print(workload, seed, result["correct"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        summary["workloads"][workload] = {
            "runs": runs,
            "metrics": {k: {"unit": v["unit"], **summarize(v["values"])}
                        for k, v in per_metric.items()}}
        for k, v in summary["workloads"][workload]["metrics"].items():
            print(f"  {workload} {k}: median {v['median']:.6g} {v['unit']}, "
                  f"spread {v['spread']:.4f}", flush=True)
    summary["provenance"] = {k: v for k, v in summary.get("provenance", {}).items()
                             if k not in ("workload", "seed")}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
