"""Run the benchmark on several seeds per workload and summarise the spread.

    python3 perfbench/sweep.py [--seeds 1-10] [--out perfbench/out/sweep.json]

It runs every workload untraced (`--trace 0`) for BENCHMARK.json's
`run_seconds`, as one run of the benchmark does.  For each workload and
end-to-end metric it prints the median of the per-run values, their quartiles (statistics.quantiles, n=4) and the spread: the distance
between the quartiles as a share of the median.  It also lists each run's
simulated-stats digest, so two commits can be compared seed by seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--out", type=Path, default=HERE / "out" / "sweep.json")
    args = ap.parse_args()

    summary = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True, timeout=180)
            result = json.loads(proc.stdout.splitlines()[-1])
            detail = json.loads((HERE / "out" / ("%s-seed%d-trace0.json" % (
                workload, seed))).read_text())
            runs.append({"seed": seed, "result": result,
                         "digest": detail["identity"]["sim.stats_digest"]})
            print("%s seed %d: correct=%s %s" % (workload, seed, result["correct"], " ".join(
                "%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)
        metrics = {name: summarise([r["result"]["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["result"]["metrics"]}
        summary[workload] = {
            "all_correct": all(r["result"]["correct"] for r in runs),
            "metrics": metrics,
            "digests": {r["seed"]: r["digest"] for r in runs},
        }
        for name, s in metrics.items():
            print("  %-34s median %.5g  q1 %.5g  q3 %.5g  spread %.3f" % (
                name, s["median"], s["q1"], s["q3"], s["spread"]), flush=True)
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps({"seconds": bench["run_seconds"], "seeds": args.seeds,
                                    "workloads": summary}, indent=1))


if __name__ == "__main__":
    main()
