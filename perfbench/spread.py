"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workloads hochster,massey --seeds 1-10 \
        [--seconds S] [--trace 0] [--out perfbench/baseline.json]

S defaults to run_seconds in BENCHMARK.json.

For every workload and metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  Runs are
sequential, one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(arg):
    lo, _, hi = arg.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    summary = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                cwd=HERE.parent, capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(wl, seed, result["correct"], result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "bound": bounds.get(name) if not args.trace else None,
                "values": values,
            }
            flag = ""
            b = metrics[name]["bound"]
            if b and metrics[name]["spread"] > b:
                flag = "  > bound"
            elif b and metrics[name]["spread"] > b / 3:
                flag = "  > bound/3"
            print(f"{wl} {name}: median {med:.5g} spread {metrics[name]['spread']:.4f}{flag}")
        summary[wl] = {
            "seeds": seeds(args.seeds),
            "all_correct": all(r["correct"] for r in runs),
            "metrics": metrics,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
