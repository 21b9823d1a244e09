"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout::

    python3 benchmarks/summarize.py --seeds 1-10 --trace 0 --out summary.json

Each (workload, seed) pair is one ``run.py`` process, run one after another.
For every metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    workloads = [w["name"] for w in json.loads(BENCHMARK.read_text())["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*workloads, "all"], default="all")
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"), help="e.g. 1-10")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--out", type=Path, required=True, help="summary JSON to write")
    args = p.parse_args()

    names = workloads if args.workload == "all" else [args.workload]
    summary = {"seconds": args.seconds, "trace": int(args.trace), "seeds": args.seeds,
               "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", args.trace],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"{name} seed {seed}: failed (exit code {proc.returncode})")
                return 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            environment = next(
                (json.loads(line.split(" ", 1)[1]) for line in lines
                 if line.startswith("environment ")), None)
            summary["environment"] = environment
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m}={e['value']:.6g}" for m, e in result["metrics"].items()), flush=True)
        table = {}
        for metric, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            table[metric] = {
                "unit": units[metric], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else 0.0, "values": vals,
            }
            print(f"  {metric:<26} median {median:<12.6g} spread {table[metric]['spread']:.4f}")
        summary["workloads"][name] = table
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
