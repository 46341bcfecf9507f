"""Repeat benchmark runs over seeds and summarise each metric.

    python3 perfbench/spread.py --workloads extremal-trig --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/BASELINE.json

Runs ``run.py`` once per (workload, seed), one after another, with
BENCHMARK.json's run_seconds.  For every metric it reports the median,
the quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median.  With --trace 0 each end-to-end spread is compared
with its bound: a spread over a third of the bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, trace, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return info, result


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    report = {}
    flagged = []
    for workload in args.workloads.split(","):
        infos, runs = zip(*(run_once(workload, s, args.trace, SPEC["run_seconds"]) for s in args.seeds))
        failed = [s for s, r in zip(args.seeds, runs) if not r["correct"]]
        metrics = {}
        for name in runs[0]["metrics"]:
            row = summarise([r["metrics"][name]["value"] for r in runs])
            row["unit"] = runs[0]["metrics"][name]["unit"]
            bound = bounds.get(name) if args.trace == 0 else None
            if bound is not None and row["spread"] > bound / 3:
                flagged.append(f"{workload} {name}: spread {row['spread']:.3f} > {bound / 3:.3f}")
            metrics[name] = row
            print(f"{workload:15} {name:40} median {row['median']:<12.6g} "
                  f"spread {row['spread'] if row['spread'] is None else round(row['spread'], 4)}")
        provenance = dict(infos[0]["provenance"], seed=None)
        provenance["lacuna_file"] = str(Path(provenance["lacuna_file"]).relative_to(HERE.parent))
        report[workload] = {"seeds": args.seeds, "incorrect_seeds": failed,
                            "provenance": provenance, "metrics": metrics}
    if args.out:
        # end-to-end and per-layer results share one file, one key each
        saved = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        saved["per_layer" if args.trace else "end_to_end"] = report
        args.out.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for line in flagged:
        print("FLAGGED", line)
    return 1 if flagged or any(r["incorrect_seeds"] for r in report.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
