"""Repeat the benchmark over seeds and report how steady each metric is.

    python3 opbench/steady.py --workloads week-sim,week-decode,lab-prior \
        --seeds 1-10 --trace-seed 3 --out opbench/baseline/seed-commit.json

Runs `opbench/run.py` once per workload and seed, exactly as BENCHMARK.json
states it, and reports for every end-to-end metric the median of the runs
and the spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median.  A steady
benchmark keeps each spread, except that of setup_s, under a third of the
metric's bound.  With --compare, each median must also be no worse than
the earlier report's by more than the bound.  With --trace-seed it also
records one traced run per workload.  With --out it writes every run's
values there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from record_reference import seed_range

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(BENCHMARK["run_seconds"]),
                                  "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}): {proc.stderr[-500:]}")
    provenance = next((json.loads(line.split(" ", 1)[1]) for line in lines
                       if line.startswith("provenance ")), {})
    return {"seed": seed, **json.loads(lines[-1]), "provenance": provenance}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", type=Path,
                        help="an earlier --out report: check each median against it")
    args = parser.parse_args(argv)
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}
    report = {"run_seconds": BENCHMARK["run_seconds"], "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, 0))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        entry = {"runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed")}
                          | {"metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                          for r in runs],
                 "provenance": runs[-1]["provenance"], "median": {}, "spread": {}}
        for metric in BENCHMARK["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["median"][name], entry["spread"][name] = median, spread
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok and all(r["correct"] for r in runs)
            print(f"  {workload} {name}: median {median:.4g}, spread {spread:.4f} "
                  f"(bound {bound}, {'ok' if ok else 'NOT under bound/3'})", flush=True)
            if workload in earlier:
                before = earlier[workload]["median"][name]
                worse = (median - before) / before
                if metric["better"] == "higher":
                    worse = -worse
                entry.setdefault("worse_than_earlier", {})[name] = worse
                steady &= worse <= bound
                print(f"  {workload} {name}: {worse:+.4f} worse than the earlier median "
                      f"{before:.4g} ({'ok' if worse <= bound else 'beyond the bound'})")
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        report["workloads"][workload] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
