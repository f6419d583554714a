"""Operator-job benchmark for mindkit.

    python3 opbench/run.py --workload week-sim --seed 3 --seconds 30 --trace 0
    python3 opbench/run.py --workload all --seed 3 --seconds 30

Run from the root of a checkout.  A workload is one operator job, run as a
closed loop with one client: jobs run one at a time, each in a fresh Python
process (opbench/worker.py) that imports `mindkit.cli` and calls
`cli.main([...])` for each command of the job.  Jobs repeat until
`--seconds` of measurement are spent (at least two jobs), and every metric
is the median over the jobs of the run.

  week-sim     simulate-session, days 1-7, strong profile, directory transport
  week-decode  decode of the week that week-sim produces for the same seed
  lab-prior    gen-lab-corpus --subjects 11 --trials 40, then learn-prior

With `--trace 0` the last line of output is a JSON object whose metrics are
wall_s, trials_per_s, setup_s and peak_rss_mb; the times are corrected for
the host's speed during the run (see CALIBRATION_REF_S).  With `--trace 1`, traced
and untraced jobs alternate and the metrics are the per-layer split of the
median traced job (see tracer.py).  Per-seed inputs (the recipient keypair,
and the recordings week-decode decodes) are built once per seed and source
version under .opbench-work/, outside every timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from worker import EXPECTED, WORKLOADS, now

HERE = Path(__file__).resolve().parent
WORK_DIR = ".opbench-work"
MIN_JOBS = 2
MIN_SETUPS = 4  # set-up probes top the jobs' own set-ups up to this many
RUN_LIMIT_S = 170.0
KEEP_PREPARED = 4  # per workload; a prepared week-decode input is about 32 MB
E2E_UNITS = {"wall_s": "s", "trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
# Per-layer units other than "s" (names ending in _s) and "count".
LAYER_UNITS = {
    "streamkit.us_per_window": "us", "datastore.bytes_sealed": "B",
    "datastore.bytes_opened": "B", "features.welch_per_trial": "calls/trial",
    "decoder.solves_per_task": "solves/task", "decoder.prior_residual": "1",
    "decoder.prior_converged": "1", "trace_overhead": "1",
}
# The shared host's speed drifts by up to 2x over minutes, for every process
# alike, which medians over a run cannot average out.  A fixed kernel timed
# in this process (which never imports mindkit) before every job and at the
# end measures that speed.  End-to-end times are reported at the speed where
# the kernel takes CALIBRATION_REF_S, its typical time on the 2-CPU machine
# that recorded the first baseline.
CALIBRATION_REF_S = 0.5


class Deadline(Exception):
    pass


def calibration_kernel() -> float:
    """Seconds a fixed mix of bytecode, small LAPACK solves and FFTs takes now."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((17, 17)) + 17 * np.eye(17)
    b = rng.standard_normal(17)
    x = rng.standard_normal(512)
    start = now()
    acc = 0
    for i in range(1_000_000):
        acc += i % 7
    for _ in range(10_000):
        np.linalg.solve(a, b)
        np.fft.rfft(x)
        x.var()
    return now() - start


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "mindkit").rglob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


class Runner:
    """Starts worker processes for one workload and seed, one at a time."""

    def __init__(self, root: Path, workload: str, seed: int, deadline: float) -> None:
        self.root, self.workload, self.seed, self.deadline = root, workload, seed, deadline
        self.work = root / WORK_DIR
        self.digest = source_digest(root)
        self.results = self.work / "results"
        self.results.mkdir(parents=True, exist_ok=True)
        self.serial = 0
        self.calibrations: list[float] = []

    def spawn(self, mode: str, prep: Path) -> dict:
        """Run one worker; returns its result with `spawn`/`end` times, or an error."""
        self.serial += 1
        tag = f"{self.workload}-seed{self.seed}-{os.getpid()}-{self.serial:03d}-{mode}"
        out = self.work / "jobs" / tag
        result_path = self.results / f"{tag}.json"
        shutil.rmtree(out, ignore_errors=True)
        out.parent.mkdir(parents=True, exist_ok=True)
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(self.root),
               "--workload", self.workload, "--seed", str(self.seed),
               "--prep", str(prep), "--out", str(out), "--result", str(result_path),
               "--mode", mode]
        if mode != "prepare":
            self.calibrations.append(calibration_kernel())
        timeout = self.deadline - now()
        if timeout <= 0:
            raise Deadline()
        spawn = now()
        proc = subprocess.Popen(cmd, cwd=self.root, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise Deadline() from None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        end = now()
        if proc.returncode != 0 or not result_path.exists():
            tail = " | ".join(err.strip().splitlines()[-3:])
            return {"mode": mode, "error": f"worker exited {proc.returncode}: {tail}",
                    "spawn": spawn, "end": end}
        result = json.loads(result_path.read_text())
        result_path.unlink()
        result.update(mode=mode, spawn=spawn, end=end)
        return result

    def prepare(self) -> tuple[Path, dict]:
        """Per-seed inputs, built once per seed and source version."""
        prepared = self.work / "prep"
        version = hashlib.sha256(self.digest.encode() + (HERE / "worker.py").read_bytes())
        prep = prepared / f"{self.workload}-seed{self.seed}-{version.hexdigest()[:16]}"
        if prep.is_dir() or self.workload == "lab-prior":
            prep.mkdir(parents=True, exist_ok=True)
            return prep, {"attempted": 0, "failed": 0, "problems": [], "seconds": 0.0}
        tmp = prep.with_name(prep.name + f".tmp{os.getpid()}")
        shutil.rmtree(tmp, ignore_errors=True)
        result = self.spawn("prepare", tmp)
        result["seconds"] = result["end"] - result["spawn"]
        if "error" in result:
            result.update(attempted=1, failed=1, problems=[result["error"]])
        if result["failed"]:
            shutil.rmtree(tmp, ignore_errors=True)
            return prep, result
        shutil.rmtree(tmp / "sim" / "queue", ignore_errors=True)
        tmp.rename(prep)
        older = sorted((p for p in prepared.glob(f"{self.workload}-seed*")
                        if p.is_dir() and p != prep), key=lambda p: p.stat().st_mtime)
        for stale in older[:max(0, len(older) - (KEEP_PREPARED - 1))]:
            shutil.rmtree(stale, ignore_errors=True)
        return prep, result


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return LAYER_UNITS.get(name, "count")


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = now()
    runner = Runner(root, workload, seed, started + RUN_LIMIT_S)
    jobs: list[dict] = []
    probes: list[dict] = []
    prep_info = {"attempted": 0, "failed": 0, "problems": [], "seconds": 0.0}
    attempted, failed, errors = 0, 0, []
    try:
        prep, prep_info = runner.prepare()
        loop_start = now()
        while not prep_info["failed"]:
            durations = [j["end"] - j["spawn"] for j in jobs]
            if len(jobs) >= MIN_JOBS and \
                    now() - loop_start + median_of(durations) > seconds:
                break
            mode = "traced" if trace and len(jobs) % 2 == 1 else "job"
            jobs.append(runner.spawn(mode, prep))
        while not trace and jobs and len(jobs) + len(probes) < MIN_SETUPS:
            probes.append(runner.spawn("probe", prep))
        runner.calibrations.append(calibration_kernel())
    except Deadline:
        attempted, failed = 1, 1
        errors.append(f"run did not finish within {RUN_LIMIT_S:.0f} s")
    measured = now() - started - prep_info["seconds"]
    attempted += prep_info["attempted"]
    failed += prep_info["failed"]
    errors += prep_info["problems"]

    done = []
    for job in jobs + probes:
        if "error" in job:
            attempted, failed = attempted + 1, failed + 1
            errors.append(job["error"])
        elif job["mode"] != "probe":
            done.append(job)
            attempted += job["attempted"]
            failed += job["failed"]
            errors += job["problems"]
    # Every job of a run has the same seed, so all must produce the same bytes.
    for job in done[1:]:
        attempted += 1
        if job["identity"] != done[0]["identity"]:
            failed += 1
            errors.append(f"job outputs differ between runs of seed {seed}")

    plain = [j for j in done if j["mode"] == "job"]
    traced = [j for j in done if j["mode"] == "traced"]
    trials = EXPECTED[workload]["trials"]
    per_job = {
        "wall_s": [j["wall_s"] for j in plain],
        "trials_per_s": [trials / j["wall_s"] for j in plain],
        "setup_s": [p["ready"] - p["spawn"] for p in plain + probes if "error" not in p],
        "peak_rss_mb": [j["peak_rss_mb"] for j in plain],
        "cpu_s": [j["cpu_s"] for j in plain],
    }
    # Host speed over the run relative to the reference; 1.2 means 20% slower.
    slowdown = median_of(runner.calibrations) / CALIBRATION_REF_S or 1.0
    if trace:
        layers = {}
        if traced and plain:
            median_job = sorted(traced, key=lambda j: j["wall_s"])[(len(traced) - 1) // 2]
            layers = dict(median_job["layers"])
            layers["trace_overhead"] = median_of([j["wall_s"] for j in traced]) / \
                median_of(per_job["wall_s"]) - 1.0
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        scale = {"wall_s": 1 / slowdown, "trials_per_s": slowdown, "setup_s": 1 / slowdown,
                 "peak_rss_mb": 1.0}
        metrics = {name: {"value": median_of(per_job[name]) * scale[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0 and bool(plain) and (bool(traced) or not trace),
        "attempted": max(attempted, 1), "failed": failed, "errors": errors,
        "metrics": metrics, "per_job": per_job, "jobs": len(done),
        "measured_s": measured, "prepare_s": prep_info["seconds"],
        "calibration_s": runner.calibrations, "slowdown": slowdown,
        "referenced": bool(done) and done[0]["referenced"],
        "provenance": {**(done[0]["provenance"] if done else {}),
                       "git_sha": git_sha(root), "source_sha256": runner.digest,
                       "seed": seed, "sizes": done[0]["sizes"] if done else {}},
    }
    (runner.results / f"run-{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}.json"
     ).write_text(json.dumps(record, indent=1))
    return record


def print_summary(record: dict) -> None:
    w, per_job = record["workload"], record["per_job"]
    print(f"opbench {w} seed {record['seed']}: closed loop, 1 client, "
          f"{record['jobs']} job(s) in {record['measured_s']:.1f} s "
          f"(+ {record['prepare_s']:.1f} s preparing inputs)")
    if record["trace"]:
        for name, m in sorted(record["metrics"].items()):
            print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    else:
        print(f"  host slowdown {record['slowdown']:.3f} against the calibration reference "
              f"(median of n={len(record['calibration_s'])} kernel timings)")
        for name, unit in E2E_UNITS.items():
            values = per_job[name]
            how = "calibrated; measured" if name != "peak_rss_mb" else "measured"
            print(f"  {name:14s} {record['metrics'][name]['value']:>10.4f} {unit:4s} "
                  f"{how} median {median_of(values):.4f} of n={len(values)}")
        cpu = per_job["cpu_s"]
        print(f"  {'cpu_s':14s} {median_of(cpu):>10.4f} s    measured median of "
              f"n={len(cpu)} (reported, not an end-to-end metric)")
    print(f"  {'fail_ratio':14s} {record['failed'] / record['attempted']:>10.4f} 1    "
          f"{record['failed']} failed of {record['attempted']} operations")
    print(f"  sizes: {json.dumps(record['provenance']['sizes'])}; output reference "
          f"{'found' if record['referenced'] else 'absent, checked counts and repeat bytes'}")
    print("  no layer queues or waits: one client, single-threaded jobs, local "
          "directory transport, so no wait times are reported")
    for error in record["errors"][:10]:
        print(f"  problem: {error}")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "mindkit" / "cli.py").is_file():
        print("opbench: src/mindkit/cli.py not found; run from the root of a mindkit "
              "checkout", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    for workload in workloads:
        record = run_workload(root, workload, args.seed, args.seconds, bool(args.trace))
        print_summary(record)
        records.append(record)
    last = {"correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records)}
    if args.workload == "all":
        last["metrics"] = {r["workload"]: r["metrics"] for r in records}
    else:
        last["metrics"] = records[0]["metrics"]
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
