"""One benchmark process: set up, then run and check one operator job.

    python3 opbench/worker.py --root . --workload week-sim --seed 3 \
        --prep DIR --out DIR --result FILE.json --mode job

run.py starts a fresh interpreter for every job, so the set-up time and
the peak memory it reports are those of one job.  The worker imports
`mindkit.cli` and calls `cli.main([...])` in-process for each command of
the job.  The seed reaches the program only as generated inputs and as
CLI arguments.

Modes:
  prepare  build the per-seed inputs under --prep (not timed)
  probe    set up and exit, to sample set-up time
  job      set up, run the job with tracing off, check its outputs
  traced   the same with the per-layer tracer installed
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import logging
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

WORKLOADS = ("week-sim", "week-decode", "lab-prior")
DAYS = range(1, 8)
LAB_SUBJECTS = 11
LAB_TRIALS = 40

# Sizes every seed produces: the schedule's seed only reorders trials.
EXPECTED = {
    "week-sim": {"envelopes": 23, "recordings": 15, "questionnaires": 8, "trials": 222},
    "week-decode": {"envelopes": 23, "tasks": 15, "trials": 222},
    "lab-prior": {"trials": LAB_SUBJECTS * LAB_TRIALS, "tasks": LAB_SUBJECTS},
}

# Corpus features are compared through fixed random projections of the whole
# feature matrix; each may differ from the reference by this share of
# |projection vector| * |features|.  A change of Welch arithmetic moves
# features by about 1e-15 relative; a changed feature value moves more.
PROJECTIONS = 8
PROJECTION_SEED = 200211754
FEATURE_RTOL = 1e-9
# The prior's final residual may exceed the reference by this share.
RESIDUAL_RTOL = 1e-6


def now() -> float:
    # CLOCK_MONOTONIC is system-wide, so run.py can subtract its spawn time.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class Ops:
    """Operations attempted and failed in one job, with what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def cli(self, cli, argv: list[str]) -> None:
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback out of the CLI is a failed command
            code = f"{type(exc).__name__}: {exc}"
        self.check(code == 0, f"{argv[0]} exited with {code}")


class WarningCount(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def load_reference(workload: str, seed: int) -> dict | None:
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


# --- week-sim ------------------------------------------------------------------

def simulate_week(cli, ops: Ops, seed: int, public_key: Path, out: Path) -> None:
    for day in DAYS:
        ops.cli(cli, ["simulate-session", "--day", str(day), "--seed", str(seed),
                      "--profile", "strong", "--transport", "dir",
                      "--public-key", str(public_key), "--out", str(out)])


def check_week_sim(job: "Job", ops: Ops) -> None:
    from mindkit import datastore
    entries = json.loads((job.out / "queue" / "queue.json").read_text())["entries"]
    for entry in entries:
        ops.check(entry["state"] == datastore.STATE_SENT, f"upload {entry['entry_id']} "
                  f"not acknowledged")
    digests = []
    sizes = {"envelopes": 0, "recordings": 0, "questionnaires": 0, "trials": 0}
    eeg_seconds = 0.0
    for path in sorted((job.out / "uploads" / "recordings").rglob("*.envelope")):
        sizes["envelopes"] += 1
        try:
            payload = datastore.decrypt_envelope(path.read_bytes(), job.private_key)
            if payload[:4] == datastore.CONTAINER_MAGIC:
                dataset = datastore.read_dataset(payload)
                sizes["recordings"] += 1
                sizes["trials"] += sum(m.code == datastore.MARKER_TRIAL_START
                                       for m in dataset.markers)
                eeg_seconds += dataset.n_frames / dataset.sample_rate
            elif json.loads(payload).get("kind") == "questionnaire_result":
                sizes["questionnaires"] += 1
        except (datastore.DatastoreError, ValueError) as exc:
            ops.check(False, f"{path.name}: {exc}")
            continue
        digests.append(sha256(payload))
    digests.sort()
    job.sizes = {**sizes, "eeg_seconds": eeg_seconds}
    job.identity = sha256("".join(digests).encode())
    job.observed = {"payload_sha256": digests}
    if job.reference is not None:
        missing = list(job.reference["payload_sha256"])
        for digest in digests:
            ops.check(digest in missing, f"decrypted payload {digest[:12]} differs "
                                         f"from the reference")
            if digest in missing:
                missing.remove(digest)


# --- week-decode ---------------------------------------------------------------

def check_week_decode(job: "Job", ops: Ops) -> None:
    ops.attempted += job.sizes["envelopes"]
    if job.warnings.count:
        ops.failed += job.warnings.count
        ops.problems.append(f"{job.warnings.count} recording file(s) skipped")
    results = job.out / "results.csv"
    if not ops.check(results.exists(), "results.csv missing"):
        return
    blob = results.read_bytes()
    rows = list(csv.DictReader(io.StringIO(blob.decode())))
    job.sizes.update(tasks=len(rows), trials=sum(int(r["n_trials"]) for r in rows))
    job.identity = sha256(blob)
    job.observed = {"results_sha256": job.identity}
    if job.reference is not None:
        ops.check(job.identity == job.reference["results_sha256"],
                  "results.csv differs from the reference")


# --- lab-prior -----------------------------------------------------------------

def feature_projections(values) -> tuple[list[float], float]:
    import numpy as np
    basis = np.random.default_rng(PROJECTION_SEED).standard_normal(
        (PROJECTIONS,) + values.shape)
    proj = np.tensordot(basis, values, axes=values.ndim)
    scale = float(np.sqrt(values.size) * np.linalg.norm(values))
    return [float(p) for p in proj], scale


def check_lab_prior(job: "Job", ops: Ops) -> None:
    import numpy as np
    from mindkit import decoder, simkit
    corpus, prior_path = job.out / "corpus.csv", job.out / "prior.mynp"
    if not (ops.check(corpus.exists(), "corpus.csv missing")
            and ops.check(prior_path.exists(), "prior.mynp missing")):
        return
    corpus_blob = corpus.read_bytes()
    rows = list(csv.reader(io.StringIO(corpus_blob.decode())))[1:]
    ids = "\n".join(",".join(r[:5]) for r in rows)
    values = np.array([[float(v) for v in r[5:]] for r in rows])
    job.sizes.update(trials=len(rows), tasks=len({r[0] for r in rows}),
                     eeg_seconds=len(rows) * simkit.LAB_TRIAL_DURATION_S)

    prior_blob = prior_path.read_bytes()
    residual, error = float("inf"), ""
    try:
        prior, header = decoder.read_prior(prior_blob)
        np.linalg.cholesky(prior.cov)
        residual = float(header["residual"])
    except (decoder.DecoderError, np.linalg.LinAlgError, KeyError, TypeError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    ops.check(not error, f"prior unreadable or not positive definite: {error}")
    projections, scale = feature_projections(values)
    job.identity = sha256(corpus_blob + prior_blob)
    job.observed = {"ids_sha256": sha256(ids.encode()), "projections": projections,
                    "prior_residual": residual}
    if job.reference is not None:
        ref = job.reference
        ops.check(job.observed["ids_sha256"] == ref["ids_sha256"],
                  "corpus rows differ from the reference")
        ops.check(len(ref["projections"]) == PROJECTIONS and all(
            abs(a - b) <= FEATURE_RTOL * scale
            for a, b in zip(projections, ref["projections"])),
            f"corpus features differ from the reference by more than {FEATURE_RTOL:g}")
        ops.check(residual <= ref["prior_residual"] * (1 + RESIDUAL_RTOL),
                  f"prior residual {residual:.6e} worse than the reference "
                  f"{ref['prior_residual']:.6e}")


# --- jobs ------------------------------------------------------------------------

class Job:
    """The prepared inputs and the outputs of one job."""

    def __init__(self, workload: str, seed: int, prep: Path, out: Path) -> None:
        from mindkit import datastore
        self.workload, self.seed, self.prep, self.out = workload, seed, prep, out
        self.reference = load_reference(workload, seed)
        self.private_key = None
        self.sizes: dict[str, float] = {}
        self.identity = ""
        self.observed: dict = {}
        self.warnings = WarningCount()
        logging.getLogger("mindkit").addHandler(self.warnings)
        if workload == "week-sim":
            self.private_key = datastore.load_private_key(prep / "keys" / "private.pem")
        elif workload == "week-decode":
            self.recordings = prep / "sim" / "uploads" / "recordings"
            self.sizes["envelopes"] = sum(1 for p in self.recordings.rglob("*") if p.is_file())
            self.sizes["eeg_seconds"] = json.loads((prep / "sizes.json").read_text())[
                "eeg_seconds"]

    def run(self, cli, ops: Ops) -> None:
        if self.workload == "week-sim":
            simulate_week(cli, ops, self.seed, self.prep / "keys" / "public.pem", self.out)
        elif self.workload == "week-decode":
            ops.cli(cli, ["decode", "--recordings", str(self.recordings),
                          "--private-key", str(self.prep / "keys" / "private.pem"),
                          "--out", str(self.out)])
        else:
            corpus = self.out / "corpus.csv"
            ops.cli(cli, ["gen-lab-corpus", "--subjects", str(LAB_SUBJECTS),
                          "--trials", str(LAB_TRIALS), "--seed", str(self.seed),
                          "--out", str(corpus)])
            ops.cli(cli, ["learn-prior", "--corpus", str(corpus),
                          "--out", str(self.out / "prior.mynp")])

    def check(self, ops: Ops) -> None:
        {"week-sim": check_week_sim, "week-decode": check_week_decode,
         "lab-prior": check_lab_prior}[self.workload](self, ops)
        for name, want in EXPECTED[self.workload].items():
            got = self.sizes.get(name)
            ops.check(got == want, f"{name}: expected {want}, got {got}")


def prepare(cli, workload: str, seed: int, prep: Path) -> dict:
    """Recipient keypair, and for week-decode the week it decodes."""
    from mindkit import datastore
    keys = prep / "keys"
    keys.mkdir(parents=True)
    private_key, public_key = datastore.generate_keypair()
    datastore.save_private_key(private_key, keys / "private.pem")
    datastore.save_public_key(public_key, keys / "public.pem")
    if workload == "week-sim":
        return {"attempted": 0, "failed": 0, "problems": []}
    ops = Ops()
    job = Job("week-sim", seed, prep, prep / "sim")
    with contextlib.redirect_stdout(io.StringIO()):
        simulate_week(cli, ops, seed, keys / "public.pem", job.out)
    job.check(ops)
    (prep / "sizes.json").write_text(json.dumps(job.sizes))
    return {"attempted": ops.attempted, "failed": ops.failed, "problems": ops.problems,
            "observed": job.observed}


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS loaded into this process."""
    import ctypes
    found = {}
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def provenance() -> dict:
    import cryptography
    import numpy as np
    import scipy
    blas = lambda cfg: cfg["Build Dependencies"]["blas"].get("version")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cryptography": cryptography.__version__,
        "openblas_numpy": blas(np.show_config(mode="dicts")),
        "openblas_scipy": blas(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="repository checkout")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--prep", required=True, help="per-seed prepared inputs")
    parser.add_argument("--out", required=True, help="job output directory")
    parser.add_argument("--result", required=True, help="result JSON path")
    parser.add_argument("--mode", choices=("prepare", "probe", "job", "traced"),
                        default="job")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.root) / "src"))
    prep, out = Path(args.prep), Path(args.out)

    t_import = now()
    from mindkit import cli
    import_s = now() - t_import
    if args.mode == "prepare":
        result = prepare(cli, args.workload, args.seed, prep)
        Path(args.result).write_text(json.dumps(result))
        return 0
    job = Job(args.workload, args.seed, prep, out)
    ready = now()
    result = {"ready": ready, "import_s": import_s}
    if args.mode == "probe":
        Path(args.result).write_text(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "traced":
        import tracer as tracing
        tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}-{out.name}")
        tracer.install()
    ops = Ops()
    cpu0, t0 = time.process_time(), now()
    with contextlib.redirect_stdout(io.StringIO()):
        job.run(cli, ops)
    t_check = now()
    with tracer.paused() if tracer else contextlib.nullcontext():
        job.check(ops)
    t_end, cpu_s = now(), time.process_time() - cpu0
    wall_s, check_s = t_end - t0, t_end - t_check

    result.update(
        wall_s=wall_s, cpu_s=cpu_s, check_s=check_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=ops.attempted, failed=ops.failed, problems=ops.problems,
        sizes=job.sizes, identity=job.identity, observed=job.observed,
        referenced=job.reference is not None, provenance=provenance())
    if tracer:
        result["layers"] = tracer.metrics(wall_s, check_s, import_s)
        tracer.dump(Path(args.result).with_suffix(".spans.json"))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
