"""Record the reference outputs that the benchmark's checks compare against.

    python3 opbench/record_reference.py --seeds 0-31

Run from the root of a checkout of the commit whose outputs are the
reference.  For each seed it simulates the week (the week-sim reference:
digests of every decrypted container and questionnaire), decodes it (the
week-decode reference: the digest of results.csv) and learns the lab prior
(the lab-prior reference: corpus row identities, projections of the corpus
features, and the prior's final residual).  Seeds already in a reference
file are kept as they are.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import Runner, git_sha
from worker import REFERENCE_DIR, now


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-31")
    args = parser.parse_args(argv)
    root = Path.cwd()
    REFERENCE_DIR.mkdir(exist_ok=True)
    files = {w: REFERENCE_DIR / f"{w}.json" for w in ("week-sim", "week-decode", "lab-prior")}
    refs = {w: json.loads(p.read_text()) if p.exists() else {"seeds": {}}
            for w, p in files.items()}
    for seed in args.seeds:
        key = str(seed)
        if all(key in ref["seeds"] for ref in refs.values()):
            continue
        found = {}
        runner = Runner(root, "week-decode", seed, now() + 600)
        _, prep_result = runner.prepare()
        found["week-sim"] = prep_result
        for workload in ("week-decode", "lab-prior"):
            runner = Runner(root, workload, seed, now() + 600)
            prep, _ = runner.prepare()
            found[workload] = runner.spawn("job", prep)
        for workload, result in found.items():
            if "error" in result or result["failed"]:
                print(f"seed {seed} {workload}: not recorded: "
                      f"{result.get('error') or result['problems']}", file=sys.stderr)
                return 1
            refs[workload]["seeds"].setdefault(key, result["observed"])
        print(f"seed {seed}: recorded", flush=True)
        for workload, ref in refs.items():
            ref.update(git_sha=git_sha(root), source_sha256=runner.digest)
            files[workload].write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
