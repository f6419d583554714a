"""
Full pipeline, end to end
=========================

Simulate two study days with a synthetic subject, inspect the encrypted
store, then decode the recordings back into per-day accuracies.
"""

import json
import tempfile
from pathlib import Path

from mindkit import datastore as ds
from mindkit.cli import main

# Everything is written under one temporary directory, removed on exit.
with tempfile.TemporaryDirectory(prefix="mindkit_demo_") as tmp:
    root = Path(tmp)
    run = root / "study"

    print("simulating days 1 and 3 (strong-modulation profile, seed 42)\n")
    for day in (1, 3):
        rc = main(["simulate-session", "--day", str(day), "--seed", "42",
                   "--profile", "strong", "--out", str(run)])
        assert rc == 0
        print()

    # Everything the app would upload sits under the directory transport as
    # hybrid-encrypted envelopes; filenames carry a sequence number plus a
    # payload digest so the server can deduplicate.
    uploads = sorted((run / "uploads" / "recordings").rglob("*.envelope"))
    print("uploaded envelopes")
    for path in uploads:
        print(f"  {path.parent.name}/{path.name}  {path.stat().st_size} bytes")

    # Envelopes decrypt only with the private key. Recordings are binary
    # containers; questionnaire results ride along as JSON documents.
    private = ds.load_private_key(run / "keys" / "private.pem")
    payloads = [ds.decrypt_envelope(p.read_bytes(), private) for p in uploads]
    containers = [p for p in payloads if p[:4] == ds.CONTAINER_MAGIC]
    print(f"\n{len(containers)} recordings, {len(payloads) - len(containers)} "
          f"questionnaire documents")
    dataset = ds.read_dataset(containers[0])
    print(f"\nfirst recording: {dataset.scenario_id}, day {dataset.day}, "
          f"{dataset.n_frames} frames x {dataset.n_channels} channels, "
          f"{len(dataset.markers)} markers")
    print(f"  strategy {dataset.metadata['strategy']}, "
          f"fitting took {dataset.metadata['fitting_time_s']} s")

    print("\ndecoding ...\n")
    rc = main(["decode", "--recordings", str(run / "uploads" / "recordings"),
               "--private-key", str(run / "keys" / "private.pem"),
               "--out", str(root / "decoded")])
    assert rc == 0

    manifest = json.loads((root / "decoded" / "manifest.json").read_text())
    print(f"\nreports written to {root / 'decoded'}: {', '.join(manifest['outputs'])}")
    print("(the working directory is removed on exit)")
