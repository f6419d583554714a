"""Interrupted writes: a command stopped at any `datastore.write_file` call and run
again into the same output gives the bytes and the manifest of a clean run.

Each file mindkit writes goes through `write_file`.  For each call k of a clean
run the command is stopped there in two ways: an exception raised at the call
(as a KeyboardInterrupt would be), and a kill after the call's `.tmp` is written
but before it replaces the target, which leaves the `.tmp` behind.  The command
is then run again, uninterrupted, into the same output.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from mindkit import datastore
from mindkit.cli import main


class Interrupted(BaseException):
    """Stands in for the end of the process: no `except Exception` stops it."""


def tree(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("inputs")
    assert main(["gen-lab-corpus", "--subjects", "3", "--trials", "8", "--seed", "5",
                 "--out", str(root / "lab" / "corpus.csv")]) == 0
    assert main(["simulate-session", "--day", "1", "--seed", "3", "--profile", "zero",
                 "--out", str(root / "day")]) == 0
    return root


COMMANDS = {
    "gen-lab-corpus": lambda inputs, out: [
        "gen-lab-corpus", "--subjects", "3", "--trials", "8", "--seed", "2",
        "--out", str(out / "corpus.csv")],
    "learn-prior": lambda inputs, out: [
        "learn-prior", "--corpus", str(inputs / "lab" / "corpus.csv"),
        "--out", str(out / "prior.mynp")],
    "decode": lambda inputs, out: [
        "decode", "--recordings", str(inputs / "day" / "uploads" / "recordings"),
        "--private-key", str(inputs / "day" / "keys" / "private.pem"), "--out", str(out)],
}
# each command's record: beside the one file it writes, or in the directory it owns
RECORDS = {"gen-lab-corpus": "corpus.csv.manifest.json",
           "learn-prior": "prior.mynp.manifest.json", "decode": "manifest.json"}


def stop_at(monkeypatch, k: int, kill: bool) -> list:
    """Make call k of `write_file` stop the run; returns the list of calls seen."""
    write_file, calls = datastore.write_file, []

    def stopping(path, data):
        calls.append(Path(path))
        if len(calls) == k:
            if kill:
                Path(f"{path}{datastore.TMP_SUFFIX}").write_bytes(data)
            raise Interrupted(f"stopped at write {k}: {path}")
        write_file(path, data)

    monkeypatch.setattr(datastore, "write_file", stopping)
    return calls


@pytest.mark.parametrize("kill", [False, True], ids=["raised", "killed"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_rerun_after_an_interrupted_write_gives_the_clean_outputs(inputs, tmp_path,
                                                                  monkeypatch, command, kill):
    clean_dir = tmp_path / "clean"
    with monkeypatch.context() as m:
        calls = stop_at(m, 0, kill)
        assert main(COMMANDS[command](inputs, clean_dir)) == 0
    clean = tree(clean_dir)
    outputs = json.loads(clean[RECORDS[command]])["outputs"]
    assert len(calls) >= 2 and outputs
    assert not any(name.endswith(datastore.TMP_SUFFIX) for name in clean)
    for k in range(1, len(calls) + 1):
        out = tmp_path / f"stopped-{k}"
        with monkeypatch.context() as m:
            stop_at(m, k, kill)
            with pytest.raises(Interrupted):
                main(COMMANDS[command](inputs, out))
        leftover = Path(f"{out / calls[k - 1].relative_to(clean_dir)}{datastore.TMP_SUFFIX}")
        assert leftover.exists() == kill
        assert main(COMMANDS[command](inputs, out)) == 0
        again = tree(out)
        assert json.loads(again[RECORDS[command]])["outputs"] == outputs, f"write {k}"
        assert again == clean, f"write {k}"


def test_a_leftover_manifest_tmp_is_not_an_output(tmp_path):
    out = tmp_path / "day"
    out.mkdir()
    (out / f"manifest.json{datastore.TMP_SUFFIX}").write_bytes(b"{")
    assert main(["simulate-session", "--day", "1", "--seed", "3", "--profile", "zero",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == ["keys", "queue", "uploads"]
    assert not (out / f"manifest.json{datastore.TMP_SUFFIX}").exists()
