"""Interrupted writes: a command stopped at any `datastore.write_file` call and run
again into the same output gives the bytes and the manifest of a clean run.

Each file mindkit writes goes through `write_file`.  For each call k of a clean
run the command is stopped there in two ways: an exception raised at the call
(as a KeyboardInterrupt would be), and a kill after the call's `.tmp` is written
but before it replaces the target, which leaves the `.tmp` behind.  The command
is then run again, uninterrupted, into the same output.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from pathlib import Path

import pytest

from mindkit import datastore, session, simkit
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


# --- simulate-session ----------------------------------------------------------------
# A day also stops at an upload: `DirectoryTransport.send_recording` is counted with
# `write_file`, and a stop there raises before the envelope is sent.  Every envelope
# is sealed under a fresh key, so runs are compared by the results decode reads from
# them, not by their bytes.  The days run the default study with 4 s trials, and every
# run that makes keys gets one keypair made once, so that the many runs stay quick.


@pytest.fixture(scope="module")
def short_study(tmp_path_factory) -> Path:
    study = session.default_study()
    path = tmp_path_factory.mktemp("study") / "study.json"
    session.save_study(dataclasses.replace(study, strategies=tuple(
        dataclasses.replace(s, trial_duration_s=4.0) for s in study.strategies)), path)
    return path


@pytest.fixture(scope="module")
def keypair() -> tuple:
    return datastore.generate_keypair()


def results_of(day_dir: Path, out: Path) -> bytes:
    assert main(["decode", "--recordings", str(day_dir / "uploads" / "recordings"),
                 "--private-key", str(day_dir / "keys" / "private.pem"),
                 "--out", str(out)]) == 0
    return (out / "results.csv").read_bytes()


def stop_simulation_at(monkeypatch, k: int, kill: bool) -> list:
    """`stop_at`, with the transport's uploads counted among the calls."""
    calls, send = stop_at(monkeypatch, k, kill), datastore.DirectoryTransport.send_recording

    def sending(transport, envelope, subject_token, entry_id):
        calls.append(entry_id)
        if len(calls) == k:
            raise Interrupted(f"stopped at upload {k}: {entry_id}")
        send(transport, envelope, subject_token, entry_id)

    monkeypatch.setattr(datastore.DirectoryTransport, "send_recording", sending)
    return calls


# with one CPU a day's recordings run in-process; with two they run in forked children,
# and a stop must leave none of them behind
@pytest.mark.parametrize("day, kill, cpus", [(1, False, 1), (2, True, 1), (1, False, 2),
                                             (2, True, 2)],
                         ids=["day1-raised", "day2-killed", "day1-raised-forked",
                              "day2-killed-forked"])
def test_simulate_session_rerun_after_a_stop_decodes_to_the_clean_results(
        short_study, keypair, tmp_path, monkeypatch, day, kill, cpus):
    monkeypatch.setattr(datastore, "generate_keypair", lambda: keypair)
    monkeypatch.setattr(simkit, "available_cpus", lambda: cpus)

    def simulate(d: int, out: Path) -> list[str]:
        return ["simulate-session", "--seed", "3", "--profile", "zero",
                "--study", str(short_study), "--day", str(d), "--out", str(out)]

    before = tmp_path / "before"  # the days before the stopped one, run cleanly
    before.mkdir()
    for d in range(1, day):
        assert main(simulate(d, before)) == 0
    clean_dir = tmp_path / "clean"
    shutil.copytree(before, clean_dir)
    with monkeypatch.context() as m:
        calls = stop_simulation_at(m, 0, kill)
        assert main(simulate(day, clean_dir)) == 0
    clean = results_of(clean_dir, tmp_path / "clean-decoded")
    assert any(isinstance(c, str) for c in calls) and any(isinstance(c, Path) for c in calls)
    for k in range(1, len(calls) + 1):
        out = tmp_path / f"stopped-{k}"
        shutil.copytree(before, out)
        with monkeypatch.context() as m:
            stop_simulation_at(m, k, kill)
            with pytest.raises(Interrupted):
                main(simulate(day, out))
        with pytest.raises(ChildProcessError):  # no forked recording outlives the stop
            os.waitpid(-1, os.WNOHANG)
        assert main(simulate(day, out)) == 0
        # a killed envelope write leaves a sealed copy of a recording that no entry names
        assert not list((out / "queue").glob(f"*{datastore.TMP_SUFFIX}")), f"call {k}"
        assert results_of(out, tmp_path / f"decoded-{k}") == clean, f"call {k}: {calls[k - 1]}"
