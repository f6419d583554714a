"""A study day's recordings run side by side in forked children.

The parent draws everything that comes from the day's shared noise generator and
walks the engine; each recording's trials, quality and seal run in a child, at
most `simkit.available_cpus()` at once, and are stored in schedule order.  The
tests force the count by replacing `simkit.available_cpus`; one CPU runs every
recording in-process, which is the reference the forked runs must equal.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from mindkit import cli, datastore, simkit
from mindkit.cli import main


@pytest.fixture(scope="module")
def keys(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("keys")
    private, public = datastore.generate_keypair()
    datastore.save_private_key(private, root / "private.pem")
    datastore.save_public_key(public, root / "public.pem")
    return root


def simulate(day: int, out: Path, keys: Path) -> list[str]:
    return ["simulate-session", "--day", str(day), "--seed", "3",
            "--public-key", str(keys / "public.pem"), "--out", str(out)]


def payloads(run: Path, keys: Path) -> list[bytes]:
    """Every decrypted upload of a run, in upload order (a name starts with its queue number)."""
    private = datastore.load_private_key(keys / "private.pem")
    return [datastore.decrypt_envelope(path.read_bytes(), private) for path in
            sorted((run / "uploads" / "recordings").rglob("*.envelope"), key=lambda p: p.name)]


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture(scope="module")
def weeks(keys, tmp_path_factory) -> dict[int, tuple[Path, str, Path]]:
    """The seed-3 week at 1, 2 and 3 CPUs: the run, its stdout, and its decode."""
    runs = {}
    mp = pytest.MonkeyPatch()
    try:
        for cpus in (1, 2, 3):
            mp.setattr(simkit, "available_cpus", lambda: cpus)
            root = tmp_path_factory.mktemp(f"week-{cpus}-cpus")
            out, decoded = root / "run", root / "decoded"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                for day in range(1, 8):
                    assert main(simulate(day, out, keys)) == 0
            assert main(["decode", "--recordings", str(out / "uploads" / "recordings"),
                         "--private-key", str(keys / "private.pem"),
                         "--out", str(decoded)]) == 0
            runs[cpus] = (out, stdout.getvalue(), decoded)
    finally:
        mp.undo()
    return runs


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_week_does_not_depend_on_the_cpu_count(weeks, keys, cpus):
    one, many = weeks[1], weeks[cpus]
    assert payloads(many[0], keys) == payloads(one[0], keys)
    assert many[1] == one[1] and "day 7 done" in one[1]
    for name in ("results.csv", "features.csv"):
        assert (many[2] / name).read_bytes() == (one[2] / name).read_bytes(), name
    assert no_child_left()


def test_the_manifest_records_the_workers_a_day_used(weeks):
    # day 7 has two recordings: one CPU runs them in-process, more fork one child each
    for cpus, (run, _, _) in weeks.items():
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["workers"] == min(cpus, 2), cpus


def failing_trial(monkeypatch) -> None:
    """Make one trial of day 5's second recording (schedule position 2 of 4) raise."""
    gen_trial = simkit.gen_trial

    def failing(profile, task, duration_s, seed):
        if seed[2] == 2 and seed[3:] == [1, 3]:
            raise simkit.SimulatorError("trial generator failed")
        return gen_trial(profile, task, duration_s, seed=seed)

    monkeypatch.setattr(simkit, "gen_trial", failing)


def scenarios(run: Path, keys: Path) -> list[str]:
    return [datastore.read_dataset(p).scenario_id if p[:4] == datastore.CONTAINER_MAGIC
            else json.loads(p)["questionnaire_id"] for p in payloads(run, keys)]


def test_a_failed_recording_ends_the_day_as_in_process(keys, tmp_path, monkeypatch, capsys):
    # forked, the day's third recording is running when the second fails: it is stopped
    # and never stored, as in-process it would never have started
    failing_trial(monkeypatch)
    errors, stored = {}, {}
    for cpus in (1, 2):
        monkeypatch.setattr(simkit, "available_cpus", lambda: cpus)
        out = tmp_path / f"cpus-{cpus}"
        assert main(simulate(5, out, keys)) == 1
        errors[cpus] = capsys.readouterr().err
        assert no_child_left()
        stored[cpus] = scenarios(out, keys)
        entries = json.loads((out / "queue" / "queue.json").read_text())["entries"]
        assert [e["kind"] for e in entries] == ["questionnaire", "recording"]
    assert errors[2] == errors[1] == "error: trial generator failed\n"
    # the questionnaire and the first recording, not the one that failed nor the next
    assert stored[2] == stored[1] and len(stored[1]) == 2


def test_a_failed_step_here_stores_the_recordings_before_it(keys, tmp_path, monkeypatch,
                                                            capsys):
    run_fitting, fits = cli.StudySimulator._run_fitting, []

    def failing(sim, estimator):
        fits.append(sim.engine.day)
        if len(fits) == 2:  # the day's second recording, while the first may run forked
            raise cli.CliError("fitting failed")
        return run_fitting(sim, estimator)

    monkeypatch.setattr(cli.StudySimulator, "_run_fitting", failing)
    stored = {}
    for cpus in (1, 2):
        fits.clear()
        monkeypatch.setattr(simkit, "available_cpus", lambda: cpus)
        out = tmp_path / f"cpus-{cpus}"
        assert main(simulate(3, out, keys)) == 1
        assert capsys.readouterr().err == "error: fitting failed\n"
        assert no_child_left()
        stored[cpus] = scenarios(out, keys)
    assert stored[2] == stored[1] and len(stored[1]) == 2


def test_at_most_one_child_per_cpu_runs_at_once(keys, tmp_path, monkeypatch):
    forked_init, forked_stop, live, most = cli._Forked.__init__, cli._Forked.stop, [0], [0]

    def started(forked, call):
        forked_init(forked, call)  # returns only in this process: the child ends in it
        live[0] += 1
        most[0] = max(most[0], live[0])

    def stopped(forked):
        forked_stop(forked)
        live[0] -= 1

    monkeypatch.setattr(cli._Forked, "__init__", started)
    monkeypatch.setattr(cli._Forked, "stop", stopped)
    monkeypatch.setattr(simkit, "available_cpus", lambda: 2)
    assert main(simulate(5, tmp_path / "day", keys)) == 0  # three recordings
    assert most == [2] and live == [0]


def interrupt_the_second_fitting(monkeypatch) -> None:
    run_fitting, fits = cli.StudySimulator._run_fitting, []

    def interrupted(sim, estimator):
        fits.append(sim.engine.day)
        if len(fits) == 2:
            raise KeyboardInterrupt
        return run_fitting(sim, estimator)

    monkeypatch.setattr(cli.StudySimulator, "_run_fitting", interrupted)


def interrupt_the_first_recording_store(monkeypatch) -> None:
    enqueue = datastore.UploadQueue.enqueue

    def interrupted(queue, envelope, subject_id, kind="recording"):
        if kind == "recording":
            raise KeyboardInterrupt
        return enqueue(queue, envelope, subject_id, kind)

    monkeypatch.setattr(datastore.UploadQueue, "enqueue", interrupted)


@pytest.mark.parametrize("interrupt", [interrupt_the_second_fitting,
                                       interrupt_the_first_recording_store],
                         ids=["while-fitting", "while-storing"])
def test_an_interrupt_leaves_no_child(keys, tmp_path, monkeypatch, interrupt):
    interrupt(monkeypatch)
    monkeypatch.setattr(simkit, "available_cpus", lambda: 2)
    with pytest.raises(KeyboardInterrupt):
        main(simulate(5, tmp_path / "day", keys))  # three recordings: two run at once
    assert no_child_left()
