"""`decode --keep-going`, and what a simulated week leaves behind."""

import dataclasses
import json
import logging
import shutil

import numpy as np
import pytest

from mindkit import datastore
from mindkit.cli import main


@pytest.fixture(scope="module")
def week(tmp_path_factory):
    """Seven simulated days of one subject and the default decode of them."""
    root = tmp_path_factory.mktemp("week")
    run = root / "run"
    for day in range(1, 8):
        assert main(["simulate-session", "--day", str(day), "--seed", "4",
                     "--out", str(run)]) == 0
    assert main(["decode", "--recordings", str(run / "uploads" / "recordings"),
                 "--private-key", str(run / "keys" / "private.pem"),
                 "--out", str(root / "default")]) == 0
    return root


def decode(recordings, out, *extra, key=None):
    argv = ["decode", "--recordings", str(recordings), "--out", str(out), *extra]
    return main(argv + (["--private-key", str(key)] if key else []))


def manifest(out):
    return json.loads((out / "manifest.json").read_text())


def test_week_queue_keeps_entries_but_no_envelopes(week):
    queue = week / "run" / "queue"
    assert [p.name for p in queue.iterdir()] == [datastore.UploadQueue.MANIFEST]
    entries = json.loads((queue / datastore.UploadQueue.MANIFEST).read_text())["entries"]
    uploaded = list((week / "run" / "uploads" / "recordings").rglob("*.envelope"))
    assert len(entries) == len(uploaded) > 7
    assert all(e["state"] == datastore.STATE_SENT for e in entries)


def test_keep_going_on_a_clean_week_changes_nothing(week):
    out = week / "keep_going"
    assert decode(week / "run" / "uploads" / "recordings", out, "--keep-going",
                  key=week / "run" / "keys" / "private.pem") == 0
    assert (out / "results.csv").read_bytes() == (week / "default" / "results.csv").read_bytes()
    assert manifest(out)["skipped"] == []
    assert manifest(week / "default")["skipped"] == []


def test_keep_going_skips_a_tampered_envelope(week, tmp_path, caplog):
    recordings = tmp_path / "recordings"
    shutil.copytree(week / "run" / "uploads" / "recordings", recordings)
    envelopes = sorted(recordings.rglob("*.envelope"))
    key = week / "run" / "keys" / "private.pem"
    tampered = []
    for path in envelopes[1:3]:
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(bytes(blob))
        tampered.append(path.relative_to(recordings).as_posix())
    assert decode(recordings, tmp_path / "strict", key=key) == 1
    with caplog.at_level(logging.WARNING, logger="mindkit"):
        assert decode(recordings, tmp_path / "out", "--keep-going", key=key) == 0
    skipped = manifest(tmp_path / "out")["skipped"]
    assert [s["file"] for s in skipped] == tampered
    assert all("authentication" in s["error"] for s in skipped)
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == 2 and all(name in w for name, w in zip(tampered, warned))
    assert manifest(tmp_path / "out")["config"]["keep_going"] is True
    assert (tmp_path / "out" / "results.csv").exists()


def recording(week) -> datastore.RecordingDataset:
    key = datastore.load_private_key(week / "run" / "keys" / "private.pem")
    for path in sorted((week / "run" / "uploads" / "recordings").rglob("*.envelope")):
        blob = datastore.decrypt_envelope(path.read_bytes(), key)
        if blob[:4] == datastore.CONTAINER_MAGIC:
            return datastore.read_dataset(blob)
    raise AssertionError("the week uploaded no recording")


def test_keep_going_drops_all_of_a_file_that_fails_partway(week, tmp_path):
    """The damaged copy decodes its first trials before its short last one fails."""
    good = recording(week)
    n = good.samples.shape[0]
    damaged = datastore.RecordingDataset(
        subject_id=good.subject_id, scenario_id="damaged", day=good.day,
        sample_rate=good.sample_rate, channel_labels=good.channel_labels,
        samples=np.vstack([good.samples, good.samples[:300]]),
        markers=good.markers + [
            datastore.Marker(n, datastore.MARKER_TRIAL_START, "eyes_open"),
            datastore.Marker(n + 300, datastore.MARKER_TRIAL_END, "eyes_open")],
        metadata=good.metadata)
    alone, both = tmp_path / "alone", tmp_path / "both"
    alone.mkdir()
    both.mkdir()
    for directory in (alone, both):
        (directory / "a_good.mynd").write_bytes(datastore.write_dataset(good))
    (both / "b_damaged.mynd").write_bytes(datastore.write_dataset(damaged))
    assert decode(alone, tmp_path / "out_alone") == 0
    assert decode(both, tmp_path / "out_both", "--keep-going") == 0
    for name in ("results.csv", "features.csv", "mediators.csv"):
        assert (tmp_path / "out_both" / name).read_bytes() == \
            (tmp_path / "out_alone" / name).read_bytes()
    skipped = manifest(tmp_path / "out_both")["skipped"]
    assert [s["file"] for s in skipped] == ["b_damaged.mynd"]
    assert "got 300" in skipped[0]["error"]


def test_keep_going_with_no_decodable_recording_fails(week, tmp_path, capsys):
    recordings = tmp_path / "recordings"
    recordings.mkdir()
    good = recording(week)
    good.metadata = {**good.metadata, "task_labels": {"eyes_open": "one"}}
    (recordings / "bad.mynd").write_bytes(datastore.write_dataset(good))
    assert decode(recordings, tmp_path / "out", "--keep-going") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no decodable recordings")


@pytest.mark.parametrize("extra", [(), ("--keep-going",)], ids=["strict", "keep-going"])
def test_decode_skips_an_unfinished_write(week, tmp_path, caplog, extra):
    """A `.tmp` that a killed writer left beside an envelope adds no trials."""
    recordings = tmp_path / "recordings"
    shutil.copytree(week / "run" / "uploads" / "recordings", recordings)
    envelope = sorted(recordings.rglob("*.envelope"))[1]
    leftover = envelope.with_name(envelope.name + datastore.TMP_SUFFIX)
    leftover.write_bytes(envelope.read_bytes())
    with caplog.at_level(logging.WARNING, logger="mindkit"):
        assert decode(recordings, tmp_path / "out", *extra,
                      key=week / "run" / "keys" / "private.pem") == 0
    assert (tmp_path / "out" / "results.csv").read_bytes() == \
        (week / "default" / "results.csv").read_bytes()
    skipped = manifest(tmp_path / "out")["skipped"]
    assert [s["file"] for s in skipped] == [leftover.relative_to(recordings).as_posix()]
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == 1 and leftover.name in warned[0]


@pytest.mark.parametrize("field, value", [("sample_rate", 0), ("day", -3)])
def test_a_header_sample_rate_or_day_below_1_is_refused(week, tmp_path, capsys, field, value):
    """Welch divides by the rate, which once ended decode in a ZeroDivisionError."""
    good = recording(week)
    bad = dataclasses.replace(good, scenario_id="bad", **{field: value})
    recordings = tmp_path / "recordings"
    recordings.mkdir()
    (recordings / "a_good.mynd").write_bytes(datastore.write_dataset(good))
    (recordings / "b_bad.mynd").write_bytes(datastore.write_dataset(bad))
    assert decode(recordings, tmp_path / "strict") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "b_bad.mynd" in err and repr(field) in err
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / "a_good.mynd").write_bytes(datastore.write_dataset(good))
    assert decode(alone, tmp_path / "out_alone") == 0
    assert decode(recordings, tmp_path / "out", "--keep-going") == 0
    assert [s["file"] for s in manifest(tmp_path / "out")["skipped"]] == ["b_bad.mynd"]
    for name in ("results.csv", "features.csv"):
        assert (tmp_path / "out" / name).read_bytes() == \
            (tmp_path / "out_alone" / name).read_bytes()


@pytest.mark.parametrize("trace", ["missing", "empty"])
def test_a_recording_without_a_quality_trace_is_named_and_its_quality_is_nan(
        week, tmp_path, caplog, trace):
    good = recording(week)
    metadata = {k: v for k, v in good.metadata.items() if k != "quality_trace"}
    if trace == "empty":
        metadata["quality_trace"] = []
    recordings = tmp_path / "recordings"
    recordings.mkdir()
    (recordings / "a.mynd").write_bytes(datastore.write_dataset(good))
    (recordings / "untraced.mynd").write_bytes(datastore.write_dataset(dataclasses.replace(
        good, scenario_id="untraced", day=good.day + 1, metadata=metadata)))
    with caplog.at_level(logging.WARNING, logger="mindkit"):
        assert decode(recordings, tmp_path / "out") == 0
    warned = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warned) == 1 and "untraced.mynd" in warned[0] and "quality" in warned[0]
    listed = manifest(tmp_path / "out")
    assert listed["no_quality_trace"] == ["untraced.mynd"] and listed["skipped"] == []
    header, *rows = (tmp_path / "out" / "results.csv").read_text().splitlines()
    assert header == "subject,day,strategy,accuracy,n_trials,mean_quality,motivation,meditation"
    quality = {int(row.split(",")[1]): row.split(",")[5] for row in rows}
    assert quality[good.day + 1] == "nan" and quality[good.day] != "nan"


def test_decode_manifest_lists_every_file_once(week, tmp_path):
    """Each file under --recordings is listed once: under "inputs", with its kind,
    identity and size, if it was decoded, else under "skipped" or "duplicates"."""
    key = week / "run" / "keys" / "private.pem"
    private_key = datastore.load_private_key(key)
    delivered = week / "run" / "uploads" / "recordings"
    default = manifest(week / "default")
    assert default["skipped"] == default["duplicates"] == []
    assert sorted(e["file"] for e in default["inputs"]) == sorted(
        p.relative_to(delivered).as_posix() for p in delivered.rglob("*") if p.is_file())

    recordings = tmp_path / "recordings"
    shutil.copytree(delivered, recordings)
    envelopes = sorted(recordings.rglob("*.envelope"))
    shutil.copy(envelopes[0], recordings / "zz-repeat.envelope")  # sorts after the original
    tampered = bytearray(envelopes[1].read_bytes())
    tampered[-1] ^= 0x01
    envelopes[1].write_bytes(bytes(tampered))
    (recordings / "notes.txt").write_text("not a recording")
    assert decode(recordings, tmp_path / "out", "--keep-going", key=key) == 0
    listed = manifest(tmp_path / "out")
    assert sorted(e["file"] for part in ("inputs", "skipped", "duplicates")
                  for e in listed[part]) == sorted(
        p.relative_to(recordings).as_posix() for p in recordings.rglob("*") if p.is_file())
    assert [e["file"] for e in listed["duplicates"]] == ["zz-repeat.envelope"]
    assert sorted(e["file"] for e in listed["skipped"]) == sorted(
        ["notes.txt", envelopes[1].relative_to(recordings).as_posix()])
    kinds = set()
    for entry in listed["inputs"]:
        path = recordings / entry["file"]
        blob = datastore.decrypt_envelope(path.read_bytes(), private_key)
        if blob[:4] == datastore.CONTAINER_MAGIC:
            dataset = datastore.read_dataset(blob)
            identity = {"kind": "recording", "subject": dataset.subject_id,
                        "day": dataset.day, "scenario": dataset.scenario_id}
        else:
            doc = json.loads(bytes(blob))
            identity = {"kind": "questionnaire", "subject": doc["subject_id"],
                        "day": doc["day"], "questionnaire": doc["questionnaire_id"]}
        assert entry == {"file": entry["file"], **identity, "bytes": path.stat().st_size}
        kinds.add(entry["kind"])
    assert kinds == {"recording", "questionnaire"}


@pytest.mark.parametrize("name, error", [
    ("notes.txt", "document is not UTF-8 JSON: "),
    ("q.json", "neither a container nor a questionnaire"),
], ids=["not-json", "questionnaire-kind"])
def test_strict_decode_refuses_a_file_it_does_not_recognize(week, tmp_path, capsys, name,
                                                            error):
    """`notes.txt` above, strict; and a questionnaire whose `kind` is damaged, which
    strict decode once passed over, exiting 0 without its answers."""
    good = recording(week)
    recordings = recordings_of(good, tmp_path)
    (recordings / name).write_text("not a recording" if name == "notes.txt"
                                   else json.dumps({**questionnaire(good, 4), "kind": True}))
    assert decode(recordings, tmp_path / "strict") == 1
    assert capsys.readouterr().err.startswith(f"error: {recordings / name}: {error}")
    assert not (tmp_path / "strict" / "results.csv").exists()
    assert decode(recordings, tmp_path / "out", "--keep-going") == 0
    assert [s["file"] for s in manifest(tmp_path / "out")["skipped"]] == [name]


def test_a_task_that_cannot_be_scored_is_named_and_keep_going_skips_it(week, tmp_path,
                                                                        capsys):
    """Day 1's resting recording cut to its eyes_open trials: a single-class task."""
    recordings = tmp_path / "recordings"
    shutil.copytree(week / "run" / "uploads" / "recordings", recordings)
    key = week / "run" / "keys" / "private.pem"
    private_key = datastore.load_private_key(key)
    for path in sorted(recordings.rglob("*.envelope")):
        blob = datastore.decrypt_envelope(path.read_bytes(), private_key)
        if blob[:4] == datastore.CONTAINER_MAGIC:
            resting = datastore.read_dataset(blob)
            if resting.day == 1 and resting.metadata["strategy"] == "resting":
                break
    path.unlink()
    resting.markers = [m for m in resting.markers if m.label != "eyes_closed"]
    cut = path.with_name("open-only.mynd")
    cut.write_bytes(datastore.write_dataset(resting))
    name = cut.relative_to(recordings).as_posix()

    assert decode(recordings, tmp_path / "strict", key=key) == 1
    err = capsys.readouterr().err
    assert f"subject {resting.subject_id} day 1 strategy resting (trials in {name})" in err
    assert "both labels" in err

    out = tmp_path / "out"
    assert decode(recordings, out, "--keep-going", key=key) == 0
    rows = (week / "default" / "results.csv").read_text().splitlines(keepends=True)
    kept = [r for r in rows if not r.startswith(f"{resting.subject_id},1,resting,")]
    assert len(kept) == len(rows) - 1
    assert (out / "results.csv").read_text() == "".join(kept)
    assert manifest(out)["skipped"] == []
    assert manifest(out)["skipped_tasks"] == [
        {"subject": resting.subject_id, "day": 1, "strategy": "resting", "files": [name],
         "error": "accuracy evaluation needs both labels present"}]
    assert manifest(week / "default")["skipped_tasks"] == []


def test_keep_going_with_no_task_scored_fails_before_writing(week, tmp_path, capsys):
    """Only the day-1 resting recording, cut to its eyes_open trials: no task can be scored."""
    key = datastore.load_private_key(week / "run" / "keys" / "private.pem")
    for path in sorted((week / "run" / "uploads" / "recordings").rglob("*.envelope")):
        blob = datastore.decrypt_envelope(path.read_bytes(), key)
        if blob[:4] == datastore.CONTAINER_MAGIC:
            resting = datastore.read_dataset(blob)
            if resting.day == 1 and resting.metadata["strategy"] == "resting":
                break
    resting.markers = [m for m in resting.markers if m.label != "eyes_closed"]
    recordings = tmp_path / "recordings"
    recordings.mkdir()
    (recordings / "open-only.mynd").write_bytes(datastore.write_dataset(resting))
    out = tmp_path / "out"
    assert decode(recordings, out, "--keep-going") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no task could be scored: ")
    assert (f"subject {resting.subject_id} day 1 strategy resting (trials in open-only.mynd): "
            "accuracy evaluation needs both labels present") in err
    assert list(out.iterdir()) == []


# --- each recording counts once ------------------------------------------------------

@pytest.fixture(scope="module")
def zero_week(tmp_path_factory):
    """A seed-5 week of the `zero` profile, which carries no signal to decode."""
    root = tmp_path_factory.mktemp("zero_week")
    for day in range(1, 8):
        assert main(["simulate-session", "--day", str(day), "--seed", "5", "--profile", "zero",
                     "--out", str(root / "run")]) == 0
    return root


def test_a_week_delivered_twice_decodes_as_the_week_delivered_once(zero_week, tmp_path):
    """Every envelope copied once more, and one payload sealed again under a new
    envelope key, as a re-run day would upload it: the repeats are listed, not decoded."""
    run = zero_week / "run"
    key = run / "keys" / "private.pem"
    once = run / "uploads" / "recordings"
    twice = tmp_path / "recordings"
    shutil.copytree(once, twice / "a")
    shutil.copytree(once, twice / "b")
    first = sorted((twice / "a").rglob("*.envelope"))[0]
    payload = datastore.decrypt_envelope(first.read_bytes(), datastore.load_private_key(key))
    resealed = datastore.encrypt_envelope(
        payload, datastore.load_public_key(run / "keys" / "public.pem"))
    assert resealed != first.read_bytes()
    (twice / "c").mkdir()
    (twice / "c" / "resealed.envelope").write_bytes(resealed)

    assert decode(once, tmp_path / "once", key=key) == 0
    assert decode(twice, tmp_path / "twice", key=key) == 0
    for name in ("results.csv", "features.csv", "mediators.csv"):
        assert (tmp_path / "twice" / name).read_bytes() == \
            (tmp_path / "once" / name).read_bytes()
    names = sorted(p.relative_to(once).as_posix() for p in once.rglob("*.envelope"))
    assert manifest(tmp_path / "twice")["duplicates"] == [
        {"file": f"b/{name}", "repeats": f"a/{name}"} for name in names] + [
        {"file": "c/resealed.envelope", "repeats": first.relative_to(twice).as_posix()}]
    assert manifest(tmp_path / "twice")["skipped"] == []
    assert manifest(tmp_path / "once")["duplicates"] == []


def test_two_files_of_one_recording_with_different_bytes_conflict(week, tmp_path, capsys):
    good = recording(week)
    changed = datastore.RecordingDataset(
        subject_id=good.subject_id, scenario_id=good.scenario_id, day=good.day,
        sample_rate=good.sample_rate, channel_labels=good.channel_labels,
        samples=good.samples + 1.0, markers=good.markers, metadata=good.metadata)
    alone, both = tmp_path / "alone", tmp_path / "both"
    alone.mkdir()
    both.mkdir()
    for directory in (alone, both):
        (directory / "a.mynd").write_bytes(datastore.write_dataset(good))
    (both / "b.mynd").write_bytes(datastore.write_dataset(changed))

    assert decode(both, tmp_path / "strict") == 1
    err = capsys.readouterr().err
    assert "b.mynd: differs from a.mynd, which holds the same recording " \
           f"(subject {good.subject_id}, day {good.day}, {good.scenario_id})" in err
    assert not (tmp_path / "strict" / "results.csv").exists()

    assert decode(alone, tmp_path / "out_alone") == 0
    assert decode(both, tmp_path / "out_both", "--keep-going") == 0
    for name in ("results.csv", "features.csv", "mediators.csv"):
        assert (tmp_path / "out_both" / name).read_bytes() == \
            (tmp_path / "out_alone" / name).read_bytes()
    skipped = manifest(tmp_path / "out_both")["skipped"]
    assert [s["file"] for s in skipped] == ["b.mynd"]
    assert "differs from a.mynd" in skipped[0]["error"]
    assert manifest(tmp_path / "out_both")["duplicates"] == []


# --- questionnaires: their identity, and each counted once -----------------------------

def questionnaire(dataset: datastore.RecordingDataset, motivation: int) -> dict:
    """A daily questionnaire of the recording's subject and day."""
    return {"kind": "questionnaire_result", "questionnaire_id": "daily",
            "subject_id": dataset.subject_id, "day": dataset.day, "locale": "en",
            "responses": [{"item": "motivation", "kind": "rating", "value": motivation,
                           "scale": 5, "answered_at": 0.0}]}


def recordings_of(good: datastore.RecordingDataset, tmp_path, **documents):
    """A directory of one plain recording, `a.mynd`, and each document as `<name>.json`."""
    recordings = tmp_path / "recordings"
    recordings.mkdir()
    (recordings / "a.mynd").write_bytes(datastore.write_dataset(good))
    for name, doc in documents.items():
        (recordings / f"{name}.json").write_text(json.dumps(doc))
    return recordings


def motivations(out) -> set[str]:
    lines = (out / "results.csv").read_text().splitlines()
    column = lines[0].split(",").index("motivation")
    return {line.split(",")[column] for line in lines[1:]}


@pytest.mark.parametrize("key, value, named", [
    ("day", 1.5, "field 'day' must be an integer >= 1, got 1.5"),
    ("day", True, "field 'day' must be an integer >= 1, got True"),
    ("day", "1", "field 'day' must be an integer >= 1, got '1'"),
    ("subject_id", None, "field 'subject_id' must be a non-empty string, got None"),
    ("subject_id", 7, "field 'subject_id' must be a non-empty string, got 7"),
    ("day", 0, "field 'day' must be an integer >= 1, got 0"),
    ("day", -3, "field 'day' must be an integer >= 1, got -3"),
    ("questionnaire_id", "", "field 'questionnaire_id' must be a non-empty string, got ''"),
], ids=["day-fraction", "day-bool", "day-string", "subject-missing", "subject-number",
        "day-zero", "day-negative", "questionnaire-empty"])
def test_a_questionnaire_identity_of_the_wrong_type_is_malformed(week, tmp_path, capsys,
                                                                 key, value, named):
    good = recording(week)
    doc = questionnaire(good, 4)
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    recordings = recordings_of(good, tmp_path, q=doc)
    error = repr(ValueError(named))
    assert decode(recordings, tmp_path / "strict") == 1
    err = capsys.readouterr().err
    assert err == f"error: malformed questionnaire {recordings / 'q.json'}: {error}\n"
    assert not (tmp_path / "strict" / "results.csv").exists()

    assert decode(recordings, tmp_path / "out", "--keep-going") == 0
    listed = manifest(tmp_path / "out")
    assert listed["skipped"] == [{"file": "q.json", "error": f"malformed questionnaire: {error}"}]
    assert [e["file"] for e in listed["inputs"]] == ["a.mynd"]
    assert motivations(tmp_path / "out") == {"nan"}


def test_two_questionnaires_of_one_identity_count_once(week, tmp_path, capsys):
    """`q1` is decoded; `q2` has other answers, so it conflicts; `q3` repeats `q1`."""
    good = recording(week)
    recordings = recordings_of(good, tmp_path, q1=questionnaire(good, 4),
                               q2=questionnaire(good, 2))
    assert decode(recordings, tmp_path / "strict") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {recordings / 'q2.json'}: differs from q1.json, which "
                          f"holds the same questionnaire (subject {good.subject_id}, "
                          f"day {good.day}, daily)")
    assert "Traceback" not in err
    assert not (tmp_path / "strict" / "results.csv").exists()

    shutil.copy(recordings / "q1.json", recordings / "q3.json")
    assert decode(recordings, tmp_path / "out", "--keep-going") == 0
    listed = manifest(tmp_path / "out")
    assert [e["file"] for e in listed["inputs"]] == ["a.mynd", "q1.json"]
    assert [s["file"] for s in listed["skipped"]] == ["q2.json"]
    assert listed["skipped"][0]["error"].startswith("differs from q1.json")
    assert listed["duplicates"] == [{"file": "q3.json", "repeats": "q1.json"}]
    assert motivations(tmp_path / "out") == {"4.0"}

    (recordings / "q2.json").unlink()
    assert decode(recordings, tmp_path / "repeat") == 0
    assert manifest(tmp_path / "repeat")["duplicates"] == [{"file": "q3.json",
                                                           "repeats": "q1.json"}]
    assert motivations(tmp_path / "repeat") == {"4.0"}
