"""Decode reads every field of its inputs through one field reader: a property over
single-field edits of a small plain week.

Each example replaces one field of one file of days 1-2 of a seed-0 week (4 s
trials, decrypted to plain containers and questionnaire documents) with `true`, a
number as a string, 0, -1, 1e308, a list, an object, or removes it.  Strict decode
must give the clean outputs or exit 1 with `error:` naming the file; `--keep-going`
must give the clean outputs or skip exactly that file and give the outputs of the
week without it.  A traceback, or a numpy RuntimeWarning (an error under this
suite's warning filter), fails the example.

Two outcomes are documented exceptions.  A document whose `kind` is no longer a
questionnaire result is not a questionnaire: decode passes over it with a warning,
as over any file it does not recognize.  A recording whose `quality_trace` is
removed decodes with NaN quality, logs a warning and is named under
`"no_quality_trace"`.  A number as a string replaces only fields that are not
strings: for a string field it is a well-typed value (a subject may be named "4").
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from mindkit import datastore, session
from mindkit.cli import main

MISSING = object()
REPLACEMENTS = [True, "4", 0, -1, 1e308, [1], {"a": 1}, MISSING]
# the fields decode reads, and some it does not, by where they sit in the file
CONTAINER_FIELDS = [("subject_id",), ("scenario_id",), ("day",), ("sample_rate",),
                    ("channel_labels",), ("n_frames",), ("markers",), ("metadata",),
                    ("metadata", "strategy"), ("metadata", "task_labels"),
                    ("metadata", "quality_trace"), ("metadata", "locale")]
QUESTIONNAIRE_FIELDS = [("kind",), ("questionnaire_id",), ("subject_id",), ("day",),
                        ("locale",), ("responses",), ("responses", 0, "item"),
                        ("responses", 0, "kind"), ("responses", 0, "value"),
                        ("responses", 0, "scale"), ("responses", 0, "answered_at")]
STRING_FIELDS = {"subject_id", "scenario_id", "strategy", "locale", "kind",
                 "questionnaire_id", "item"}


def outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in ("results.csv", "features.csv")}


def decode(recordings: Path, out: Path, *extra: str) -> int:
    return main(["decode", "--recordings", str(recordings), "--out", str(out), *extra])


@pytest.fixture(scope="module")
def week(tmp_path_factory):
    """The plain files of days 1-2, the clean outputs, and a cache of the outputs of
    the week without each file."""
    root = tmp_path_factory.mktemp("fields")
    study = session.default_study()
    session.save_study(dataclasses.replace(study, strategies=tuple(
        dataclasses.replace(s, trial_duration_s=4.0) for s in study.strategies)),
        root / "study.json")
    for day in (1, 2):
        assert main(["simulate-session", "--study", str(root / "study.json"), "--day",
                     str(day), "--seed", "0", "--out", str(root / "run")]) == 0
    key = datastore.load_private_key(root / "run" / "keys" / "private.pem")
    plain = root / "plain"
    plain.mkdir()
    for n, path in enumerate(sorted((root / "run" / "uploads").rglob("*.envelope"))):
        blob = bytes(datastore.decrypt_envelope(path.read_bytes(), key))
        suffix = "mynd" if blob[:4] == datastore.CONTAINER_MAGIC else "json"
        (plain / f"{n:02d}.{suffix}").write_bytes(blob)
    assert decode(plain, root / "clean") == 0
    return {"root": root, "plain": plain, "clean": outputs(root / "clean"), "without": {}}


def without(week, name: str) -> dict[str, bytes]:
    if name not in week["without"]:
        recordings = week["root"] / f"without-{name}"
        shutil.copytree(week["plain"], recordings)
        (recordings / name).unlink()
        assert decode(recordings, week["root"] / f"out-without-{name}") == 0
        week["without"][name] = outputs(week["root"] / f"out-without-{name}")
    return week["without"][name]


def edited(blob: bytes, where: tuple, replacement: object) -> bytes:
    """The file with the field at `where` replaced, or removed for MISSING."""
    container = blob[:4] == datastore.CONTAINER_MAGIC
    if container:
        header, payload = datastore.unpack_frame(blob, datastore.CONTAINER_MAGIC,
                                                 datastore.CONTAINER_VERSION)
        doc = header
    else:
        doc = json.loads(blob)
    parent = doc
    for step in where[:-1]:
        parent = parent[step]
    if replacement is MISSING:
        del parent[where[-1]]
    else:
        parent[where[-1]] = replacement
    if container:
        return datastore.pack_frame(datastore.CONTAINER_MAGIC, datastore.CONTAINER_VERSION,
                                    header, bytes(payload))
    return json.dumps(doc).encode()


def without_quality(results: bytes) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(results.decode())))
    column = rows[0].index("mean_quality")
    return [row[:column] + row[column + 1:] for row in rows]


@st.composite
def edits(draw, names: list[str]):
    name = draw(st.sampled_from(names))
    fields = CONTAINER_FIELDS if name.endswith(".mynd") else QUESTIONNAIRE_FIELDS
    where = draw(st.sampled_from(fields))
    choices = [r for r in REPLACEMENTS if not (r == "4" and where[-1] in STRING_FIELDS)]
    return name, where, draw(st.sampled_from(choices))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_decode_refuses_or_reads_a_field_edit_never_misreads_it(week, capsys, data):
    names = sorted(p.name for p in week["plain"].iterdir())
    name, where, replacement = data.draw(edits(names))
    with tempfile.TemporaryDirectory() as scratch:
        recordings = Path(scratch) / "recordings"
        shutil.copytree(week["plain"], recordings)
        path = recordings / name
        path.write_bytes(edited(path.read_bytes(), where, replacement))
        capsys.readouterr()
        for mode, extra in (("strict", ()), ("keep-going", ("--keep-going",))):
            rc = decode(recordings, Path(scratch) / mode, *extra)
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if rc == 1:
                assert mode == "strict", err
                assert err.startswith("error: ") and name in err.splitlines()[-1], err
                continue
            assert rc == 0
            listed = json.loads((Path(scratch) / mode / "manifest.json").read_text())
            got = outputs(Path(scratch) / mode)
            skipped = [s["file"] for s in listed["skipped"]]
            if where == ("metadata", "quality_trace") and replacement is MISSING:
                assert listed["no_quality_trace"] == [name] and skipped == []
                assert got["features.csv"] == week["clean"]["features.csv"]
                assert without_quality(got["results.csv"]) == \
                    without_quality(week["clean"]["results.csv"])
            elif skipped:  # an unrecognized document passes strict decode too
                assert skipped == [name]
                assert mode == "keep-going" or listed["skipped"][0]["error"] == \
                    "unrecognized document"
                assert got == without(week, name)
            else:
                assert listed["no_quality_trace"] == []
                assert got == week["clean"]
