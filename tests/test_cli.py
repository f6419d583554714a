"""Command-line workflows: corpus generation, prior learning, simulation, decoding."""

import csv
import dataclasses
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mindkit import cli, datastore, decoder, features, session, simkit
from mindkit.cli import _is_output, _trials_from_dataset, _write_series, build_parser, main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def day3_run(workspace):
    """One simulated study day shared by the simulate/decode tests."""
    out = workspace / "run3"
    rc = main(["simulate-session", "--day", "3", "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    return out


@pytest.fixture(scope="module")
def small_corpus(workspace):
    out = workspace / "corpus.csv"
    rc = main(["gen-lab-corpus", "--subjects", "3", "--trials", "8",
               "--seed", "5", "--out", str(out)])
    assert rc == 0
    return out


# --- parser -------------------------------------------------------------------

def test_parser_defaults():
    args = build_parser().parse_args(
        ["simulate-session", "--day", "1", "--out", "x"])
    assert args.profile == "strong"
    assert args.transport == "dir"
    assert args.line_freq is None  # the profile's frequency
    assert args.battery == 0.9
    assert args.locale == "en"
    assert args.seed == 0


def test_parser_rejects_unknown_line_frequency():
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["simulate-session", "--day", "1", "--out", "x", "--line-freq", "55"])


def test_parser_requires_day_and_out():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate-session", "--out", "x"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate-session", "--day", "1"])


# --- gen-lab-corpus -----------------------------------------------------------

def test_corpus_table_contents(small_corpus, capsys):
    vectors = features.read_feature_table(small_corpus)
    assert len(vectors) == 3 * 8
    assert sorted({v.subject for v in vectors}) == ["lab00", "lab01", "lab02"]
    assert all(v.strategy == session.STRATEGY_MEMORIES for v in vectors)
    manifest = json.loads(Path(f"{small_corpus}.manifest.json").read_text())
    assert manifest["command"] == "gen-lab-corpus"
    assert manifest["config"]["seed"] == 5
    assert manifest["outputs"] == ["corpus.csv"]


def test_corpus_generation_is_deterministic(small_corpus, workspace):
    again = workspace / "corpus_again.csv"
    assert main(["gen-lab-corpus", "--subjects", "3", "--trials", "8",
                 "--seed", "5", "--out", str(again)]) == 0
    assert again.read_bytes() == small_corpus.read_bytes()
    other = workspace / "corpus_other.csv"
    assert main(["gen-lab-corpus", "--subjects", "3", "--trials", "8",
                 "--seed", "6", "--out", str(other)]) == 0
    assert other.read_bytes() != small_corpus.read_bytes()


def test_corpus_with_one_subject_errors(workspace, capsys):
    rc = main(["gen-lab-corpus", "--subjects", "1", "--trials", "8",
               "--seed", "0", "--out", str(workspace / "solo.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# --- learn-prior ----------------------------------------------------------------

def test_learn_prior_writes_prior_file(small_corpus, workspace, capsys):
    out = workspace / "prior.mynp"
    rc = main(["learn-prior", "--corpus", str(small_corpus), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "prior learned from 3 tasks" in stdout
    assert "iterations" in stdout and "residual" in stdout
    blob = out.read_bytes()
    assert blob[:4] == b"MYNP"
    again = workspace / "prior_again.mynp"
    assert main(["learn-prior", "--corpus", str(small_corpus), "--out", str(again)]) == 0
    assert again.read_bytes() == blob


def test_learn_prior_reports_fit_trajectory(small_corpus, workspace, capsys, monkeypatch):
    monkeypatch.setattr(decoder, "MAX_PRIOR_ITERATIONS", 30)  # the fit runs 35 rounds uncapped
    out = workspace / "traced" / "prior.mynp"
    assert main(["learn-prior", "--corpus", str(small_corpus), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "residual trajectory: 1: " in stdout and ", 10: " in stdout
    assert "clipped eigenvalues: " in stdout
    fit = json.loads(Path(f"{out}.manifest.json").read_text())["prior_fit"]
    _, header = decoder.read_prior(out.read_bytes())
    assert [p["iteration"] for p in fit["residual_trajectory"]] == [1, 10, 30]
    assert fit["residual_trajectory"][-1]["residual"] == header["residual"]
    assert type(fit["clipped_eigenvalues"]) is int
    assert set(header) == {"dim", "feature_order", "lambda_grid", "eps_ridge",
                           "iterations_run", "converged", "residual"}


@pytest.mark.parametrize("command", [
    ["learn-prior", "--corpus", "c.csv", "--out", "p.mynp", "--zero-mean"],
    ["learn-prior", "--corpus", "c.csv", "--out", "p.mynp", "--prior-lambda", "1"],
    ["decode", "--recordings", "r", "--out", "o", "--lambda-grid", "1"],
], ids=["zero-mean", "prior-lambda", "lambda-grid"])
def test_model_options_are_refused(command):
    with pytest.raises(SystemExit):
        build_parser().parse_args(command)


def test_corpus_then_prior_in_one_directory_keeps_both_records(tmp_path):
    # the README's sequence: each command names its record after the file it wrote
    corpus, prior = tmp_path / "corpus.csv", tmp_path / "prior.mynp"
    assert main(["gen-lab-corpus", "--subjects", "3", "--trials", "8", "--seed", "5",
                 "--out", str(corpus)]) == 0
    assert main(["learn-prior", "--corpus", str(corpus), "--out", str(prior)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "corpus.csv", "corpus.csv.manifest.json", "prior.mynp", "prior.mynp.manifest.json"]
    corpus_record = json.loads(Path(f"{corpus}.manifest.json").read_text())
    prior_record = json.loads(Path(f"{prior}.manifest.json").read_text())
    assert corpus_record["command"] == "gen-lab-corpus" and corpus_record["threads"] >= 1
    assert corpus_record["config"]["seed"] == 5 and corpus_record["outputs"] == ["corpus.csv"]
    assert prior_record["command"] == "learn-prior" and prior_record["outputs"] == ["prior.mynp"]
    assert prior_record["config"] == {"corpus": str(corpus)}
    assert prior_record["input_digests"]["corpus"] == \
        hashlib.sha256(corpus.read_bytes()).hexdigest()
    assert not any(_is_output(p) for p in tmp_path.iterdir() if p.name.endswith(".json"))


def test_learn_prior_rejects_single_task_corpus(workspace, capsys):
    vectors = simkit.gen_subject_feature_vectors(
        simkit.strong_profile(seed=1), ("memory", "subtraction"), 8, "only",
        seed=2, trial_duration_s=4.0, strategy=session.STRATEGY_MEMORIES)
    solo = workspace / "solo_corpus.csv"
    features.write_feature_table(vectors, solo)
    rc = main(["learn-prior", "--corpus", str(solo),
               "--out", str(workspace / "solo.mynp")])
    assert rc == 1
    assert "two tasks" in capsys.readouterr().err


def test_learn_prior_missing_corpus_errors(workspace, capsys):
    rc = main(["learn-prior", "--corpus", str(workspace / "absent.csv"),
               "--out", str(workspace / "p.mynp")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("corrupt", [
    lambda text: b"",
    lambda text: text.replace(",0.", ",x", 1).encode(),
    lambda text: text.replace("\nlab00,0,", "\nlab00,zero,", 1).encode(),
    lambda text: (text + "lab00,0,x\r\n").encode(),
    lambda text: b"\xff" + text.encode(),
], ids=["empty", "feature-not-number", "day-not-int", "short-row", "not-utf8"])
def test_learn_prior_malformed_corpus_errors_without_traceback(small_corpus, workspace,
                                                              capsys, corrupt):
    bad = workspace / "bad_corpus.csv"
    bad.write_bytes(corrupt(small_corpus.read_text()))
    rc = main(["learn-prior", "--corpus", str(bad), "--out", str(workspace / "bad.mynp")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command, out", [
    (["learn-prior"], "directory"),
    (["learn-prior"], "file/prior.mynp"),
    (["simulate-session", "--day", "1"], "file"),
    (["gen-lab-corpus", "--subjects", "2", "--trials", "4"], "file/corpus.csv"),
], ids=["learn-prior-into-directory", "learn-prior-under-file", "simulate-into-file",
        "corpus-under-file"])
def test_unusable_output_path_errors_without_traceback(small_corpus, tmp_path, capsys,
                                                        command, out):
    (tmp_path / "directory").mkdir()
    (tmp_path / "file").write_bytes(b"kept")
    if command[0] == "learn-prior":
        command = command + ["--corpus", str(small_corpus)]
    rc = main(command + ["--out", str(tmp_path / out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert (tmp_path / "file").read_bytes() == b"kept"
    assert list((tmp_path / "directory").iterdir()) == []


@pytest.mark.parametrize("command", [
    ["simulate-session", "--day", "1", "--seed", "-1"],
    ["simulate-session", "--day", "0"],
    ["simulate-session", "--day", "8"],
    ["simulate-session", "--day", "1", "--subject", "a b"],
    ["simulate-session", "--day", "1", "--transport", "http"],
    ["simulate-session", "--day", "1", "--public-key", "absent.pem"],
    ["simulate-session", "--day", "1", "--battery", "nan"],
    ["simulate-session", "--day", "1", "--battery", "inf"],
    ["simulate-session", "--day", "1", "--battery", "-0.1"],
    ["simulate-session", "--day", "1", "--battery", "5"],
    ["gen-lab-corpus", "--seed", "-1"],
    ["gen-lab-corpus", "--trials", "0"],
    ["gen-lab-corpus", "--trials", "-2"],
    ["gen-lab-corpus", "--trials", "3"],
], ids=["simulate-seed-neg", "simulate-day-0", "simulate-day-8", "simulate-subject-space",
        "simulate-http-no-server", "simulate-missing-key", "simulate-battery-nan",
        "simulate-battery-inf", "simulate-battery-neg", "simulate-battery-5",
        "corpus-seed-neg", "corpus-trials-0", "corpus-trials-neg", "corpus-trials-odd"])
def test_bad_arguments_error_before_anything_is_written(tmp_path, capsys, command):
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(command + ["--out", str(out / "corpus.csv" if command[0] == "gen-lab-corpus"
                                          else out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("subjects, trials", [
    ("11", "100000000000"), ("2", "50002"), ("100000000000", "40")],
    ids=["trials-huge", "just-over", "subjects-huge"])
def test_corpus_too_large_to_hold_errors_before_any_work(tmp_path, capsys, monkeypatch,
                                                          subjects, trials):
    def refuse(*args, **kwargs):
        raise AssertionError("the corpus was started")

    monkeypatch.setattr(simkit, "gen_lab_feature_vectors", refuse)
    out = tmp_path / "out"
    assert main(["gen-lab-corpus", "--subjects", subjects, "--trials", trials,
                 "--out", str(out / "corpus.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --subjects {subjects} x --trials {trials} is more than")
    assert "Traceback" not in err and not out.exists()


def test_corpus_at_the_size_limit_is_started(tmp_path, monkeypatch):
    class Started(Exception):
        pass

    def started(n_subjects, trials_per_subject, *args, **kwargs):
        assert n_subjects * trials_per_subject == cli.MAX_CORPUS_TRIALS
        raise Started

    monkeypatch.setattr(simkit, "gen_lab_feature_vectors", started)
    with pytest.raises(Started):
        main(["gen-lab-corpus", "--subjects", "2", "--trials", "50000",
              "--out", str(tmp_path / "corpus.csv")])


def test_learn_prior_rejects_directory_out_before_reading_the_corpus(workspace, tmp_path,
                                                                      capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the corpus was read")

    monkeypatch.setattr(features, "read_feature_table", refuse)
    rc = main(["learn-prior", "--corpus", str(workspace / "absent.csv"),
               "--out", str(tmp_path)])
    assert rc == 1
    assert "is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("column, value", [
    ("label", "0.5"), ("label", "2.0"), ("label", "0.0"), ("label", "nan"),
    ("lab01_alpha", "1e308"),  # finite, but its group's spread overflows when normalized
], ids=["label-half", "label-two", "label-zero", "label-nan", "value-overflows"])
def test_learn_prior_refuses_a_corpus_row_naming_it(small_corpus, tmp_path, capsys,
                                                     column, value):
    with small_corpus.open(newline="") as fh:
        rows = list(csv.reader(fh))
    header, row = rows[0], rows[10]  # subject lab01, trial 1
    column = "AF7_alpha" if column == "lab01_alpha" else column
    row[header.index(column)] = value
    corpus = tmp_path / "corpus.csv"
    with corpus.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert main(["learn-prior", "--corpus", str(corpus), "--out", str(tmp_path / "p.mynp")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"subject {row[0]}, trial {row[3]}" in err
    assert not (tmp_path / "p.mynp").exists()


def test_learn_prior_rejects_out_under_a_file_before_the_fit(small_corpus, tmp_path, capsys,
                                                            monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the fit ran before --out was checked")

    monkeypatch.setattr(features, "read_feature_table", refuse)
    monkeypatch.setattr(decoder, "learn_prior", refuse)
    (tmp_path / "file").write_bytes(b"kept")
    rc = main(["learn-prior", "--corpus", str(small_corpus),
               "--out", str(tmp_path / "file" / "prior.mynp")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# --- simulate-session -----------------------------------------------------------

def test_day3_runs_resting_and_imagery_only(day3_run, capsys):
    rc = main(["simulate-session", "--day", "3", "--seed", "7",
               "--out", str(day3_run.parent / "run3_echo"),
               "--public-key", str(day3_run / "keys" / "public.pem")])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "resting-d3" in stdout
    assert "music_imagery-d3" in stdout
    assert "positive_memories" not in stdout
    assert "locked out" in stdout
    manifest = json.loads((day3_run / "manifest.json").read_text())
    assert manifest["command"] == "simulate-session"
    assert manifest["config"]["seed"] == 7
    assert manifest["config"]["day"] == 3


def test_day3_uploads_recordings_and_questionnaire(day3_run):
    envelopes = sorted((day3_run / "uploads" / "recordings").rglob("*.envelope"))
    # daily questionnaire + resting + music imagery
    assert len(envelopes) == 3
    assert all(p.parent.name == "sim00000007" for p in envelopes)


def test_rerun_reproduces_decrypted_dataset_bytes(day3_run):
    again = day3_run.parent / "run3_again"
    rc = main(["simulate-session", "--day", "3", "--seed", "7",
               "--out", str(again),
               "--public-key", str(day3_run / "keys" / "public.pem")])
    assert rc == 0
    private = datastore.load_private_key(day3_run / "keys" / "private.pem")

    def payloads(root):
        return [datastore.decrypt_envelope(p.read_bytes(), private)
                for p in sorted((root / "uploads" / "recordings").rglob("*.envelope"))]

    first, second = payloads(day3_run), payloads(again)
    assert len(first) == len(second) == 3
    assert first == second


def container_payloads(run: Path, private) -> list[bytes]:
    """The decrypted containers a run uploaded, in upload order."""
    payloads = [datastore.decrypt_envelope(path.read_bytes(), private) for path in
                sorted((run / "uploads" / "recordings").rglob("*.envelope"),
                       key=lambda path: path.name)]  # a name starts with its queue number
    return [p for p in payloads if p[:4] == datastore.CONTAINER_MAGIC]


def test_recordings_hold_each_trial_in_float32(tmp_path, monkeypatch):
    windows = []
    gen_trial = simkit.gen_trial

    def kept(*args, **kwargs):
        windows.append(gen_trial(*args, **kwargs))
        return windows[-1]

    # the spy sees only this process's calls, so the day runs in-process
    monkeypatch.setattr(simkit, "available_cpus", lambda: 1)
    monkeypatch.setattr(simkit, "gen_trial", kept)
    rc = main(["simulate-session", "--day", "3", "--seed", "7", "--out", str(tmp_path / "one")])
    assert rc == 0
    private = datastore.load_private_key(tmp_path / "one" / "keys" / "private.pem")
    recordings = []
    for payload in container_payloads(tmp_path / "one", private):
        dataset = datastore.read_dataset(payload)
        assert dataset.markers[-1].sample_index == dataset.n_frames
        recordings.append(dataset.samples)
    assert len(recordings) == 2
    want = np.hstack([w.samples for w in windows]).T.astype(np.float32)
    assert np.array_equal(np.vstack(recordings), want)
    # forked children fill their recordings from the same trials, unseen by the spy
    monkeypatch.setattr(simkit, "available_cpus", lambda: 2)
    seen = len(windows)
    assert main(["simulate-session", "--day", "3", "--seed", "7", "--out", str(tmp_path / "two"),
                 "--public-key", str(tmp_path / "one" / "keys" / "public.pem")]) == 0
    assert len(windows) == seen
    assert container_payloads(tmp_path / "two", private) == \
        container_payloads(tmp_path / "one", private)


def traced_day_peak(out: Path) -> tuple[int, int]:
    """The traced peak of simulating seed 3's day 1 into `out`, and its largest envelope."""
    tracemalloc.start()
    try:
        rc = main(["simulate-session", "--day", "1", "--seed", "3", "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    return peak, max(p.stat().st_size for p in (out / "uploads").rglob("*.envelope"))


def test_day_peak_memory_is_a_few_recordings(tmp_path, monkeypatch):
    # each recording is held as float32 samples and sealed from that one copy, so the
    # traced peak stays near three recordings' size; in-process, as it is traced here
    monkeypatch.setattr(simkit, "available_cpus", lambda: 1)
    peak, largest = traced_day_peak(tmp_path)
    assert peak <= 4.5 * largest, peak / largest


def test_forked_day_peak_memory_is_a_few_recordings(tmp_path, monkeypatch):
    # forked, the traced peak is this process's alone, which holds each envelope as it
    # stores it; the containers are the in-process day's
    monkeypatch.setattr(simkit, "available_cpus", lambda: 2)
    peak, largest = traced_day_peak(tmp_path / "forked")
    assert peak <= 4.5 * largest, peak / largest
    assert json.loads((tmp_path / "forked" / "manifest.json").read_text())["workers"] == 2
    monkeypatch.setattr(simkit, "available_cpus", lambda: 1)
    assert main(["simulate-session", "--day", "1", "--seed", "3", "--out", str(tmp_path / "one"),
                 "--public-key", str(tmp_path / "forked" / "keys" / "public.pem")]) == 0
    private = datastore.load_private_key(tmp_path / "forked" / "keys" / "private.pem")
    assert container_payloads(tmp_path / "forked", private) == \
        container_payloads(tmp_path / "one", private)


def test_low_battery_refuses_to_record(workspace, capsys):
    rc = main(["simulate-session", "--day", "1", "--seed", "3",
               "--battery", "0.05", "--out", str(workspace / "lowbat")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("session blocked:")
    assert "battery" in err
    # day 1's two questionnaires come before the battery read, so they still run
    assert len(list((workspace / "lowbat" / "uploads").rglob("*.envelope"))) == 2


def test_http_transport_requires_server(workspace, capsys):
    rc = main(["simulate-session", "--day", "1", "--transport", "http",
               "--out", str(workspace / "nohttp")])
    assert rc == 1
    assert "--server" in capsys.readouterr().err


def test_http_upload_to_an_unparsable_server_url_stays_queued(workspace):
    out = workspace / "badurl"
    assert main(["simulate-session", "--day", "1", "--transport", "http",
                 "--server", "nonsense", "--out", str(out)]) == 0
    entries = json.loads((out / "queue" / "queue.json").read_text())["entries"]
    assert len(entries) > 0
    assert all(e["state"] == "pending" and e["attempts"] >= 1 for e in entries)


def test_unknown_profile_errors(workspace, capsys):
    rc = main(["simulate-session", "--day", "1", "--profile", "imaginary",
               "--out", str(workspace / "noprof")])
    assert rc == 1
    assert "profile" in capsys.readouterr().err


def test_damaged_upload_queue_errors_without_traceback(workspace, capsys):
    out = workspace / "damaged"
    (out / "queue").mkdir(parents=True)
    (out / "queue" / datastore.UploadQueue.MANIFEST).write_text("{not json")
    rc = main(["simulate-session", "--day", "1", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "queue" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"version": 1, "study_id": "s"}'],
                         ids=["not-utf8", "no-days"])
def test_bad_study_file_errors_without_traceback(workspace, capsys, content):
    study = workspace / "bad_study.json"
    study.write_bytes(content)
    rc = main(["simulate-session", "--day", "1", "--study", str(study),
               "--out", str(workspace / "badstudy")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "study" in err
    assert "Traceback" not in err


def _edited_json(tmp_path: Path, save, obj, edit) -> Path:
    """`obj` saved by `save`, then changed by `edit` on the loaded document."""
    path = tmp_path / "edited.json"
    save(obj, path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("field, value", [
    ("artifact_rate_per_min", -1), ("seed", -5), ("line_noise_amp", float("nan")),
    ("baseline_sigma", float("nan")), ("baseline_sigma", 1e308), ("alpha_channels", [0.5]),
])
def test_bad_profile_file_errors_before_anything_is_written(tmp_path, capsys, field, value):
    profile = _edited_json(tmp_path, simkit.save_profile, simkit.strong_profile(1),
                           lambda doc: doc.update({field: value}))
    out = tmp_path / "out"
    rc = main(["simulate-session", "--day", "1", "--seed", "1", "--profile", str(profile),
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [("time_constant_s", 0), ("sigma_final", -1)])
def test_bad_fitting_in_profile_file_errors_before_anything_is_written(tmp_path, capsys,
                                                                       field, value):
    profile = _edited_json(tmp_path, simkit.save_profile, simkit.strong_profile(1),
                           lambda doc: doc["fitting"].update({field: value}))
    out = tmp_path / "out"
    rc = main(["simulate-session", "--day", "1", "--seed", "1", "--profile", str(profile),
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: field 'fitting.{field}' must be a positive number, got ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("option, want", [([], 60.0), (["--line-freq", "50"], 50.0)],
                         ids=["from-profile", "from-option"])
def test_line_freq_is_the_profile_s_unless_the_option_is_given(tmp_path, monkeypatch,
                                                               option, want):
    study = session.default_study()
    session.save_study(dataclasses.replace(study, strategies=tuple(
        dataclasses.replace(s, trial_duration_s=4.0) for s in study.strategies)),
        tmp_path / "study.json")
    profile = tmp_path / "profile.json"
    simkit.save_profile(dataclasses.replace(simkit.strong_profile(1), line_freq=60.0), profile)
    checked = []
    noise_check = cli.streamkit.em_noise_quality

    def spy(block, **kwargs):
        checked.append(kwargs["line_freq"])
        return noise_check(block, **kwargs)

    monkeypatch.setattr(cli.streamkit, "em_noise_quality", spy)
    out = tmp_path / "out"
    assert main(["simulate-session", "--study", str(tmp_path / "study.json"), "--day", "1",
                 "--seed", "1", "--profile", str(profile), "--out", str(out), *option]) == 0
    assert checked and set(checked) == {want}
    assert json.loads((out / "manifest.json").read_text())["config"]["line_freq"] == want
    key = datastore.load_private_key(out / "keys" / "private.pem")
    recorded = [datastore.read_dataset(blob).metadata["line_freq"]
                for blob in (datastore.decrypt_envelope(p.read_bytes(), key)
                             for p in (out / "uploads" / "recordings").rglob("*.envelope"))
                if blob[:4] == datastore.CONTAINER_MAGIC]
    assert recorded and set(recorded) == {want}


@pytest.mark.parametrize("edit, named", [
    (lambda doc: doc["strategies"][1].update(tasks=["memory", "memory"]), "memory"),
    (lambda doc: doc["strategies"].append(dict(doc["strategies"][0])), "'resting'"),
    (lambda doc: doc["questionnaires"].append(dict(doc["questionnaires"][1])), "'daily'"),
    (lambda doc: doc["strategies"][1].update(trial_duration_s=1.0),
     "'positive_memories' trial_duration_s"),
    (lambda doc: doc["strategies"][1].update(trial_duration_s=1e9),
     "strategy 'positive_memories': field 'trial_duration_s' must be a positive number "
     "<= 86400, got 1000000000.0"),
    (lambda doc: doc["strategies"][0].update(trial_duration_s=15000.0),  # 6 a day
     "day 1's daily_trials last"),
    (lambda doc: doc["strategies"][1].update(daily_trials={"5": 10}),  # blocks of 6
     "'positive_memories' daily_trials: 10 trials on day 5 do not split into blocks of 6"),
    (lambda doc: doc["questionnaires"][1]["items"][0].update(scale=4.5),
     "rating item 'motivation': field 'scale' must be a whole number >= 2, got 4.5"),
    (lambda doc: doc["questionnaires"][1]["items"].append(
        {"id": "mood", "kind": "multiple_choice", "options": "abc",
         "text": {"en": "?", "de": "?"}}),
     "multiple_choice item 'mood': field 'options' must be a non-empty list of strings, "
     "got 'abc'"),
], ids=["equal-tasks", "repeated-strategy", "repeated-questionnaire", "trial-too-short",
        "trial-too-long", "day-too-long", "day-not-whole-blocks", "scale-fraction",
        "options-string"])
def test_study_that_cannot_be_decoded_errors_before_anything_is_written(tmp_path, capsys,
                                                                         edit, named):
    study = _edited_json(tmp_path, session.save_study, session.default_study(), edit)
    out = tmp_path / "out"
    for day in range(1, session.STUDY_DAYS + 1):  # the study is refused, not one day of it
        rc = main(["simulate-session", "--day", str(day), "--seed", "1", "--study", str(study),
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {study}: ") and named in err and "Traceback" not in err
        assert not out.exists()


# --- decode ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def decoded(day3_run, workspace):
    out = workspace / "decoded"
    rc = main(["decode", "--recordings", str(day3_run / "uploads" / "recordings"),
               "--private-key", str(day3_run / "keys" / "private.pem"),
               "--out", str(out)])
    assert rc == 0
    return out


def test_decode_emits_one_row_per_day_and_strategy(decoded):
    results = decoded / "results.csv"
    lines = results.read_text().strip().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.startswith("subject,day,strategy,accuracy")
    keyed = {tuple(r.split(",")[:3]) for r in rows}
    assert keyed == {("sim00000007", "3", "music_imagery"),
                     ("sim00000007", "3", "resting")}


def test_decode_writes_all_report_files(decoded):
    names = {p.name for p in decoded.iterdir()}
    assert {"results.csv", "mediators.csv", "r2_map.csv", "features.csv",
            "series_accuracy_by_day.csv", "series_accuracy_vs_quality.csv",
            "manifest.json"} <= names
    mediators = (decoded / "mediators.csv").read_text()
    for name in ("mean_quality", "day", "motivation", "meditation"):
        assert name in mediators


def test_series_accuracy_by_day_rows(tmp_path):
    results = [decoder.DecodingResult(subject=s, day=d, strategy="resting", accuracy=a,
                                      n_trials=18)
               for s, d, a in [("a", 2, 1.0), ("a", 1, 0.5), ("b", 1, 1.0), ("c", 1, 0.6)]]
    _write_series(results, tmp_path)
    with open(tmp_path / "series_accuracy_by_day.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    # one row per day, in day order: the median and the mean of that day's accuracies
    assert rows == [["day", "median_accuracy", "mean_accuracy", "n_tasks"],
                    ["1", "0.6", repr(np.mean([0.5, 1.0, 0.6]).item()), "3"],
                    ["2", "1.0", "1.0", "1"]]


def test_decode_trials_are_channel_major(day3_run):
    key = datastore.load_private_key(day3_run / "keys" / "private.pem")
    windows = []
    for path in sorted((day3_run / "uploads" / "recordings").rglob("*.envelope")):
        blob = datastore.decrypt_envelope(path.read_bytes(), key)
        if blob[:4] == datastore.CONTAINER_MAGIC:
            windows += [window for window, _ in _trials_from_dataset(datastore.read_dataset(blob))]
    assert windows
    for window in windows:
        assert window.samples.dtype == np.float64 and window.samples.flags.c_contiguous


@pytest.mark.parametrize("header", [b"{}", b"\xff\xfe"], ids=["empty-object", "not-utf8"])
def test_decode_damaged_prior_errors_without_traceback(day3_run, workspace, capsys, header):
    prior = workspace / "damaged.mynp"
    prior.write_bytes(struct.pack("<4sHI", b"MYNP", 1, len(header)) + header)
    rc = main(["decode", "--recordings", str(day3_run / "uploads" / "recordings"),
               "--private-key", str(day3_run / "keys" / "private.pem"),
               "--prior", str(prior), "--out", str(workspace / "badprior")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_decode_overflowing_prior_prints_only_the_error(day3_run, workspace, capsys):
    blob = bytearray(decoder.write_prior(decoder.GaussianPrior.uninformative()))
    struct.pack_into("<d", blob, len(blob) - 17 * 17 * 8, 1.5e308)  # covariance[0, 0]
    prior = workspace / "overflowing.mynp"
    prior.write_bytes(bytes(blob))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["decode", "--recordings", str(day3_run / "uploads" / "recordings"),
                   "--private-key", str(day3_run / "keys" / "private.pem"),
                   "--prior", str(prior), "--out", str(workspace / "overflowprior")])
    assert rc == 1 and not caught
    assert capsys.readouterr().err == "error: prior covariance overflows when symmetrized\n"


def test_decode_mean_quality_covers_every_recording_of_a_task(workspace):
    """Two day-1 recordings of one subject: trial indices restart in the second.

    Decode keeps one file per (subject, day, scenario), so the second run's
    recordings come in as retakes, under scenario ids of their own.
    """
    first, second = workspace / "s1_seed1", workspace / "s1_seed2"
    assert main(["simulate-session", "--day", "1", "--seed", "1", "--subject", "s1",
                 "--out", str(first)]) == 0
    assert main(["simulate-session", "--day", "1", "--seed", "2", "--subject", "s1",
                 "--public-key", str(first / "keys" / "public.pem"),
                 "--out", str(second)]) == 0
    recordings = workspace / "s1_both"
    private = first / "keys" / "private.pem"
    key = datastore.load_private_key(private)
    shutil.copytree(first / "uploads" / "recordings", recordings / first.name)
    (recordings / second.name).mkdir()
    for path in sorted((second / "uploads" / "recordings").rglob("*.envelope")):
        blob = datastore.decrypt_envelope(path.read_bytes(), key)
        if blob[:4] == datastore.CONTAINER_MAGIC:
            retake = datastore.read_dataset(blob)
            retake.scenario_id += "-retake"
            (recordings / second.name / f"{path.stem}.mynd").write_bytes(
                datastore.write_dataset(retake))
    out = workspace / "s1_decoded"
    assert main(["decode", "--recordings", str(recordings), "--private-key", str(private),
                 "--out", str(out)]) == 0

    qualities: dict[str, list[float]] = {}
    for path in sorted(p for p in recordings.rglob("*") if p.is_file()):
        blob = path.read_bytes()
        if blob[:4] == datastore.ENVELOPE_MAGIC:
            blob = datastore.decrypt_envelope(blob, key)
        if blob[:4] == datastore.CONTAINER_MAGIC:
            for window, quality in _trials_from_dataset(datastore.read_dataset(blob)):
                qualities.setdefault(window.strategy, []).append(quality)
    with (out / "results.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert {row["strategy"] for row in rows} == set(qualities)
    for row in rows:
        qs = qualities[row["strategy"]]
        assert int(row["n_trials"]) == len(qs)
        assert float(row["mean_quality"]) == pytest.approx(np.nanmean(qs), rel=1e-12)


@pytest.mark.parametrize("damage", ["questionnaire-responses", "quality-trace", "task-label",
                                    "fractional-task-label", "unlabeled-task",
                                    "strategy-number", "strategy-missing", "channels-reversed",
                                    "quality-trace-bool", "quality-trace-string",
                                    "quality-trace-past-1", "quality-trace-empty-row",
                                    "quality-trace-out-of-order", "answer-bool", "answer-string",
                                    "answer-past-scale"])
def test_decode_malformed_document_fields_error_naming_the_file(day3_run, workspace, capsys,
                                                                damage):
    key = datastore.load_private_key(day3_run / "keys" / "private.pem")
    payloads = (datastore.decrypt_envelope(path.read_bytes(), key)
                for path in sorted((day3_run / "uploads" / "recordings").rglob("*.envelope")))
    container = next(blob for blob in payloads if blob[:4] == datastore.CONTAINER_MAGIC)
    dataset = datastore.read_dataset(container)
    recordings = workspace / f"damaged_{damage}"
    recordings.mkdir()
    damaged = recordings / "damaged.bin"
    answers = {"answer-bool": True, "answer-string": "4", "answer-past-scale": 6}
    if damage == "questionnaire-responses" or damage in answers:
        (recordings / "recording.mynd").write_bytes(container)
        responses = [1] if damage not in answers else [  # a motivation scale has 5 points
            {"item": "motivation", "kind": "rating", "value": answers[damage], "scale": 5}]
        damaged.write_text(json.dumps({"kind": "questionnaire_result", "subject_id": "s1",
                                       "questionnaire_id": "daily", "day": 3,
                                       "responses": responses}))
    elif damage == "channels-reversed":  # another montage is refused, not reordered
        damaged.write_bytes(datastore.write_dataset(dataclasses.replace(
            dataset, channel_labels=dataset.channel_labels[::-1])))
    else:
        meta = dict(dataset.metadata)
        row = meta["quality_trace"][0]
        if damage == "quality-trace":
            meta["quality_trace"] = [["x"] * (1 + len(dataset.channel_labels))]
        elif damage == "quality-trace-empty-row":
            meta["quality_trace"] = [[]]
        elif damage == "quality-trace-out-of-order":  # a trial would read another's rows
            meta["quality_trace"] = [[row[0] + 128, *row[1:]], row]
        elif damage.startswith("quality-trace-"):
            bad = {"bool": True, "string": "0.5", "past-1": 1.5}[damage[len("quality-trace-"):]]
            meta["quality_trace"] = [row, [row[0] + 128, bad, *row[2:]]]
        elif damage == "strategy-number":
            meta["strategy"] = 5
        elif damage == "strategy-missing":
            del meta["strategy"]
        elif damage == "unlabeled-task":  # unlabeled, its trials would all score as wrong
            meta["task_labels"] = dict(list(meta["task_labels"].items())[:1])
        else:  # 0.6 is no label: truncated to 0 it would mark every trial unlabeled
            bad = "one" if damage == "task-label" else 0.6
            meta["task_labels"] = {label: bad for label in meta["task_labels"]}
        dataset.metadata = meta
        damaged.write_bytes(datastore.write_dataset(dataset))
    rc = main(["decode", "--recordings", str(recordings),
               "--out", str(workspace / f"dec_{damage}")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed") and "damaged.bin" in err
    field = {"strategy": "strategy", "channels": "channel_labels", "quality": "quality_trace",
             "answer": "value"}.get(damage.split("-")[0])
    assert field is None or f"field '{field}' must be" in err


def test_decode_requires_private_key_for_envelopes(day3_run, workspace, capsys):
    rc = main(["decode", "--recordings", str(day3_run / "uploads" / "recordings"),
               "--out", str(workspace / "nokey")])
    assert rc == 1
    assert "private-key" in capsys.readouterr().err


def test_decode_empty_directory_errors(workspace, capsys):
    empty = workspace / "empty_recordings"
    empty.mkdir()
    rc = main(["decode", "--recordings", str(empty),
               "--out", str(workspace / "dec_empty")])
    assert rc == 1
    assert "no decodable recordings" in capsys.readouterr().err


def test_decode_missing_directory_errors(workspace, capsys):
    rc = main(["decode", "--recordings", str(workspace / "nowhere"),
               "--out", str(workspace / "dec_nowhere")])
    assert rc == 1
    assert "not found" in capsys.readouterr().err


def _plain_container(day3_run) -> datastore.RecordingDataset:
    """The first recording of the day-3 run, decrypted."""
    key = datastore.load_private_key(day3_run / "keys" / "private.pem")
    for path in sorted((day3_run / "uploads" / "recordings").rglob("*.envelope")):
        blob = datastore.decrypt_envelope(path.read_bytes(), key)
        if blob[:4] == datastore.CONTAINER_MAGIC:
            return datastore.read_dataset(blob)
    raise AssertionError("the run uploaded no recording")


def _eager_trials(dataset: datastore.RecordingDataset) -> list:
    """Every marked trial as (channel-major float64 samples, task, label, index, quality),
    the quality being the mean over the trace rows stamped in (start, end]."""
    meta = dataset.metadata
    trace = np.array(meta.get("quality_trace", []), dtype=np.float64).reshape(
        -1, 1 + dataset.n_channels)
    trials, start = [], None
    for marker in dataset.markers:
        if marker.code == datastore.MARKER_TRIAL_START:
            start = marker.sample_index
        elif marker.code == datastore.MARKER_TRIAL_END and start is not None:
            end = marker.sample_index
            rows = trace[(trace[:, 0] > start) & (trace[:, 0] <= end), 1:]
            trials.append((dataset.samples[start:end].T.astype(np.float64), marker.label,
                           meta["task_labels"].get(marker.label, 0), len(trials),
                           float(np.mean(rows.mean(axis=1))) if len(rows) else float("nan")))
            start = None
    return trials


def test_trials_from_dataset_equal_an_eager_oracle(day3_run):
    dataset = _plain_container(day3_run)
    untraced = dataclasses.replace(dataset, metadata={
        k: v for k, v in dataset.metadata.items() if k != "quality_trace"})
    for recording in (dataset, untraced):
        got = list(_trials_from_dataset(recording))
        want = _eager_trials(recording)
        assert len(got) == len(want) > 0
        for (window, quality), (samples, task, label, index, want_quality) in zip(got, want):
            assert np.array_equal(window.samples, samples)
            assert (window.task, window.label, window.trial_index) == (task, label, index)
            assert (window.subject, window.day) == (recording.subject_id, recording.day)
            assert window.strategy == recording.metadata["strategy"]
            assert np.array_equal(quality, want_quality, equal_nan=True)
    assert all(np.isnan(q) for _, q in _trials_from_dataset(untraced))


def test_decode_peak_memory_is_a_few_recordings(day3_run, tmp_path):
    # the envelope's ciphertext and the container's samples are views, not copies, and
    # trials are converted one at a time, so the traced peak stays near the envelope
    # and its plaintext
    recordings = day3_run / "uploads" / "recordings"
    tracemalloc.start()
    try:
        rc = main(["decode", "--recordings", str(recordings),
                   "--private-key", str(day3_run / "keys" / "private.pem"),
                   "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 0
    largest = max(p.stat().st_size for p in recordings.rglob("*.envelope"))
    assert peak <= 3 * largest, peak / largest


def test_decode_tampered_envelope_errors_naming_the_file(day3_run, tmp_path, capsys):
    recordings = tmp_path / "recordings"
    shutil.copytree(day3_run / "uploads" / "recordings", recordings)
    envelopes = sorted(recordings.rglob("*.envelope"))
    tampered = envelopes[len(envelopes) // 2]
    blob = bytearray(tampered.read_bytes())
    blob[-1] ^= 0x01
    tampered.write_bytes(bytes(blob))
    rc = main(["decode", "--recordings", str(recordings),
               "--private-key", str(day3_run / "keys" / "private.pem"),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert tampered.name in err and "authentication" in err


def test_decode_short_trial_errors_naming_the_file(day3_run, tmp_path, capsys):
    recordings = tmp_path / "recordings"
    recordings.mkdir()
    good = _plain_container(day3_run)
    (recordings / "a_good.mynd").write_bytes(datastore.write_dataset(good))
    short = datastore.RecordingDataset(
        subject_id=good.subject_id, scenario_id="short", day=good.day,
        sample_rate=good.sample_rate, channel_labels=good.channel_labels,
        samples=good.samples[:300],
        markers=[datastore.Marker(0, datastore.MARKER_TRIAL_START, "eyes_open"),
                 datastore.Marker(300, datastore.MARKER_TRIAL_END, "eyes_open")],
        metadata={"strategy": "resting", "task_labels": {"eyes_open": 1, "eyes_closed": -1}})
    (recordings / "b_short.mynd").write_bytes(datastore.write_dataset(short))
    rc = main(["decode", "--recordings", str(recordings), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "b_short.mynd" in err and "got 300" in err


@pytest.mark.parametrize("bad", ["out-under-file", "damaged-prior", "wrong-size-prior"])
def test_decode_unusable_out_or_prior_fails_before_decryption(day3_run, tmp_path, capsys,
                                                             monkeypatch, bad):
    def refuse(*args):
        raise AssertionError("a recording was decrypted before --out and --prior were checked")

    monkeypatch.setattr(datastore, "open_envelope", refuse)
    (tmp_path / "file").write_bytes(b"kept")
    (tmp_path / "damaged.mynp").write_bytes(b"MYNP")
    (tmp_path / "wrong-size.mynp").write_bytes(
        decoder.write_prior(decoder.GaussianPrior.uninformative(dim=5)))
    prior = {"damaged-prior": "damaged.mynp", "wrong-size-prior": "wrong-size.mynp"}.get(bad)
    extra = (["--out", str(tmp_path / "file" / "results")] if prior is None else
             ["--out", str(tmp_path / "out"), "--prior", str(tmp_path / prior)])
    rc = main(["decode", "--recordings", str(day3_run / "uploads" / "recordings"),
               "--private-key", str(day3_run / "keys" / "private.pem")] + extra)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert (tmp_path / "file").read_bytes() == b"kept"
    if bad == "wrong-size-prior":
        assert err == (f"error: --prior {tmp_path / prior} has 5 weights; "
                       f"decode needs {decoder.N_WEIGHTS}\n")


def test_decode_writes_utf8_under_an_ascii_locale(day3_run, tmp_path):
    """A subject id outside ASCII survives a C locale: every text output is UTF-8."""
    dataset = _plain_container(day3_run)
    dataset.subject_id = "s\u00fcbject"
    recordings = tmp_path / "recordings"
    recordings.mkdir()
    (recordings / "recording.mynd").write_bytes(datastore.write_dataset(dataset))
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run([sys.executable, "-X", "warn_default_encoding",
                           "-W", "error::EncodingWarning", "-m", "mindkit.cli", "decode",
                           "--recordings", str(recordings), "--out", str(tmp_path / "out")],
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    rows = (tmp_path / "out" / "results.csv").read_text(encoding="utf-8").splitlines()
    assert rows[1].startswith("s\u00fcbject,")


def test_decode_of_a_week_never_imports_numpy_ma(tmp_path):
    # np.unique and np.median import numpy.ma on their first call, 15-20 ms a process
    study = session.default_study()
    session.save_study(dataclasses.replace(study, strategies=tuple(
        dataclasses.replace(s, trial_duration_s=4.0) for s in study.strategies)),
        tmp_path / "study.json")
    week = tmp_path / "week"
    for day in range(1, 8):
        assert main(["simulate-session", "--study", str(tmp_path / "study.json"),
                     "--day", str(day), "--seed", "3", "--out", str(week)]) == 0
    code = ("import sys; from mindkit.cli import main; "
            f"rc = main(['decode', '--recordings', {str(week / 'uploads' / 'recordings')!r}, "
            f"'--private-key', {str(week / 'keys' / 'private.pem')!r}, "
            f"'--out', {str(tmp_path / 'decoded')!r}]); "
            "print(rc, 'numpy.ma' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"  # after decode's printed table
    with open(tmp_path / "decoded" / "series_accuracy_by_day.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 8  # the medians of all seven days were written


# --- demos ----------------------------------------------------------------------

@pytest.mark.parametrize("demo, line", [
    ("03_schedule_and_session",
     "after abort: phase Aborted, discarded blocks 1, persisted blocks 0"),
    ("05_transfer_decoding", "lambda 1000000.00  |w - mu| = 0.0000"),
    ("06_full_pipeline", "sim00000042 day 3 music_imagery: accuracy 1.000 (18 trials)"),
])
def test_demo_runs(tmp_path, demo, line):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(root / "demos" / f"{demo}.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout


def test_full_pipeline_demo_leaves_nothing_in_the_temporary_directory(tmp_path):
    root = Path(__file__).resolve().parents[1]
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    env = dict(os.environ, TMPDIR=str(scratch), PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(root / "demos" / "06_full_pipeline.py")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(scratch.iterdir()) == []


# --- every file is written whole ------------------------------------------------

def test_r2_map_cells_are_plain_numbers_matching_each_group(decoded):
    """Each r2_map.csv row is features.r2_map of its strategy's and subject's
    rows of features.csv, and every number cell parses with float()."""
    with (decoded / "features.csv").open(newline="") as fh:
        table = list(csv.DictReader(fh))
    with (decoded / "r2_map.csv").open(newline="") as fh:
        r2_rows = list(csv.DictReader(fh))
    assert r2_rows
    for row in r2_rows:
        group = [t for t in table
                 if (t["strategy"], t["subject"]) == (row["strategy"], row["subject"])]
        matrix = np.array([[float(t[n]) for n in features.FEATURE_NAMES] for t in group])
        labels = np.array([float(t["label"]) for t in group])
        expected = features.r2_map(matrix, labels)
        found = np.array([float(row[n]) for n in features.FEATURE_NAMES])
        np.testing.assert_array_equal(found, expected)


@pytest.fixture
def failing_replace(monkeypatch):
    def replace(self, target):
        raise OSError("disk went away")

    monkeypatch.setattr(Path, "replace", replace)


@pytest.mark.parametrize("existed", [True, False], ids=["old-file", "no-file"])
def test_failed_manifest_write_keeps_old_bytes_or_nothing(tmp_path, failing_replace, existed):
    from mindkit.cli import write_manifest

    target = tmp_path / "manifest.json"
    if existed:
        target.write_bytes(b"old manifest")
    with pytest.raises(OSError):
        write_manifest(target, "decode", {"seed": 1}, {}, outputs=["results.csv"])
    assert [p.name for p in tmp_path.iterdir()] == (["manifest.json"] if existed else [])
    if existed:
        assert target.read_bytes() == b"old manifest"


@pytest.mark.parametrize("existed", [True, False], ids=["old-file", "no-file"])
def test_failed_prior_write_keeps_old_bytes_or_nothing(small_corpus, failing_replace, tmp_path,
                                                       capsys, existed):
    target = tmp_path / "prior.mynp"
    if existed:
        target.write_bytes(b"old prior")
    assert main(["learn-prior", "--corpus", str(small_corpus),
                 "--out", str(target)]) == 1
    assert "disk went away" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == (["prior.mynp"] if existed else [])
    if existed:
        assert target.read_bytes() == b"old prior"


def _bad_key_file(tmp_path: Path, bad: str, expected: str) -> Path:
    """A key file of the wrong sort where a PEM RSA key of kind `expected` belongs."""
    from cryptography.hazmat.primitives import serialization
    from cryptography.hazmat.primitives.asymmetric import ec

    path = tmp_path / f"{bad}.pem"
    if bad == "not-pem":
        path.write_text("this is not a key\n")
    elif bad == "wrong-kind":
        private, public = datastore.generate_keypair()
        if expected == "public":
            datastore.save_private_key(private, path)
        else:
            datastore.save_public_key(public, path)
    elif expected == "private":  # an EC key of the expected kind
        path.write_bytes(ec.generate_private_key(ec.SECP256R1()).private_bytes(
            serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption()))
    else:
        path.write_bytes(ec.generate_private_key(ec.SECP256R1()).public_key().public_bytes(
            serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo))
    return path


BAD_KEYS = ["not-pem", "wrong-kind", "ec"]


@pytest.mark.parametrize("bad", BAD_KEYS)
def test_simulate_with_a_bad_public_key_errors_before_queueing(tmp_path, capsys, bad):
    key = _bad_key_file(tmp_path, bad, "public")
    out = tmp_path / "run"
    rc = main(["simulate-session", "--day", "1", "--seed", "3", "--public-key", str(key),
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(key) in err and "Traceback" not in err
    assert not (out / "queue").exists() and not (out / "uploads").exists()


@pytest.mark.parametrize("bad", BAD_KEYS)
def test_decode_with_a_bad_private_key_blames_the_key(day3_run, tmp_path, capsys, monkeypatch,
                                                      bad):
    def refuse(*args):
        raise AssertionError("a recording was decrypted with an unusable key")

    monkeypatch.setattr(datastore, "open_envelope", refuse)
    key = _bad_key_file(tmp_path, bad, "private")
    rc = main(["decode", "--recordings", str(day3_run / "uploads" / "recordings"),
               "--private-key", str(key), "--keep-going", "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(key) in err and ".envelope" not in err
    assert not (tmp_path / "out").exists()


def test_key_loaders_raise_key_format_errors(tmp_path):
    for bad in BAD_KEYS:
        with pytest.raises(datastore.KeyFormatError, match="public key"):
            datastore.load_public_key(_bad_key_file(tmp_path, bad, "public"))
        with pytest.raises(datastore.KeyFormatError, match="private key"):
            datastore.load_private_key(_bad_key_file(tmp_path, bad, "private"))
    assert issubclass(datastore.KeyFormatError, datastore.DatastoreError)
