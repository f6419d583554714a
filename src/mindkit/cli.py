"""Operator command line: simulate study days, learn priors, decode recordings.

    mindkit simulate-session --day 3 --seed 7 --out run/
    mindkit gen-lab-corpus --subjects 11 --trials 40 --seed 1 --out corpus.csv
    mindkit learn-prior --corpus corpus.csv --out prior.mynp
    mindkit decode --recordings run/uploads/recordings --private-key run/keys/private.pem \
        --prior prior.mynp --out results/

Every command is deterministic for a fixed configuration and seed and
writes a manifest recording library versions, seeds, and input digests.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import logging
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy

from . import __version__
from . import datastore, decoder, features, session, simkit, streamkit

logger = logging.getLogger(__name__)

SIM_EPOCH = 1767603600.0  # fixed simulated wall clock origin (2026-01-05 09:00 UTC)
CHECKUP_SECONDS = 4.0
NOISE_CHECK_WINDOWS = 3
FITTING_CAP_S = 3600.0  # simulation guard; the protocol itself has no cap
DEFAULT_BATTERY = 0.9

EXIT_OK = 0
EXIT_ERROR = 1


class CliError(Exception):
    pass


def write_manifest(out_dir: Path, command: str, config: dict,
                   inputs: dict[str, Path], outputs: list[str], **extra) -> None:
    manifest = {
        **extra,
        "command": command,
        "mindkit_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "python_version": sys.version.split()[0],
        "config": config,
        "input_digests": {name: hashlib.sha256(p.read_bytes()).hexdigest()
                          for name, p in inputs.items() if p.exists()},
        "outputs": sorted(outputs),
    }
    datastore.write_json_file(out_dir / "manifest.json", manifest)


def _resolve_profile(name_or_path: str, seed: int) -> tuple[simkit.SyntheticSubjectProfile, Path | None]:
    if name_or_path in simkit.STOCK_PROFILES:
        return simkit.STOCK_PROFILES[name_or_path](seed=seed), None
    path = Path(name_or_path)
    if not path.exists():
        raise CliError(f"profile {name_or_path!r} is neither a stock profile "
                       f"({', '.join(sorted(simkit.STOCK_PROFILES))}) nor a file")
    return simkit.load_profile(path), path


def _parse_lambda_grid(text: str) -> tuple[float, ...]:
    try:
        grid = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise CliError(f"bad --lambda-grid {text!r}: {exc}") from exc
    # lambda = 0 cannot fit a task with no more trials than weights (resting has six)
    if not grid or not all(np.isfinite(g) and g > 0 for g in grid):
        raise CliError("--lambda-grid needs finite, positive comma-separated values")
    return grid


# --- simulate-session --------------------------------------------------------

def _trial_quality(reports: list[streamkit.QualityReport]) -> float:
    """Mean over a trial's reports of each report's channel mean (NaN if none)."""
    if not reports:
        return float("nan")
    return float(np.mean(np.mean([r.per_channel for r in reports], axis=1)))


class StudySimulator:
    """Runs one study day against the session engine with synthetic EEG.

    The day's scenario, block and trial counts are the engine's; the simulator
    keeps only what the engine does not see: uploads, fitting times, block lines."""

    def __init__(self, engine: session.SessionEngine, subject: str,
                 profile: simkit.SyntheticSubjectProfile, public_key,
                 queue: datastore.UploadQueue, transport: datastore.Transport,
                 battery: float, locale: str) -> None:
        self.engine = engine
        self.subject = subject
        self.profile = profile
        self.public_key = public_key
        self.queue = queue
        self.transport = transport
        self.battery = battery
        self.locale = locale
        self.clock = SIM_EPOCH + (engine.day - 1) * 86400.0
        self.uploads_sent = 0
        self.fitting_times_s: list[float] = []
        self.block_lines: list[str] = []
        self._noise_rng = np.random.default_rng([engine.seed, engine.day, 11])
        self._answer_rng = np.random.default_rng([engine.seed, engine.day, 13])

    def run_day(self) -> None:
        engine = self.engine
        while not engine.day_complete():
            engine.handle(session.Event(session.EventKind.START_SESSION), self.clock)
            scenario = engine.current_scenario()
            if scenario.kind == session.SCENARIO_QUESTIONNAIRE:
                self._run_questionnaire(scenario)
            else:
                self._run_recording(scenario)

    # -- scenario runners

    def _run_questionnaire(self, scenario: session.Scenario) -> None:
        def answer(item: session.QuestionnaireItem) -> object:
            if item.kind == "rating":
                return int(self._answer_rng.integers(max(item.scale - 2, 1),
                                                     item.scale + 1))
            if item.kind == "multiple_choice":
                return item.options[0]
            return "n/a"

        responses = session.run_questionnaire(scenario.items, answer,
                                              locale=self.locale,
                                              clock=lambda: self.clock)
        self.clock += len(scenario.items) * session.SECONDS_PER_QUESTIONNAIRE_ITEM
        doc = session.questionnaire_result_doc(
            scenario.questionnaire_id, self.subject, self.engine.day,
            self.locale, responses)
        datastore.store_questionnaire(doc, self.subject, self.public_key, self.queue)
        self.engine.handle(session.Event(session.EventKind.STEP_DONE), self.clock)
        results = datastore.flush_uploads(self.queue, self.transport)
        self.uploads_sent += sum(r.ok for r in results)

    def _run_recording(self, scenario: session.Scenario) -> None:
        engine = self.engine
        spec = engine.study.strategy(scenario.strategy)
        engine.handle(session.Event(session.EventKind.STEP_DONE), self.clock)
        engine.handle(session.Event(session.EventKind.DEVICE_FOUND), self.clock)
        engine.handle(session.Event(session.EventKind.BATTERY_READ, level=self.battery),
                      self.clock)
        engine.handle(session.Event(session.EventKind.STEP_DONE), self.clock)

        noise_env = self._run_noise_check()
        engine.handle(session.Event(session.EventKind.NOISE_CHECK_DONE), self.clock)

        estimator = streamkit.QualityEstimator()
        fitting_time = self._run_fitting(estimator)
        self.fitting_times_s.append(fitting_time)
        engine.handle(session.Event(session.EventKind.QUALITY_MET), self.clock)

        started_at = self.clock
        scenario_index = engine.schedule.index(scenario)
        # the container's float32 samples, filled trial by trial: the recording's one copy
        recording = np.empty((sum(simkit.frame_count(t.duration_s)
                                  for b in scenario.blocks[scenario.completed_blocks:]
                                  for t in b.trials), len(streamkit.CHANNEL_LABELS)),
                             dtype=np.float32)
        markers: list[datastore.Marker] = []
        quality_trace: list[list[float]] = []
        cursor = 0

        while True:
            block = engine.current_block()
            assert block is not None
            block_index = scenario.completed_blocks
            markers.append(datastore.Marker(cursor, datastore.MARKER_BLOCK_START,
                                            block.block_id))
            block_qualities: list[float] = []
            for trial_idx, trial in enumerate(block.trials):
                start = cursor
                trial_seed = [engine.seed, engine.day, scenario_index,
                              block_index, trial_idx]
                window = simkit.gen_trial(self.profile, trial.task, trial.duration_s,
                                          seed=trial_seed)
                samples = window.samples.T  # (n, channels)
                reports = estimator.ingest_array(samples, start_index=start)
                for rep in reports:
                    quality_trace.append([rep.timestamp, *rep.per_channel])
                block_qualities.append(_trial_quality(reports))
                markers.append(datastore.Marker(start, datastore.MARKER_TRIAL_START,
                                                trial.task))
                cursor += samples.shape[0]
                markers.append(datastore.Marker(cursor, datastore.MARKER_TRIAL_END,
                                                trial.task))
                recording[start:cursor] = samples
                self.clock += trial.duration_s
                engine.handle(session.Event(session.EventKind.TRIAL_ELAPSED), self.clock)
            markers.append(datastore.Marker(cursor, datastore.MARKER_BLOCK_END,
                                            block.block_id))
            self.block_lines.append(
                f"day {self.engine.day} {block.block_id}: {len(block.trials)} trials, "
                f"mean quality {np.nanmean(block_qualities):.2f}, "
                f"{block.duration_s() / 60:.1f} min")
            if engine.current_block() is None:
                break
            engine.handle(session.Event(session.EventKind.CONTINUE_BLOCK), self.clock)
            self._run_checkup(estimator)
            engine.handle(session.Event(session.EventKind.QUALITY_MET), self.clock)

        engine.handle(session.Event(session.EventKind.END_SESSION), self.clock)
        dataset = datastore.RecordingDataset(
            subject_id=self.subject,
            scenario_id=scenario.scenario_id,
            day=self.engine.day,
            sample_rate=streamkit.SAMPLE_RATE,
            channel_labels=streamkit.CHANNEL_LABELS,
            samples=recording,
            markers=markers,
            metadata={
                "strategy": scenario.strategy,
                "task_labels": {spec.tasks[0]: 1, spec.tasks[1]: -1},
                "locale": self.locale,
                "line_freq": self.profile.line_freq,
                "started_at": datetime.fromtimestamp(started_at, tz=timezone.utc).isoformat(),
                "fitting_time_s": round(fitting_time, 3),
                "noise_check_env": [round(v, 6) for v in noise_env],
                "quality_trace": [[int(row[0])] + [round(v, 6) for v in row[1:]]
                                  for row in quality_trace],
                "sensor_locations": list(streamkit.CHANNEL_LABELS),
                "seed": engine.seed,
            })
        datastore.store_recording(dataset, self.public_key, self.queue)
        results = datastore.flush_uploads(self.queue, self.transport)
        self.uploads_sent += sum(r.ok for r in results)
        engine.handle(session.Event(session.EventKind.UPLOAD_DONE), self.clock)

    # -- hardware simulations

    def _run_noise_check(self) -> list[float]:
        envs = []
        for _ in range(NOISE_CHECK_WINDOWS):
            block = simkit.gen_noise_block(self.profile, 1.0,
                                           self.profile.baseline_sigma, self._noise_rng)
            report = streamkit.em_noise_quality(block, line_freq=self.profile.line_freq)
            envs.append(float(np.mean(report.per_channel)))
            self.clock += 1.0
        return envs

    def _run_fitting(self, estimator: streamkit.QualityEstimator) -> float:
        elapsed = 0.0
        step = streamkit.WINDOW_SAMPLES / streamkit.SAMPLE_RATE
        while elapsed < FITTING_CAP_S:
            sigma = self.profile.fitting.sigma_at(elapsed)
            block = simkit.gen_noise_block(self.profile, step, sigma, self._noise_rng)
            reports = estimator.ingest_array(block.T)
            elapsed += step
            if reports and streamkit.fitting_gate(elapsed, reports[-1]).met:
                self.clock += elapsed
                return elapsed
        raise CliError("fitting simulation failed to converge inside an hour")

    def _run_checkup(self, estimator: streamkit.QualityEstimator) -> None:
        sigma = self.profile.fitting.sigma_final
        block = simkit.gen_noise_block(self.profile, CHECKUP_SECONDS, sigma,
                                       self._noise_rng)
        estimator.ingest_array(block.T)
        self.clock += CHECKUP_SECONDS


def cmd_simulate_session(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    session.check_battery_level(args.battery)
    study = session.load_study(args.study) if args.study else session.default_study()
    engine = session.SessionEngine(study, day=args.day, seed=args.seed)  # checks the day
    profile, profile_path = _resolve_profile(args.profile, args.seed)
    profile = dataclasses.replace(profile, line_freq=float(args.line_freq))
    subject = datastore.check_subject_token(args.subject or f"sim{args.seed:08d}")
    out_dir = Path(args.out)
    if args.transport == "http":
        if not args.server:
            raise CliError("--transport http needs --server URL")
        transport: datastore.Transport = datastore.HttpTransport(args.server)
    else:
        transport = datastore.DirectoryTransport(out_dir / "uploads")
    public_key = datastore.load_public_key(args.public_key) if args.public_key else None
    out_dir.mkdir(parents=True, exist_ok=True)  # every argument is checked by now

    if public_key is None:
        keys_dir = out_dir / "keys"
        keys_dir.mkdir(exist_ok=True)
        pub_path = keys_dir / "public.pem"
        priv_path = keys_dir / "private.pem"
        if pub_path.exists():
            public_key = datastore.load_public_key(pub_path)
        else:
            private_key, public_key = datastore.generate_keypair()
            datastore.save_private_key(private_key, priv_path)
            datastore.save_public_key(public_key, pub_path)

    queue = datastore.UploadQueue(out_dir / "queue")
    sim = StudySimulator(engine, subject, profile, public_key, queue, transport,
                         args.battery, args.locale)
    try:
        sim.run_day()
    except session.BlockedError as exc:
        print(f"session blocked: {exc}", file=sys.stderr)
        return EXIT_ERROR

    for line in sim.block_lines:
        print(line)
    fit = ", ".join(f"{t:.1f}s" for t in sim.fitting_times_s)
    print(f"day {engine.day} done: {len(engine.schedule)} scenarios, "
          f"{len(engine.recorded_blocks)} blocks, "
          f"{sum(len(rb.block.trials) for rb in engine.recorded_blocks)} trials, "
          f"{sim.uploads_sent} uploads, fitting [{fit}]")
    if engine.phase == session.SessionPhase.LOCKED_OUT:
        print("day complete; locked out until the twelve-hour timer expires")

    inputs = {}
    if args.study:
        inputs["study"] = Path(args.study)
    if profile_path:
        inputs["profile"] = profile_path
    config = {k: getattr(args, k) for k in
              ("day", "seed", "subject", "study", "profile", "transport",
               "line_freq", "battery", "locale")}
    config["subject"] = subject
    write_manifest(out_dir, "simulate-session", config, inputs,
                   outputs=sorted(p.name for p in out_dir.iterdir()
                                  if p.name != "manifest.json"))
    return EXIT_OK


# --- gen-lab-corpus -----------------------------------------------------------

STRATEGY_TASKS = {spec.strategy_id: spec.tasks for spec in session.default_study().strategies}


def cmd_gen_lab_corpus(args: argparse.Namespace) -> int:
    out_path = Path(args.out)
    dist = simkit.ProfileDistribution(tasks=STRATEGY_TASKS[args.strategy])
    vectors = simkit.gen_lab_feature_vectors(args.subjects, args.trials, args.seed,
                                             distribution=dist, strategy=args.strategy)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    features.write_feature_table(vectors, out_path)
    print(f"wrote {len(vectors)} trials ({args.subjects} subjects x {args.trials}) "
          f"to {out_path}")
    config = {k: getattr(args, k) for k in ("subjects", "trials", "seed", "strategy")}
    write_manifest(out_path.parent, "gen-lab-corpus", config, {}, outputs=[out_path.name],
                   threads=simkit.trial_workers(len(vectors)))
    return EXIT_OK


# --- learn-prior ----------------------------------------------------------------

def cmd_learn_prior(args: argparse.Namespace) -> int:
    corpus_path = Path(args.corpus)
    out_path = Path(args.out)
    # found now, not after the whole fit; bad fit arguments still leave no directory
    if out_path.is_dir():
        raise CliError(f"--out {out_path} is a directory, not a prior file path")
    ancestor = next(p for p in out_path.parents if p.exists())
    if not ancestor.is_dir():
        raise CliError(f"--out {out_path} lies under {ancestor}, which is not a directory")
    if not corpus_path.exists():
        raise CliError(f"corpus file {corpus_path} not found")
    vectors = features.read_feature_table(corpus_path)
    if not vectors:
        raise CliError("corpus is empty")
    tasks = simkit.tasks_from_feature_vectors(vectors, features.GROUPING_LAB_SESSION)
    prior, info = decoder.learn_prior(tasks, iterations=args.iterations,
                                      lam=args.prior_lambda, zero_mean=args.zero_mean)
    blob = decoder.write_prior(prior, info)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    datastore.write_file(out_path, blob)
    state = "converged" if info.converged else "hit the iteration cap"
    print(f"prior learned from {len(tasks)} tasks: {state} after "
          f"{info.iterations_run} iterations (residual {info.residual:.3e})")
    print("residual trajectory: " + ", ".join(f"{it}: {r:.3e}" for it, r in info.trajectory))
    print(f"clipped eigenvalues: {info.clipped_eigenvalues}")
    solve = info.solve
    print(f"convex solve: round {solve.round}, {solve.iterations} steps, {solve.restarts} "
          f"restarts, objective {solve.objective_start:.6g} -> {solve.objective:.6g}"
          if solve else f"convex solve: not run (stopped within "
          f"{decoder.SOLVE_AFTER_ROUNDS} rounds)")
    print(f"wrote {out_path} ({len(blob)} bytes)")
    write_manifest(out_path.parent, "learn-prior",
                   {"corpus": str(corpus_path), "iterations": args.iterations,
                    "prior_lambda": args.prior_lambda, "zero_mean": args.zero_mean},
                   {"corpus": corpus_path}, outputs=[out_path.name],
                   prior_fit={"residual_trajectory": [{"iteration": it, "residual": r}
                                                      for it, r in info.trajectory],
                              "clipped_eigenvalues": info.clipped_eigenvalues,
                              "solve": info.solve.summary() if info.solve else None})
    return EXIT_OK


# --- decode ---------------------------------------------------------------------

class _Skip(Exception):
    """A file decode passes over with a warning: an unfinished write, or neither a
    container nor a questionnaire."""


@dataclass
class _Decoded:
    """What decode gathers from its recording and questionnaire files."""

    vectors: list[features.FeatureVector] = field(default_factory=list)
    # each trial's mean quality and file, by task, not trial: trial indices restart per file
    task_trials: dict[tuple[str, int, str], list[tuple[float, str]]] = field(default_factory=dict)
    motivation: dict[tuple[str, int], float] = field(default_factory=dict)
    meditation: dict[str, float] = field(default_factory=dict)
    n_recordings: int = 0

    def merge(self, part: "_Decoded") -> None:
        self.vectors += part.vectors
        for key, trials in part.task_trials.items():
            self.task_trials.setdefault(key, []).extend(trials)
        self.motivation.update(part.motivation)
        self.meditation.update(part.meditation)
        self.n_recordings += part.n_recordings


def _trials_from_dataset(
        dataset: datastore.RecordingDataset) -> Iterator[tuple[features.TrialWindow, float]]:
    """Each marked trial with the mean quality of the trace rows stamped in (start, end],
    one slice of the trace, which the recorder writes in time order.

    Lazy: the task labels (one for every marked task), marker spans and trace bounds
    are read and checked before the first trial, and each trial is converted to
    float64 only when it is reached.
    """
    meta = dataset.metadata
    task_labels = meta.get("task_labels", {})
    if not all(type(v) is int and v in (1, -1) for v in task_labels.values()):
        raise ValueError(f"task_labels must map each task to +1 or -1, got {task_labels}")
    spans, tasks = [], []
    open_marker: datastore.Marker | None = None
    for marker in dataset.markers:
        if marker.code == datastore.MARKER_TRIAL_START:
            open_marker = marker
        elif marker.code == datastore.MARKER_TRIAL_END and open_marker is not None:
            spans.append((open_marker.sample_index, marker.sample_index))
            tasks.append(marker.label)
            open_marker = None
    unlabeled = sorted(set(tasks) - task_labels.keys())
    if unlabeled:  # the sign rule would score a label of 0 as wrong whatever it predicted
        raise ValueError(f"task_labels has no label for task {', '.join(map(repr, unlabeled))}")
    trace = np.array(meta.get("quality_trace", []), dtype=np.float64).reshape(
        -1, 1 + dataset.n_channels)
    row_quality = trace[:, 1:].mean(axis=1)
    bounds = np.searchsorted(trace[:, 0], spans, side="right")
    strategy = str(meta.get("strategy", ""))
    for index, ((start, end), task, (lo, hi)) in enumerate(zip(spans, tasks, bounds)):
        window = features.TrialWindow(
            samples=dataset.samples[start:end].T,
            sample_rate=dataset.sample_rate,
            task=task,
            label=task_labels[task],
            subject=dataset.subject_id,
            day=dataset.day,
            strategy=strategy,
            trial_index=index)
        yield window, float(np.mean(row_quality[lo:hi])) if hi > lo else float("nan")


class _Repeat(Exception):
    """A file whose identity an earlier decoded file holds, with the same bytes."""


class _Conflict(Exception):
    """A file whose identity an earlier decoded file holds, with other bytes."""


def _read_recordings(recordings_dir: Path, private_key, keep_going: bool
                     ) -> tuple[_Decoded, list[dict[str, str]], list[dict[str, str]]]:
    """Decode every file under `recordings_dir` in sorted order; returns what they hold,
    the files skipped with the reason, and the duplicates with the file each repeats.

    One pass: each file is read, decrypted and featurized or noted before the
    next.  An envelope is read a chunk at a time and decrypted into its plaintext,
    so it is never held whole.  The container is parsed in place, and its trials
    are converted to float64 one at a time, so a recording's decrypted bytes are
    its one full copy.  A file's fields are merged only once all of it decoded.

    Each recording counts once.  A container is identified by (subject, day,
    scenario) and a questionnaire by (subject, day, questionnaire); only a file
    whose identity a decoded file already holds is compared with that file, byte
    for byte, after decrypting it again.  The same bytes make a duplicate, which
    is skipped and listed.  Other bytes are an error naming both files, or under
    `keep_going` a skipped file.
    """
    decoded = _Decoded()
    skipped: list[dict[str, str]] = []
    duplicates: list[dict[str, str]] = []
    decoded_as: dict[tuple, Path] = {}  # identity -> the file decoded for it

    def plaintext(path: Path) -> bytes | memoryview:
        with path.open("rb") as source:
            encrypted = source.read(4) == datastore.ENVELOPE_MAGIC
            if encrypted and private_key is None:
                raise CliError(f"{path.name} is encrypted; pass --private-key")
            source.seek(0)
            return (datastore.open_envelope(source, private_key) if encrypted
                    else source.read())

    def check_new(identity: tuple, blob: bytes | memoryview) -> None:
        first = decoded_as.get(identity)
        if first is None:
            return
        name = first.relative_to(recordings_dir).as_posix()
        # as byte arrays: `==` on memoryviews compares them one item at a time
        if np.array_equal(np.frombuffer(plaintext(first), np.uint8),
                          np.frombuffer(blob, np.uint8)):
            raise _Repeat(name)
        raise _Conflict(f"differs from {name}, which holds the same {identity[0]} "
                        f"(subject {identity[1]}, day {identity[2]}, {identity[3]})")

    for path in sorted(p for p in recordings_dir.rglob("*") if p.is_file()):
        part, kind, identity = _Decoded(), "file", None
        name = path.relative_to(recordings_dir).as_posix()
        try:
            if path.name.endswith(datastore.TMP_SUFFIX):
                raise _Skip("unfinished write: a killed writer left this file")
            blob = plaintext(path)
            if blob[:4] == datastore.CONTAINER_MAGIC:
                kind = "recording"
                dataset = datastore.read_dataset(blob)
                identity = (kind, dataset.subject_id, dataset.day, dataset.scenario_id)
                check_new(identity, blob)
                part.n_recordings += 1
                for window, quality in _trials_from_dataset(dataset):
                    vec = features.extract_trial_features(window)
                    part.vectors.append(vec)
                    part.task_trials.setdefault((vec.subject, vec.day, vec.strategy),
                                                []).append((quality, name))
            else:
                doc = datastore.parse_json(blob, _Skip, "document")
                if not (isinstance(doc, dict) and doc.get("kind") == "questionnaire_result"):
                    raise _Skip("unrecognized document")
                kind = "questionnaire"
                subject, day = str(doc.get("subject_id")), int(doc.get("day", 0))
                identity = (kind, subject, day, str(doc.get("questionnaire_id")))
                check_new(identity, blob)
                for resp in doc.get("responses", []):
                    if resp.get("item") == "motivation":
                        part.motivation[(subject, day)] = float(resp["value"])
                    if resp.get("item") == "meditation_experience":
                        part.meditation[subject] = float(resp["value"])
        except _Repeat as exc:
            logger.info("skipping %s: the same %s as %s", path, kind, exc)
            duplicates.append({"file": name, "repeats": str(exc)})
            continue
        except _Skip as exc:
            reason = str(exc)
        except (datastore.DatastoreError, features.FeatureError, _Conflict) as exc:
            if not keep_going:
                raise CliError(f"{path}: {exc}") from exc
            reason = str(exc)
        except datastore.MALFORMED as exc:
            if not keep_going:
                raise CliError(f"malformed {kind} {path}: {exc!r}") from exc
            reason = f"malformed {kind}: {exc!r}"
        else:
            decoded.merge(part)
            decoded_as[identity] = path
            continue
        finally:
            blob = dataset = None  # this file's plaintext goes before the next is read
        logger.warning("skipping %s: %s", path, reason)
        skipped.append({"file": name, "error": reason})
    return decoded, skipped, duplicates


def cmd_decode(args: argparse.Namespace) -> int:
    recordings_dir = Path(args.recordings)
    if not recordings_dir.is_dir():
        raise CliError(f"recordings directory {recordings_dir} not found")
    private_key = datastore.load_private_key(args.private_key) if args.private_key else None
    grid = _parse_lambda_grid(args.lambda_grid) if args.lambda_grid else decoder.LAMBDA_GRID
    if args.prior:
        prior, prior_header = decoder.read_prior(Path(args.prior).read_bytes())
        if prior.dim != decoder.N_WEIGHTS:
            raise CliError(f"--prior {args.prior} has {prior.dim} weights; "
                           f"decode needs {decoder.N_WEIGHTS}")
    else:
        prior, prior_header = decoder.GaussianPrior.uninformative(), {}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    decoded, skipped, duplicates = _read_recordings(recordings_dir, private_key,
                                                    args.keep_going)
    if not decoded.n_recordings:
        raise CliError(f"no decodable recordings under {recordings_dir}")
    vectors = decoded.vectors
    if not vectors:
        raise CliError("recordings contain no trial markers")

    tasks = simkit.tasks_from_feature_vectors(vectors, features.GROUPING_HOME_DAY)
    results, skipped_tasks = [], []
    for task in tasks:
        trials = decoded.task_trials[(task.subject, task.day, task.strategy)]
        try:
            accuracy = decoder.loo_accuracy(task, prior, lam=None, lambda_grid=grid)
        except decoder.DecoderError as exc:  # SingularSystemError included
            files = list(dict.fromkeys(name for _, name in trials))
            named = (f"subject {task.subject} day {task.day} strategy {task.strategy} "
                     f"(trials in {', '.join(files)})")
            if not args.keep_going:
                raise CliError(f"cannot score {named}: {exc}") from exc
            logger.warning("skipping %s: %s", named, exc)
            skipped_tasks.append(dict(subject=task.subject, day=task.day, strategy=task.strategy,
                                      files=files, error=str(exc)))
            continue
        qs = [q for q, _ in trials if np.isfinite(q)]
        results.append(decoder.DecodingResult(
            subject=task.subject, day=task.day, strategy=task.strategy,
            accuracy=accuracy, n_trials=task.n_trials,
            mean_quality=float(np.mean(qs)) if qs else float("nan"),
            motivation=decoded.motivation.get((task.subject, task.day), float("nan")),
            meditation=decoded.meditation.get(task.subject, float("nan"))))
    if not results:  # checked before any output is written
        raise CliError("no task could be scored: " + "; ".join(
            f"subject {t['subject']} day {t['day']} strategy {t['strategy']} "
            f"(trials in {', '.join(t['files'])}): {t['error']}" for t in skipped_tasks))

    decoder.write_results_table(results, out_dir / "results.csv")
    report = decoder.mediator_report(results)
    _write_mediators(report, out_dir / "mediators.csv")
    _write_series(results, report, out_dir)
    _write_r2_maps(vectors, out_dir / "r2_map.csv")
    features.write_feature_table(vectors, out_dir / "features.csv")

    for r in sorted(results, key=lambda r: (r.subject, r.day, r.strategy)):
        print(f"{r.subject} day {r.day} {r.strategy}: accuracy {r.accuracy:.3f} "
              f"({r.n_trials} trials)")
    for name, rp in report.correlations.items():
        note = report.notes.get(name, "")
        line = f"mediator {name}: " + (f"r={rp[0]:+.3f} p={rp[1]:.4f}" if rp else
                                       f"skipped ({note})")
        print(line)

    config = {"recordings": str(recordings_dir), "prior": args.prior,
              "lambda_grid": list(grid), "prior_header": prior_header,
              "keep_going": args.keep_going}
    inputs = {"prior": Path(args.prior)} if args.prior else {}
    write_manifest(out_dir, "decode", config, inputs,
                   outputs=[p.name for p in sorted(out_dir.iterdir())
                            if p.is_file() and p.name != "manifest.json"],
                   skipped=skipped, duplicates=duplicates, skipped_tasks=skipped_tasks)
    return EXIT_OK


def _write_mediators(report: decoder.MediatorReport, path: Path) -> None:
    # a mediator has either a correlation or a note saying why it has none
    datastore.write_csv_file(path, ("mediator", "r", "p", "note"), (
        (name, *(report.correlations.get(name) or ("", "")), report.notes.get(name, ""))
        for name in decoder.MEDIATOR_COLUMNS))


def _write_series(results, report: decoder.MediatorReport, out_dir: Path) -> None:
    by_day: dict[int, list[float]] = {}
    for r in results:
        by_day.setdefault(r.day, []).append(r.accuracy)
    datastore.write_csv_file(out_dir / "series_accuracy_by_day.csv",
                             ("day", "median_accuracy", "mean_accuracy", "n_tasks"),
                             ((day, median, np.mean(by_day[day]), len(by_day[day]))
                              for day, median in sorted(report.per_day_median.items())))
    datastore.write_csv_file(
        out_dir / "series_accuracy_vs_quality.csv",
        ("mean_quality", "accuracy", "subject", "day", "strategy"),
        ((r.mean_quality, r.accuracy, r.subject, r.day, r.strategy)
         for r in sorted(results, key=lambda r: (np.isnan(r.mean_quality), r.mean_quality))))


def _write_r2_maps(vectors, path: Path) -> None:
    by_group: dict[tuple[str, str], list] = {}
    for v in vectors:
        by_group.setdefault((v.strategy, v.subject), []).append(v)
    rows = []
    for (strategy, subject), vs in sorted(by_group.items()):
        labels = np.array([v.label for v in vs], dtype=float)
        if np.unique(labels).size < 2:
            continue
        matrix = np.stack([v.values for v in vs])
        rows.append((strategy, subject, *features.r2_map(matrix, labels)))
    datastore.write_csv_file(path, ("strategy", "subject") + features.FEATURE_NAMES, rows)


# --- parser ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mindkit", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate-session", help="run one synthetic study day")
    sim.add_argument("--study", help="study definition JSON (default: built-in 7-day)")
    sim.add_argument("--day", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--subject", help="subject token (default derived from seed)")
    sim.add_argument("--profile", default="strong",
                     help="stock profile name (strong|weak|zero) or a profile JSON path")
    sim.add_argument("--transport", choices=("dir", "http"), default="dir")
    sim.add_argument("--server", help="base URL for --transport http")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--line-freq", type=float, choices=(50.0, 60.0), default=50.0)
    sim.add_argument("--battery", type=float, default=DEFAULT_BATTERY)
    sim.add_argument("--locale", choices=session.SUPPORTED_LOCALES, default="en")
    sim.add_argument("--public-key", help="recipient public key PEM "
                                          "(default: keypair generated under out/keys)")
    sim.set_defaults(func=cmd_simulate_session)

    corpus = sub.add_parser("gen-lab-corpus", help="write a synthetic lab feature table")
    corpus.add_argument("--subjects", type=int, default=simkit.LAB_SUBJECTS_MEMORIES)
    corpus.add_argument("--trials", type=int, default=simkit.LAB_TRIALS_MEMORIES)
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument("--strategy", choices=tuple(STRATEGY_TASKS),
                        default=session.STRATEGY_MEMORIES)
    corpus.add_argument("--out", required=True, help="feature table CSV path")
    corpus.set_defaults(func=cmd_gen_lab_corpus)

    prior = sub.add_parser("learn-prior", help="learn a decoding prior from a corpus")
    prior.add_argument("--corpus", required=True, help="feature table CSV")
    prior.add_argument("--out", required=True, help="prior file path")
    prior.add_argument("--iterations", type=int, default=decoder.MAX_PRIOR_ITERATIONS,
                       help="cap on alternation rounds; a fit still running after "
                            f"{decoder.SOLVE_AFTER_ROUNDS} rounds solves the convex "
                            "objective once and alternates on from its minimiser")
    prior.add_argument("--prior-lambda", type=float, default=decoder.DEFAULT_PRIOR_LAMBDA,
                       help="lambda used for the per-task fits while learning")
    prior.add_argument("--zero-mean", action="store_true",
                       help="pin the prior mean at zero (sensitivity check)")
    prior.set_defaults(func=cmd_learn_prior)

    dec = sub.add_parser("decode", help="decode recordings and report accuracies")
    dec.add_argument("--recordings", required=True,
                     help="directory of envelopes or plain containers")
    dec.add_argument("--private-key", help="PEM key for encrypted recordings")
    dec.add_argument("--prior", help="prior file (default: uninformative)")
    dec.add_argument("--lambda-grid", help="comma-separated finite, positive lambda values")
    dec.add_argument("--out", required=True, help="output directory")
    dec.add_argument("--keep-going", action="store_true",
                     help="skip a file that fails to decrypt, parse or featurize, a "
                          "recording that conflicts with an earlier file, or a task that "
                          "cannot be scored, with a warning and an entry under "
                          "\"skipped\" or \"skipped_tasks\" in manifest.json, instead "
                          "of stopping")
    dec.set_defaults(func=cmd_decode)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(sys.stdout, "reconfigure"):  # a console that cannot show a name escapes it
        sys.stdout.reconfigure(errors="backslashreplace")
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (CliError, session.SessionError, datastore.DatastoreError,
            decoder.DecoderError, features.FeatureError,
            simkit.SimulatorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
