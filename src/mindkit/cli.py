"""Operator command line: simulate study days, learn priors, decode recordings.

    mindkit simulate-session --day 3 --seed 7 --out run/
    mindkit gen-lab-corpus --subjects 11 --trials 40 --seed 1 --out corpus.csv
    mindkit learn-prior --corpus corpus.csv --out prior.mynp
    mindkit decode --recordings run/uploads/recordings --private-key run/keys/private.pem \
        --prior prior.mynp --out results/

Every command is deterministic for a fixed configuration and seed and
writes a manifest recording library versions, seeds, and input digests:
`manifest.json` in the directory that simulate-session or decode owns, and
`<output>.manifest.json` beside the one file gen-lab-corpus or learn-prior writes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import logging
import reprlib
import sys
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator

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


def _is_output(path: Path) -> bool:
    """A name a manifest lists: not a manifest, nor a killed write's leftover tmp."""
    return not path.name.endswith(("manifest.json", datastore.TMP_SUFFIX))


def write_manifest(path: Path, command: str, config: dict,
                   digested: dict[str, Path], outputs: list[str], **extra) -> None:
    manifest = {
        **extra,
        "command": command,
        "mindkit_version": __version__,
        "numpy_version": np.__version__,
        "scipy_version": scipy.__version__,
        "python_version": sys.version.split()[0],
        "config": config,
        "input_digests": {name: hashlib.sha256(p.read_bytes()).hexdigest()
                          for name, p in digested.items() if p.exists()},
        "outputs": sorted(outputs),
    }
    datastore.write_json_file(path, manifest)


def _resolve_profile(name_or_path: str, seed: int) -> tuple[simkit.SyntheticSubjectProfile, Path | None]:
    if name_or_path in simkit.STOCK_PROFILES:
        return simkit.STOCK_PROFILES[name_or_path](seed=seed), None
    path = Path(name_or_path)
    if not path.exists():
        raise CliError(f"profile {name_or_path!r} is neither a stock profile "
                       f"({', '.join(sorted(simkit.STOCK_PROFILES))}) nor a file")
    return simkit.load_profile(path), path


# --- simulate-session --------------------------------------------------------

_Sealed = tuple[str, bytearray, list[str]]  # a scenario's queue kind, envelope, block lines


def _trial_quality(reports: list[streamkit.QualityReport]) -> float:
    """Mean over a trial's reports of each report's channel mean (NaN if none)."""
    if not reports:
        return float("nan")
    return float(np.mean(np.mean([r.per_channel for r in reports], axis=1)))


class StudySimulator:
    """Runs one study day against the session engine with synthetic EEG.

    The day's scenario, block and trial counts are the engine's; the simulator
    keeps only what the engine does not see: uploads, fitting times, block lines.

    Each scenario runs in two parts.  This process walks the engine through it and
    draws in schedule order all that the day's shared generators give: a
    questionnaire's answers, a recording's noise check, fitting and checkups.  The
    scenario's call does the rest, through `simkit.run_forked`: it seals the document,
    or records the trials and seals their container (`_record`).
    """

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
        recordings = sum(sc.kind != session.SCENARIO_QUESTIONNAIRE for sc in engine.schedule)
        self.workers = simkit.trial_workers(recordings)
        self._noise_rng = np.random.default_rng([engine.seed, engine.day, 11])
        self._answer_rng = np.random.default_rng([engine.seed, engine.day, 13])

    def run_day(self) -> None:
        simkit.run_forked(self._scenarios(), self.workers, self._store)

    def _scenarios(self) -> Iterator[Callable[[], _Sealed]]:
        """Walk the engine through the day, one call per scenario."""
        engine = self.engine
        while not engine.day_complete():
            engine.handle(session.Event(session.EventKind.START_SESSION), self.clock)
            scenario = engine.current_scenario()
            if scenario.kind == session.SCENARIO_QUESTIONNAIRE:
                yield self._run_questionnaire(scenario)
            else:
                yield self._run_recording(scenario)

    def _store(self, stored: _Sealed) -> None:
        kind, envelope, lines = stored
        self.queue.enqueue(envelope, self.subject, kind=kind)
        results = datastore.flush_uploads(self.queue, self.transport)
        self.uploads_sent += sum(r.ok for r in results)
        self.block_lines += lines

    # -- scenario runners

    def _run_questionnaire(self, scenario: session.Scenario) -> Callable[[], _Sealed]:
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
        self.engine.handle(session.Event(session.EventKind.STEP_DONE), self.clock)
        return lambda: ("questionnaire", datastore.encrypt_envelope(
            datastore.canonical_json(doc), self.public_key), [])

    def _run_recording(self, scenario: session.Scenario) -> Callable[[], _Sealed]:
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
        # each block's index, the block, and the checkup's noise that follows it (None after last)
        plan: list[tuple[int, session.Block, np.ndarray | None]] = []
        while True:
            block = engine.current_block()
            assert block is not None
            block_index = scenario.completed_blocks
            for trial in block.trials:
                self.clock += trial.duration_s
                engine.handle(session.Event(session.EventKind.TRIAL_ELAPSED), self.clock)
            if engine.current_block() is None:
                plan.append((block_index, block, None))
                break
            engine.handle(session.Event(session.EventKind.CONTINUE_BLOCK), self.clock)
            plan.append((block_index, block, self._run_checkup()))
            engine.handle(session.Event(session.EventKind.QUALITY_MET), self.clock)

        engine.handle(session.Event(session.EventKind.END_SESSION), self.clock)
        metadata = {
            "strategy": scenario.strategy,
            "task_labels": {spec.tasks[0]: 1, spec.tasks[1]: -1},
            "locale": self.locale,
            "line_freq": self.profile.line_freq,
            "started_at": datetime.fromtimestamp(started_at, tz=timezone.utc).isoformat(),
            "fitting_time_s": round(fitting_time, 3),
            "noise_check_env": [round(v, 6) for v in noise_env],
            "sensor_locations": list(streamkit.CHANNEL_LABELS),
            "seed": engine.seed,
        }
        engine.handle(session.Event(session.EventKind.UPLOAD_DONE), self.clock)

        return functools.partial(self._record, scenario, scenario_index, plan, estimator, metadata)

    def _record(self, scenario: session.Scenario, scenario_index: int,
                plan: list[tuple[int, session.Block, np.ndarray | None]],
                estimator: streamkit.QualityEstimator,
                metadata: dict) -> _Sealed:
        """The part of a recording that shares no state with the rest of the day: each
        trial's samples, their quality from the fitted estimator and their markers, and
        the sealed container.  Returns the queue kind, the envelope and each block's line."""
        # the container's float32 samples, filled trial by trial: the recording's one copy
        recording = np.empty((sum(simkit.frame_count(trial.duration_s) for _, block, _ in plan
                                  for trial in block.trials), len(streamkit.CHANNEL_LABELS)),
                             dtype=np.float32)
        markers: list[datastore.Marker] = []
        quality_trace: list[list[float]] = []
        lines: list[str] = []
        end = 0
        for block_index, block, checkup in plan:
            markers.append(datastore.Marker(end, datastore.MARKER_BLOCK_START, block.block_id))
            qualities = []
            for trial_idx, trial in enumerate(block.trials):
                trial_seed = [self.engine.seed, self.engine.day, scenario_index,
                              block_index, trial_idx]
                window = simkit.gen_trial(self.profile, trial.task, trial.duration_s,
                                          seed=trial_seed)
                samples = window.samples.T  # (n, channels)
                start, end = end, end + len(samples)
                reports = estimator.ingest_array(samples, start_index=start)
                for rep in reports:
                    quality_trace.append([rep.timestamp, *rep.per_channel])
                qualities.append(_trial_quality(reports))
                recording[start:end] = samples
                markers += [datastore.Marker(start, datastore.MARKER_TRIAL_START, trial.task),
                            datastore.Marker(end, datastore.MARKER_TRIAL_END, trial.task)]
            markers.append(datastore.Marker(end, datastore.MARKER_BLOCK_END, block.block_id))
            lines.append(f"day {self.engine.day} {block.block_id}: {len(block.trials)} trials, "
                         f"mean quality {np.nanmean(qualities):.2f}, "
                         f"{block.duration_s() / 60:.1f} min")
            if checkup is not None:
                estimator.ingest_array(checkup.T)
        dataset = datastore.RecordingDataset(
            subject_id=self.subject,
            scenario_id=scenario.scenario_id,
            day=self.engine.day,
            sample_rate=streamkit.SAMPLE_RATE,
            channel_labels=streamkit.CHANNEL_LABELS,
            samples=recording,
            markers=markers,
            metadata={**metadata,
                      "quality_trace": [[int(row[0])] + [round(v, 6) for v in row[1:]]
                                        for row in quality_trace]})
        return ("recording",
                datastore.encrypt_envelope(datastore.write_dataset(dataset), self.public_key),
                lines)

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

    def _run_checkup(self) -> np.ndarray:
        """The checkup's noise, drawn here in schedule order; `_record` ingests it."""
        sigma = self.profile.fitting.sigma_final
        block = simkit.gen_noise_block(self.profile, CHECKUP_SECONDS, sigma,
                                       self._noise_rng)
        self.clock += CHECKUP_SECONDS
        return block


def cmd_simulate_session(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise CliError(f"--seed must be non-negative, got {args.seed}")
    session.check_battery_level(args.battery)
    try:  # only a study file can fail to load, and its error names it
        study = session.load_study(args.study) if args.study else session.default_study()
    except session.SessionError as exc:
        raise CliError(f"{args.study}: {exc}") from exc
    engine = session.SessionEngine(study, day=args.day, seed=args.seed)  # checks the day
    profile, profile_path = _resolve_profile(args.profile, args.seed)
    if args.line_freq is not None:  # the option overrides the profile's frequency
        profile = dataclasses.replace(profile, line_freq=args.line_freq)
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
    config["subject"], config["line_freq"] = subject, profile.line_freq
    write_manifest(out_dir / "manifest.json", "simulate-session", config, inputs,
                   outputs=[p.name for p in out_dir.iterdir() if _is_output(p)],
                   workers=sim.workers)
    return EXIT_OK


# --- gen-lab-corpus -----------------------------------------------------------

STRATEGY_TASKS = {spec.strategy_id: spec.tasks for spec in session.default_study().strategies}
# the rows are held until the table is written, about 2.5 KB each: 250 MB at the limit
MAX_CORPUS_TRIALS = 100_000


def cmd_gen_lab_corpus(args: argparse.Namespace) -> int:
    if args.subjects * args.trials > MAX_CORPUS_TRIALS:
        raise CliError(f"--subjects {args.subjects} x --trials {args.trials} is more than "
                       f"the {MAX_CORPUS_TRIALS:,} trials a corpus may hold")
    out_path = Path(args.out)
    dist = simkit.ProfileDistribution(tasks=STRATEGY_TASKS[args.strategy])
    vectors = simkit.gen_lab_feature_vectors(args.subjects, args.trials, args.seed,
                                             distribution=dist, strategy=args.strategy)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    features.write_feature_table(vectors, out_path)
    print(f"wrote {len(vectors)} trials ({args.subjects} subjects x {args.trials}) "
          f"to {out_path}")
    config = {k: getattr(args, k) for k in ("subjects", "trials", "seed", "strategy")}
    write_manifest(Path(f"{out_path}.manifest.json"), "gen-lab-corpus", config, {},
                   outputs=[out_path.name], workers=simkit.trial_workers(len(vectors)))
    return EXIT_OK


# --- learn-prior ----------------------------------------------------------------

def cmd_learn_prior(args: argparse.Namespace) -> int:
    corpus_path = Path(args.corpus)
    out_path = Path(args.out)
    # found now, not after the whole fit
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
    try:  # a group of one row names its subject only, so the error names the file too
        tasks = simkit.tasks_from_feature_vectors(vectors, features.GROUPING_LAB_SESSION)
    except features.FeatureError as exc:
        raise CliError(f"{corpus_path}: {exc}") from exc
    prior, info = decoder.learn_prior(tasks)
    blob = decoder.write_prior(prior, info)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    datastore.write_file(out_path, blob)
    state = "converged" if info.converged else "hit the iteration cap"
    print(f"prior learned from {len(tasks)} tasks: {state} after "
          f"{info.iterations_run} iterations (residual {info.residual:.3e})")
    print("residual trajectory: " + ", ".join(f"{it}: {r:.3e}" for it, r in info.trajectory))
    print(f"clipped eigenvalues: {info.clipped_eigenvalues}")
    solve = info.solve
    print(f"convex solve: {solve.iterations} steps, {solve.restarts} restarts, "
          f"objective {solve.objective_start:.6g} -> {solve.objective:.6g}")
    print(f"wrote {out_path} ({len(blob)} bytes)")
    write_manifest(Path(f"{out_path}.manifest.json"), "learn-prior",
                   {"corpus": str(corpus_path)}, {"corpus": corpus_path}, outputs=[out_path.name],
                   prior_fit={"residual_trajectory": [{"iteration": it, "residual": r}
                                                      for it, r in info.trajectory],
                              "clipped_eigenvalues": info.clipped_eigenvalues,
                              "solve": solve.summary()})
    return EXIT_OK


# --- decode ---------------------------------------------------------------------

class _Skip(Exception):
    """A file decode passes over with a warning, strict or not: an unfinished write."""


@dataclass
class _Decoded:
    """What decode gathers from its recording and questionnaire files."""

    vectors: list[features.FeatureVector] = field(default_factory=list)
    # each trial's mean quality and file, by task, not trial: trial indices restart per file
    task_trials: dict[tuple[str, int, str], list[tuple[float, str]]] = field(default_factory=dict)
    motivation: dict[tuple[str, int], float] = field(default_factory=dict)
    meditation: dict[str, float] = field(default_factory=dict)
    untraced: list[str] = field(default_factory=list)  # recordings without a quality trace

    def merge(self, part: "_Decoded") -> None:
        self.vectors += part.vectors
        self.untraced += part.untraced
        for key, trials in part.task_trials.items():
            self.task_trials.setdefault(key, []).extend(trials)
        self.motivation.update(part.motivation)
        self.meditation.update(part.meditation)


def _trials_from_dataset(
        dataset: datastore.RecordingDataset) -> Iterator[tuple[features.TrialWindow, float]]:
    """Each marked trial with the mean quality of the trace rows stamped in (start, end],
    one slice of the trace, which the recorder writes in time order.

    Lazy: the channels (decode's montage: another one is refused, not reordered),
    the strategy, the task labels (one for every marked task), marker spans and
    trace are read and checked before the first trial, and each trial is converted
    to float64 only when it is reached.
    """
    meta = dataset.metadata
    montage = streamkit.CHANNEL_LABELS
    datastore.read_field(vars(dataset), "channel_labels", "strings", ValueError, montage, montage)
    strategy = datastore.read_field(meta, "strategy", "str", ValueError)
    task_labels = datastore.read_field(meta, "task_labels", "object", ValueError)
    spans, tasks = [], []
    open_marker: datastore.Marker | None = None
    for marker in dataset.markers:
        if marker.code == datastore.MARKER_TRIAL_START:
            open_marker = marker
        elif marker.code == datastore.MARKER_TRIAL_END and open_marker is not None:
            spans.append((open_marker.sample_index, marker.sample_index))
            tasks.append(marker.label)
            open_marker = None
    # each label, and one for every marked task: the sign rule scores a 0 wrong, always
    for task in sorted({*task_labels, *tasks}):
        datastore.read_field(task_labels, task, "sign", ValueError)
    rows = (datastore.read_field(meta, "quality_trace", "rows", ValueError)
            if "quality_trace" in meta else [])  # no trace, no rows: each trial's quality is NaN
    width = 1 + dataset.n_channels
    trace = np.array(rows, dtype=np.float64).reshape(len(rows), -1 if rows else width)
    if trace.shape[1] != width:  # so that no row fits
        trace = np.full((len(rows), width), np.nan)
    # each row a finite sample index, in time order, then a quality in 0..1 per channel
    fits = np.isfinite(trace[:, 0]) & ((trace[:, 1:] >= 0) & (trace[:, 1:] <= 1)).all(axis=1)
    fits[1:] &= trace[1:, 0] >= trace[:-1, 0]
    if not fits.all():
        raise ValueError(f"field 'quality_trace' must be rows of a finite sample index, in "
                         f"time order, and {dataset.n_channels} qualities in 0..1, got a row "
                         f"{reprlib.repr(rows[int(np.argmin(fits))])}")
    row_quality = trace[:, 1:].mean(axis=1)
    bounds = np.searchsorted(trace[:, 0], spans, side="right")
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


class _Conflict(Exception):
    """A file whose identity an earlier decoded file holds, with other bytes."""


def _read_recordings(recordings_dir: Path, private_key, keep_going: bool
                     ) -> tuple[_Decoded, list[dict], list[dict[str, str]], list[dict[str, str]]]:
    """Decode every file under `recordings_dir` in sorted order; returns what they hold,
    the files decoded with their identity and size, the files skipped with the
    reason, and the duplicates with the file each repeats.

    One pass: each file is read, decrypted and featurized or noted before the
    next.  An envelope is read a chunk at a time and decrypted into its plaintext,
    so it is never held whole.  The container is parsed in place, and its trials
    are converted to float64 one at a time, so a recording's decrypted bytes are
    its one full copy.  A file is merged and listed only once all of it decoded.

    Each recording counts once.  A container is identified by (subject, day,
    scenario), and a questionnaire by its (subject_id, day, questionnaire_id),
    read as a non-empty string, an integer from 1 and a non-empty string.  A file
    whose identity a decoded file already holds is compared with that file,
    decrypted again, byte for byte before it is featurized.  The same bytes make a
    duplicate, which is listed.  Other bytes are an error naming both files, or
    under `keep_going` a skipped file.
    """
    decoded = _Decoded()
    inputs: list[dict] = []
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

    for path in sorted(p for p in recordings_dir.rglob("*") if p.is_file()):
        part, kind = _Decoded(), "file"
        name = path.relative_to(recordings_dir).as_posix()
        try:
            if path.name.endswith(datastore.TMP_SUFFIX):
                raise _Skip("unfinished write: a killed writer left this file")
            blob = plaintext(path)
            if blob[:4] == datastore.CONTAINER_MAGIC:
                kind = "recording"
                dataset = datastore.read_dataset(blob)
                subject, day, which = dataset.subject_id, dataset.day, dataset.scenario_id
            else:
                doc = datastore.parse_json(blob, datastore.DatastoreError, "document")
                if not (isinstance(doc, dict) and doc.get("kind") == "questionnaire_result"):
                    raise datastore.DatastoreError("neither a container nor a questionnaire")
                kind = "questionnaire"
                subject, which = (datastore.read_field(doc, key, "str", ValueError)
                                  for key in ("subject_id", "questionnaire_id"))
                day = datastore.read_field(doc, "day", "int", ValueError, 1)
            first = decoded_as.get((kind, subject, day, which))
            if first is not None:
                first_name = first.relative_to(recordings_dir).as_posix()
                # as byte arrays: `==` on memoryviews compares them one item at a time
                if np.array_equal(np.frombuffer(plaintext(first), np.uint8),
                                  np.frombuffer(blob, np.uint8)):
                    logger.info("skipping %s: the same %s as %s", path, kind, first_name)
                    duplicates.append({"file": name, "repeats": first_name})
                    continue
                raise _Conflict(f"differs from {first_name}, which holds the same {kind} "
                                f"(subject {subject}, day {day}, {which})")
            if kind == "recording":
                for window, quality in _trials_from_dataset(dataset):
                    vec = features.extract_trial_features(window)
                    part.vectors.append(vec)
                    part.task_trials.setdefault((vec.subject, vec.day, vec.strategy),
                                                []).append((quality, name))
                if not dataset.metadata.get("quality_trace"):
                    logger.warning("%s has no quality trace: its trials' quality is NaN", path)
                    part.untraced.append(name)
            else:
                answers = {"motivation": part.motivation, "meditation_experience": part.meditation}
                for resp in datastore.read_field(doc, "responses", "list", ValueError):
                    item = datastore.read_field(resp, "item", "str", ValueError)
                    if item in answers:  # a rating from 1 to the response's scale
                        scale = datastore.read_field(resp, "scale", "whole", ValueError, 2)
                        value = datastore.read_field(resp, "value", "whole", ValueError, 1, scale)
                        key = (subject, day) if item == "motivation" else subject  # intake's
                        answers[item][key] = float(value)
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
            decoded_as[(kind, subject, day, which)] = path
            inputs.append({"file": name, "kind": kind, "subject": subject, "day": day,
                           ("scenario" if kind == "recording" else "questionnaire"): which,
                           "bytes": path.stat().st_size})
            continue
        finally:
            blob = dataset = None  # this file's plaintext goes before the next is read
        logger.warning("skipping %s: %s", path, reason)
        skipped.append({"file": name, "error": reason})
    return decoded, inputs, skipped, duplicates


def cmd_decode(args: argparse.Namespace) -> int:
    recordings_dir = Path(args.recordings)
    if not recordings_dir.is_dir():
        raise CliError(f"recordings directory {recordings_dir} not found")
    private_key = datastore.load_private_key(args.private_key) if args.private_key else None
    if args.prior:
        prior, prior_header = decoder.read_prior(Path(args.prior).read_bytes())
        if prior.dim != decoder.N_WEIGHTS:
            raise CliError(f"--prior {args.prior} has {prior.dim} weights; "
                           f"decode needs {decoder.N_WEIGHTS}")
    else:
        prior, prior_header = decoder.GaussianPrior.uninformative(), {}
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    decoded, decoded_files, skipped, duplicates = _read_recordings(
        recordings_dir, private_key, args.keep_going)
    if not any(entry["kind"] == "recording" for entry in decoded_files):
        raise CliError(f"no decodable recordings under {recordings_dir}")
    vectors = decoded.vectors
    if not vectors:
        raise CliError("recordings contain no trial markers")

    results, skipped_tasks, unscored = [], [], []

    def skip(key: tuple[str, int, str], exc: Exception) -> None:
        files = list(dict.fromkeys(name for _, name in decoded.task_trials[key]))
        named = "subject {} day {} strategy {}".format(*key) + f" (trials in {', '.join(files)})"
        if not args.keep_going:
            raise CliError(f"cannot score {named}: {exc}") from exc
        logger.warning("skipping %s: %s", named, exc)
        unscored.append(f"{named}: {exc}")
        skipped_tasks.append(dict(zip(("subject", "day", "strategy"), key), files=files,
                                  error=str(exc)))

    # a subject-day of one trial has no spread to normalize by: its task cannot be
    # scored, and its row stays in features.csv
    day_of = features.group_key(features.GROUPING_HOME_DAY)
    trials_on = Counter(map(day_of, vectors))
    for v in (v for v in vectors if trials_on[day_of(v)] < 2):
        skip((v.subject, v.day, v.strategy), features.GroupTooSmallError(
            f"group {day_of(v)} has 1 vector(s); need >= 2"))
    tasks = simkit.tasks_from_feature_vectors([v for v in vectors if trials_on[day_of(v)] > 1],
                                              features.GROUPING_HOME_DAY)
    for task in tasks:
        trials = decoded.task_trials[(task.subject, task.day, task.strategy)]
        try:
            accuracy = decoder.loo_accuracy(task, prior)
        except decoder.DecoderError as exc:  # SingularSystemError included
            skip((task.subject, task.day, task.strategy), exc)
            continue
        qs = [q for q, _ in trials if np.isfinite(q)]
        results.append(decoder.DecodingResult(
            subject=task.subject, day=task.day, strategy=task.strategy,
            accuracy=accuracy, n_trials=task.n_trials,
            mean_quality=float(np.mean(qs)) if qs else float("nan"),
            motivation=decoded.motivation.get((task.subject, task.day), float("nan")),
            meditation=decoded.meditation.get(task.subject, float("nan"))))
    if not results:  # checked before any output is written
        raise CliError("no task could be scored: " + "; ".join(unscored))

    decoder.write_results_table(results, out_dir / "results.csv")
    report = decoder.mediator_report(results)
    _write_mediators(report, out_dir / "mediators.csv")
    _write_series(results, out_dir)
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
              "lambda_grid": list(decoder.LAMBDA_GRID), "prior_header": prior_header,
              "keep_going": args.keep_going}
    digested = {"prior": Path(args.prior)} if args.prior else {}
    write_manifest(out_dir / "manifest.json", "decode", config, digested,
                   outputs=[p.name for p in out_dir.iterdir() if p.is_file() and _is_output(p)],
                   inputs=decoded_files, skipped=skipped, duplicates=duplicates,
                   skipped_tasks=skipped_tasks, no_quality_trace=decoded.untraced)
    return EXIT_OK


def _write_mediators(report: decoder.MediatorReport, path: Path) -> None:
    # a mediator has either a correlation or a note saying why it has none
    datastore.write_csv_file(path, ("mediator", "r", "p", "note"), (
        (name, *(report.correlations.get(name) or ("", "")), report.notes.get(name, ""))
        for name in decoder.MEDIATOR_COLUMNS))


def _median(values: list[float]) -> float:
    """np.median's value, without the numpy.ma import its first call makes."""
    ordered, mid = sorted(values), len(values) // 2
    return ordered[mid] if len(values) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def _write_series(results, out_dir: Path) -> None:
    by_day: dict[int, list[float]] = {}
    for r in results:
        by_day.setdefault(r.day, []).append(r.accuracy)
    datastore.write_csv_file(out_dir / "series_accuracy_by_day.csv",
                             ("day", "median_accuracy", "mean_accuracy", "n_tasks"),
                             ((day, _median(accs), np.mean(accs), len(accs))
                              for day, accs in sorted(by_day.items())))
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
        if not features.has_two_classes(labels):
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
    sim.add_argument("--line-freq", type=float, choices=(50.0, 60.0),
                     help="mains frequency, Hz (default: the profile's, 50 for a stock one)")
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

    prior = sub.add_parser(
        "learn-prior", help="learn a decoding prior from a corpus",
        description="Fit every lab task under the identity prior, minimise the convex "
                    "multi-task objective from those weights, then alternate MAP fits and "
                    "moment updates until the covariance moves less than "
                    f"{decoder.PRIOR_CONVERGENCE_TOL:g} (at most "
                    f"{decoder.MAX_PRIOR_ITERATIONS:,} rounds).  Every fit weighs the prior "
                    f"at lambda = {decoder.DEFAULT_PRIOR_LAMBDA:g}, and the prior's mean is "
                    "the mean of the tasks' weights.  The record goes to OUT.manifest.json.")
    prior.add_argument("--corpus", required=True, help="feature table CSV")
    prior.add_argument("--out", required=True, help="prior file path")
    prior.set_defaults(func=cmd_learn_prior)

    dec = sub.add_parser("decode", help="decode recordings and report accuracies")
    dec.add_argument("--recordings", required=True,
                     help="directory of envelopes or plain containers")
    dec.add_argument("--private-key", help="PEM key for encrypted recordings")
    dec.add_argument("--prior", help="prior file (default: uninformative)")
    dec.add_argument("--out", required=True, help="output directory")
    dec.add_argument("--keep-going", action="store_true",
                     help="skip a file that fails to decrypt, parse or featurize, a "
                          "file that conflicts with an earlier file, or a task that "
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
