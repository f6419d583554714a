"""Multi-day study scheduling and the unsupervised session state machine.

The default study runs seven days with three mental strategies.  Each
day is a list of scenarios (one questionnaire plus one recording
scenario per scheduled strategy); recording scenarios are split into
blocks of roughly six minutes so subjects get natural break points,
and every trial inside a strategy block is drawn in randomized order
with a fixed per-task count.

Session flow (happy path):

    Home -> ScenarioInfo -> Preparation -> NoiseCheck -> Fitting
         -> RecordingTrial (xN) -> BlockReview -> CheckupFitting
         -> RecordingTrial ... -> BlockReview -> Uploading -> Home/LockedOut

Undefined (state, event) pairs raise InvalidTransitionError and leave
the state untouched; defined-but-refused ones (battery too low,
preparation incomplete) raise BlockedError.  Backgrounding the app or
losing the headset mid-session aborts the current block, whose data is
never persisted.  Progress lives in the scenario record alone: the next
block to record is `blocks[completed_blocks]`, and a recording scenario
is done once its last block is recorded, so backgrounding after that
block keeps every block and the next start moves on to the next
scenario.  A twelve-hour day timer starts with the first recording of a
day; once all scenarios are done the subject is locked out until it
expires and the next day loads.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .datastore import MALFORMED, read_field, read_json_file, write_json_file
from .features import segment_frames
from .simkit import frame_count

logger = logging.getLogger(__name__)

STUDY_DAYS = 7
DAY_TIMER_HOURS = 12.0
BATTERY_MIN_FRACTION = 0.10
PREPARATION_OVERHEAD_S = 90.0
SECONDS_PER_QUESTIONNAIRE_ITEM = 15.0
# The most recording a study file may schedule for one day, all strategies together:
# a day's 24 hours.  It also bounds memory, as a day's recording of a strategy is held
# whole: 24 h of 4-channel float32 at 256 Hz is 354 MB, about 1 GB once sealed.
MAX_RECORDING_S_PER_DAY = 24 * 3600.0

STRATEGY_RESTING = "resting"
STRATEGY_MEMORIES = "positive_memories"
STRATEGY_IMAGERY = "music_imagery"

SCENARIO_RECORDING = "recording"
SCENARIO_QUESTIONNAIRE = "questionnaire"

SUPPORTED_LOCALES = ("en", "de")


class SessionError(Exception):
    pass


class InvalidTransitionError(SessionError):
    """Event undefined for the current state; state unchanged."""


class BlockedError(SessionError):
    """Event defined but refused (battery, missing preparation); state unchanged."""


class StudyFormatError(SessionError):
    pass


class QuestionnaireFormatError(SessionError):
    pass


class SessionPhase(str, Enum):
    HOME = "Home"
    SCENARIO_INFO = "ScenarioInfo"
    PREPARATION = "Preparation"
    NOISE_CHECK = "NoiseCheck"
    FITTING = "Fitting"
    RECORDING_TRIAL = "RecordingTrial"
    BLOCK_REVIEW = "BlockReview"
    CHECKUP_FITTING = "CheckupFitting"
    UPLOADING = "Uploading"
    LOCKED_OUT = "LockedOut"
    ABORTED = "Aborted"


class EventKind(str, Enum):
    START_SESSION = "start_session"
    STEP_DONE = "step_done"
    DEVICE_FOUND = "device_found"
    BATTERY_READ = "battery_read"
    NOISE_CHECK_DONE = "noise_check_done"
    QUALITY_MET = "quality_met"
    TRIAL_ELAPSED = "trial_elapsed"
    CONTINUE_BLOCK = "continue_block"
    END_SESSION = "end_session"
    APP_BACKGROUNDED = "app_backgrounded"
    DEVICE_DISCONNECTED = "device_disconnected"
    TIMER_EXPIRED = "timer_expired"
    UPLOAD_DONE = "upload_done"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    level: float | None = None  # battery fraction for BATTERY_READ


def check_battery_level(level: float | None) -> None:
    """A battery reading is a fraction in 0..1; anything else, NaN too, is refused."""
    if level is None or not 0.0 <= level <= 1.0:
        raise BlockedError(f"battery level {level!r} outside 0..1")


class TimerState(str, Enum):
    NOT_STARTED = "not_started"
    LOCKED = "locked"
    EXPIRED = "expired"


@dataclass
class DayTimer:
    started_at: float | None = None
    duration_s: float = DAY_TIMER_HOURS * 3600.0

    def start(self, now: float) -> None:
        if self.started_at is None:
            self.started_at = now

    def tick(self, now: float) -> TimerState:
        if self.started_at is None:
            return TimerState.NOT_STARTED
        if now - self.started_at >= self.duration_s:
            return TimerState.EXPIRED
        return TimerState.LOCKED


# --- study definition ---------------------------------------------------

@dataclass(frozen=True)
class StrategySpec:
    """One mental strategy: its task pair and per-day trial counts."""

    strategy_id: str
    tasks: tuple[str, str]  # first task labels +1, second -1 for decoding
    trial_duration_s: float
    trials_per_task_per_block: int
    daily_trials: dict[int, int]  # day -> trial count, zero days omitted

    def __post_init__(self) -> None:
        """Two different tasks, and each day's trials in whole blocks: else no day can run."""
        if len(self.tasks) != 2 or self.tasks[0] == self.tasks[1]:
            raise StudyFormatError(f"strategy {self.strategy_id!r} needs a pair of two "
                                   f"different tasks, got {list(self.tasks)}")
        for day, count in sorted(self.daily_trials.items()):
            if count % self.trials_per_block():
                raise StudyFormatError(
                    f"strategy {self.strategy_id!r} daily_trials: {count} trials on day {day} "
                    f"do not split into blocks of {self.trials_per_block()}")

    def trials_per_block(self) -> int:
        return self.trials_per_task_per_block * len(self.tasks)

    def total_trials(self) -> int:
        return sum(self.daily_trials.values())


@dataclass(frozen=True)
class QuestionnaireItem:
    item_id: str
    kind: str  # rating | multiple_choice | text
    text: dict[str, str]  # locale -> prompt
    scale: int = 0  # rating only
    options: tuple[str, ...] = ()  # multiple_choice only


@dataclass(frozen=True)
class QuestionnaireSpec:
    questionnaire_id: str
    days: tuple[int, ...]
    items: tuple[QuestionnaireItem, ...]


@dataclass(frozen=True)
class StudyDefinition:
    study_id: str
    days: int
    strategies: tuple[StrategySpec, ...]
    questionnaires: tuple[QuestionnaireSpec, ...]

    def strategy(self, strategy_id: str) -> StrategySpec:
        for s in self.strategies:
            if s.strategy_id == strategy_id:
                return s
        raise StudyFormatError(f"unknown strategy {strategy_id!r}")


MOTIVATION_ITEM = QuestionnaireItem(
    item_id="motivation", kind="rating", scale=5,
    text={"en": "How motivated are you to complete today's sessions?",
          "de": "Wie motiviert sind Sie, die heutigen Sitzungen abzuschliessen?"})

MEDITATION_ITEM = QuestionnaireItem(
    item_id="meditation_experience", kind="rating", scale=3,
    text={"en": "How much meditation experience do you have?",
          "de": "Wie viel Meditationserfahrung haben Sie?"})


def default_study() -> StudyDefinition:
    """The built-in seven-day protocol.

    Resting state runs six one-minute trials every day; Positive
    memories runs 30-second trials on days 1, 2, 4, 5, 6 with double
    sessions on days 2 and 6; Music imagery runs 30-second trials on
    days 3, 5, 7.  Every recording task but resting's eyes_open is
    performed with closed eyes.
    """
    resting = StrategySpec(
        strategy_id=STRATEGY_RESTING,
        tasks=("eyes_open", "eyes_closed"),
        trial_duration_s=60.0,
        trials_per_task_per_block=1,
        daily_trials={d: 6 for d in range(1, STUDY_DAYS + 1)})
    memories = StrategySpec(
        strategy_id=STRATEGY_MEMORIES,
        tasks=("memory", "subtraction"),
        trial_duration_s=30.0,
        trials_per_task_per_block=3,
        daily_trials={1: 18, 2: 36, 4: 18, 5: 18, 6: 36})
    imagery = StrategySpec(
        strategy_id=STRATEGY_IMAGERY,
        tasks=("song", "subtraction"),
        trial_duration_s=30.0,
        trials_per_task_per_block=3,
        daily_trials={3: 18, 5: 18, 7: 18})
    daily = QuestionnaireSpec(
        questionnaire_id="daily",
        days=tuple(range(1, STUDY_DAYS + 1)),
        items=(MOTIVATION_ITEM,))
    intake = QuestionnaireSpec(
        questionnaire_id="intake",
        days=(1,),
        items=(MEDITATION_ITEM,))
    return StudyDefinition(study_id="default-7day", days=STUDY_DAYS,
                           strategies=(resting, memories, imagery),
                           questionnaires=(intake, daily))


def save_study(study: StudyDefinition, path: str | Path) -> None:
    doc = {
        "version": 1,
        "study_id": study.study_id,
        "days": study.days,
        "strategies": [
            {"id": s.strategy_id, "tasks": list(s.tasks),
             "trial_duration_s": s.trial_duration_s,
             "trials_per_task_per_block": s.trials_per_task_per_block,
             "daily_trials": {str(d): n for d, n in sorted(s.daily_trials.items())}}
            for s in study.strategies],
        "questionnaires": [
            {"id": q.questionnaire_id, "days": list(q.days),
             "items": [_item_to_doc(i) for i in q.items]}
            for q in study.questionnaires],
    }
    write_json_file(path, doc)


def _strategy_from_doc(doc: dict, days: int) -> StrategySpec:
    strategy_id = read_field(doc, "id", "str", StudyFormatError)
    try:
        duration = float(read_field(doc, "trial_duration_s", "positive", StudyFormatError,
                                    hi=MAX_RECORDING_S_PER_DAY))
        daily = {}
        for day, count in read_field(doc, "daily_trials", "object", StudyFormatError).items():
            entry = {"day": int(day), "daily_trials": count}  # a JSON object's keys are strings
            daily[read_field(entry, "day", "whole", StudyFormatError, 1, days)] = read_field(
                entry, "daily_trials", "whole", StudyFormatError, 0)
        per_block = read_field(doc, "trials_per_task_per_block", "whole", StudyFormatError, 1)
        tasks = tuple(read_field(doc, "tasks", "strings", StudyFormatError))
    except StudyFormatError as exc:
        raise StudyFormatError(f"strategy {strategy_id!r}: {exc}") from exc
    frames = frame_count(duration)
    if frames < segment_frames():
        raise StudyFormatError(f"strategy {strategy_id!r} trial_duration_s {duration!r} gives "
                               f"{frames} frames; decode needs one Welch segment of "
                               f"{segment_frames()}")
    return StrategySpec(strategy_id=strategy_id, tasks=tasks, trial_duration_s=duration,
                        trials_per_task_per_block=per_block, daily_trials=daily)


def load_study(path: str | Path) -> StudyDefinition:
    doc = read_json_file(path, StudyFormatError, "study definition")
    try:
        read_field(doc, "version", "int", StudyFormatError, 1, 1)
        days = read_field(doc, "days", "whole", StudyFormatError, 1)
        strategies = tuple(_strategy_from_doc(s, days) for s in doc["strategies"])
        questionnaires = tuple(  # each day read as the one field of a document of its own
            QuestionnaireSpec(questionnaire_id=read_field(q, "id", "str", StudyFormatError),
                              days=tuple(read_field({"days": d}, "days", "whole",
                                                    StudyFormatError, 1, days) for d in q["days"]),
                              items=tuple(_item_from_doc(i) for i in q["items"]))
            for q in doc["questionnaires"])
        for day in sorted({d for s in strategies for d in s.daily_trials}):
            seconds = sum(s.daily_trials.get(day, 0) * s.trial_duration_s for s in strategies)
            if seconds > MAX_RECORDING_S_PER_DAY:
                raise StudyFormatError(
                    f"day {day}'s daily_trials last {seconds:g} s of trial_duration_s; "
                    f"a day holds at most {MAX_RECORDING_S_PER_DAY:g} s")
        for what, ids in (("strategy", [s.strategy_id for s in strategies]),
                          ("questionnaire", [q.questionnaire_id for q in questionnaires])):
            for n, i in enumerate(ids):
                if i in ids[:n]:
                    raise StudyFormatError(f"{what} id {i!r} is used more than once")
        return StudyDefinition(study_id=str(doc["study_id"]), days=days,
                               strategies=strategies, questionnaires=questionnaires)
    except MALFORMED as exc:
        raise StudyFormatError(f"malformed study definition: {exc}") from exc


def _item_to_doc(item: QuestionnaireItem) -> dict:
    doc: dict = {"id": item.item_id, "kind": item.kind, "text": item.text}
    if item.kind == "rating":
        doc["scale"] = item.scale
    if item.kind == "multiple_choice":
        doc["options"] = list(item.options)
    return doc


def _item_from_doc(doc: dict) -> QuestionnaireItem:
    item_id = read_field(doc, "id", "str", QuestionnaireFormatError)
    kind = doc.get("kind")
    if kind not in ("rating", "multiple_choice", "text"):
        raise QuestionnaireFormatError(f"item {item_id!r} has unknown kind {kind!r}")
    try:
        scale = read_field(doc, "scale", "whole", QuestionnaireFormatError, 2) \
            if kind == "rating" else 0
        options = read_field(doc, "options", "strings", QuestionnaireFormatError) \
            if kind == "multiple_choice" else ()
    except QuestionnaireFormatError as exc:
        raise QuestionnaireFormatError(f"{kind} item {item_id!r}: {exc}") from exc
    return QuestionnaireItem(item_id=item_id, kind=kind, text=dict(doc["text"]), scale=scale,
                             options=tuple(options))


# --- schedule planning ---------------------------------------------------

@dataclass(frozen=True)
class Trial:
    task: str
    duration_s: float


@dataclass(frozen=True)
class Block:
    block_id: str
    strategy: str
    trials: tuple[Trial, ...]

    def duration_s(self) -> float:
        return sum(t.duration_s for t in self.trials)


@dataclass
class Scenario:
    scenario_id: str
    kind: str  # recording | questionnaire
    strategy: str = ""
    blocks: tuple[Block, ...] = ()
    items: tuple[QuestionnaireItem, ...] = ()
    questionnaire_id: str = ""
    completed_blocks: int = 0
    completed: bool = False

    def total_trials(self) -> int:
        return sum(len(b.trials) for b in self.blocks)


def _plan_blocks(spec: StrategySpec, day: int, seed: int, scenario_index: int) -> tuple[Block, ...]:
    blocks = []
    for b in range(spec.daily_trials.get(day, 0) // spec.trials_per_block()):
        rng = np.random.default_rng([seed, day, scenario_index, b])
        tasks = [task for task in spec.tasks for _ in range(spec.trials_per_task_per_block)]
        order = rng.permutation(len(tasks))
        trials = tuple(Trial(task=tasks[i], duration_s=spec.trial_duration_s)
                       for i in order)
        blocks.append(Block(block_id=f"{spec.strategy_id}-d{day}-b{b + 1}",
                            strategy=spec.strategy_id, trials=trials))
    return tuple(blocks)


def plan_schedule(study: StudyDefinition, day: int, seed: int = 0) -> list[Scenario]:
    """Scenarios for one day: questionnaires first, then one per strategy.

    Trial order inside every block is randomized from (seed, day, block),
    with the per-task trial counts fixed by the strategy definition.
    """
    if not 1 <= day <= study.days:
        raise StudyFormatError(f"day {day} outside 1..{study.days}")
    scenarios: list[Scenario] = []
    for q in study.questionnaires:
        if day in q.days:
            scenarios.append(Scenario(
                scenario_id=f"{q.questionnaire_id}-d{day}",
                kind=SCENARIO_QUESTIONNAIRE, items=q.items,
                questionnaire_id=q.questionnaire_id))
    for idx, spec in enumerate(study.strategies):
        if spec.daily_trials.get(day, 0) <= 0:
            continue
        blocks = _plan_blocks(spec, day, seed, idx)
        scenarios.append(Scenario(
            scenario_id=f"{spec.strategy_id}-d{day}",
            kind=SCENARIO_RECORDING, strategy=spec.strategy_id, blocks=blocks))
    return scenarios


def estimate_duration(scenario: Scenario) -> int:
    """Remaining duration in whole minutes, shown before a scenario starts.

    Recording scenarios add a fixed preparation overhead; completed
    scenarios report zero.
    """
    if scenario.kind == SCENARIO_RECORDING:
        remaining = scenario.blocks[scenario.completed_blocks:]
        seconds = sum(b.duration_s() for b in remaining)
        if seconds <= 0:
            return 0
        return math.ceil((seconds + PREPARATION_OVERHEAD_S) / 60.0)
    if scenario.completed:
        return 0
    return math.ceil(len(scenario.items) * SECONDS_PER_QUESTIONNAIRE_ITEM / 60.0)


# --- questionnaires ------------------------------------------------------

@dataclass(frozen=True)
class ItemResponse:
    item_id: str
    kind: str
    value: object
    scale: int
    answered_at: float


def run_questionnaire(items: Sequence[QuestionnaireItem],
                      answer: Callable[[QuestionnaireItem], object],
                      locale: str = "en",
                      clock: Callable[[], float] | None = None) -> list[ItemResponse]:
    """Collect one validated answer per item.

    `answer` maps an item to its response value; out-of-range ratings,
    unknown choices, and non-string free text are rejected so a result
    document can never hold an unanswerable value.
    """
    now = clock or time.time
    responses = []
    for item in items:
        if locale not in item.text:
            raise QuestionnaireFormatError(
                f"item {item.item_id!r} has no {locale!r} text")
        value = answer(item)
        if item.kind == "rating":  # the answer is the value of the field named by the item
            read_field({item.item_id: value}, item.item_id, "int", QuestionnaireFormatError,
                       1, item.scale)
        elif item.kind == "multiple_choice":
            if value not in item.options:
                raise QuestionnaireFormatError(
                    f"item {item.item_id!r}: {value!r} not in options")
        elif not isinstance(value, str):
            raise QuestionnaireFormatError(
                f"item {item.item_id!r}: free text must be a string")
        responses.append(ItemResponse(item_id=item.item_id, kind=item.kind,
                                      value=value, scale=item.scale,
                                      answered_at=float(now())))
    return responses


def questionnaire_result_doc(questionnaire_id: str, subject_id: str, day: int,
                             locale: str, responses: Sequence[ItemResponse]) -> dict:
    return {
        "kind": "questionnaire_result",
        "questionnaire_id": questionnaire_id,
        "subject_id": subject_id,
        "day": day,
        "locale": locale,
        "responses": [
            {"item": r.item_id, "kind": r.kind, "value": r.value,
             "scale": r.scale, "answered_at": r.answered_at}
            for r in responses],
    }


# --- session state machine ------------------------------------------------

@dataclass(frozen=True)
class RecordedBlock:
    """A block that reached its final trial; only these are persisted."""

    scenario_id: str
    block: Block


class SessionEngine:
    """Drives one subject through the day's scenarios.

    The engine holds the started scenario and the trial cursor (the block
    cursor is the scenario's `completed_blocks`), the preparation gate, the
    day timer, and the list of persisted blocks.
    All progress happens through `handle`; the caller supplies wall time
    so simulations stay deterministic.
    """

    ABORT_EVENTS = (EventKind.APP_BACKGROUNDED, EventKind.DEVICE_DISCONNECTED)

    def __init__(self, study: StudyDefinition, day: int = 1, seed: int = 0) -> None:
        self.study = study
        self.seed = seed
        self.day = day
        self.phase = SessionPhase.HOME
        self.schedule: list[Scenario] = plan_schedule(study, day, seed)
        self.timer = DayTimer()
        self.recorded_blocks: list[RecordedBlock] = []
        self.discarded_blocks = 0
        self.notifications: list[str] = []
        self.study_complete = False
        self.last_abort_reason = ""
        self._scenario: Scenario | None = None  # the started scenario, until Home
        self._trial_idx = 0
        self._device_found = False
        self._battery_ok = False

    # -- introspection

    def current_scenario(self) -> Scenario | None:
        return self._scenario or self.next_pending_scenario()

    def next_pending_scenario(self) -> Scenario | None:
        for sc in self.schedule:
            if not sc.completed:
                return sc
        return None

    def current_block(self) -> Block | None:
        """The scenario's first unrecorded block; None once every block is recorded."""
        sc = self.current_scenario()
        if sc is None or sc.completed_blocks >= len(sc.blocks):
            return None
        return sc.blocks[sc.completed_blocks]

    def day_complete(self) -> bool:
        return all(sc.completed for sc in self.schedule)

    # -- event handling

    def handle(self, event: Event, now: float = 0.0) -> SessionPhase:
        handler = _TRANSITIONS.get((self.phase, event.kind))
        if handler is None:
            raise InvalidTransitionError(
                f"{event.kind.value} not defined in state {self.phase.value}")
        handler(self, event, now)
        return self.phase

    # -- handlers (state changes only happen here)

    def _on_start_session(self, event: Event, now: float) -> None:
        self._scenario = self.next_pending_scenario()
        if self._scenario is None:
            raise InvalidTransitionError("no pending scenario to start")
        self._trial_idx = 0
        self._device_found = False
        self._battery_ok = False
        self.phase = SessionPhase.SCENARIO_INFO

    def _on_info_done(self, event: Event, now: float) -> None:
        scenario = self.current_scenario()
        assert scenario is not None
        if scenario.kind == SCENARIO_QUESTIONNAIRE:
            # Hardware preparation and fitting are skipped; the caller runs
            # the questionnaire itself while the engine sits in ScenarioInfo.
            scenario.completed = True
            self._on_return_home(event, now)
        else:
            self.phase = SessionPhase.PREPARATION

    def _on_device_found(self, event: Event, now: float) -> None:
        self._device_found = True

    def _on_battery_read(self, event: Event, now: float) -> None:
        check_battery_level(event.level)
        if event.level <= BATTERY_MIN_FRACTION:
            self._battery_ok = False
            raise BlockedError(
                f"battery at {event.level:.0%}; needs more than "
                f"{BATTERY_MIN_FRACTION:.0%} to record")
        self._battery_ok = True

    def _on_preparation_done(self, event: Event, now: float) -> None:
        if not self._device_found:
            raise BlockedError("headset not found yet")
        if not self._battery_ok:
            raise BlockedError("battery level not confirmed")
        self.phase = SessionPhase.NOISE_CHECK

    def _on_noise_check_done(self, event: Event, now: float) -> None:
        # Non-blocking: the environment score is shown, never enforced.
        self.phase = SessionPhase.FITTING

    def _on_quality_met(self, event: Event, now: float) -> None:
        self.timer.start(now)  # first recording of the day starts the clock
        self._trial_idx = 0
        self.phase = SessionPhase.RECORDING_TRIAL

    def _on_trial_elapsed(self, event: Event, now: float) -> None:
        scenario = self.current_scenario()
        block = self.current_block()
        assert block is not None  # a scenario is done, so never restarted, after its last block
        self._trial_idx += 1
        if self._trial_idx < len(block.trials):
            return
        # Block finished every trial: persist it; the last block completes the scenario.
        self.recorded_blocks.append(RecordedBlock(scenario.scenario_id, block))
        scenario.completed_blocks += 1
        scenario.completed = scenario.completed_blocks == len(scenario.blocks)
        self._trial_idx = 0
        self.phase = SessionPhase.BLOCK_REVIEW

    def _on_continue_block(self, event: Event, now: float) -> None:
        if self.current_block() is None:
            raise InvalidTransitionError("no block left in this scenario")
        self.phase = SessionPhase.CHECKUP_FITTING

    def _on_end_session(self, event: Event, now: float) -> None:
        self.phase = SessionPhase.UPLOADING

    def _on_abort(self, event: Event, now: float) -> None:
        if self.phase == SessionPhase.RECORDING_TRIAL:
            self.discarded_blocks += 1  # in-flight block is dropped, not persisted
        self.last_abort_reason = event.kind.value
        self._trial_idx = 0
        self.phase = SessionPhase.ABORTED

    def _on_return_home(self, event: Event, now: float) -> None:
        """Leave the scenario; a finished day locks out while its timer runs."""
        self._scenario = None
        if self.day_complete() and self.timer.tick(now) == TimerState.LOCKED:
            self.phase = SessionPhase.LOCKED_OUT
        else:
            self.phase = SessionPhase.HOME

    def _on_timer_expired(self, event: Event, now: float) -> None:
        if self.timer.tick(now) != TimerState.EXPIRED:
            raise BlockedError("day timer has not expired yet")
        self._advance_day()
        self.phase = SessionPhase.HOME

    def _advance_day(self) -> None:
        if self.day >= self.study.days:
            self.study_complete = True
            self.schedule = []
            self.notifications.append("study complete")
            return
        self.day += 1
        self.schedule = plan_schedule(self.study, self.day, self.seed)
        self.timer = DayTimer()
        self.notifications.append(f"day {self.day} unlocked")


_TRANSITIONS: dict[tuple[SessionPhase, EventKind], Callable] = {
    (SessionPhase.HOME, EventKind.START_SESSION): SessionEngine._on_start_session,
    (SessionPhase.HOME, EventKind.TIMER_EXPIRED): SessionEngine._on_timer_expired,
    (SessionPhase.SCENARIO_INFO, EventKind.STEP_DONE): SessionEngine._on_info_done,
    (SessionPhase.SCENARIO_INFO, EventKind.END_SESSION): SessionEngine._on_return_home,
    (SessionPhase.PREPARATION, EventKind.DEVICE_FOUND): SessionEngine._on_device_found,
    (SessionPhase.PREPARATION, EventKind.BATTERY_READ): SessionEngine._on_battery_read,
    (SessionPhase.PREPARATION, EventKind.STEP_DONE): SessionEngine._on_preparation_done,
    (SessionPhase.NOISE_CHECK, EventKind.NOISE_CHECK_DONE): SessionEngine._on_noise_check_done,
    (SessionPhase.FITTING, EventKind.QUALITY_MET): SessionEngine._on_quality_met,
    (SessionPhase.RECORDING_TRIAL, EventKind.TRIAL_ELAPSED): SessionEngine._on_trial_elapsed,
    (SessionPhase.BLOCK_REVIEW, EventKind.CONTINUE_BLOCK): SessionEngine._on_continue_block,
    (SessionPhase.BLOCK_REVIEW, EventKind.END_SESSION): SessionEngine._on_end_session,
    (SessionPhase.CHECKUP_FITTING, EventKind.QUALITY_MET): SessionEngine._on_quality_met,
    (SessionPhase.UPLOADING, EventKind.UPLOAD_DONE): SessionEngine._on_return_home,
    (SessionPhase.LOCKED_OUT, EventKind.TIMER_EXPIRED): SessionEngine._on_timer_expired,
    (SessionPhase.ABORTED, EventKind.STEP_DONE): SessionEngine._on_return_home,
}

# Backgrounding or losing the device aborts from any hardware-bound state.
for _phase in (SessionPhase.PREPARATION, SessionPhase.NOISE_CHECK, SessionPhase.FITTING,
               SessionPhase.RECORDING_TRIAL, SessionPhase.BLOCK_REVIEW,
               SessionPhase.CHECKUP_FITTING):
    for _kind in SessionEngine.ABORT_EVENTS:
        _TRANSITIONS[(_phase, _kind)] = SessionEngine._on_abort
