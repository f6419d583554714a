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

from .datastore import MALFORMED, read_json_file, write_json_file

logger = logging.getLogger(__name__)

STUDY_DAYS = 7
DAY_TIMER_HOURS = 12.0
BATTERY_MIN_FRACTION = 0.10
PREPARATION_OVERHEAD_S = 90.0
SECONDS_PER_QUESTIONNAIRE_ITEM = 15.0

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


def _count(value, what: str, minimum: int, maximum: float = math.inf) -> int:
    """A whole JSON number in minimum..maximum; booleans and fractions are malformed."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise StudyFormatError(f"{what} must be a whole number, got {value!r}")
    count = int(value)
    if not minimum <= count <= maximum:
        raise StudyFormatError(f"{what} must lie in {minimum}..{maximum}, got {count}")
    return count


def _strategy_from_doc(doc: dict, days: int) -> StrategySpec:
    strategy_id = doc["id"]
    duration = float(doc["trial_duration_s"])
    if not (math.isfinite(duration) and duration > 0):
        raise StudyFormatError(f"strategy {strategy_id!r} needs a positive finite "
                               f"trial_duration_s, got {duration!r}")
    daily = {_count(d, f"a daily_trials day of strategy {strategy_id!r}", 1, days):
             _count(n, "a daily trial count", 0)
             for d, n in doc["daily_trials"].items()}
    return StrategySpec(strategy_id=strategy_id, tasks=tuple(doc["tasks"]),
                        trial_duration_s=duration,
                        trials_per_task_per_block=_count(
                            doc["trials_per_task_per_block"], "trials_per_task_per_block", 1),
                        daily_trials=daily)


def load_study(path: str | Path) -> StudyDefinition:
    doc = read_json_file(path, StudyFormatError, "study definition")
    try:
        if type(doc["version"]) is not int or doc["version"] != 1:
            raise StudyFormatError(f"unsupported study version {doc['version']!r}")
        days = _count(doc["days"], "days", 1)
        strategies = tuple(_strategy_from_doc(s, days) for s in doc["strategies"])
        questionnaires = tuple(
            QuestionnaireSpec(questionnaire_id=q["id"],
                              days=tuple(_count(d, f"a day of questionnaire {q['id']!r}", 1, days)
                                         for d in q["days"]),
                              items=tuple(_item_from_doc(i) for i in q["items"]))
            for q in doc["questionnaires"])
        for s in strategies:
            if len(s.tasks) != 2:
                raise StudyFormatError(f"strategy {s.strategy_id!r} needs a task pair")
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
    kind = doc.get("kind")
    item_id = doc.get("id", "<missing id>")
    if kind not in ("rating", "multiple_choice", "text"):
        raise QuestionnaireFormatError(f"item {item_id!r} has unknown kind {kind!r}")
    if kind == "rating" and int(doc.get("scale", 0)) < 2:
        raise QuestionnaireFormatError(f"rating item {item_id!r} needs a scale >= 2")
    if kind == "multiple_choice" and not doc.get("options"):
        raise QuestionnaireFormatError(f"choice item {item_id!r} has no options")
    return QuestionnaireItem(item_id=str(doc["id"]), kind=str(kind),
                             text=dict(doc["text"]), scale=int(doc.get("scale", 0)),
                             options=tuple(doc.get("options", ())))


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
    completed_items: int = 0
    completed: bool = False

    def total_trials(self) -> int:
        return sum(len(b.trials) for b in self.blocks)


def _plan_blocks(spec: StrategySpec, day: int, seed: int, scenario_index: int) -> tuple[Block, ...]:
    total = spec.daily_trials.get(day, 0)
    per_block = spec.trials_per_block()
    if total % per_block != 0:
        raise StudyFormatError(
            f"{spec.strategy_id}: {total} trials on day {day} do not split "
            f"into blocks of {per_block}")
    blocks = []
    for b in range(total // per_block):
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
    remaining_items = len(scenario.items) - scenario.completed_items
    if remaining_items <= 0:
        return 0
    return math.ceil(remaining_items * SECONDS_PER_QUESTIONNAIRE_ITEM / 60.0)


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
        if item.kind == "rating":
            if not isinstance(value, int) or not 1 <= value <= item.scale:
                raise QuestionnaireFormatError(
                    f"item {item.item_id!r}: rating {value!r} outside 1..{item.scale}")
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
            scenario.completed_items = len(scenario.items)
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
