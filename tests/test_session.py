from __future__ import annotations

import collections
import copy
import json
import re

import pytest

from mindkit import session as ss


HOURS_12 = 12 * 3600.0


def walk_to(engine: ss.SessionEngine, phase: ss.SessionPhase,
            now: float = 0.0) -> ss.SessionEngine:
    """Drive a fresh engine along the happy path until `phase`."""
    E = ss.EventKind
    steps = [
        (ss.SessionPhase.SCENARIO_INFO, ss.Event(E.START_SESSION)),
        (ss.SessionPhase.PREPARATION, ss.Event(E.STEP_DONE)),
        (ss.SessionPhase.PREPARATION, ss.Event(E.DEVICE_FOUND)),
        (ss.SessionPhase.PREPARATION, ss.Event(E.BATTERY_READ, level=0.8)),
        (ss.SessionPhase.NOISE_CHECK, ss.Event(E.STEP_DONE)),
        (ss.SessionPhase.FITTING, ss.Event(E.NOISE_CHECK_DONE)),
        (ss.SessionPhase.RECORDING_TRIAL, ss.Event(E.QUALITY_MET)),
    ]
    for expected, event in steps:
        engine.handle(event, now)
        if engine.phase == phase and expected == phase:
            return engine
    assert engine.phase == phase
    return engine


def recording_study() -> ss.StudyDefinition:
    """Two-trial blocks, no questionnaires: smallest drivable study."""
    spec = ss.StrategySpec(strategy_id="demo", tasks=("a", "b"),
                           trial_duration_s=1.0, trials_per_task_per_block=1,
                           daily_trials={1: 4, 2: 2})
    return ss.StudyDefinition(study_id="t", days=2, strategies=(spec,),
                              questionnaires=())


# --- schedule law ------------------------------------------------------------

def test_weekly_trial_totals():
    study = ss.default_study()
    resting = study.strategy(ss.STRATEGY_RESTING)
    memories = study.strategy(ss.STRATEGY_MEMORIES)
    imagery = study.strategy(ss.STRATEGY_IMAGERY)
    assert resting.total_trials() == 42
    assert memories.total_trials() == 126
    assert imagery.total_trials() == 54


def test_daily_counts_from_planned_schedules():
    study = ss.default_study()
    per_strategy = collections.Counter()
    for day in range(1, 8):
        for sc in ss.plan_schedule(study, day, seed=1):
            if sc.kind == ss.SCENARIO_RECORDING:
                per_strategy[sc.strategy] += sc.total_trials()
    assert per_strategy[ss.STRATEGY_RESTING] == 42
    assert per_strategy[ss.STRATEGY_MEMORIES] == 126
    assert per_strategy[ss.STRATEGY_IMAGERY] == 54


def test_double_sessions_on_days_two_and_six():
    study = ss.default_study()
    for day in (2, 6):
        scenarios = ss.plan_schedule(study, day, seed=0)
        memories = [sc for sc in scenarios if sc.strategy == ss.STRATEGY_MEMORIES]
        assert len(memories) == 1
        assert memories[0].total_trials() == 36


def test_day_three_is_imagery_and_resting_only():
    study = ss.default_study()
    recording = [sc for sc in ss.plan_schedule(study, 3, seed=0)
                 if sc.kind == ss.SCENARIO_RECORDING]
    assert {sc.strategy for sc in recording} == {ss.STRATEGY_RESTING,
                                                 ss.STRATEGY_IMAGERY}


def test_schedule_law_holds_for_100_seeds():
    study = ss.default_study()
    for seed in range(100):
        totals = collections.Counter()
        day3 = set()
        for day in range(1, 8):
            for sc in ss.plan_schedule(study, day, seed=seed):
                if sc.kind != ss.SCENARIO_RECORDING:
                    continue
                totals[sc.strategy] += sc.total_trials()
                if day == 3:
                    day3.add(sc.strategy)
                if day in (2, 6) and sc.strategy == ss.STRATEGY_MEMORIES:
                    assert sc.total_trials() == 36
        assert totals[ss.STRATEGY_RESTING] == 42
        assert totals[ss.STRATEGY_MEMORIES] == 126
        assert totals[ss.STRATEGY_IMAGERY] == 54
        assert day3 == {ss.STRATEGY_RESTING, ss.STRATEGY_IMAGERY}


def test_blocks_hold_balanced_task_multisets():
    study = ss.default_study()
    for seed in (0, 7):
        for sc in ss.plan_schedule(study, 5, seed=seed):
            if sc.kind != ss.SCENARIO_RECORDING:
                continue
            spec = study.strategy(sc.strategy)
            for block in sc.blocks:
                counts = collections.Counter(t.task for t in block.trials)
                assert counts == {task: spec.trials_per_task_per_block
                                  for task in spec.tasks}


def test_block_order_randomized_by_seed():
    study = ss.default_study()
    orders = set()
    for seed in range(6):
        sc = [s for s in ss.plan_schedule(study, 1, seed=seed)
              if s.strategy == ss.STRATEGY_MEMORIES][0]
        orders.add(tuple(t.task for t in sc.blocks[0].trials))
    assert len(orders) > 1  # not a fixed order
    assert all(tuple(sorted(o)) == ("memory",) * 3 + ("subtraction",) * 3
               for o in orders)


def test_schedule_deterministic_per_seed():
    study = ss.default_study()
    a = ss.plan_schedule(study, 4, seed=9)
    b = ss.plan_schedule(study, 4, seed=9)
    assert [[t.task for blk in sc.blocks for t in blk.trials] for sc in a] == \
           [[t.task for blk in sc.blocks for t in blk.trials] for sc in b]


def test_questionnaires_precede_recordings():
    study = ss.default_study()
    kinds = [sc.kind for sc in ss.plan_schedule(study, 1, seed=0)]
    first_recording = kinds.index(ss.SCENARIO_RECORDING)
    assert all(k == ss.SCENARIO_QUESTIONNAIRE for k in kinds[:first_recording])
    # intake only on day 1
    day1 = [sc.questionnaire_id for sc in ss.plan_schedule(study, 1, seed=0)
            if sc.kind == ss.SCENARIO_QUESTIONNAIRE]
    day2 = [sc.questionnaire_id for sc in ss.plan_schedule(study, 2, seed=0)
            if sc.kind == ss.SCENARIO_QUESTIONNAIRE]
    assert day1 == ["intake", "daily"]
    assert day2 == ["daily"]


def test_plan_schedule_rejects_bad_day():
    study = ss.default_study()
    with pytest.raises(ss.StudyFormatError):
        ss.plan_schedule(study, 0)
    with pytest.raises(ss.StudyFormatError):
        ss.plan_schedule(study, 8)


def test_estimate_duration_rounds_up_with_overhead():
    study = ss.default_study()
    scenarios = ss.plan_schedule(study, 1, seed=0)
    resting = [sc for sc in scenarios if sc.strategy == ss.STRATEGY_RESTING][0]
    memories = [sc for sc in scenarios if sc.strategy == ss.STRATEGY_MEMORIES][0]
    # 6*60s + 90s = 450s -> 8 min; 18*30s + 90s = 630s -> 11 min
    assert ss.estimate_duration(resting) == 8
    assert ss.estimate_duration(memories) == 11
    questionnaire = scenarios[0]
    assert questionnaire.kind == ss.SCENARIO_QUESTIONNAIRE
    assert ss.estimate_duration(questionnaire) == 1
    memories.completed_blocks = len(memories.blocks)
    assert ss.estimate_duration(memories) == 0


def test_study_save_load_round_trip(tmp_path):
    study = ss.default_study()
    path = tmp_path / "study.json"
    ss.save_study(study, path)
    loaded = ss.load_study(path)
    assert loaded == study


def test_load_study_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"study_id\": \"x\"}")
    with pytest.raises(ss.StudyFormatError):
        ss.load_study(path)


# --- questionnaires -----------------------------------------------------------

def test_run_questionnaire_validates_ratings():
    items = (ss.MOTIVATION_ITEM,)
    with pytest.raises(ss.QuestionnaireFormatError):
        ss.run_questionnaire(items, lambda item: 6)
    with pytest.raises(ss.QuestionnaireFormatError):
        ss.run_questionnaire(items, lambda item: 0)
    with pytest.raises(ss.QuestionnaireFormatError):
        ss.run_questionnaire(items, lambda item: "3")
    with pytest.raises(ss.QuestionnaireFormatError,  # a bool is no rating, though an int
                       match=r"^field 'motivation' must be an integer in 1\.\.5, got True$"):
        ss.run_questionnaire(items, lambda item: True)
    responses = ss.run_questionnaire(items, lambda item: 4, clock=lambda: 12.0)
    assert responses[0].value == 4
    assert responses[0].answered_at == 12.0


def test_run_questionnaire_checks_locale():
    item = ss.QuestionnaireItem(item_id="q", kind="rating",
                                text={"en": "?"}, scale=3)
    with pytest.raises(ss.QuestionnaireFormatError):
        ss.run_questionnaire((item,), lambda i: 2, locale="de")
    assert ss.run_questionnaire((item,), lambda i: 2, locale="en")


def test_questionnaire_result_doc_shape():
    responses = ss.run_questionnaire((ss.MEDITATION_ITEM,), lambda i: 2,
                                     clock=lambda: 5.0)
    doc = ss.questionnaire_result_doc("intake", "subj", 1, "en", responses)
    assert doc["kind"] == "questionnaire_result"
    assert doc["questionnaire_id"] == "intake"
    assert doc["day"] == 1
    assert doc["responses"] == [{"item": "meditation_experience", "kind": "rating",
                                 "value": 2, "scale": 3, "answered_at": 5.0}]


# --- day timer -----------------------------------------------------------------

def test_day_timer_states():
    timer = ss.DayTimer()
    assert timer.tick(0.0) == ss.TimerState.NOT_STARTED
    timer.start(100.0)
    timer.start(5000.0)  # idempotent: the first start wins
    assert timer.started_at == 100.0
    assert timer.tick(100.0 + HOURS_12 - 1) == ss.TimerState.LOCKED
    assert timer.tick(100.0 + HOURS_12) == ss.TimerState.EXPIRED


# --- session engine --------------------------------------------------------------

def test_happy_path_records_one_block():
    engine = ss.SessionEngine(recording_study(), day=1)
    walk_to(engine, ss.SessionPhase.RECORDING_TRIAL)
    E = ss.EventKind
    engine.handle(ss.Event(E.TRIAL_ELAPSED))
    assert engine.phase == ss.SessionPhase.RECORDING_TRIAL
    engine.handle(ss.Event(E.TRIAL_ELAPSED))
    assert engine.phase == ss.SessionPhase.BLOCK_REVIEW
    assert len(engine.recorded_blocks) == 1
    assert engine.recorded_blocks[0].block.block_id == "demo-d1-b1"


def test_continue_block_runs_checkup_then_next_block():
    engine = ss.SessionEngine(recording_study(), day=1)
    walk_to(engine, ss.SessionPhase.RECORDING_TRIAL)
    E = ss.EventKind
    for _ in range(2):
        engine.handle(ss.Event(E.TRIAL_ELAPSED))
    engine.handle(ss.Event(E.CONTINUE_BLOCK))
    assert engine.phase == ss.SessionPhase.CHECKUP_FITTING
    engine.handle(ss.Event(E.QUALITY_MET))
    assert engine.phase == ss.SessionPhase.RECORDING_TRIAL
    for _ in range(2):
        engine.handle(ss.Event(E.TRIAL_ELAPSED))
    assert len(engine.recorded_blocks) == 2
    # nothing left: continuing is an invalid request, state preserved
    with pytest.raises(ss.InvalidTransitionError):
        engine.handle(ss.Event(E.CONTINUE_BLOCK))
    assert engine.phase == ss.SessionPhase.BLOCK_REVIEW
    engine.handle(ss.Event(E.END_SESSION))
    engine.handle(ss.Event(E.UPLOAD_DONE))
    assert engine.day_complete()


def test_battery_gate_blocks_recording():
    for level in (0.05, 0.10):
        engine = ss.SessionEngine(recording_study(), day=1)
        E = ss.EventKind
        engine.handle(ss.Event(E.START_SESSION))
        engine.handle(ss.Event(E.STEP_DONE))
        engine.handle(ss.Event(E.DEVICE_FOUND))
        with pytest.raises(ss.BlockedError):
            engine.handle(ss.Event(E.BATTERY_READ, level=level))
        assert engine.phase == ss.SessionPhase.PREPARATION
        with pytest.raises(ss.BlockedError):
            engine.handle(ss.Event(E.STEP_DONE))  # still not confirmed
        assert engine.phase == ss.SessionPhase.PREPARATION


def test_battery_just_above_threshold_passes():
    engine = ss.SessionEngine(recording_study(), day=1)
    E = ss.EventKind
    engine.handle(ss.Event(E.START_SESSION))
    engine.handle(ss.Event(E.STEP_DONE))
    engine.handle(ss.Event(E.DEVICE_FOUND))
    engine.handle(ss.Event(E.BATTERY_READ, level=0.101))
    engine.handle(ss.Event(E.STEP_DONE))
    assert engine.phase == ss.SessionPhase.NOISE_CHECK


def test_battery_level_validated():
    engine = ss.SessionEngine(recording_study(), day=1)
    E = ss.EventKind
    engine.handle(ss.Event(E.START_SESSION))
    engine.handle(ss.Event(E.STEP_DONE))
    with pytest.raises(ss.BlockedError):
        engine.handle(ss.Event(E.BATTERY_READ, level=None))
    for level in (1.2, -0.1, float("nan"), float("inf")):
        with pytest.raises(ss.BlockedError):
            engine.handle(ss.Event(E.BATTERY_READ, level=level))


def test_preparation_requires_device():
    engine = ss.SessionEngine(recording_study(), day=1)
    E = ss.EventKind
    engine.handle(ss.Event(E.START_SESSION))
    engine.handle(ss.Event(E.STEP_DONE))
    engine.handle(ss.Event(E.BATTERY_READ, level=0.9))
    with pytest.raises(ss.BlockedError):
        engine.handle(ss.Event(E.STEP_DONE))
    assert engine.phase == ss.SessionPhase.PREPARATION


def test_abort_during_recording_discards_block():
    for abort in (ss.EventKind.APP_BACKGROUNDED, ss.EventKind.DEVICE_DISCONNECTED):
        engine = ss.SessionEngine(recording_study(), day=1)
        walk_to(engine, ss.SessionPhase.RECORDING_TRIAL)
        engine.handle(ss.Event(ss.EventKind.TRIAL_ELAPSED))
        engine.handle(ss.Event(abort))
        assert engine.phase == ss.SessionPhase.ABORTED
        assert engine.recorded_blocks == []
        assert engine.discarded_blocks == 1
        assert engine.last_abort_reason == abort.value
        engine.handle(ss.Event(ss.EventKind.STEP_DONE))
        assert engine.phase == ss.SessionPhase.HOME
        # the scenario stays pending; restarting re-runs the same block
        assert engine.next_pending_scenario() is not None


def test_abort_outside_recording_discards_nothing():
    engine = ss.SessionEngine(recording_study(), day=1)
    E = ss.EventKind
    engine.handle(ss.Event(E.START_SESSION))
    engine.handle(ss.Event(E.STEP_DONE))
    engine.handle(ss.Event(E.APP_BACKGROUNDED))
    assert engine.phase == ss.SessionPhase.ABORTED
    assert engine.discarded_blocks == 0


def test_abort_defined_in_all_hardware_phases():
    hardware = (ss.SessionPhase.PREPARATION, ss.SessionPhase.NOISE_CHECK,
                ss.SessionPhase.FITTING, ss.SessionPhase.RECORDING_TRIAL,
                ss.SessionPhase.BLOCK_REVIEW, ss.SessionPhase.CHECKUP_FITTING)
    for phase in hardware:
        for kind in ss.SessionEngine.ABORT_EVENTS:
            assert (phase, kind) in ss._TRANSITIONS
    for phase in (ss.SessionPhase.HOME, ss.SessionPhase.SCENARIO_INFO,
                  ss.SessionPhase.UPLOADING, ss.SessionPhase.LOCKED_OUT,
                  ss.SessionPhase.ABORTED):
        for kind in ss.SessionEngine.ABORT_EVENTS:
            assert (phase, kind) not in ss._TRANSITIONS


def test_undefined_transition_keeps_state():
    engine = ss.SessionEngine(recording_study(), day=1)
    with pytest.raises(ss.InvalidTransitionError):
        engine.handle(ss.Event(ss.EventKind.TRIAL_ELAPSED))
    assert engine.phase == ss.SessionPhase.HOME


def test_exhaustive_event_enumeration():
    # every (phase, event) pair either moves along a defined edge or raises
    # a session error that leaves the phase unchanged
    E = ss.EventKind
    for phase in ss.SessionPhase:
        for kind in ss.EventKind:
            engine = ss.SessionEngine(recording_study(), day=1)
            engine.phase = phase
            level = 0.9 if kind == E.BATTERY_READ else None
            defined = (phase, kind) in ss._TRANSITIONS
            try:
                engine.handle(ss.Event(kind, level=level), now=0.0)
            except ss.InvalidTransitionError:
                assert engine.phase == phase
                assert not defined
            except ss.BlockedError:
                assert engine.phase == phase
                assert defined
            else:
                assert defined


def test_timer_expired_before_expiry_is_blocked():
    engine = ss.SessionEngine(recording_study(), day=1)
    walk_to(engine, ss.SessionPhase.RECORDING_TRIAL, now=1000.0)
    assert engine.timer.started_at == 1000.0
    engine.phase = ss.SessionPhase.HOME
    with pytest.raises(ss.BlockedError):
        engine.handle(ss.Event(ss.EventKind.TIMER_EXPIRED), now=1000.0 + HOURS_12 - 1)
    assert engine.phase == ss.SessionPhase.HOME
    assert engine.day == 1


def test_lockout_after_completed_day_then_next_day():
    engine = ss.SessionEngine(recording_study(), day=2)  # one 2-trial block
    E = ss.EventKind
    walk_to(engine, ss.SessionPhase.RECORDING_TRIAL, now=50.0)
    for _ in range(2):
        engine.handle(ss.Event(E.TRIAL_ELAPSED), now=60.0)
    engine.handle(ss.Event(E.END_SESSION), now=70.0)
    engine.handle(ss.Event(E.UPLOAD_DONE), now=80.0)
    assert engine.day_complete()
    assert engine.phase == ss.SessionPhase.LOCKED_OUT
    with pytest.raises(ss.BlockedError):
        engine.handle(ss.Event(E.TIMER_EXPIRED), now=90.0)
    assert engine.phase == ss.SessionPhase.LOCKED_OUT
    engine.handle(ss.Event(E.TIMER_EXPIRED), now=50.0 + HOURS_12)
    assert engine.phase == ss.SessionPhase.HOME
    assert engine.study_complete
    assert "study complete" in engine.notifications


def test_day_advances_after_lockout():
    engine = ss.SessionEngine(recording_study(), day=1, seed=3)
    E = ss.EventKind
    walk_to(engine, ss.SessionPhase.RECORDING_TRIAL, now=0.0)
    for _ in range(2):
        engine.handle(ss.Event(E.TRIAL_ELAPSED))
    engine.handle(ss.Event(E.CONTINUE_BLOCK))
    engine.handle(ss.Event(E.QUALITY_MET))
    for _ in range(2):
        engine.handle(ss.Event(E.TRIAL_ELAPSED))
    engine.handle(ss.Event(E.END_SESSION))
    engine.handle(ss.Event(E.UPLOAD_DONE), now=100.0)
    assert engine.phase == ss.SessionPhase.LOCKED_OUT
    engine.handle(ss.Event(E.TIMER_EXPIRED), now=HOURS_12)
    assert engine.day == 2
    assert not engine.study_complete
    assert engine.timer.started_at is None  # fresh timer for the new day
    assert [sc.completed for sc in engine.schedule] == [False]


def test_partial_day_returns_home_not_locked():
    engine = ss.SessionEngine(recording_study(), day=1)
    E = ss.EventKind
    walk_to(engine, ss.SessionPhase.RECORDING_TRIAL)
    for _ in range(2):
        engine.handle(ss.Event(E.TRIAL_ELAPSED))
    engine.handle(ss.Event(E.END_SESSION))
    engine.handle(ss.Event(E.UPLOAD_DONE))
    assert engine.phase == ss.SessionPhase.HOME
    assert not engine.day_complete()
    # second scenario start resumes at the pending block
    assert engine.next_pending_scenario().completed_blocks == 1


def test_scenario_info_cancel_returns_home():
    engine = ss.SessionEngine(recording_study(), day=1)
    E = ss.EventKind
    engine.handle(ss.Event(E.START_SESSION))
    engine.handle(ss.Event(E.END_SESSION))
    assert engine.phase == ss.SessionPhase.HOME
    assert engine.next_pending_scenario().completed_blocks == 0


def test_questionnaire_scenario_completes_on_info_done():
    engine = ss.SessionEngine(ss.default_study(), day=1)
    E = ss.EventKind
    engine.handle(ss.Event(E.START_SESSION))
    assert engine.current_scenario().kind == ss.SCENARIO_QUESTIONNAIRE
    engine.handle(ss.Event(E.STEP_DONE))
    assert engine.phase == ss.SessionPhase.HOME
    assert engine.schedule[0].completed


def test_quality_met_starts_day_timer_once():
    engine = ss.SessionEngine(recording_study(), day=1)
    walk_to(engine, ss.SessionPhase.RECORDING_TRIAL, now=500.0)
    assert engine.timer.started_at == 500.0
    E = ss.EventKind
    for _ in range(2):
        engine.handle(ss.Event(E.TRIAL_ELAPSED), now=600.0)
    engine.handle(ss.Event(E.CONTINUE_BLOCK), now=700.0)
    engine.handle(ss.Event(E.QUALITY_MET), now=700.0)
    assert engine.timer.started_at == 500.0


def _study_doc() -> dict:
    return {"version": 1, "study_id": "s", "days": 2,
            "strategies": [{"id": "resting", "tasks": ["eyes_open", "eyes_closed"],
                            "trial_duration_s": 60.0, "trials_per_task_per_block": 1,
                            "daily_trials": {"1": 6, "2": 6}}],
            "questionnaires": [{"id": "daily", "days": [1, 2],
                                "items": [{"id": "motivation", "kind": "rating", "scale": 5,
                                           "text": {"en": "?"}}]}]}


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def _with_strategy_field(key: str, value) -> dict:
    doc = _study_doc()
    doc["strategies"][0][key] = value
    return doc


def _with_item(item) -> dict:
    doc = _study_doc()
    doc["questionnaires"][0]["items"] = [item]
    return doc


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}",
    json.dumps(_without(_study_doc(), "study_id")).encode(),
    json.dumps(_without(_study_doc(), "days")).encode(),
    json.dumps(dict(_study_doc(), days="seven")).encode(),
    json.dumps(dict(_study_doc(), days=float("inf"))).encode(),
    json.dumps(_with_strategy_field("daily_trials", [6, 6])).encode(),
    json.dumps(_with_strategy_field("trials_per_task_per_block", float("inf"))).encode(),
    json.dumps(_with_item("motivation")).encode(),
    json.dumps(_with_item(["motivation"])).encode(),
    json.dumps(_with_item({"id": "m", "kind": "rating", "scale": "five",
                           "text": {"en": "?"}})).encode(),
], ids=["not-utf8", "no-study-id", "no-days", "days-not-int", "days-infinite",
        "daily-trials-not-object", "block-size-infinite", "item-string", "item-list",
        "scale-not-int"])
def test_load_study_malformations_raise_format_errors(tmp_path, content):
    path = tmp_path / "study.json"
    path.write_bytes(content)
    with pytest.raises((ss.StudyFormatError, ss.QuestionnaireFormatError)):
        ss.load_study(path)


def _with_daily_trials(daily: dict) -> dict:
    return _with_strategy_field("daily_trials", daily)


@pytest.mark.parametrize("doc", [
    dict(_study_doc(), days=-1),
    dict(_study_doc(), days=0),
    dict(_study_doc(), days=True),
    dict(_study_doc(), days=1.5),
    _with_strategy_field("trial_duration_s", -60.0),
    _with_strategy_field("trial_duration_s", 0.0),
    _with_strategy_field("trial_duration_s", float("inf")),
    _with_strategy_field("trial_duration_s", float("nan")),
    _with_strategy_field("trials_per_task_per_block", 0),
    _with_strategy_field("trials_per_task_per_block", -1),
    _with_strategy_field("trials_per_task_per_block", True),
    _with_daily_trials({"1": -6, "2": 6}),
    _with_daily_trials({"1": 6, "2": 2.5}),
    _with_daily_trials({"0": 6, "2": 6}),
    _with_daily_trials({"-1": 6}),
    _with_daily_trials({"1": 6, "3": 6}),
    _with_daily_trials({"1": "6"}),
    _with_strategy_field("trial_duration_s", "60"),
    _with_strategy_field("tasks", "ab"),  # once read as the two tasks "a" and "b"
    _with_strategy_field("id", 5),
    _with_strategy_field("id", ""),
], ids=["days-negative", "days-zero", "days-bool", "days-fraction", "duration-negative",
        "duration-zero", "duration-infinite", "duration-nan", "block-size-zero",
        "block-size-negative", "block-size-bool", "daily-count-negative",
        "daily-count-fraction", "day-zero", "day-negative", "day-after-study",
        "daily-count-string", "duration-string", "tasks-string", "id-number", "id-empty"])
def test_load_study_out_of_range_values_raise_format_error(tmp_path, doc):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ss.StudyFormatError):
        ss.load_study(path)


@pytest.mark.parametrize("duration", [1.998, 1.0, 0.001])
def test_load_study_rejects_a_trial_shorter_than_one_welch_segment(tmp_path, duration):
    # decode featurizes a trial with one Welch segment, 512 frames; 1.998 s is 511
    path = tmp_path / "study.json"
    path.write_text(json.dumps(_with_strategy_field("trial_duration_s", duration)))
    with pytest.raises(ss.StudyFormatError,
                       match=rf"^strategy 'resting' trial_duration_s {duration!r} gives "):
        ss.load_study(path)


@pytest.mark.parametrize("duration", [1.999, 2.0])
def test_load_study_accepts_a_trial_of_one_welch_segment(tmp_path, duration):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(_with_strategy_field("trial_duration_s", duration)))
    assert ss.load_study(path).strategies[0].trial_duration_s == duration


@pytest.mark.parametrize("duration", [1e9, 86400.5, 1e308])
def test_load_study_rejects_a_trial_longer_than_a_day(tmp_path, duration):
    # checked before the trial's frames are counted: 1e9 s would be 22.4 TiB to generate
    path = tmp_path / "study.json"
    path.write_text(json.dumps(_with_strategy_field("trial_duration_s", duration)))
    with pytest.raises(ss.StudyFormatError, match="^" + re.escape(
            f"strategy 'resting': field 'trial_duration_s' must be a positive number <= 86400, "
            f"got {duration!r}") + "$"):
        ss.load_study(path)


def _with_two_strategies(daily_trials: dict) -> dict:
    doc = _study_doc()
    doc["strategies"].append(dict(doc["strategies"][0], id="memories",
                                  daily_trials=daily_trials))
    return doc


def test_load_study_rejects_a_day_longer_than_a_day(tmp_path):
    # day 2: 6 resting minutes and 1436 more, all strategies counted together
    path = tmp_path / "study.json"
    path.write_text(json.dumps(_with_two_strategies({"2": 1436})))
    with pytest.raises(ss.StudyFormatError,
                       match=r"^day 2's daily_trials last 86520 s of trial_duration_s; "
                             r"a day holds at most 86400 s$"):
        ss.load_study(path)


def test_load_study_accepts_a_day_of_24_hours(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(_with_two_strategies({"2": 1434})))
    assert ss.load_study(path).strategies[1].daily_trials == {2: 1434}
    path.write_text(json.dumps(_with_strategy_field("trial_duration_s", 86400.0)))
    with pytest.raises(ss.StudyFormatError, match=r"^day 1's"):  # 6 trials of a day each
        ss.load_study(path)
    doc = _with_strategy_field("trial_duration_s", 43200.0)
    doc["strategies"][0]["daily_trials"] = {"1": 2}  # one block of two half-day trials
    path.write_text(json.dumps(doc))
    assert ss.load_study(path).strategies[0].trial_duration_s == 43200.0


@pytest.mark.parametrize("daily", [{"1": 1}, {"1": 6, "2": 3}], ids=["one", "odd-day-2"])
def test_load_study_rejects_a_day_that_cannot_split_into_blocks(tmp_path, daily):
    # blocks of one trial per task: two trials; checked however the study is built
    path = tmp_path / "study.json"
    path.write_text(json.dumps(_with_daily_trials(daily)))
    day, count = max((int(d), n) for d, n in daily.items() if n % 2)
    message = (rf"^strategy 'resting' daily_trials: {count} trials on day {day} "
               rf"do not split into blocks of 2$")
    with pytest.raises(ss.StudyFormatError, match=message):
        ss.load_study(path)
    with pytest.raises(ss.StudyFormatError, match=message):
        ss.StrategySpec(strategy_id="resting", tasks=("eyes_open", "eyes_closed"),
                        trial_duration_s=60.0, trials_per_task_per_block=1,
                        daily_trials={int(d): n for d, n in daily.items()})


@pytest.mark.parametrize("item, named", [
    ({"id": "m", "kind": "rating", "scale": 4.5, "text": {"en": "?"}},
     "rating item 'm': field 'scale' must be a whole number >= 2, got 4.5"),
    ({"id": "m", "kind": "rating", "scale": True, "text": {"en": "?"}},
     "rating item 'm': field 'scale' must be a whole number >= 2, got True"),
    ({"id": "m", "kind": "rating", "text": {"en": "?"}},
     "rating item 'm': field 'scale' must be a whole number >= 2, got None"),
    ({"id": "c", "kind": "multiple_choice", "options": "abc", "text": {"en": "?"}},
     "multiple_choice item 'c': field 'options' must be a non-empty list of strings, "
     "got 'abc'"),
    ({"id": "c", "kind": "multiple_choice", "options": [], "text": {"en": "?"}},
     "multiple_choice item 'c': field 'options' must be a non-empty list of strings, "
     "got []"),
    ({"id": "c", "kind": "multiple_choice", "options": ["a", 1], "text": {"en": "?"}},
     "multiple_choice item 'c': field 'options' must be a non-empty list of strings, "
     "got ['a', 1]"),
], ids=["scale-fraction", "scale-bool", "scale-missing", "options-string", "options-empty",
        "options-not-strings"])
def test_load_study_checks_questionnaire_items(tmp_path, item, named):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(_with_item(item)))
    with pytest.raises(ss.QuestionnaireFormatError, match=f"^{re.escape(named)}$"):
        ss.load_study(path)


def test_load_study_keeps_whole_scales_and_choice_options(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(_with_item({"id": "m", "kind": "rating", "scale": 4.0,
                                           "text": {"en": "?"}})))
    assert ss.load_study(path).questionnaires[0].items[0].scale == 4
    path.write_text(json.dumps(_with_item({"id": "c", "kind": "multiple_choice",
                                           "options": ["abc", "d"], "text": {"en": "?"}})))
    assert ss.load_study(path).questionnaires[0].items[0].options == ("abc", "d")


def _with_questionnaire_days(days) -> dict:
    doc = _study_doc()
    doc["questionnaires"][0]["days"] = days
    return doc


@pytest.mark.parametrize("doc", [
    _with_questionnaire_days([-1, 99, "x"]),
    _with_questionnaire_days([0]),
    _with_questionnaire_days([3]),
    _with_questionnaire_days(["x"]),
    _with_questionnaire_days([True]),
    dict(_study_doc(), version=True),
    dict(_study_doc(), version=1.0),
    dict(_study_doc(), version="1"),
], ids=["days-out-of-range", "day-zero", "day-after-study", "day-string", "day-bool",
        "version-bool", "version-float", "version-string"])
def test_load_study_checks_questionnaire_days_and_version(tmp_path, doc):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ss.StudyFormatError):
        ss.load_study(path)


def test_load_study_accepts_whole_numbers_and_zero_days(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(dict(_with_daily_trials({"1": 0.0, "2": 6}), days=2.0)))
    study = ss.load_study(path)
    assert study.days == 2 and type(study.days) is int
    assert study.strategies[0].daily_trials == {1: 0, 2: 6}
    ss.save_study(ss.default_study(), path)
    assert ss.load_study(path) == ss.default_study()


def _json_paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _json_paths(child, prefix + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def test_every_single_value_substitution_loads_or_raises_format_error(tmp_path):
    """Each value of a saved study, replaced by one of several values of the
    wrong type or range, gives a definition or a format error."""
    path = tmp_path / "study.json"
    ss.save_study(ss.default_study(), path)
    base = json.loads(path.read_text())
    substitutes = [None, True, -1, 1.5, float("inf"), float("nan"), "x", [], [1], {}, {"a": 1}]
    for doc_path in list(_json_paths(base)):
        for value in substitutes:
            path.write_text(json.dumps(_replaced(base, doc_path, value)))
            try:
                ss.load_study(path)
            except (ss.StudyFormatError, ss.QuestionnaireFormatError):
                pass
