"""Seeded random walks over the session engine, and the resume defects they guard.

Each walk sends events drawn from every `(phase, event)` pair, mostly ones
defined for the current phase, and checks after every step that the engine's
progress is the scenario records' progress.
"""

from __future__ import annotations

import random

import pytest

from mindkit import session as ss

E = ss.EventKind
HOURS_12 = 12 * 3600.0
WALKS = 300
STEPS = 300
PREPARE = (E.START_SESSION, E.STEP_DONE, E.DEVICE_FOUND, E.BATTERY_READ, E.STEP_DONE,
           E.NOISE_CHECK_DONE, E.QUALITY_MET)


def two_block_study() -> ss.StudyDefinition:
    """One day: a questionnaire, then two recording scenarios of two two-trial blocks."""
    specs = tuple(ss.StrategySpec(strategy_id=name, tasks=("a", "b"), trial_duration_s=1.0,
                                  trials_per_task_per_block=1, daily_trials={1: 4})
                  for name in ("first", "second"))
    daily = ss.QuestionnaireSpec(questionnaire_id="daily", days=(1,),
                                 items=(ss.MOTIVATION_ITEM,))
    return ss.StudyDefinition(study_id="walks", days=1, strategies=specs,
                              questionnaires=(daily,))


def send(engine: ss.SessionEngine, *kinds: ss.EventKind, now: float = 0.0) -> None:
    for kind in kinds:
        engine.handle(ss.Event(kind, level=0.9 if kind == E.BATTERY_READ else None), now)


def record_every_block(engine: ss.SessionEngine) -> None:
    """From Home: start the next scenario and record all of its blocks, ending in BlockReview."""
    send(engine, *PREPARE)
    while True:
        send(engine, *[E.TRIAL_ELAPSED] * len(engine.current_block().trials))
        if engine.current_block() is None:
            return
        send(engine, E.CONTINUE_BLOCK, E.QUALITY_MET)


def check_progress(engine: ss.SessionEngine, recorded_on_earlier_days: int) -> None:
    scenario, block = engine.current_scenario(), engine.current_block()
    if block is not None:
        assert block == scenario.blocks[scenario.completed_blocks]
    else:
        assert scenario is None or scenario.completed_blocks == len(scenario.blocks)
    if engine.phase == ss.SessionPhase.RECORDING_TRIAL:
        assert block is not None
    for sc in engine.schedule:
        if sc.kind == ss.SCENARIO_RECORDING:
            assert sc.completed == (sc.completed_blocks == len(sc.blocks))
    assert len(engine.recorded_blocks) == recorded_on_earlier_days + sum(
        sc.completed_blocks for sc in engine.schedule)
    ids = [rb.block.block_id for rb in engine.recorded_blocks]
    assert len(set(ids)) == len(ids)


def walk(study: ss.StudyDefinition, seed: int, tried: set, dead_ends: list) -> None:
    rng = random.Random(seed)
    engine = ss.SessionEngine(study, day=1, seed=seed)
    onward: dict[ss.SessionPhase, list[ss.EventKind]] = {}
    for phase, kind in ss._TRANSITIONS:
        if kind not in engine.ABORT_EVENTS:
            onward.setdefault(phase, []).append(kind)
    kinds = list(E)
    now, earlier = 0.0, 0
    for _ in range(STEPS):
        phase, schedule = engine.phase, engine.schedule
        draw = rng.random()
        if draw < 0.7 and phase in onward:
            kind = rng.choice(onward[phase])
        elif draw < 0.75:
            kind = rng.choice(engine.ABORT_EVENTS)
        else:
            kind = rng.choice(kinds)
        level = rng.choice((None, 0.05, 0.1, 0.5, 0.9, 1.5)) if kind == E.BATTERY_READ else None
        now += HOURS_12 + 1 if rng.random() < 0.005 else rng.choice((1.0, 30.0, 120.0))
        if phase == ss.SessionPhase.BLOCK_REVIEW and kind in engine.ABORT_EVENTS \
                and engine.current_block() is None:
            dead_ends.append(seed)  # the scenario's last block is recorded, then the app leaves
        tried.add((phase, kind))
        try:
            engine.handle(ss.Event(kind, level=level), now)
        except ss.SessionError:
            assert engine.phase == phase
        if engine.schedule is not schedule:
            earlier += sum(sc.completed_blocks for sc in schedule)
        check_progress(engine, earlier)


@pytest.mark.parametrize("study", [two_block_study, ss.default_study])
def test_random_walks_keep_progress_in_the_scenario_records(study):
    tried: set = set()
    dead_ends: list[int] = []
    for seed in range(WALKS):
        walk(study(), seed, tried, dead_ends)
    assert tried == {(phase, kind) for phase in ss.SessionPhase for kind in E}
    assert len(set(dead_ends)) > WALKS // 10


def test_current_block_at_home_is_the_next_scenarios_first_block():
    engine = ss.SessionEngine(ss.default_study(), day=2)
    send(engine, E.START_SESSION, E.STEP_DONE)  # the daily questionnaire
    record_every_block(engine)
    assert engine.current_scenario().scenario_id == "resting-d2"
    send(engine, E.END_SESSION, E.UPLOAD_DONE)
    assert engine.phase == ss.SessionPhase.HOME
    pending = engine.next_pending_scenario()
    assert pending.scenario_id == "positive_memories-d2" and pending.completed_blocks == 0
    assert engine.current_block().block_id == "positive_memories-d2-b1"


def test_backgrounding_after_the_last_block_moves_on_to_the_next_scenario():
    engine = ss.SessionEngine(ss.default_study(), day=2)
    send(engine, E.START_SESSION, E.STEP_DONE)
    record_every_block(engine)
    send(engine, E.APP_BACKGROUNDED, E.STEP_DONE)
    assert engine.phase == ss.SessionPhase.HOME
    assert [rb.block.block_id for rb in engine.recorded_blocks] == [
        f"resting-d2-b{b}" for b in (1, 2, 3)]
    assert engine.discarded_blocks == 0
    assert engine.next_pending_scenario().scenario_id == "positive_memories-d2"
    send(engine, *PREPARE, E.TRIAL_ELAPSED)
    assert engine.phase == ss.SessionPhase.RECORDING_TRIAL
    assert engine.current_block().block_id == "positive_memories-d2-b1"


def test_backgrounding_after_the_days_last_block_locks_the_day():
    engine = ss.SessionEngine(two_block_study(), day=1)
    send(engine, E.START_SESSION, E.STEP_DONE)
    record_every_block(engine)
    send(engine, E.END_SESSION, E.UPLOAD_DONE)
    record_every_block(engine)
    send(engine, E.DEVICE_DISCONNECTED, E.STEP_DONE, now=60.0)
    assert engine.day_complete()
    assert engine.phase == ss.SessionPhase.LOCKED_OUT
    assert len(engine.recorded_blocks) == 4
