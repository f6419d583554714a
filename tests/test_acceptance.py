"""Acceptance gate: eleven numbered criteria, each with its stated tolerance
and runtime budget. One test per criterion; `pytest -v` prints one pass/fail
line for each."""

import csv
import json
import time
from pathlib import Path

import numpy as np
import pytest

from mindkit import datastore as ds
from mindkit import decoder as dec
from mindkit import features as feat
from mindkit import session as ss
from mindkit import simkit as sim
from mindkit import streamkit as sk
from mindkit.cli import main as cli_main


def finish(t0: float, limit_s: float, label: str, detail: str = "") -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < limit_s, f"{label} took {elapsed:.2f}s (budget {limit_s:.0f}s)"
    suffix = f" — {detail}" if detail else ""
    print(f"{label}: PASS in {elapsed:.2f}s of {limit_s:.0f}s{suffix}")


# -- 1 -------------------------------------------------------------------------

def test_criterion_01_fitting_unit_contract():
    t0 = time.perf_counter()

    # documented filter triples: x_f = q*raw + (1-q)*prev
    for q, prev, raw, expected in ((1.0, 3.0, 10.0, 10.0),
                                   (0.0, 3.0, 10.0, 3.0),
                                   (0.5, 4.0, 10.0, 7.0)):
        tracker = sk.ChannelQualityTracker()
        tracker.prev_filtered = prev
        tracker.avg_quality = q
        tracker.ingest_sample(raw)
        assert tracker.prev_filtered == expected

    # quality boundary at the 150 uV^2 criterion
    assert sk.quality_from_variance(150.0) == 1.0
    assert sk.quality_from_variance(149.0) == 1.0
    assert sk.quality_from_variance(600.0) == 0.25

    # target relaxes from 100% to 75% at exactly three minutes
    perfect = sk.QualityReport(per_channel=(1.0, 1.0, 1.0, 1.0), timestamp=0)
    assert sk.fitting_gate(179.999, perfect).target == 1.0
    assert sk.fitting_gate(180.0, perfect).target == 0.75
    one_low = sk.QualityReport(per_channel=(1.0, 0.9, 1.0, 1.0), timestamp=0)
    late = sk.QualityReport(per_channel=(0.8, 0.76, 0.9, 1.0), timestamp=0)
    assert sk.fitting_gate(60.0, perfect).met
    assert not sk.fitting_gate(60.0, one_low).met
    assert sk.fitting_gate(200.0, late).met

    finish(t0, 1.0, "criterion 01 fitting unit contract")


# -- 2 -------------------------------------------------------------------------

def test_criterion_02_estimator_monotonic_in_noise():
    t0 = time.perf_counter()
    measured = []
    for sigma in (5.0, 15.0, 50.0, 150.0):
        rng = np.random.default_rng(42)
        tracker = sk.ChannelQualityTracker()
        tracker.ingest_block(rng.normal(0.0, sigma, 60 * 256))
        measured.append(tracker.avg_quality)
    assert all(a > b for a, b in zip(measured, measured[1:])), measured

    clean = sk.ChannelQualityTracker()
    times = np.arange(60 * 256) / 256.0
    clean.ingest_block(10.0 * np.sin(2 * np.pi * 10.0 * times))
    assert clean.avg_quality >= 0.99

    finish(t0, 10.0, "criterion 02 estimator monotonicity",
           "steady-state " + ", ".join(f"{q:.3f}" for q in measured))


# -- 3 -------------------------------------------------------------------------

def test_criterion_03_em_detector_anchor_and_sweep():
    t0 = time.perf_counter()
    times = np.arange(256) / 256.0

    # amplitude sqrt(0.6) puts the 50 Hz log-band-power exactly at -1
    window = np.tile(np.sqrt(0.6) * np.sin(2 * np.pi * 50.0 * times), (4, 1))
    report = sk.em_noise_quality(window)
    for env in report.per_channel:
        assert env == pytest.approx(1.0, abs=0.01)

    envs = []
    for amp in (1.0, 5.0, 20.0, 60.0):
        window = np.tile(amp * np.sin(2 * np.pi * 50.0 * times), (4, 1))
        envs.append(sk.em_noise_quality(window).per_channel[0])
    assert all(a > b for a, b in zip(envs, envs[1:])), envs

    finish(t0, 5.0, "criterion 03 EM detector",
           "sweep " + ", ".join(f"{e:.3f}" for e in envs))


# -- 4 -------------------------------------------------------------------------

def test_criterion_04_schedule_law_over_100_seeds():
    t0 = time.perf_counter()
    study = ss.default_study()
    for seed in range(100):
        totals: dict[str, int] = {}
        pm_by_day: dict[int, int] = {}
        for day in range(1, 8):
            recordings = [sc for sc in ss.plan_schedule(study, day, seed=seed)
                          if sc.kind == ss.SCENARIO_RECORDING]
            if day == 3:
                assert ({sc.strategy for sc in recordings}
                        == {ss.STRATEGY_RESTING, ss.STRATEGY_IMAGERY})
            for sc in recordings:
                n = sum(len(b.trials) for b in sc.blocks)
                totals[sc.strategy] = totals.get(sc.strategy, 0) + n
                if sc.strategy == ss.STRATEGY_MEMORIES:
                    pm_by_day[day] = pm_by_day.get(day, 0) + n
        assert totals[ss.STRATEGY_RESTING] == 42
        assert totals[ss.STRATEGY_MEMORIES] == 126
        assert totals[ss.STRATEGY_IMAGERY] == 54
        assert pm_by_day[2] == 36 and pm_by_day[6] == 36

    finish(t0, 5.0, "criterion 04 schedule law", "42/126/54 over 100 seeds")


# -- 5 -------------------------------------------------------------------------

def small_study() -> ss.StudyDefinition:
    spec = ss.StrategySpec(strategy_id="demo", tasks=("a", "b"),
                           trial_duration_s=1.0, trials_per_task_per_block=1,
                           daily_trials={1: 2, 2: 2})
    return ss.StudyDefinition(study_id="t", days=2, strategies=(spec,),
                              questionnaires=())


def walk_to_recording(engine: ss.SessionEngine, now: float = 0.0) -> None:
    E = ss.EventKind
    for event in (ss.Event(E.START_SESSION), ss.Event(E.STEP_DONE),
                  ss.Event(E.DEVICE_FOUND), ss.Event(E.BATTERY_READ, level=0.8),
                  ss.Event(E.STEP_DONE), ss.Event(E.NOISE_CHECK_DONE),
                  ss.Event(E.QUALITY_MET)):
        engine.handle(event, now)
    assert engine.phase == ss.SessionPhase.RECORDING_TRIAL


def test_criterion_05_state_machine_model_suite():
    t0 = time.perf_counter()
    E = ss.EventKind

    # battery at or below 10% refuses to continue toward recording
    for level in (0.05, 0.10):
        engine = ss.SessionEngine(small_study(), day=1)
        engine.handle(ss.Event(E.START_SESSION))
        engine.handle(ss.Event(E.STEP_DONE))
        engine.handle(ss.Event(E.DEVICE_FOUND))
        with pytest.raises(ss.BlockedError):
            engine.handle(ss.Event(E.BATTERY_READ, level=level))
        assert engine.phase == ss.SessionPhase.PREPARATION

    # backgrounding or disconnect mid-block discards it without persisting
    for abort in (E.APP_BACKGROUNDED, E.DEVICE_DISCONNECTED):
        engine = ss.SessionEngine(small_study(), day=1)
        walk_to_recording(engine)
        engine.handle(ss.Event(E.TRIAL_ELAPSED))
        engine.handle(ss.Event(abort))
        assert engine.phase == ss.SessionPhase.ABORTED
        assert engine.recorded_blocks == []
        assert engine.discarded_blocks == 1

    # completed day locks out for 12 h, then the next day loads fresh
    engine = ss.SessionEngine(small_study(), day=1)
    walk_to_recording(engine, now=50.0)
    for _ in range(2):
        engine.handle(ss.Event(E.TRIAL_ELAPSED), now=60.0)
    engine.handle(ss.Event(E.END_SESSION), now=70.0)
    engine.handle(ss.Event(E.UPLOAD_DONE), now=80.0)
    assert engine.phase == ss.SessionPhase.LOCKED_OUT
    with pytest.raises(ss.BlockedError):
        engine.handle(ss.Event(E.TIMER_EXPIRED), now=80.0)
    engine.handle(ss.Event(E.TIMER_EXPIRED), now=50.0 + 12 * 3600.0)
    assert engine.phase == ss.SessionPhase.HOME
    assert engine.day == 2
    assert not engine.study_complete

    # exhaustive: every (state, input) pair is either a defined edge or a
    # clean rejection that leaves the state unchanged
    pairs = 0
    for phase in ss.SessionPhase:
        for kind in ss.EventKind:
            engine = ss.SessionEngine(small_study(), day=1)
            engine.phase = phase
            level = 0.9 if kind == E.BATTERY_READ else None
            defined = (phase, kind) in ss._TRANSITIONS
            try:
                engine.handle(ss.Event(kind, level=level), now=0.0)
            except ss.InvalidTransitionError:
                assert engine.phase == phase and not defined
            except ss.BlockedError:
                assert engine.phase == phase and defined
            else:
                assert defined
            pairs += 1

    finish(t0, 5.0, "criterion 05 state machine suite",
           f"{pairs} (state,input) pairs enumerated")


# -- 6 -------------------------------------------------------------------------

def test_criterion_06_data_round_trips_and_tamper():
    t0 = time.perf_counter()

    for seed in range(500):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 48))
        channels = int(rng.integers(1, 9))
        labels = tuple(f"ch{c}" for c in range(channels))
        markers = []
        if n:
            idx = sorted(int(v) for v in rng.integers(0, n + 1, size=3))
            markers = [ds.Marker(idx[0], 1, "a"), ds.Marker(idx[1], 2, "b"),
                       ds.Marker(idx[2], 3, "c")]
        dataset = ds.RecordingDataset(
            subject_id=f"s{seed}", scenario_id=f"sc{seed}", day=int(rng.integers(1, 8)),
            sample_rate=256, channel_labels=labels,
            samples=rng.normal(0, 30, (n, channels)).astype(np.float32),
            markers=markers, metadata={"seed": seed, "note": "check µV"})
        blob = ds.write_dataset(dataset)
        loaded = ds.read_dataset(blob)
        assert np.array_equal(loaded.samples, dataset.samples)
        assert loaded.markers == dataset.markers
        assert ds.write_dataset(loaded) == blob  # byte-exact rewrite

    private, public = ds.generate_keypair()
    payload = ds.write_dataset(ds.RecordingDataset(
        subject_id="s", scenario_id="sc", day=1, sample_rate=256,
        channel_labels=("AF7", "AF8", "TP9", "TP10"),
        samples=np.zeros((16, 4), dtype=np.float32)))
    envelope = ds.encrypt_envelope(payload, public)
    assert ds.decrypt_envelope(envelope, private) == payload

    # flipping any single byte must fail authentication, never yield plaintext
    blob = bytearray(envelope)
    for pos in range(len(blob)):
        blob[pos] ^= 0x01
        with pytest.raises(ds.DatastoreError):
            ds.decrypt_envelope(bytes(blob), private)
        blob[pos] ^= 0x01

    finish(t0, 30.0, "criterion 06 data round trips",
           f"500 containers, {len(envelope)} tamper positions")


# -- 7 -------------------------------------------------------------------------

def test_criterion_07_spectral_oracle():
    t0 = time.perf_counter()
    times = np.arange(30 * 256) / 256.0
    x = 20.0 * np.sin(2 * np.pi * 10.0 * times)
    est = feat.psd_welch(x, 256)

    assert feat.band_power(est, feat.ALPHA_BAND) == pytest.approx(200.0, rel=0.05)
    assert abs(feat.dominant_frequency(est) - 10.0) <= 0.5

    base_lbp = feat.log_band_power(est, feat.ALPHA_BAND)
    base_dom = feat.dominant_frequency(est)
    for c in (3.0, 0.25):
        scaled = feat.psd_welch(c * x, 256)
        shift = feat.log_band_power(scaled, feat.ALPHA_BAND) - base_lbp
        assert shift == pytest.approx(2.0 * np.log10(c), abs=1e-9)
        assert feat.dominant_frequency(scaled) == base_dom

    finish(t0, 5.0, "criterion 07 spectral oracle")


# -- 8 -------------------------------------------------------------------------

def test_criterion_08_decoder_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    X = rng.normal(0, 1, (40, 17))
    y = np.sign(rng.normal(size=40))
    identity_prior = dec.GaussianPrior.uninformative()

    # MAP fit against an independently computed ridge solution
    for lam in (1e-2, 1.0, 50.0):
        w = dec.fit_map(X, y, identity_prior, lam)
        ridge = np.linalg.solve(X.T @ X + lam * np.eye(17), X.T @ y)
        assert np.linalg.norm(w - ridge) / np.linalg.norm(ridge) <= 1e-8

    # infinite regularization collapses onto the prior mean
    mu = rng.normal(0, 1, 17)
    prior = dec.GaussianPrior(mean=mu, cov=np.eye(17))
    w = dec.fit_map(X, y, prior, 1e8)
    assert np.max(np.abs(w - mu)) <= 1e-4

    # separable 18-trial task decodes perfectly
    rng = np.random.default_rng(7)
    y18 = np.array([1.0, -1.0] * 9)
    X18 = rng.normal(0.0, 0.3, (18, 16))
    X18[:, 0] += 3.0 * y18
    sep = dec.TaskDataset(dec.augment_bias(X18), y18, subject="sep")
    assert dec.loo_accuracy(sep, identity_prior) == 1.0

    # zero-signal tasks sit at chance, aggregated over 1000 trials
    rng = np.random.default_rng(99)
    correct = 0.0
    for s in range(20):
        Xs = rng.normal(0.0, 1.0, (50, 16))
        ys = np.repeat([1.0, -1.0], 25)
        rng.shuffle(ys)
        task = dec.TaskDataset(dec.augment_bias(Xs), ys, subject=f"c{s}")
        correct += dec.loo_accuracy(task, identity_prior) * 50
    chance = correct / 1000
    assert chance == pytest.approx(0.5, abs=0.05)

    finish(t0, 60.0, "criterion 08 decoder oracles",
           f"chance aggregate {chance:.4f}")


# -- 9 -------------------------------------------------------------------------

def test_criterion_09_transfer_learning_benefit():
    t0 = time.perf_counter()
    corpus = sim.gen_lab_corpus(11, 40, seed=101)
    learned, _ = dec.learn_prior(corpus)
    baseline = dec.GaussianPrior.uninformative()
    dist = sim.ProfileDistribution()

    margins = []
    for s in range(20):
        rng = np.random.default_rng([s, 7])
        with_prior, without = [], []
        for i in range(10):
            profile = dist.draw(rng, seed=int(rng.integers(2 ** 31)))
            task = sim.gen_task_dataset(profile, dist.tasks, 6,
                                        f"h{s:02d}{i}", seed=s * 100 + i)
            with_prior.append(dec.loo_accuracy(task, learned))
            without.append(dec.loo_accuracy(task, baseline))
        margins.append(float(np.mean(with_prior) - np.mean(without)))

    mean_margin = float(np.mean(margins))
    assert mean_margin >= 0.05, f"margin {mean_margin:.4f}, per-seed {margins}"

    finish(t0, 300.0, "criterion 09 transfer benefit",
           f"paired margin {mean_margin * 100:.1f}pp over 20 seeds")


# -- 10 ------------------------------------------------------------------------

def test_criterion_10_statistics_fixture():
    t0 = time.perf_counter()
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    r, p = dec.pearson(x, 2.0 * x + 1.0)
    assert r == 1.0 and p == 0.0
    r, p = dec.pearson(x, -0.5 * x)
    assert r == -1.0 and p == 0.0

    # r = 0.13 at n = 226 by construction; two-sided p lands in the
    # window consistent with a reported p = .06 under rounding
    rng = np.random.default_rng(226)
    a = rng.normal(0, 1, 226)
    q = rng.normal(0, 1, 226)
    za = (a - a.mean()) / a.std()
    q = q - q.mean()
    q -= (q @ za) / (za @ za) * za
    zq = q / q.std()
    b = 0.13 * za + np.sqrt(1 - 0.13 ** 2) * zq
    r, p = dec.pearson(za, b)
    assert r == pytest.approx(0.13, abs=1e-12)
    assert 0.045 <= p <= 0.06

    finish(t0, 1.0, "criterion 10 statistics fixture", f"p={p:.4f}")


# -- 11 ------------------------------------------------------------------------

def run_week(profile: str, seed: int, out: Path, public_key: Path | None = None) -> None:
    for day in range(1, 8):
        argv = ["simulate-session", "--day", str(day), "--seed", str(seed),
                "--profile", profile, "--out", str(out)]
        if public_key is not None:
            argv += ["--public-key", str(public_key)]
        assert cli_main(argv) == 0, f"{profile} day {day}"


def decode_week(run_dir: Path, key_dir: Path, out: Path) -> list[dict]:
    assert cli_main(["decode", "--recordings", str(run_dir / "uploads" / "recordings"),
                     "--private-key", str(key_dir / "keys" / "private.pem"),
                     "--out", str(out)]) == 0
    with (out / "results.csv").open() as fh:
        return list(csv.DictReader(fh))


def test_criterion_11_end_to_end_study(tmp_path_factory):
    t0 = time.perf_counter()
    root = tmp_path_factory.mktemp("e2e")

    strong_a = root / "strong_a"
    run_week("strong", 3, strong_a)
    strong_b = root / "strong_b"
    run_week("strong", 3, strong_b, public_key=strong_a / "keys" / "public.pem")

    # determinism: the same configuration reproduces every recording payload
    private = ds.load_private_key(strong_a / "keys" / "private.pem")

    def payloads(run_dir: Path) -> list[bytes]:
        files = sorted((run_dir / "uploads" / "recordings").rglob("*.envelope"))
        return [ds.decrypt_envelope(p.read_bytes(), private) for p in files]

    assert payloads(strong_a) == payloads(strong_b)

    rows = decode_week(strong_a, strong_a, root / "dec_a")
    rows_b = decode_week(strong_a, strong_a, root / "dec_b")
    assert ((root / "dec_a" / "results.csv").read_bytes()
            == (root / "dec_b" / "results.csv").read_bytes())

    # one accuracy per (day, strategy) across the whole week
    keyed = {(int(r["day"]), r["strategy"]) for r in rows}
    assert len(keyed) == len(rows) == 15
    expected = {(d, ss.STRATEGY_RESTING) for d in range(1, 8)}
    expected |= {(d, ss.STRATEGY_MEMORIES) for d in (1, 2, 4, 5, 6)}
    expected |= {(d, ss.STRATEGY_IMAGERY) for d in (3, 5, 7)}
    assert keyed == expected

    strong_mean = float(np.mean([float(r["accuracy"]) for r in rows]))
    assert strong_mean > 0.9

    # zero modulation stays at chance on the trial-aggregated rate
    zero = root / "zero"
    run_week("zero", 11, zero)
    zrows = decode_week(zero, zero, root / "dec_zero")
    correct = sum(float(r["accuracy"]) * int(r["n_trials"]) for r in zrows)
    total = sum(int(r["n_trials"]) for r in zrows)
    chance = correct / total
    assert chance == pytest.approx(0.5, abs=0.05)

    finish(t0, 600.0, "criterion 11 end to end",
           f"strong mean {strong_mean:.3f}, zero aggregate {chance:.3f}")
