"""Synthetic subject model: determinism, spectra, task effects."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mindkit.features import ALPHA_BAND, band_power, log_band_power, psd_welch, r2_map
from mindkit.simkit import (
    MAX_AMPLITUDE_UV,
    MAX_ARTIFACT_RATE_PER_MIN,
    STOCK_PROFILES,
    FittingBehavior,
    ProfileDistribution,
    SimulatorError,
    SyntheticSubjectProfile,
    gen_lab_corpus,
    gen_noise_block,
    gen_subject_feature_vectors,
    gen_task_dataset,
    gen_trial,
    load_profile,
    pink_noise,
    save_profile,
    strong_profile,
    weak_profile,
    zero_profile,
)


# --- fitting behavior --------------------------------------------------------

def test_fitting_sigma_decays_from_initial_to_floor():
    fb = FittingBehavior()
    assert fb.sigma_at(0.0) == pytest.approx(45.0)
    assert fb.sigma_at(20.0) == pytest.approx(7.0 + 38.0 * np.exp(-1.0))
    assert fb.sigma_at(1e6) == pytest.approx(7.0)
    samples = [fb.sigma_at(s) for s in (0, 5, 30, 120, 600)]
    assert all(a > b for a, b in zip(samples, samples[1:]))


# --- profile validation ------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"baseline_sigma": 0.0},
    {"baseline_sigma": -3.0},
    {"alpha_amp": -1.0},
    {"line_noise_amp": -0.5},
    {"alpha_freq": 6.9},
    {"alpha_freq": 14.1},
    {"alpha_channels": (0, 4)},
    {"alpha_channels": (-1,)},
    {"task_modulation": {"memory": -0.1}},
])
def test_profile_rejects_bad_parameters(kwargs):
    with pytest.raises(SimulatorError):
        SyntheticSubjectProfile(**kwargs)


@pytest.mark.parametrize("kwargs, named", [
    ({"baseline_sigma": float("nan")}, "baseline_sigma"),
    ({"alpha_amp": float("inf")}, "alpha_amp"),
    ({"line_noise_amp": float("nan")}, "line_noise_amp"),
    ({"task_modulation": {"memory": float("nan")}}, "task_modulation['memory']"),
    ({"fitting": {"sigma_final": float("nan")}}, "fitting.sigma_final"),
    ({"artifact_rate_per_min": -1.0}, "artifact_rate_per_min"),
    ({"seed": -5}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"alpha_channels": (0.5,)}, "alpha_channels"),
    ({"alpha_channels": (True,)}, "alpha_channels"),
    ({"alpha_channels": (1, 1)}, "alpha_channels"),
    ({"baseline_sigma": 1e308}, "baseline_sigma"),
    ({"line_noise_amp": np.nextafter(MAX_AMPLITUDE_UV, np.inf)}, "line_noise_amp"),
    ({"fitting": FittingBehavior(sigma_initial=1e15)}, "fitting.sigma_initial"),
    ({"alpha_amp": 1e8, "task_modulation": {"memory": 1e7}},
     "alpha_amp times its largest task_modulation"),
    ({"artifact_rate_per_min": MAX_ARTIFACT_RATE_PER_MIN * 2}, "artifact_rate_per_min"),
    ({"line_freq": 1e308}, "line_freq"),
], ids=["sigma-nan", "alpha-inf", "line-nan", "modulation-nan", "fitting-nan",
        "artifact-neg", "seed-neg", "seed-bool", "seed-float", "channel-fraction",
        "channel-bool", "channel-repeated", "sigma-huge", "line-past-bound",
        "fitting-huge", "modulated-alpha-huge", "artifact-rate-huge", "line-freq-huge"])
def test_profile_names_the_field_it_rejects(kwargs, named):
    with pytest.raises(SimulatorError) as caught:
        if isinstance(kwargs.get("fitting"), dict):  # a NaN fitting is refused as it is built
            kwargs = {**kwargs, "fitting": FittingBehavior(**kwargs["fitting"])}
        SyntheticSubjectProfile(**kwargs)
    assert str(caught.value).startswith(f"field {named!r} must be")


@pytest.mark.parametrize("field, value", [
    ("time_constant_s", 0.0), ("time_constant_s", -20.0), ("sigma_initial", 0.0),
    ("sigma_final", -1.0),
])
def test_fitting_behavior_names_the_field_it_rejects(field, value):
    with pytest.raises(SimulatorError,
                       match=rf"^field 'fitting\.{field}' must be a positive number, got "):
        FittingBehavior(**{field: value})


def test_profile_accepts_amplitudes_at_the_bound():
    profile = SyntheticSubjectProfile(baseline_sigma=MAX_AMPLITUDE_UV,
                                      line_noise_amp=MAX_AMPLITUDE_UV,
                                      artifact_rate_per_min=MAX_ARTIFACT_RATE_PER_MIN)
    assert np.isfinite(gen_trial(profile, "memory", 4.0, seed=1).samples).all()


# the ranges the constructor accepts, from the edges in; only a modulated alpha
# amplitude past the bound is drawn and then rejected
amplitudes = st.floats(min_value=0.0, max_value=MAX_AMPLITUDE_UV)
positive = st.floats(min_value=0.0, max_value=MAX_AMPLITUDE_UV, exclude_min=True)


@settings(max_examples=150, deadline=None)
@given(baseline_sigma=positive, alpha_amp=amplitudes, line_noise_amp=amplitudes,
       modulation=st.floats(min_value=0.0, max_value=10.0),
       alpha_freq=st.floats(min_value=7.0, max_value=14.0),
       line_freq=st.floats(min_value=0.0, max_value=128.0, exclude_min=True),
       artifact_rate_per_min=st.floats(min_value=0.0, max_value=MAX_ARTIFACT_RATE_PER_MIN),
       sigma_initial=positive, seed=st.integers(min_value=0, max_value=2 ** 64))
def test_any_profile_the_constructor_accepts_generates_finite_samples(
        baseline_sigma, alpha_amp, line_noise_amp, modulation, alpha_freq, line_freq,
        artifact_rate_per_min, sigma_initial, seed):
    try:
        profile = SyntheticSubjectProfile(
            baseline_sigma=baseline_sigma, alpha_amp=alpha_amp, alpha_freq=alpha_freq,
            task_modulation={"memory": modulation}, line_noise_amp=line_noise_amp,
            line_freq=line_freq, artifact_rate_per_min=artifact_rate_per_min,
            fitting=FittingBehavior(sigma_initial=sigma_initial), seed=seed)
    except SimulatorError:
        assume(False)
    assert np.isfinite(gen_trial(profile, "memory", 2.0, seed=0).samples).all()
    assert np.isfinite(gen_noise_block(profile, 0.5, profile.fitting.sigma_initial,
                                       np.random.default_rng(seed))).all()


def test_profile_accepts_alpha_band_edges():
    assert SyntheticSubjectProfile(alpha_freq=7.0).alpha_freq == 7.0
    assert SyntheticSubjectProfile(alpha_freq=14.0).alpha_freq == 14.0


def test_multiplier_defaults_to_unity_for_unlisted_task():
    p = SyntheticSubjectProfile(task_modulation={"memory": 1.5})
    assert p.multiplier("memory") == 1.5
    assert p.multiplier("whatever") == 1.0


def test_profile_json_round_trip(tmp_path):
    p = SyntheticSubjectProfile(
        baseline_sigma=9.5, alpha_amp=4.25, alpha_freq=11.0,
        task_modulation={"memory": 1.4, "subtraction": 0.6},
        alpha_channels=(1, 2), line_noise_amp=0.75,
        artifact_rate_per_min=2.5,
        fitting=FittingBehavior(sigma_initial=30.0, time_constant_s=10.0),
        seed=77)
    path = tmp_path / "subject.json"
    save_profile(p, path)
    assert load_profile(path) == p


def test_load_profile_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(SimulatorError):
        load_profile(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SimulatorError):
        load_profile(bad)
    unknown = tmp_path / "unknown.json"
    unknown.write_text('{"bogus_field": 1}')
    with pytest.raises(SimulatorError):
        load_profile(unknown)


@pytest.mark.parametrize("content", [
    b'{"fitting": {"bogus": 1}}', b"[]", b'"strong"', b'{"fitting": 3}',
    b'{"alpha_channels": 5}', b"\xff\xfe{}", b'{"task_modulation": [1, 2]}',
    b'{"alpha_amp": 1' + b"0" * 400 + b"}",
], ids=["fitting-unknown-field", "array", "string", "fitting-not-object",
        "alpha-channels-not-list", "not-utf8", "modulation-not-object", "integer-past-float"])
def test_load_profile_malformations_raise_simulator_error(tmp_path, content):
    path = tmp_path / "profile.json"
    path.write_bytes(content)
    with pytest.raises(SimulatorError):
        load_profile(path)


def test_stock_profiles():
    assert set(STOCK_PROFILES) == {"strong", "weak", "zero"}
    strong, weak, zero = strong_profile(), weak_profile(), zero_profile()
    # strong separates each task pair further from unity than weak
    for task in ("eyes_open", "eyes_closed", "memory", "subtraction", "song"):
        assert abs(np.log(strong.multiplier(task))) > abs(np.log(weak.multiplier(task)))
    assert zero.multiplier("memory") == 1.0 == zero.multiplier("subtraction")


# --- pink noise --------------------------------------------------------------

def test_pink_noise_hits_requested_sigma_exactly():
    x = pink_noise(4096, 12.5, np.random.default_rng(3))
    assert x.shape == (4096,)
    assert x.std() == pytest.approx(12.5, abs=1e-12)


def test_pink_noise_deterministic():
    a = pink_noise(1024, 5.0, np.random.default_rng(8))
    b = pink_noise(1024, 5.0, np.random.default_rng(8))
    c = pink_noise(1024, 5.0, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_pink_noise_spectrum_slopes_down_like_one_over_f():
    n = 2 ** 16
    x = pink_noise(n, 1.0, np.random.default_rng(123))
    power = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(n, d=1.0 / 256.0)
    # average log-power in octave bands, fit the log-log slope
    centers, means = [], []
    lo = 1.0
    while lo * 2 <= 100.0:
        sel = (freqs >= lo) & (freqs < lo * 2)
        centers.append(np.log10(lo * 1.5))
        means.append(np.log10(power[sel].mean()))
        lo *= 2
    slope = np.polyfit(centers, means, 1)[0]
    assert -1.2 < slope < -0.8


# --- trial generation --------------------------------------------------------

def test_gen_trial_shape_and_metadata():
    t = gen_trial(strong_profile(), "memory", 2.5, seed=1)
    assert t.samples.shape == (4, 640)
    assert t.sample_rate == 256
    assert t.task == "memory"


def test_gen_trial_rejects_bad_duration():
    with pytest.raises(SimulatorError):
        gen_trial(strong_profile(), "memory", 0.0)
    with pytest.raises(SimulatorError):
        gen_trial(strong_profile(), "memory", -1.0)


def test_gen_trial_rejects_task_outside_profile_vocabulary():
    with pytest.raises(SimulatorError):
        gen_trial(strong_profile(), "juggling", 1.0, seed=0)
    # an empty modulation table is task-agnostic on purpose
    t = gen_trial(zero_profile(), "juggling", 1.0, seed=0)
    assert t.task == "juggling"


def test_gen_trial_deterministic_in_profile_and_seed():
    p = strong_profile(seed=4)
    a = gen_trial(p, "memory", 3.0, seed=10)
    b = gen_trial(p, "memory", 3.0, seed=10)
    c = gen_trial(p, "memory", 3.0, seed=11)
    d = gen_trial(strong_profile(seed=5), "memory", 3.0, seed=10)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)
    assert not np.array_equal(a.samples, d.samples)


def test_zero_profile_makes_tasks_bit_identical():
    z = zero_profile(9)
    a = gen_trial(z, "memory", 10.0, seed=5)
    b = gen_trial(z, "subtraction", 10.0, seed=5)
    c = gen_trial(z, "memory", 10.0, seed=5)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.samples, c.samples)


def test_zero_alpha_amplitude_erases_task_differences():
    p = SyntheticSubjectProfile(
        alpha_amp=0.0, task_modulation={"memory": 2.0, "subtraction": 0.5}, seed=6)
    a = gen_trial(p, "memory", 5.0, seed=2)
    b = gen_trial(p, "subtraction", 5.0, seed=2)
    assert np.array_equal(a.samples, b.samples)


def test_modulation_only_touches_masked_channels():
    p = SyntheticSubjectProfile(
        alpha_amp=6.0, task_modulation={"memory": 1.5, "subtraction": 0.5},
        alpha_channels=(0, 1), seed=13)
    a = gen_trial(p, "memory", 4.0, seed=99)
    b = gen_trial(p, "subtraction", 4.0, seed=99)
    assert not np.array_equal(a.samples[0], b.samples[0])
    assert not np.array_equal(a.samples[1], b.samples[1])
    # unmasked channels keep the baseline alpha and come out identical
    assert np.array_equal(a.samples[2], b.samples[2])
    assert np.array_equal(a.samples[3], b.samples[3])


def test_alpha_band_power_orders_tasks_by_multiplier():
    p = SyntheticSubjectProfile(
        alpha_amp=10.0, task_modulation={"memory": 1.5, "subtraction": 0.5}, seed=3)
    mem, sub = [], []
    for k in range(8):
        tm = gen_trial(p, "memory", 30.0, seed=40 + k)
        ts = gen_trial(p, "subtraction", 30.0, seed=40 + k)
        mem.append(log_band_power(psd_welch(tm.samples[0], tm.sample_rate), ALPHA_BAND))
        sub.append(log_band_power(psd_welch(ts.samples[0], ts.sample_rate), ALPHA_BAND))
    assert all(m > s for m, s in zip(mem, sub))
    assert min(mem) == pytest.approx(1.3237705008217646, abs=1e-9)
    assert max(sub) == pytest.approx(0.6862021887968738, abs=1e-9)


def test_feature_discriminability_grows_with_modulation_gap():
    means = []
    for gi, (mp, mn) in enumerate([(1.1, 0.9), (1.4, 0.6), (2.0, 0.35)]):
        dist = ProfileDistribution(alpha_amp=(4.0, 4.0), modulation_pos=(mp, mp),
                                   modulation_neg=(mn, mn))
        prof = dist.draw(np.random.default_rng(11), seed=11)
        task = gen_task_dataset(prof, dist.tasks, 20, "s", seed=500 + gi)
        r2 = r2_map(task.X[:, :-1], task.y)
        means.append(float(np.mean(r2[[1, 5, 9, 13]])))  # the alpha columns
    assert means[0] < means[1] < means[2]
    assert means == pytest.approx(
        [0.6449425165231335, 0.9589860579004316, 0.9897788277478696], abs=1e-9)


def test_artifact_bursts_push_window_variance_over_quality_threshold():
    base = dict(baseline_sigma=5.0, alpha_amp=0.0, line_noise_amp=0.0, seed=21)
    bursty = SyntheticSubjectProfile(artifact_rate_per_min=30.0, **base)
    quiet = SyntheticSubjectProfile(artifact_rate_per_min=0.0, **base)

    def max_window_var(trial):
        x = trial.samples[0]
        windows = x[: len(x) // 128 * 128].reshape(-1, 128)
        return float(np.max(np.var(windows, axis=1, ddof=1)))

    with_bursts = max_window_var(gen_trial(bursty, "memory", 60.0, seed=77))
    without = max_window_var(gen_trial(quiet, "memory", 60.0, seed=77))
    assert with_bursts == pytest.approx(1023.6241341192506, abs=1e-6)
    assert without == pytest.approx(25.357719912858155, abs=1e-6)
    assert with_bursts > 150.0 > without


def test_gen_noise_block_shape_and_mains_component():
    rng = np.random.default_rng(15)
    noisy = SyntheticSubjectProfile(baseline_sigma=3.0, line_noise_amp=8.0, seed=0)
    block = gen_noise_block(noisy, 4.0, sigma=3.0, rng=rng)
    assert block.shape == (4, 1024)
    clean = SyntheticSubjectProfile(baseline_sigma=3.0, line_noise_amp=0.0, seed=0)
    quiet = gen_noise_block(clean, 4.0, sigma=3.0, rng=np.random.default_rng(15))
    band = (49.0, 51.0)
    hot = band_power(psd_welch(block[0], 256), band)
    cold = band_power(psd_welch(quiet[0], 256), band)
    assert hot > 10.0 * cold
    # the mains component is common across channels, so differencing removes it
    diff = band_power(psd_welch(block[0] - block[1], 256), band)
    assert diff < hot / 10.0


# --- profile distributions and corpora ---------------------------------------

def test_distribution_draw_respects_ranges():
    dist = ProfileDistribution()
    rng = np.random.default_rng(0)
    for k in range(50):
        p = dist.draw(rng, seed=k)
        assert dist.baseline_sigma[0] <= p.baseline_sigma <= dist.baseline_sigma[1]
        assert dist.alpha_amp[0] <= p.alpha_amp <= dist.alpha_amp[1]
        assert dist.alpha_freq[0] <= p.alpha_freq <= dist.alpha_freq[1]
        assert dist.line_noise_amp[0] <= p.line_noise_amp <= dist.line_noise_amp[1]
        assert (dist.artifact_rate_per_min[0] <= p.artifact_rate_per_min
                <= dist.artifact_rate_per_min[1])
        assert set(p.task_modulation) == {"memory", "subtraction"}
        assert dist.modulation_pos[0] <= p.task_modulation["memory"] <= dist.modulation_pos[1]
        assert dist.modulation_neg[0] <= p.task_modulation["subtraction"] <= dist.modulation_neg[1]
        assert p.seed == k


def test_subject_feature_vectors_are_balanced_and_deterministic():
    p = strong_profile(seed=2)
    vecs = gen_subject_feature_vectors(p, ("memory", "subtraction"), 8, "s01",
                                       seed=6, trial_duration_s=4.0,
                                       day=3, strategy="positive_memories")
    assert len(vecs) == 8
    labels = [v.label for v in vecs]
    assert labels.count(1) == 4 and labels.count(-1) == 4
    assert [v.trial_index for v in vecs] == list(range(8))
    assert all(v.subject == "s01" and v.day == 3 for v in vecs)
    assert all(v.strategy == "positive_memories" for v in vecs)
    assert all(len(v.values) == 16 for v in vecs)
    again = gen_subject_feature_vectors(p, ("memory", "subtraction"), 8, "s01",
                                        seed=6, trial_duration_s=4.0,
                                        day=3, strategy="positive_memories")
    for a, b in zip(vecs, again):
        assert np.array_equal(a.values, b.values) and a.label == b.label


def test_subject_feature_vectors_require_even_trial_count():
    with pytest.raises(SimulatorError):
        gen_subject_feature_vectors(strong_profile(), ("memory", "subtraction"),
                                    7, "s", seed=0)


def test_task_dataset_is_normalized_with_bias_column():
    task = gen_task_dataset(strong_profile(seed=1), ("memory", "subtraction"),
                            8, "s02", seed=4, trial_duration_s=4.0)
    assert task.X.shape == (8, 17)
    assert np.array_equal(task.X[:, -1], np.ones(8))
    assert set(task.y) == {-1.0, 1.0}
    feats = task.X[:, :-1]
    assert np.allclose(feats.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(feats.std(axis=0), 1.0, atol=1e-9)
    assert task.subject == "s02"


def test_lab_corpus_shape_subjects_and_determinism():
    corpus = gen_lab_corpus(3, 8, seed=5)
    assert [t.subject for t in corpus] == ["lab00", "lab01", "lab02"]
    assert all(t.X.shape == (8, 17) for t in corpus)
    assert all(set(t.y) == {-1.0, 1.0} for t in corpus)
    again = gen_lab_corpus(3, 8, seed=5)
    other = gen_lab_corpus(3, 8, seed=6)
    for a, b in zip(corpus, again):
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)
    assert not np.array_equal(corpus[0].X, other[0].X)


def test_lab_corpus_requires_two_subjects():
    with pytest.raises(SimulatorError):
        gen_lab_corpus(1, 8, seed=0)
