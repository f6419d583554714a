from __future__ import annotations

import hashlib
import json
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings
from hypothesis import strategies as st

from mindkit import datastore as ds


@pytest.fixture(scope="module")
def keypair():
    return ds.generate_keypair()


def small_dataset(seed: int = 0, n_frames: int = 64) -> ds.RecordingDataset:
    rng = np.random.default_rng(seed)
    return ds.RecordingDataset(
        subject_id=f"subj{seed}",
        scenario_id="demo-d1",
        day=1,
        sample_rate=256,
        channel_labels=("AF7", "AF8", "TP9", "TP10"),
        samples=rng.normal(0, 20, (n_frames, 4)).astype(np.float32),
        markers=[ds.Marker(0, ds.MARKER_BLOCK_START, "block"),
                 ds.Marker(8, ds.MARKER_TRIAL_START, "memory"),
                 ds.Marker(40, ds.MARKER_TRIAL_END, "memory"),
                 ds.Marker(n_frames, ds.MARKER_BLOCK_END, "block")],
        metadata={"locale": "en", "line_freq": 50.0},
    )


# --- container format --------------------------------------------------------

def test_container_round_trip_identity():
    dataset = small_dataset()
    blob = ds.write_dataset(dataset)
    loaded = ds.read_dataset(blob)
    assert loaded.subject_id == dataset.subject_id
    assert loaded.scenario_id == dataset.scenario_id
    assert loaded.day == dataset.day
    assert loaded.sample_rate == dataset.sample_rate
    assert loaded.channel_labels == dataset.channel_labels
    assert np.array_equal(loaded.samples, dataset.samples)
    assert loaded.markers == dataset.markers
    assert loaded.metadata == dataset.metadata
    # canonical serialization: rewriting what was read is byte-exact
    assert ds.write_dataset(loaded) == blob


@pytest.mark.parametrize("layout", ["c-f4", "fortran-view", "f8", "big-endian", "no-frames"])
def test_container_bytes_do_not_depend_on_sample_layout(layout):
    rng = np.random.default_rng(4)
    samples = {
        "c-f4": rng.normal(0, 20, (64, 4)).astype(np.float32),
        "fortran-view": rng.normal(0, 20, (4, 64)).astype(np.float32).T,
        "f8": rng.normal(0, 20, (64, 4)),
        "big-endian": rng.normal(0, 20, (64, 4)).astype(">f4"),
        "no-frames": np.zeros((0, 4), dtype=np.float32),
    }[layout]
    dataset = small_dataset()
    dataset.markers = []
    dataset.samples = samples  # as given, past the constructor's float32 conversion
    blob = ds.write_dataset(dataset)
    header, _ = ds.unpack_frame(blob, ds.CONTAINER_MAGIC, ds.CONTAINER_VERSION)
    assert header["n_frames"] == samples.shape[0]
    head = ds.canonical_json(header)
    assert blob == (struct.pack("<4sHI", ds.CONTAINER_MAGIC, ds.CONTAINER_VERSION, len(head))
                    + head + np.ascontiguousarray(samples, dtype="<f4").tobytes())


def test_container_round_trip_randomized():
    rng = np.random.default_rng(2)
    for i in range(25):
        n_ch = int(rng.integers(1, 8))
        n_frames = int(rng.integers(0, 300))
        markers = []
        if n_frames:
            idx = sorted(int(v) for v in rng.integers(0, n_frames + 1, 3))
            markers = [ds.Marker(j, int(rng.integers(1, 12)), f"m{k}")
                       for k, j in enumerate(idx)]
        dataset = ds.RecordingDataset(
            subject_id=f"s{i}", scenario_id="sc", day=int(rng.integers(1, 8)),
            sample_rate=256, channel_labels=tuple(f"ch{c}" for c in range(n_ch)),
            samples=rng.normal(0, 50, (n_frames, n_ch)).astype(np.float32),
            markers=markers, metadata={"i": i, "note": "umlaut ä"})
        blob = ds.write_dataset(dataset)
        again = ds.write_dataset(ds.read_dataset(blob))
        assert again == blob


def test_read_dataset_samples_are_a_read_only_view_of_the_blob():
    blob = ds.write_dataset(small_dataset())
    loaded = ds.read_dataset(blob)
    assert not loaded.samples.flags.writeable
    assert np.shares_memory(loaded.samples, np.frombuffer(blob, dtype=np.uint8))
    assert ds.write_dataset(loaded) == blob


def test_container_header_layout():
    blob = ds.write_dataset(small_dataset())
    magic, version, header_len = struct.unpack_from("<4sHI", blob, 0)
    assert magic == b"MYND"
    assert version == 1
    header = json.loads(blob[10:10 + header_len])
    assert header["n_frames"] == 64
    payload = blob[10 + header_len:]
    assert len(payload) == 64 * 4 * 4  # float32 frames x channels


def test_container_error_taxonomy():
    blob = ds.write_dataset(small_dataset())
    with pytest.raises(ds.BadMagicError):
        ds.read_dataset(b"XXXX" + blob[4:])
    with pytest.raises(ds.UnsupportedVersionError):
        ds.read_dataset(blob[:4] + struct.pack("<H", 9) + blob[6:])
    with pytest.raises(ds.TruncatedPayloadError):
        ds.read_dataset(blob[:-1])
    with pytest.raises(ds.TruncatedPayloadError):
        ds.read_dataset(blob[:6])
    with pytest.raises(ds.ContainerFormatError):
        ds.read_dataset(blob[:10] + b"\xff" * 20 + blob[30:])


def with_header(header, payload: bytes) -> bytes:
    raw = json.dumps(header).encode("utf-8")
    return struct.pack("<4sHI", b"MYND", 1, len(raw)) + raw + payload


@pytest.mark.parametrize("mutate", [
    lambda h: {},
    lambda h: [],
    lambda h: {**h, "day": "x"},
    lambda h: {**h, "n_frames": -1},
    lambda h: {**h, "markers": [[0, 1]]},
    lambda h: {**h, "sample_rate": 0},
    lambda h: {**h, "day": 0},
    lambda h: {**h, "day": -3},
], ids=["empty-object", "array", "day-not-int", "negative-frames", "short-marker",
        "zero-sample-rate", "day-zero", "negative-day"])
def test_header_schema_errors_stay_in_taxonomy(mutate):
    blob = ds.write_dataset(small_dataset())
    (header_len,) = struct.unpack_from("<I", blob, 6)
    header = json.loads(blob[10:10 + header_len])
    assert ds.read_dataset(with_header(header, blob[10 + header_len:])) is not None
    with pytest.raises(ds.HeaderSchemaError):
        ds.read_dataset(with_header(mutate(header), blob[10 + header_len:]))


def test_marker_validation():
    with pytest.raises(ds.MarkerRangeError):
        small_dataset().markers.append(ds.Marker(999, 1, "late"))
        ds.write_dataset(ds.read_dataset(ds.write_dataset(small_dataset())))
        d = small_dataset()
        d.markers = [ds.Marker(70, 1, "late")]
        d._check_markers()
    d = small_dataset()
    with pytest.raises(ds.MarkerRangeError):
        ds.RecordingDataset(
            subject_id="s", scenario_id="sc", day=1, sample_rate=256,
            channel_labels=("a",), samples=np.zeros((4, 1), np.float32),
            markers=[ds.Marker(5, 1, "x")])
    with pytest.raises(ds.MarkerRangeError):
        ds.RecordingDataset(
            subject_id="s", scenario_id="sc", day=1, sample_rate=256,
            channel_labels=("a",), samples=np.zeros((4, 1), np.float32),
            markers=[ds.Marker(3, 1, "x"), ds.Marker(1, 2, "y")])


def test_dataset_shape_validation():
    with pytest.raises(ds.ContainerFormatError):
        ds.RecordingDataset(subject_id="s", scenario_id="sc", day=1,
                            sample_rate=256, channel_labels=("a", "b"),
                            samples=np.zeros(8, np.float32))
    with pytest.raises(ds.ContainerFormatError):
        ds.RecordingDataset(subject_id="s", scenario_id="sc", day=1,
                            sample_rate=256, channel_labels=("a",),
                            samples=np.zeros((8, 2), np.float32))


def test_samples_stored_as_float32():
    d = ds.RecordingDataset(subject_id="s", scenario_id="sc", day=1,
                            sample_rate=256, channel_labels=("a",),
                            samples=np.array([[1.5], [2.5]], dtype=np.float64))
    assert d.samples.dtype == np.float32


@pytest.mark.parametrize("mutate", [
    lambda h: {**h, "markers": [[float("inf"), 1, "x"]]},
    lambda h: {**h, "channel_labels": [], "n_frames": 10 ** 30},
], ids=["infinite-marker-index", "no-channels-huge-frames"])
def test_header_edge_values_stay_in_taxonomy(mutate):
    header = {"subject_id": "s", "scenario_id": "sc", "day": 1, "sample_rate": 256,
              "channel_labels": ["a"], "n_frames": 0, "markers": [], "metadata": {}}
    assert ds.read_dataset(with_header(header, b"")).n_channels == 1
    with pytest.raises(ds.HeaderSchemaError):
        ds.read_dataset(with_header(mutate(header), b""))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)

# Each header field drawn well-typed or as any JSON value.
HEADER_FIELDS = {
    "subject_id": st.text(max_size=3), "scenario_id": st.text(max_size=3),
    "day": st.integers(-2, 9), "sample_rate": st.integers(0, 512),
    "channel_labels": st.lists(st.text(max_size=2), max_size=3),
    "n_frames": st.integers(-1, 3),
    "markers": st.lists(st.lists(st.integers(-1, 4) | JSON_VALUES, min_size=3, max_size=3)
                        | JSON_VALUES, max_size=3),
    "metadata": st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=2),
}


@settings(max_examples=300, deadline=None)
@given(tail=st.binary(max_size=400))
def test_read_dataset_any_bytes_after_magic_and_version(tail):
    blob = struct.pack("<4sH", ds.CONTAINER_MAGIC, ds.CONTAINER_VERSION) + tail
    try:
        dataset = ds.read_dataset(blob)
    except ds.ContainerFormatError:
        return
    assert isinstance(dataset, ds.RecordingDataset)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_read_dataset_any_json_header_and_payload(data):
    header = data.draw(JSON_VALUES | st.fixed_dictionaries(
        {key: value | JSON_VALUES for key, value in HEADER_FIELDS.items()}))
    fields = header if isinstance(header, dict) else {}
    size = None
    if type(fields.get("n_frames")) is int and isinstance(fields.get("channel_labels"), list):
        size = max(fields["n_frames"], 0) * len(fields["channel_labels"]) * 4
    payload = data.draw(st.binary(min_size=size or 0, max_size=size or 64))
    try:
        dataset = ds.read_dataset(with_header(header, payload))
    except ds.ContainerFormatError:
        return
    assert dataset.samples.shape == (header["n_frames"], len(header["channel_labels"]))
    assert dataset.samples.astype("<f4").tobytes() == payload


@pytest.mark.parametrize("escaped, text", [
    (r"\ud800", None), (r"\udfff", None), (r"a\ud83d", None), (r"\ude00\ud83d", None),
    (r"\ud83d\ude00", "\U0001f600"), (r"\u00e9", "\u00e9"), (r"\\ud800", "\\ud800"),
], ids=["high", "low", "unpaired-high", "reversed-pair", "pair", "bmp", "escaped-backslash"])
def test_read_dataset_header_strings_can_be_written_back(escaped, text):
    """A lone surrogate escape would read, then fail to encode on write."""
    blob = ds.write_dataset(small_dataset())
    marker = json.dumps("subj0").encode()
    (header_len,) = struct.unpack_from("<I", blob, 6)
    header = blob[10:10 + header_len].replace(marker, f'"{escaped}"'.encode())
    edited = blob[:6] + struct.pack("<I", len(header)) + header + blob[10 + header_len:]
    if text is None:
        with pytest.raises(ds.ContainerFormatError, match="surrogates"):
            ds.read_dataset(edited)
        return
    dataset = ds.read_dataset(edited)
    assert dataset.subject_id == text
    canonical = ds.write_dataset(dataset)
    assert ds.write_dataset(ds.read_dataset(canonical)) == canonical


@pytest.mark.parametrize("doc", [r'{"\udc00": 1}', r'["a", ["x\ud800y"]]',
                                 r'{"k": {"deep": ["\udbff"]}}'])
def test_parse_json_rejects_lone_surrogates_in_keys_and_nested_strings(doc):
    with pytest.raises(ds.QueueManifestError):
        ds.parse_json(doc.encode(), ds.QueueManifestError, "queue")


@pytest.mark.parametrize("kind, value, lo, hi, read", [
    ("int", 3, 1, None, 3), ("whole", 4.0, 2, None, 4), ("whole", 4, None, None, 4),
    ("number", -2.5, None, 0, -2.5), ("number", 10 ** 300, None, None, 10 ** 300),
    ("positive", 1e-300, None, 1, 1e-300), ("sign", -1, None, None, -1),
    ("str", "x", None, None, "x"), ("strings", ["a"], None, None, ["a"]),
    ("list", [], None, None, []), ("object", {}, None, None, {}),
    ("int", 1, 1, 1, 1), ("strings", ("a", "b"), ("a", "b"), ("a", "b"), ("a", "b")),
])
def test_read_field_returns_a_value_of_its_kind(kind, value, lo, hi, read):
    got = ds.read_field({"k": value}, "k", kind, ds.HeaderSchemaError, lo, hi)
    assert got == read and type(got) is type(read)


@pytest.mark.parametrize("kind, value, lo, hi, message", [
    ("int", 1.0, None, None, "an integer, got 1.0"),
    ("int", True, None, None, "an integer, got True"),
    ("int", 0, 1, None, "an integer >= 1, got 0"),
    ("int", 2, 1, 1, "an integer equal to 1, got 2"),
    ("whole", 4.5, 2, None, "a whole number >= 2, got 4.5"),
    ("whole", "4", None, None, "a whole number, got '4'"),
    ("whole", 8, 1, 7, "a whole number in 1..7, got 8"),
    ("number", float("nan"), None, None, "a finite number, got nan"),
    ("number", float("inf"), None, None, "a finite number, got inf"),
    pytest.param("number", 10 ** 400, None, None,
                 "a finite number, got 100000000000000000...0000000000000000000",
                 id="int-past-the-float-range"),  # a long value's repr is cut short
    ("int", "x" * 40, None, None, "an integer, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ("number", False, None, None, "a finite number, got False"),
    ("number", 2.0, None, 1.5, "a finite number <= 1.5, got 2.0"),
    ("positive", 0.0, None, None, "a positive number, got 0.0"),
    ("sign", 0, None, None, "+1 or -1, got 0"),
    ("sign", 1.0, None, None, "+1 or -1, got 1.0"),
    ("str", "", None, None, "a non-empty string, got ''"),
    ("str", None, None, None, "a non-empty string, got None"),
    ("strings", [], None, None, "a non-empty list of strings, got []"),
    ("strings", ["a", 1], None, None, "a non-empty list of strings, got ['a', 1]"),
    ("strings", ("b", "a"), ("a", "b"), ("a", "b"),
     "a non-empty list of strings equal to ('a', 'b'), got ('b', 'a')"),
    ("list", "ab", None, None, "a list, got 'ab'"),
    ("object", [], None, None, "an object, got []"),
])
def test_read_field_refuses_in_one_message_form(kind, value, lo, hi, message):
    doc = {} if value is None else {"k": value}  # a missing key reads as None
    with pytest.raises(ds.HeaderSchemaError,
                       match="^" + re.escape(f"field 'k' must be {message}") + "$"):
        ds.read_field(doc, "k", kind, ds.HeaderSchemaError, lo, hi)


# --- encryption ----------------------------------------------------------------

def test_envelope_round_trip(keypair):
    private, public = keypair
    plaintext = b"some recording bytes" * 50
    blob = ds.encrypt_envelope(plaintext, public)
    assert isinstance(blob, bytearray)  # sealed in place, not an object to serialize
    assert ds.decrypt_envelope(blob, private) == plaintext


@pytest.mark.parametrize("kind", [bytes, bytearray, memoryview])
def test_decrypt_envelope_accepts_any_bytes_like_blob(keypair, kind):
    private, public = keypair
    plaintext = b"bytes-like envelope" * 30
    blob = ds.encrypt_envelope(plaintext, public)
    assert ds.decrypt_envelope(kind(blob), private) == plaintext


def test_envelope_ciphertext_is_a_view_of_the_blob(keypair, monkeypatch):
    private, public = keypair
    plaintext = b"viewed, not copied" * 20
    blob = bytes(ds.encrypt_envelope(plaintext, public))
    pieces = []
    view_reader = ds._view_reader

    def recording_reader(view):
        read = view_reader(view)

        def recorded(n):
            piece = read(n)
            pieces.append(piece)
            return piece
        return recorded

    monkeypatch.setattr(ds, "_view_reader", recording_reader)
    assert ds.decrypt_envelope(blob, private) == plaintext
    # every field, the ciphertext included, is read as a view of the blob, not a copy
    assert sum(len(piece) for piece in pieces) == len(blob)
    for piece in pieces:
        assert np.shares_memory(np.frombuffer(piece, dtype=np.uint8),
                                np.frombuffer(blob, dtype=np.uint8))


def test_envelope_field_layout(keypair):
    _, public = keypair
    blob = ds.encrypt_envelope(b"x", public)
    magic, version, key_wrap_alg, payload_alg, key_id, wrapped_len = struct.unpack_from(
        "<4sHHH32sI", blob, 0)
    assert (magic, version) == (b"MYNE", 1)
    assert key_wrap_alg == ds.ALG_KEYWRAP_RSA_OAEP_SHA256 == 1
    assert payload_alg == ds.ALG_PAYLOAD_AES_256_GCM == 1
    assert key_id == ds.public_key_id(public)
    assert wrapped_len == 256  # RSA-2048, at offset 46
    assert struct.unpack_from("<I", blob, 46 + 256) == (12,)  # the nonce follows it
    (ciphertext_len,) = struct.unpack_from("<Q", blob, 46 + 256 + 4 + 12)
    assert ciphertext_len == 1 + 16  # the one plaintext byte and the GCM tag
    assert len(blob) == 46 + 256 + 4 + 12 + 8 + ciphertext_len


def test_public_key_id_is_sha256_of_spki(keypair):
    _, public = keypair
    der = public.public_bytes(serialization.Encoding.DER,
                              serialization.PublicFormat.SubjectPublicKeyInfo)
    assert ds.public_key_id(public) == hashlib.sha256(der).digest()


def test_single_byte_tamper_fails(keypair):
    private, public = keypair
    blob = ds.encrypt_envelope(b"payload under test" * 9, public)
    rng = np.random.default_rng(5)
    positions = set(int(i) for i in rng.integers(0, len(blob), 40))
    positions.update((0, 4, 6, 8, 10, 42, len(blob) - 1))  # header + body + tail
    for pos in positions:
        tampered = bytearray(blob)
        tampered[pos] ^= 0x01
        with pytest.raises(ds.DatastoreError):
            ds.decrypt_envelope(bytes(tampered), private)


def test_wrong_key_fails(keypair):
    private, public = keypair
    other_private, _ = ds.generate_keypair()
    blob = ds.encrypt_envelope(b"secret", public)
    with pytest.raises(ds.DecryptionError):
        ds.decrypt_envelope(blob, other_private)
    assert ds.decrypt_envelope(blob, private) == b"secret"


def test_envelope_trailing_bytes_rejected(keypair):
    private, public = keypair
    blob = ds.encrypt_envelope(b"x", public)
    with pytest.raises(ds.ContainerFormatError):
        ds.decrypt_envelope(blob + b"\x00", private)


def test_key_pem_round_trip(tmp_path, keypair):
    private, public = keypair
    ds.save_private_key(private, tmp_path / "key.pem")
    ds.save_public_key(public, tmp_path / "key.pub")
    loaded_private = ds.load_private_key(tmp_path / "key.pem")
    loaded_public = ds.load_public_key(tmp_path / "key.pub")
    assert ds.public_key_id(loaded_public) == ds.public_key_id(public)
    blob = ds.encrypt_envelope(b"pem", loaded_public)
    assert ds.decrypt_envelope(blob, loaded_private) == b"pem"


# --- streaming decryption from a file -------------------------------------------

def _open_file(path: Path, private) -> memoryview:
    with path.open("rb") as source:
        return ds.open_envelope(source, private)


def _oracle_payloads() -> dict[str, bytes]:
    # ~600 kB of samples: two whole decrypt chunks and a part of one
    container = ds.write_dataset(small_dataset(seed=3, n_frames=38_000))
    assert 2 * ds.DECRYPT_CHUNK < len(container) < 3 * ds.DECRYPT_CHUNK
    questionnaire = ds.canonical_json({
        "kind": "questionnaire_result", "questionnaire_id": "motivation",
        "subject_id": "subj3", "day": 2, "locale": "de",
        "responses": [{"item": "motivation", "kind": "likert", "value": 4,
                       "scale": [1, 5], "answered_at": 12.5}]})
    return {"container": container, "questionnaire": questionnaire,
            "empty": b"", "one chunk": bytes(range(256)) * (ds.DECRYPT_CHUNK // 256)}


@pytest.mark.parametrize("kind", ["container", "questionnaire", "empty", "one chunk"])
def test_streamed_decryption_returns_what_one_shot_aes_gcm_sealed(keypair, tmp_path,
                                                                  monkeypatch, kind):
    private, public = keypair
    payload = _oracle_payloads()[kind]
    sym_key, nonce = bytes(range(32)), bytes(range(100, 112))
    monkeypatch.setattr(ds.AESGCM, "generate_key", staticmethod(lambda bit_length: sym_key))
    monkeypatch.setattr(ds.os, "urandom", lambda n: nonce[:n])
    blob = ds.encrypt_envelope(payload, public)
    head = struct.pack("<4sHHH32s", b"MYNE", 1, 1, 1, ds.public_key_id(public))
    oracle = AESGCM(sym_key).encrypt(nonce, payload, head)
    assert blob[:42] == head
    (wrapped_len,) = struct.unpack_from("<I", blob, 42)
    oaep = padding.OAEP(mgf=padding.MGF1(algorithm=hashes.SHA256()),
                        algorithm=hashes.SHA256(), label=None)
    assert private.decrypt(bytes(blob[46:46 + wrapped_len]), oaep) == sym_key
    assert blob[46 + wrapped_len:] == (struct.pack("<I", 12) + nonce
                                       + struct.pack("<Q", len(oracle)) + oracle)
    (tmp_path / "sealed.envelope").write_bytes(blob)
    opened = _open_file(tmp_path / "sealed.envelope", private)
    assert opened.readonly and opened.tobytes() == payload
    for form in (bytes, bytearray, memoryview):
        assert ds.decrypt_envelope(form(blob), private) == payload


def _envelope_boundaries(blob: bytes) -> list[int]:
    """Offsets at which each envelope field starts, and where the GCM tag starts."""
    (wrapped_len,) = struct.unpack_from("<I", blob, 42)
    nonce_at = 46 + wrapped_len + 4
    (nonce_len,) = struct.unpack_from("<I", blob, nonce_at - 4)
    ciphertext_at = nonce_at + nonce_len + 8
    return [0, 4, 6, 8, 10, 42, 46, 46 + wrapped_len, nonce_at, nonce_at + nonce_len,
            ciphertext_at, len(blob) - 16]


def _raised(call) -> type[Exception]:
    with pytest.raises(ds.DatastoreError) as info:
        call()
    return type(info.value)


@pytest.fixture(scope="module")
def drawn_path(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("drawn") / "drawn.envelope"


@settings(max_examples=300, deadline=None)
@given(tail=st.binary(max_size=200), lengths=st.lists(st.integers(0, 40), max_size=3))
def test_envelope_from_any_bytes_after_magic_and_version(keypair, drawn_path, tail, lengths):
    """Any bytes after the magic and version decrypt, or raise the same error from the
    blob and from the file."""
    private, public = keypair
    head = struct.pack("<4sH", ds.ENVELOPE_MAGIC, ds.ENVELOPE_VERSION)
    # plausible length fields now and then, so whole envelopes get parsed too
    fields = b"".join(struct.pack("<I", n) + bytes(n) for n in lengths)
    sealed = ds.encrypt_envelope(b"sealed under test", public)
    for blob in (head + tail, head + bytes(36) + fields + tail, sealed + tail):
        drawn_path.write_bytes(blob)
        try:
            plaintext = ds.decrypt_envelope(blob, private)
        except ds.DatastoreError as exc:
            assert _raised(lambda: _open_file(drawn_path, private)) is type(exc)
        else:
            assert plaintext == _open_file(drawn_path, private) == b"sealed under test"


def test_malformed_envelope_files_raise_what_the_blob_raises(keypair, tmp_path):
    private, public = keypair
    other_private, _ = ds.generate_keypair()
    blob = ds.encrypt_envelope(b"payload under test" * 40, public)
    boundaries = _envelope_boundaries(blob)
    cases = {f"cut at {at}": (blob[:at], private) for at in boundaries + [len(blob) - 1]}
    cases["trailing byte"] = (blob + b"\x00", private)
    for where, at in (("head", 9), ("ciphertext", boundaries[-2] + 5), ("tag", len(blob) - 3)):
        flipped = bytearray(blob)
        flipped[at] ^= 0x01
        cases[f"flipped byte in the {where}"] = (bytes(flipped), private)
    cases["wrong key"] = (blob, other_private)
    path = tmp_path / "bad.envelope"
    raised = {}
    for name, (data, key) in cases.items():
        path.write_bytes(data)
        raised[name] = _raised(lambda: _open_file(path, key))
        assert raised[name] is _raised(lambda: ds.decrypt_envelope(data, key)), name
    assert raised["cut at 42"] is raised[f"cut at {len(blob) - 1}"] is ds.TruncatedPayloadError
    assert raised["trailing byte"] is ds.ContainerFormatError
    assert raised["flipped byte in the tag"] is raised["wrong key"] is ds.DecryptionError


def test_a_declared_ciphertext_past_the_file_raises_before_it_is_allocated(keypair, tmp_path):
    private, public = keypair
    blob = ds.encrypt_envelope(b"small" * 20, public)
    at = _envelope_boundaries(blob)[-2] - 8
    path = tmp_path / "huge.envelope"
    path.write_bytes(blob[:at] + struct.pack("<Q", 2 ** 40) + blob[at + 8:])
    tracemalloc.start()
    try:
        with pytest.raises(ds.TruncatedPayloadError):
            _open_file(path, private)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_opening_an_envelope_file_holds_its_plaintext_once(keypair, tmp_path):
    private, public = keypair
    payload = np.random.default_rng(7).bytes(4 * 2 ** 20)
    path = tmp_path / "large.envelope"
    path.write_bytes(ds.encrypt_envelope(payload, public))
    blob = path.read_bytes()
    for way_in in (lambda: ds.decrypt_envelope(blob, private), lambda: _open_file(path, private)):
        tracemalloc.start()
        try:
            opened = way_in()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert opened == payload
        # a blob is read in place and a file a chunk at a time: neither way copies the
        # envelope whole beside its plaintext
        assert peak <= len(payload) + ds.DECRYPT_CHUNK + 256 * 1024
        del opened


def test_sealing_holds_one_envelope_beside_the_plaintext(keypair):
    private, public = keypair
    payload = np.random.default_rng(8).bytes(4 * 2 ** 20)
    tracemalloc.start()
    try:
        blob = ds.encrypt_envelope(payload, public)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # encrypted in place: no ciphertext is made apart from the envelope and copied in
    assert len(blob) <= peak <= len(blob) + 64 * 1024
    assert ds.decrypt_envelope(blob, private) == payload


# --- upload queue -----------------------------------------------------------------

def test_enqueue_names_and_order(tmp_path):
    queue = ds.UploadQueue(tmp_path / "q")
    first = queue.enqueue(b"blob-a", "subj")
    second = queue.enqueue(b"blob-b", "subj", kind="questionnaire")
    digest = hashlib.sha256(b"blob-a").hexdigest()[:12]
    assert first.entry_id == f"00000000-{digest}"
    assert second.entry_id.startswith("00000001-")
    assert [e.entry_id for e in queue.pending()] == [first.entry_id, second.entry_id]
    assert queue.envelope_bytes(first) == b"blob-a"
    assert second.kind == "questionnaire"


def test_queue_persists_across_instances(tmp_path):
    root = tmp_path / "q"
    ds.UploadQueue(root).enqueue(b"abc", "subj")
    reloaded = ds.UploadQueue(root)
    assert len(reloaded.pending()) == 1
    assert reloaded.envelope_bytes(reloaded.pending()[0]) == b"abc"
    # sequence numbers continue, never repeat
    entry = reloaded.enqueue(b"def", "subj")
    assert entry.entry_id.startswith("00000001-")


@pytest.mark.parametrize("with_manifest", [True, False], ids=["later-entry", "first-entry"])
def test_reopen_deletes_the_tmp_of_a_killed_enqueue(tmp_path, with_manifest):
    root = tmp_path / "q"
    queue = ds.UploadQueue(root)
    if with_manifest:
        queue.enqueue(b"abc", "subj")
    killed = root / f"00000001-0123456789ab.envelope{ds.TMP_SUFFIX}"
    killed.write_bytes(b"sealed")
    other = root / f"notes{ds.TMP_SUFFIX}"  # not an envelope: left alone
    other.write_bytes(b"")
    reopened = ds.UploadQueue(root)
    assert not killed.exists() and other.exists()
    assert len(reopened.pending()) == int(with_manifest)


class FlakyTransport:
    def __init__(self, fail_ids):
        self.fail_ids = set(fail_ids)
        self.sent = []

    def send_recording(self, envelope, subject_token, entry_id):
        if entry_id in self.fail_ids:
            raise ds.TransportError("synthetic outage")
        self.sent.append(entry_id)


def test_flush_is_oldest_first_and_failures_stay(tmp_path):
    queue = ds.UploadQueue(tmp_path / "q")
    entries = [queue.enqueue(f"e{i}".encode(), "subj") for i in range(3)]
    transport = FlakyTransport({entries[1].entry_id})
    results = ds.flush_uploads(queue, transport)
    assert [r.ok for r in results] == [True, False, True]
    assert transport.sent == [entries[0].entry_id, entries[2].entry_id]
    assert [e.entry_id for e in queue.pending()] == [entries[1].entry_id]
    assert queue.pending()[0].attempts == 1
    assert {e.entry_id for e in queue.sent()} == {entries[0].entry_id,
                                                  entries[2].entry_id}
    # retry after the outage clears
    transport.fail_ids.clear()
    results = ds.flush_uploads(queue, transport)
    assert [r.ok for r in results] == [True]
    assert queue.pending() == []
    # state survived on disk
    assert len(ds.UploadQueue(tmp_path / "q").sent()) == 3


@pytest.mark.parametrize("manifest", [
    b"{not json", b"{}", b"[]", b"\xff\xfe", b'{"entries": [], "next_seq": "x"}',
    b'{"entries": [{"bogus": 1}], "next_seq": 1}', b'{"entries": 3, "next_seq": 0}',
], ids=["not-json", "empty-object", "array", "not-utf8", "bad-seq", "bad-entry",
        "entries-not-list"])
def test_corrupt_queue_manifest_raises_datastore_error(tmp_path, manifest):
    root = tmp_path / "q"
    root.mkdir()
    (root / ds.UploadQueue.MANIFEST).write_bytes(manifest)
    with pytest.raises(ds.QueueManifestError):
        ds.UploadQueue(root)


class CrashingTransport:
    """Acknowledges the first upload, then fails outside the transport taxonomy."""

    def __init__(self):
        self.sent = []

    def send_recording(self, envelope, subject_token, entry_id):
        if self.sent:
            raise RuntimeError("process killed mid-flush")
        self.sent.append(entry_id)


def test_flush_persists_each_acknowledgement(tmp_path):
    queue = ds.UploadQueue(tmp_path / "q")
    entries = [queue.enqueue(f"e{i}".encode(), "subj") for i in range(3)]
    with pytest.raises(RuntimeError):
        ds.flush_uploads(queue, CrashingTransport())
    reopened = ds.UploadQueue(tmp_path / "q")
    assert [e.entry_id for e in reopened.sent()] == [entries[0].entry_id]
    assert [e.entry_id for e in reopened.pending()] == [e.entry_id for e in entries[1:]]


def test_directory_transport_layout(tmp_path):
    transport = ds.DirectoryTransport(tmp_path / "server")
    transport.send_recording(b"bytes", "tok", "00000000-abc")
    stored = tmp_path / "server" / "recordings" / "tok" / "00000000-abc.envelope"
    assert stored.read_bytes() == b"bytes"


@pytest.mark.parametrize("token", ["../escape", "..", "a/b", "", "tok\x00"])
def test_directory_transport_rejects_unsafe_subject_token(tmp_path, token):
    transport = ds.DirectoryTransport(tmp_path / "server")
    with pytest.raises(ds.TransportError):
        transport.send_recording(b"bytes", token, "00000000-abc")
    assert list(tmp_path.rglob("*.envelope")) == []


# --- HTTP transport against a local server ------------------------------------

class _Handler(BaseHTTPRequestHandler):
    uploads: list = []
    content_types: list = []

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if self.path == "/recordings":
            _Handler.uploads.append((self.headers["X-Subject-Token"],
                                     self.headers["X-Entry-Id"], body))
            _Handler.content_types.append(self.headers["Content-Type"])
            self.send_response(200)
            self.end_headers()
        else:
            self.send_response(404)
            self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.uploads = []
    _Handler.content_types = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


def test_http_transport_round_trip(http_server):
    transport = ds.HttpTransport(http_server)
    transport.send_recording(b"envelope-bytes", "token9", "00000000-cafe")
    assert _Handler.uploads == [("token9", "00000000-cafe", b"envelope-bytes")]


def test_http_transport_needs_no_package_beyond_the_standard_library(http_server):
    src = str(Path(ds.__file__).resolve().parents[1])
    code = ("import sys; sys.modules['requests'] = None; "  # any `import requests` raises
            "from mindkit import datastore; "
            f"datastore.HttpTransport({http_server!r}).send_recording("
            "b'sealed-bytes', 'token7', '00000001-beef')")
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": src},
                   timeout=60)
    assert _Handler.uploads == [("token7", "00000001-beef", b"sealed-bytes")]
    assert _Handler.content_types == ["application/octet-stream"]


def test_http_transport_names_a_status_other_than_200(http_server):
    transport = ds.HttpTransport(f"{http_server}/study")  # the server knows only /recordings
    with pytest.raises(ds.TransportError, match="404"):
        transport.send_recording(b"x", "t", "e")
    assert _Handler.uploads == []


class _Redirecting(BaseHTTPRequestHandler):
    """Answers the upload with 302 and the redirected GET with 200: nothing is stored."""

    requests: list = []

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        _Redirecting.requests.append(("POST", self.path))
        self.send_response(302)
        self.send_header("Location", "/moved")
        self.end_headers()

    def do_GET(self):
        _Redirecting.requests.append(("GET", self.path))
        self.send_response(200)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


def test_http_redirect_is_a_failed_upload_and_the_entry_stays_queued(tmp_path):
    server = HTTPServer(("127.0.0.1", 0), _Redirecting)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Redirecting.requests = []
    try:
        queue = ds.UploadQueue(tmp_path / "q")
        entry = queue.enqueue(b"sealed", "subj")
        transport = ds.HttpTransport(f"http://127.0.0.1:{server.server_port}")
        [result] = ds.flush_uploads(queue, transport)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert not result.ok and "302" in result.error
    assert _Redirecting.requests == [("POST", "/recordings")]  # the redirect was not followed
    assert [e.entry_id for e in queue.pending()] == [entry.entry_id]
    assert queue.envelope_bytes(queue.pending()[0]) == b"sealed"
    reopened = ds.UploadQueue(tmp_path / "q")
    assert [e.entry_id for e in reopened.pending()] == [entry.entry_id]


def test_http_transport_unreachable_raises():
    transport = ds.HttpTransport("http://127.0.0.1:1", timeout_s=0.2)
    with pytest.raises(ds.TransportError):
        transport.send_recording(b"x", "t", "e")


# --- high-level write paths -------------------------------------------------------

def test_store_recording_seals_container(tmp_path, keypair):
    private, public = keypair
    queue = ds.UploadQueue(tmp_path / "q")
    dataset = small_dataset(seed=4)
    entry = ds.store_recording(dataset, public, queue)
    assert entry.kind == "recording"
    assert entry.subject_id == dataset.subject_id
    blob = ds.decrypt_envelope(queue.envelope_bytes(entry), private)
    assert blob == ds.write_dataset(dataset)
    # no plaintext anywhere under the queue root
    for path in (tmp_path / "q").iterdir():
        if path.suffix == ".envelope":
            assert ds.write_dataset(dataset) not in path.read_bytes()


def test_store_questionnaire_seals_json(tmp_path, keypair):
    private, public = keypair
    queue = ds.UploadQueue(tmp_path / "q")
    doc = {"kind": "questionnaire_result", "day": 1, "values": [3]}
    entry = ds.store_questionnaire(doc, "subj", public, queue)
    assert entry.kind == "questionnaire"
    decrypted = json.loads(ds.decrypt_envelope(queue.envelope_bytes(entry), private))
    assert decrypted == doc


# --- sent envelopes are not kept ---------------------------------------------------

def test_flush_deletes_sent_envelopes_and_keeps_their_entries(tmp_path):
    queue = ds.UploadQueue(tmp_path / "q")
    entries = [queue.enqueue(f"e{i}".encode(), "subj") for i in range(3)]
    ds.flush_uploads(queue, FlakyTransport({entries[1].entry_id}))
    assert sorted(p.name for p in (tmp_path / "q").iterdir()) == sorted(
        [ds.UploadQueue.MANIFEST, entries[1].filename])
    manifest = json.loads((tmp_path / "q" / ds.UploadQueue.MANIFEST).read_text())
    assert [e["state"] for e in manifest["entries"]] == [ds.STATE_SENT, ds.STATE_PENDING,
                                                         ds.STATE_SENT]
    assert queue.envelope_bytes(queue.pending()[0]) == b"e1"


def test_crash_between_save_and_delete_loses_nothing(tmp_path, monkeypatch):
    queue = ds.UploadQueue(tmp_path / "q")
    entries = [queue.enqueue(f"e{i}".encode(), "subj") for i in range(3)]

    def killed(self, entry):
        raise RuntimeError("process killed after saving the manifest")

    monkeypatch.setattr(ds.UploadQueue, "_discard_envelope", killed)
    with pytest.raises(RuntimeError):
        ds.flush_uploads(queue, FlakyTransport(()))
    assert (tmp_path / "q" / entries[0].filename).exists()
    monkeypatch.undo()
    reopened = ds.UploadQueue(tmp_path / "q")
    assert [e.entry_id for e in reopened.sent()] == [entries[0].entry_id]
    assert [e.entry_id for e in reopened.pending()] == [e.entry_id for e in entries[1:]]
    assert not (tmp_path / "q" / entries[0].filename).exists()
    assert [reopened.envelope_bytes(e) for e in reopened.pending()] == [b"e1", b"e2"]
    ds.flush_uploads(reopened, FlakyTransport(()))
    assert [p.name for p in (tmp_path / "q").iterdir()] == [ds.UploadQueue.MANIFEST]


def test_reopen_deletes_no_file_outside_the_queue(tmp_path):
    root = tmp_path / "q"
    root.mkdir()
    outside = tmp_path / "outside.envelope"
    outside.write_bytes(b"keep")
    (root / ds.UploadQueue.MANIFEST).write_text(json.dumps({"next_seq": 1, "entries": [
        {"entry_id": "00000000-0123456789ab", "filename": "../outside.envelope",
         "kind": "recording", "subject_id": "subj", "created_seq": 0, "attempts": 0,
         "state": ds.STATE_SENT}]}))
    with pytest.raises(ds.QueueManifestError, match="field 'filename' must be"):
        ds.UploadQueue(root)  # a file the queue did not name: refused, not deleted nor sent
    assert outside.read_bytes() == b"keep"


# --- the shared writers ------------------------------------------------------------

def test_csv_writer_writes_every_float_as_python_repr(tmp_path):
    path = tmp_path / "table.csv"
    ds.write_csv_file(path, ("a", "b", "c"), [(np.float64(0.1), 1 / 3, 7),
                                              (np.float32(0.5), float("nan"), "é")])
    assert path.read_bytes() == "a,b,c\r\n0.1,0.3333333333333333,7\r\n0.5,nan,é\r\n".encode()


def test_queue_manifest_uses_the_shared_json_layout_and_leaves_no_tmp(tmp_path):
    queue = ds.UploadQueue(tmp_path / "q")
    entry = queue.enqueue(b"e0", "subj")
    text = (tmp_path / "q" / ds.UploadQueue.MANIFEST).read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True)
    assert sorted(p.name for p in (tmp_path / "q").iterdir()) == sorted(
        [ds.UploadQueue.MANIFEST, entry.filename])
