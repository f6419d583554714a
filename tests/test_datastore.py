from __future__ import annotations

import hashlib
import json
import struct
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from cryptography.hazmat.primitives import serialization
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
], ids=["empty-object", "array", "day-not-int", "negative-frames", "short-marker"])
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


# --- encryption ----------------------------------------------------------------

def test_envelope_round_trip(keypair):
    private, public = keypair
    plaintext = b"some recording bytes" * 50
    envelope = ds.encrypt_envelope(plaintext, public)
    assert ds.decrypt_envelope(envelope, private) == plaintext
    blob = envelope.to_bytes()
    assert ds.decrypt_envelope(blob, private) == plaintext


def test_envelope_field_layout(keypair):
    _, public = keypair
    envelope = ds.encrypt_envelope(b"x", public)
    assert envelope.key_wrap_alg == ds.ALG_KEYWRAP_RSA_OAEP_SHA256 == 1
    assert envelope.payload_alg == ds.ALG_PAYLOAD_AES_256_GCM == 1
    assert envelope.recipient_key_id == ds.public_key_id(public)
    assert len(envelope.recipient_key_id) == 32
    assert len(envelope.nonce) == 12
    assert len(envelope.wrapped_key) == 256  # RSA-2048
    blob = envelope.to_bytes()
    assert blob[:4] == b"MYNE"
    parsed = ds.EncryptedEnvelope.from_bytes(blob)
    assert parsed.to_bytes() == blob


def test_public_key_id_is_sha256_of_spki(keypair):
    _, public = keypair
    der = public.public_bytes(serialization.Encoding.DER,
                              serialization.PublicFormat.SubjectPublicKeyInfo)
    assert ds.public_key_id(public) == hashlib.sha256(der).digest()


def test_single_byte_tamper_fails(keypair):
    private, public = keypair
    blob = ds.encrypt_envelope(b"payload under test" * 9, public).to_bytes()
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
    blob = ds.encrypt_envelope(b"secret", public).to_bytes()
    with pytest.raises(ds.DecryptionError):
        ds.decrypt_envelope(blob, other_private)
    assert ds.decrypt_envelope(blob, private) == b"secret"


@settings(max_examples=300, deadline=None)
@given(tail=st.binary(max_size=200), lengths=st.lists(st.integers(0, 40), max_size=3))
def test_envelope_from_any_bytes_after_magic_and_version(tail, lengths):
    """Any bytes parse to an envelope that re-serializes to them, or raise a format error."""
    head = struct.pack("<4sH", ds.ENVELOPE_MAGIC, ds.ENVELOPE_VERSION)
    # plausible length fields now and then, so whole envelopes get parsed too
    fields = b"".join(struct.pack("<I", n) + bytes(n) for n in lengths)
    for blob in (head + tail, head + bytes(36) + fields + tail):
        try:
            envelope = ds.EncryptedEnvelope.from_bytes(blob)
        except ds.ContainerFormatError:
            continue
        assert envelope.to_bytes() == blob


def test_envelope_trailing_bytes_rejected(keypair):
    _, public = keypair
    blob = ds.encrypt_envelope(b"x", public).to_bytes()
    with pytest.raises(ds.ContainerFormatError):
        ds.EncryptedEnvelope.from_bytes(blob + b"\x00")


def test_key_pem_round_trip(tmp_path, keypair):
    private, public = keypair
    ds.save_private_key(private, tmp_path / "key.pem")
    ds.save_public_key(public, tmp_path / "key.pub")
    loaded_private = ds.load_private_key(tmp_path / "key.pem")
    loaded_public = ds.load_public_key(tmp_path / "key.pub")
    assert ds.public_key_id(loaded_public) == ds.public_key_id(public)
    blob = ds.encrypt_envelope(b"pem", loaded_public).to_bytes()
    assert ds.decrypt_envelope(blob, loaded_private) == b"pem"


def test_generate_subject_id_is_urlsafe_and_unique():
    ids = {ds.generate_subject_id() for _ in range(50)}
    assert len(ids) == 50
    for sid in ids:
        assert all(c.isalnum() or c in "-_" for c in sid)


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


class FlakyTransport:
    def __init__(self, fail_ids):
        self.fail_ids = set(fail_ids)
        self.sent = []

    def send_recording(self, envelope, subject_token, entry_id):
        if entry_id in self.fail_ids:
            raise ds.TransportError("synthetic outage")
        self.sent.append(entry_id)

    def fetch_messages(self, locale):
        return []


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
    assert transport.fetch_messages("en") == []
    (tmp_path / "server" / "messages.json").write_text(json.dumps([
        {"id": "1", "locale": "en", "text": "hello"},
        {"id": "2", "locale": "de", "text": "hallo"},
        {"bogus": True},
    ]))
    messages = transport.fetch_messages("en")
    assert [m.text for m in messages] == ["hello"]


@pytest.mark.parametrize("token", ["../escape", "..", "a/b", "", "tok\x00"])
def test_directory_transport_rejects_unsafe_subject_token(tmp_path, token):
    transport = ds.DirectoryTransport(tmp_path / "server")
    with pytest.raises(ds.TransportError):
        transport.send_recording(b"bytes", token, "00000000-abc")
    assert list(tmp_path.rglob("*.envelope")) == []


def test_announcement_fetcher_dedups_and_survives_outage(tmp_path):
    transport = ds.DirectoryTransport(tmp_path / "server")
    (tmp_path / "server").mkdir()
    (tmp_path / "server" / "messages.json").write_text(json.dumps([
        {"id": "1", "locale": "en", "text": "hello"}]))
    fetcher = ds.AnnouncementFetcher(transport)
    assert [m.message_id for m in fetcher.fetch("en")] == ["1"]
    assert fetcher.fetch("en") == []  # same id not shown twice

    class DownTransport:
        def send_recording(self, *a):
            raise ds.TransportError("down")

        def fetch_messages(self, locale):
            raise ds.TransportError("down")

    assert ds.AnnouncementFetcher(DownTransport()).fetch("en") == []


def test_announcement_fetcher_survives_non_utf8_messages(tmp_path):
    (tmp_path / "messages.json").write_bytes(b'\xff\xfe[{"id": "1"}]')
    assert ds.AnnouncementFetcher(ds.DirectoryTransport(tmp_path)).fetch("en") == []


# --- HTTP transport against a local server ------------------------------------

class _Handler(BaseHTTPRequestHandler):
    uploads: list = []

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        if self.path == "/recordings":
            _Handler.uploads.append((self.headers["X-Subject-Token"],
                                     self.headers["X-Entry-Id"], body))
            self.send_response(200)
            self.end_headers()
        else:
            self.send_response(404)
            self.end_headers()

    def do_GET(self):
        if self.path.startswith("/messages"):
            payload = json.dumps([
                {"id": "a1", "locale": "en", "text": "study news"},
                {"id": "a2", "locale": "de", "text": "neuigkeiten"},
            ]).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.end_headers()
            self.wfile.write(payload)
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
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def test_http_transport_round_trip(http_server):
    transport = ds.HttpTransport(http_server)
    transport.send_recording(b"envelope-bytes", "token9", "00000000-cafe")
    assert _Handler.uploads == [("token9", "00000000-cafe", b"envelope-bytes")]
    messages = transport.fetch_messages("en")
    assert [(m.message_id, m.text) for m in messages] == [("a1", "study news")]
    messages_de = transport.fetch_messages("de")
    assert [m.message_id for m in messages_de] == ["a2"]


def test_http_transport_unreachable_raises():
    transport = ds.HttpTransport("http://127.0.0.1:1", timeout_s=0.2)
    with pytest.raises(ds.TransportError):
        transport.send_recording(b"x", "t", "e")
    with pytest.raises(ds.TransportError):
        transport.fetch_messages("en")


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
        {"entry_id": "00000000-x", "filename": "../outside.envelope", "kind": "recording",
         "subject_id": "subj", "created_seq": 0, "state": ds.STATE_SENT}]}))
    assert len(ds.UploadQueue(root).sent()) == 1
    assert outside.read_bytes() == b"keep"
