"""On-device recording store: container format, encryption, upload queue.

Container layout (all integers little-endian):

    offset  size  field
    0       4     magic  b"MYND"
    4       2     format version (u16), currently 1
    6       4     header length H (u32)
    10      H     header, canonical JSON (UTF-8, sorted keys, compact)
    10+H    4*C*N samples, float32, sample-major interleaved
                  (frame 0 ch 0..C-1, frame 1 ch 0..C-1, ...)

The header carries subject and scenario identifiers, rates, channel
labels, the marker table, and free-form metadata.  Serialization is
canonical, so write(read(blob)) reproduces the input byte for byte.
MYNP priors reuse this frame (`pack_frame`, `unpack_frame`) with their own
magic and a float64 payload.  Every JSON input goes through `parse_json`,
which raises the caller's error for any malformation; every file written
goes through `write_file`, which replaces the target whole.

Recordings never touch persistent storage in the clear: they are
sealed into hybrid envelopes (fresh AES-256-GCM key per file, wrapped
with the study's RSA public key) and queued for upload.  An envelope is
its bytes: `encrypt_envelope` returns them, and `decrypt_envelope` (any
bytes-like blob) and `open_envelope` (a binary file) parse and decrypt
them through one path.  The layout is:

    offset  size  field
    0       4     magic  b"MYNE"
    4       2     envelope version (u16), currently 1
    6       2     key-wrap algorithm id (u16); 1 = RSA-OAEP-SHA256
    8       2     payload algorithm id (u16); 1 = AES-256-GCM
    10      32    recipient key id: SHA-256 of the public key (DER, SPKI)
    42      4     wrapped-key length W (u32)
    46      W     wrapped symmetric key
    46+W    4     nonce length (u32), 12 for GCM
    ...     12    nonce
    ...     8     ciphertext length (u64)
    ...     C     ciphertext including the 16-byte GCM tag

The fixed 42-byte header, as read, is bound into the GCM tag as
associated data, so flipping any envelope byte fails authentication.

Upload transports are pluggable; the HTTP adapter speaks

    POST {base}/recordings            body: envelope bytes
                                      headers: X-Subject-Token, X-Entry-Id
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import os
import re
import reprlib
import struct
import sys
from dataclasses import dataclass, field, asdict
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Protocol, Sequence

import numpy as np
from cryptography.exceptions import InvalidTag, UnsupportedAlgorithm
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

logger = logging.getLogger(__name__)

CONTAINER_MAGIC = b"MYND"
CONTAINER_VERSION = 1
ENVELOPE_MAGIC = b"MYNE"
ENVELOPE_VERSION = 1
ALG_KEYWRAP_RSA_OAEP_SHA256 = 1
ALG_PAYLOAD_AES_256_GCM = 1
GCM_NONCE_BYTES = 12
GCM_TAG_BYTES = 16
DECRYPT_CHUNK = 256 * 1024  # ciphertext bytes read and decrypted per step
TMP_SUFFIX = ".tmp"  # an unfinished `write_file`: only a killed write leaves one

# Marker codes shared by the recording and decoding paths.
MARKER_TRIAL_START = 1
MARKER_TRIAL_END = 2
MARKER_BLOCK_START = 10
MARKER_BLOCK_END = 11

_FRAME = struct.Struct("<4sHI")
_ENVELOPE_STRUCT = struct.Struct("<4sHHH32s")
_SUBJECT_TOKEN = re.compile(r"[A-Za-z0-9_-]+")  # URL-safe text
_ENTRY_ID = re.compile(r"[0-9]{8,}-[0-9a-f]{12}")  # an upload queue's `<seq:08d>-<12 hex>`
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_OAEP = padding.OAEP(mgf=padding.MGF1(algorithm=hashes.SHA256()),
                     algorithm=hashes.SHA256(), label=None)


class DatastoreError(Exception):
    pass


class ContainerFormatError(DatastoreError):
    pass


class BadMagicError(ContainerFormatError):
    pass


class UnsupportedVersionError(ContainerFormatError):
    pass


class TruncatedPayloadError(ContainerFormatError):
    pass


class MarkerRangeError(ContainerFormatError):
    pass


class HeaderSchemaError(ContainerFormatError):
    """The header is valid JSON but lacks a field or has one of the wrong kind or value."""


class QueueManifestError(DatastoreError):
    """The upload queue's manifest is unreadable or lacks its fields."""


class KeyFormatError(DatastoreError):
    """A key file that is not a PEM RSA key of the expected kind."""


class DecryptionError(DatastoreError):
    """Authentication or unwrap failure; no plaintext is released."""


class TransportError(DatastoreError):
    pass


@dataclass(frozen=True)
class Marker:
    """Event annotation anchored to a frame index within the recording."""

    sample_index: int
    code: int
    label: str


@dataclass
class RecordingDataset:
    """One recording: interleaved samples plus annotations and metadata."""

    subject_id: str
    scenario_id: str
    day: int
    sample_rate: int
    channel_labels: tuple[str, ...]
    samples: np.ndarray  # (n_frames, n_channels) float32
    markers: list[Marker] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        data = np.asarray(self.samples, dtype=np.float32)
        if data.ndim != 2:
            raise ContainerFormatError("samples must be 2-D (frames x channels)")
        if data.shape[1] != len(self.channel_labels):
            raise ContainerFormatError(
                f"{data.shape[1]} sample columns but {len(self.channel_labels)} labels")
        self.samples = data
        self.channel_labels = tuple(self.channel_labels)
        self._check_markers()

    def _check_markers(self) -> None:
        n = self.samples.shape[0]
        last = -1
        for m in self.markers:
            if not 0 <= m.sample_index <= n:
                raise MarkerRangeError(
                    f"marker {m.label!r} at {m.sample_index} outside 0..{n}")
            if m.sample_index < last:
                raise MarkerRangeError("markers must be sorted by sample index")
            last = m.sample_index

    @property
    def n_frames(self) -> int:
        return int(self.samples.shape[0])

    @property
    def n_channels(self) -> int:
        return int(self.samples.shape[1])


def canonical_json(doc: object) -> bytes:
    """Sorted keys, compact separators, UTF-8: every frame header and sealed document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


# What reading a parsed document's fields raises for a missing key or a bad value
MALFORMED = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def parse_json(data: bytes, error: type[Exception], what: str) -> object:
    """Decode UTF-8 (never UTF-16/32) JSON; any malformation, too deep included, raises `error`.

    A string holding a lone surrogate (an unpaired \\ud800-\\udfff escape) is a
    malformation too: it could never be written back as UTF-8.
    """
    try:
        text = str(data, "utf-8")
        doc = json.loads(text)
        if _SURROGATE_ESCAPE.search(text):  # rare: only then look for an unpaired one
            json.dumps(doc, ensure_ascii=False).encode("utf-8")
        return doc
    except (ValueError, RecursionError) as exc:  # ValueError covers UnicodeDecodeError
        raise error(f"{what} is not UTF-8 JSON: {exc}") from exc


def read_json_file(path: str | Path, error: type[Exception], what: str) -> object:
    """`parse_json` over a file's bytes; an unreadable file raises `error` too."""
    try:
        return parse_json(Path(path).read_bytes(), error, what)
    except OSError as exc:
        raise error(f"cannot read {what}: {exc}") from exc


def _number(v: object) -> bool:  # an int or a float in the float range, so not NaN or a bool
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


# Each kind of field `read_field` reads: what it is called, and the test of a value
_KINDS = {
    "int": ("an integer", lambda v: type(v) is int),
    "whole": ("a whole number", lambda v: _number(v) and float(v).is_integer()),
    "number": ("a finite number", _number),
    "positive": ("a positive number", lambda v: _number(v) and v > 0),
    "sign": ("+1 or -1", lambda v: type(v) is int and v in (1, -1)),
    "str": ("a non-empty string", lambda v: isinstance(v, str) and v != ""),
    "strings": ("a non-empty list of strings", lambda v: isinstance(v, (list, tuple))
                and len(v) > 0 and all(isinstance(s, str) for s in v)),
    "list": ("a list", lambda v: isinstance(v, (list, tuple))),
    # a table's cells are read whole, at C speed: a recording's quality trace has a row
    # for every 128 samples
    "rows": ("a list of lists of numbers", lambda v: isinstance(v, list)
             and set(map(type, v)) <= {list}
             and set(map(type, chain.from_iterable(v))) <= {int, float}),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "entry id": ("a queue entry id", lambda v: isinstance(v, str) and _ENTRY_ID.fullmatch(v)),
    "token": ("URL-safe text", lambda v: isinstance(v, str) and _SUBJECT_TOKEN.fullmatch(v)),
    "queue kind": ("'recording' or 'questionnaire'", lambda v: v in ("recording", "questionnaire")),
    "queue state": ("'pending' or 'sent'", lambda v: v in (STATE_PENDING, STATE_SENT)),
}


def read_field(doc: dict, key: str, kind: str, error: type[Exception],
               lo: object = None, hi: object = None) -> object:
    """`doc[key]` if it is of `kind` (see `_KINDS`) and lies in lo..hi, else `error` with
    the one message form `field <key> must be <what>, got <value>`, the value's repr
    cut short (`reprlib`) if long.

    A missing key reads as None, and "whole" returns an int.  Either bound may be left
    open; lo == hi accepts that one value, of any kind.
    """
    what, test = _KINDS[kind]
    value = doc.get(key)
    if lo is not None and lo == hi:
        what += f" equal to {lo!r}"
    elif lo is not None or hi is not None:
        what += (f" >= {lo:g}" if hi is None else f" <= {hi:g}" if lo is None
                 else f" in {lo:g}..{hi:g}")
    if not (test(value) and (lo is None or lo <= value) and (hi is None or value <= hi)):
        raise error(f"field {key!r} must be {what}, got {reprlib.repr(value)}")
    return int(value) if kind == "whole" else value


def write_file(path: str | Path, data: bytes) -> None:
    """Write a sibling `<name>.tmp`, then replace `path` with it, so `path` holds its old
    bytes or the new ones, never part of a file.  Only a killed write leaves the tmp."""
    tmp = Path(f"{path}{TMP_SUFFIX}")
    try:
        tmp.write_bytes(data)
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json_file(path: str | Path, doc: object) -> None:
    """Sorted keys, two-space indent: manifests, studies, profiles, queues."""
    write_file(path, json.dumps(doc, indent=2, sort_keys=True).encode("utf-8"))


def write_csv_file(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """The csv module's default dialect (CRLF rows) in UTF-8; a float cell, numpy's too,
    is written as the `repr` of a Python float: its shortest round-trip text."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([float(c) if isinstance(c, np.floating) else c for c in row] for row in rows)
    write_file(path, text.getvalue().encode("utf-8"))


def pack_frame(magic: bytes, version: int, header: object, payload: bytes | np.ndarray) -> bytes:
    """magic, version u16, header length u32, canonical-JSON header, payload.

    The payload may be any C-contiguous bytes-like object, a numpy array too;
    it is copied once, into the frame.
    """
    head = canonical_json(header)
    return b"".join((_FRAME.pack(magic, version, len(head)), head, payload))


def _unpack_head(layout: struct.Struct, blob: bytes, magic: bytes, version: int) -> list:
    """The fields after magic and u16 version of a fixed head, once both are checked."""
    if len(blob) < layout.size:
        raise TruncatedPayloadError(f"{magic.decode()} blob shorter than its fixed header")
    found, found_version, *fields = layout.unpack_from(blob, 0)
    if found != magic:
        raise BadMagicError(f"bad magic {found!r}")
    if found_version != version:
        raise UnsupportedVersionError(f"unsupported {magic.decode()} version {found_version}")
    return fields


def unpack_frame(blob: bytes, magic: bytes, version: int) -> tuple[object, memoryview]:
    """The parsed header and the payload of a frame; errors are ContainerFormatErrors.

    The payload is a `memoryview` of `blob`, not a copy.
    """
    (header_len,) = _unpack_head(_FRAME, blob, magic, version)
    end = _FRAME.size + header_len
    if len(blob) < end:
        raise TruncatedPayloadError("header extends past end of blob")
    view = memoryview(blob)
    return parse_json(bytes(view[_FRAME.size:end]), ContainerFormatError, "header"), view[end:]


def write_dataset(dataset: RecordingDataset) -> bytes:
    """Serialize to the container format; canonical and deterministic."""
    header = {
        "subject_id": dataset.subject_id,
        "scenario_id": dataset.scenario_id,
        "day": dataset.day,
        "sample_rate": dataset.sample_rate,
        "channel_labels": list(dataset.channel_labels),
        "n_frames": dataset.n_frames,
        "markers": [[m.sample_index, m.code, m.label] for m in dataset.markers],
        "metadata": dataset.metadata,
    }
    return pack_frame(CONTAINER_MAGIC, CONTAINER_VERSION, header,
                      np.ascontiguousarray(dataset.samples, dtype="<f4"))


def read_dataset(blob: bytes) -> RecordingDataset:
    """Parse a container; every malformation maps to a distinct error.

    The samples are a view of `blob`, not a copy, and read-only unless `blob` is
    writable: copy them before writing.
    """
    header, payload = unpack_frame(blob, CONTAINER_MAGIC, CONTAINER_VERSION)
    if not isinstance(header, dict):
        raise HeaderSchemaError("header is not a JSON object")
    # a listed channel bounds n_frames by the payload
    labels = tuple(read_field(header, "channel_labels", "strings", HeaderSchemaError))
    n_frames = read_field(header, "n_frames", "int", HeaderSchemaError, 0)
    expected = n_frames * len(labels) * 4
    if len(payload) != expected:
        raise TruncatedPayloadError(
            f"expected {expected} payload bytes, got {len(payload)}")
    samples = np.frombuffer(payload, dtype="<f4").reshape(n_frames, len(labels))
    try:
        markers = [Marker(int(i), int(c), str(lbl))
                   for i, c, lbl in read_field(header, "markers", "list", HeaderSchemaError)]
    except (OverflowError, TypeError, ValueError) as exc:
        raise HeaderSchemaError(f"malformed marker table: {exc}") from exc
    return RecordingDataset(
        subject_id=read_field(header, "subject_id", "str", HeaderSchemaError),
        scenario_id=read_field(header, "scenario_id", "str", HeaderSchemaError),
        day=read_field(header, "day", "int", HeaderSchemaError, 1),  # days count from 1
        sample_rate=read_field(header, "sample_rate", "int", HeaderSchemaError, 1),  # it divides
        channel_labels=labels,
        samples=samples,
        markers=markers,
        metadata=read_field(header, "metadata", "object", HeaderSchemaError),
    )


# --- hybrid encryption -------------------------------------------------

def generate_keypair() -> tuple[rsa.RSAPrivateKey, rsa.RSAPublicKey]:
    private = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    return private, private.public_key()


def save_private_key(key: rsa.RSAPrivateKey, path: str | Path) -> None:
    write_file(path, key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    ))


def save_public_key(key: rsa.RSAPublicKey, path: str | Path) -> None:
    write_file(path, key.public_bytes(
        serialization.Encoding.PEM,
        serialization.PublicFormat.SubjectPublicKeyInfo,
    ))


def _load_rsa_key(path: str | Path, kind: str, load, rsa_type: type):
    try:
        key = load(Path(path).read_bytes())
    except (TypeError, UnsupportedAlgorithm, ValueError) as exc:
        raise KeyFormatError(f"{path} is not a PEM {kind} key: {exc}") from exc
    if not isinstance(key, rsa_type):
        raise KeyFormatError(f"{path} holds a {kind} key that is not RSA")
    return key


def load_private_key(path: str | Path) -> rsa.RSAPrivateKey:
    return _load_rsa_key(path, "private",
                         lambda blob: serialization.load_pem_private_key(blob, password=None),
                         rsa.RSAPrivateKey)


def load_public_key(path: str | Path) -> rsa.RSAPublicKey:
    return _load_rsa_key(path, "public", serialization.load_pem_public_key, rsa.RSAPublicKey)


def public_key_id(key: rsa.RSAPublicKey) -> bytes:
    return hashlib.sha256(key.public_bytes(
        serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo)).digest()


def encrypt_envelope(plaintext: bytes, public_key: rsa.RSAPublicKey) -> bytearray:
    """Seal bytes with a fresh symmetric key wrapped for the recipient; returns the
    envelope's bytes in the documented layout, its ciphertext encrypted in place, so
    the envelope is the one copy made beside the plaintext."""
    sym_key = AESGCM.generate_key(bit_length=256)
    nonce = os.urandom(GCM_NONCE_BYTES)
    head = _ENVELOPE_STRUCT.pack(ENVELOPE_MAGIC, ENVELOPE_VERSION, ALG_KEYWRAP_RSA_OAEP_SHA256,
                                 ALG_PAYLOAD_AES_256_GCM, public_key_id(public_key))
    wrapped = public_key.encrypt(sym_key, _OAEP)
    n_ciphertext = len(plaintext) + GCM_TAG_BYTES
    fields = b"".join((head, struct.pack("<I", len(wrapped)), wrapped,
                       struct.pack("<I", len(nonce)), nonce, struct.pack("<Q", n_ciphertext)))
    envelope = bytearray(len(fields) + n_ciphertext)
    envelope[:len(fields)] = fields
    encryptor = Cipher(algorithms.AES(sym_key), modes.GCM(nonce)).encryptor()
    # the fixed head doubles as GCM associated data, so no envelope byte is outside
    # the authentication boundary
    encryptor.authenticate_additional_data(head)
    ciphertext = memoryview(envelope)[len(fields):]
    encryptor.update_into(plaintext, ciphertext[:-GCM_TAG_BYTES])
    encryptor.finalize()
    ciphertext[-GCM_TAG_BYTES:] = encryptor.tag
    return envelope


def _view_reader(view: memoryview) -> Callable[[int], memoryview]:
    """`read(n)` over `view`: its next `n` bytes, as a view, not a copy."""
    pos = 0

    def read(n: int) -> memoryview:
        nonlocal pos
        pos += n
        return view[pos - n:pos]
    return read


def _unseal(read: Callable[[int], bytes], size: int,
            private_key: rsa.RSAPrivateKey) -> bytearray:
    """The one envelope path: parse the envelope of `size` bytes that `read(n)` gives,
    unwrap its key, and decrypt its ciphertext `DECRYPT_CHUNK` at a time into one
    plaintext buffer, with the head as read bound in as the associated data.

    Each declared length is checked against the bytes left before any is read, so a
    malformed one raises without allocating its size.  The buffer is returned only once
    the tag checks; on any failure it is dropped, so unauthenticated plaintext never
    escapes.
    """
    head = read(_ENVELOPE_STRUCT.size)
    key_wrap_alg, payload_alg, _ = _unpack_head(_ENVELOPE_STRUCT, head,
                                                ENVELOPE_MAGIC, ENVELOPE_VERSION)
    left = size - _ENVELOPE_STRUCT.size

    def take(n: int):
        nonlocal left
        if left < n:
            raise TruncatedPayloadError("envelope truncated")
        left -= n
        return read(n)

    # RSA decrypt takes only bytes, and the wrapped key is small
    wrapped_key = bytes(take(struct.unpack("<I", take(4))[0]))
    nonce = take(struct.unpack("<I", take(4))[0])
    (n_ciphertext,) = struct.unpack("<Q", take(8))
    if left < n_ciphertext:
        raise TruncatedPayloadError("envelope truncated")
    if left != n_ciphertext:
        raise ContainerFormatError("trailing bytes after envelope")
    if key_wrap_alg != ALG_KEYWRAP_RSA_OAEP_SHA256:
        raise DecryptionError(f"unknown key-wrap algorithm {key_wrap_alg}")
    if payload_alg != ALG_PAYLOAD_AES_256_GCM:
        raise DecryptionError(f"unknown payload algorithm {payload_alg}")
    try:
        sym_key = private_key.decrypt(wrapped_key, _OAEP)
        decryptor = Cipher(algorithms.AES(sym_key), modes.GCM(nonce)).decryptor()
    except ValueError as exc:
        raise DecryptionError("envelope failed authentication") from exc
    if n_ciphertext < GCM_TAG_BYTES:
        raise DecryptionError("envelope failed authentication: ciphertext shorter than its tag")
    decryptor.authenticate_additional_data(head)
    plaintext = bytearray(n_ciphertext - GCM_TAG_BYTES)
    try:
        for start in range(0, len(plaintext), DECRYPT_CHUNK):
            end = min(start + DECRYPT_CHUNK, len(plaintext))
            decryptor.update_into(read(end - start), memoryview(plaintext)[start:end])
        decryptor.finalize_with_tag(bytes(read(GCM_TAG_BYTES)))
    except BaseException as exc:
        del plaintext  # whatever failed, the unauthenticated plaintext goes with it
        if isinstance(exc, (ValueError, InvalidTag)):
            raise DecryptionError("envelope failed authentication") from exc
        raise
    return plaintext


def open_envelope(source: BinaryIO, private_key: rsa.RSAPrivateKey) -> memoryview:
    """Decrypt the envelope that the binary file `source` holds from its position to its
    end, reading it a chunk at a time; any malformation, tampering or key mismatch raises.

    The plaintext is a read-only view of the one buffer it is decrypted into: the
    envelope is never held whole.
    """
    start = source.tell()
    size = source.seek(0, io.SEEK_END) - start
    source.seek(start)
    return memoryview(_unseal(source.read, size, private_key)).toreadonly()


def decrypt_envelope(envelope: bytes, private_key: rsa.RSAPrivateKey) -> bytearray:
    """Decrypt an envelope from any bytes-like blob, read in place; any malformation,
    tampering or key mismatch raises.  The plaintext is a bytearray, which `json.loads`
    takes as well."""
    view = memoryview(envelope).cast("B")
    return _unseal(_view_reader(view), len(view), private_key)


def check_subject_token(token: str) -> str:
    """The token itself, if it is URL-safe text; the directory transport files by it."""
    if not _SUBJECT_TOKEN.fullmatch(token):
        raise TransportError(f"subject token {token!r} is not URL-safe text")
    return token


# --- upload queue ------------------------------------------------------

STATE_PENDING = "pending"
STATE_SENT = "sent"


@dataclass
class QueueEntry:
    entry_id: str
    filename: str
    kind: str
    subject_id: str
    created_seq: int
    attempts: int = 0
    state: str = STATE_PENDING


@dataclass(frozen=True)
class UploadResult:
    entry_id: str
    ok: bool
    error: str = ""


class Transport(Protocol):
    def send_recording(self, envelope: bytes, subject_token: str, entry_id: str) -> None: ...


class UploadQueue:
    """Durable oldest-first queue of envelopes awaiting upload.

    Entries live as envelope files next to a JSON manifest; an entry is
    marked sent only after the transport acknowledged it, so a crash or
    an offline stretch only ever delays an upload.  A sent entry stays in
    the manifest, but its envelope file is deleted once the manifest says
    sent; opening the queue deletes any that a crash left behind, and any
    `.envelope.tmp` of a killed enqueue, which no entry names.
    """

    MANIFEST = "queue.json"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._manifest = self.root / self.MANIFEST
        self._entries: list[QueueEntry] = []
        self._next_seq = 0
        self._load()

    def _load(self) -> None:
        for tmp in self.root.glob(f"*.envelope{TMP_SUFFIX}"):
            tmp.unlink(missing_ok=True)
        path = self._manifest
        if not path.exists():
            return
        raw = read_json_file(path, QueueManifestError, f"queue manifest {path}")
        try:
            doc = read_field({"manifest": raw}, "manifest", "object", QueueManifestError)
            self._next_seq = read_field(doc, "next_seq", "int", QueueManifestError, 0)
            self._entries = [_queue_entry(read_field({"entry": e}, "entry", "object",
                                                     QueueManifestError))
                             for e in read_field(doc, "entries", "list", QueueManifestError)]
        except QueueManifestError as exc:
            raise QueueManifestError(f"corrupt queue manifest {path}: {exc}") from None
        for entry in self.sent():
            self._discard_envelope(entry)

    def _save(self) -> None:
        write_json_file(self._manifest, {"next_seq": self._next_seq,
                                         "entries": [asdict(e) for e in self._entries]})

    def enqueue(self, envelope: bytes, subject_id: str, kind: str = "recording") -> QueueEntry:
        seq = self._next_seq
        self._next_seq += 1
        entry_id = f"{seq:08d}-{hashlib.sha256(envelope).hexdigest()[:12]}"
        filename = f"{entry_id}.envelope"
        write_file(self.root / filename, envelope)
        entry = QueueEntry(entry_id=entry_id, filename=filename, kind=kind,
                           subject_id=subject_id, created_seq=seq)
        self._entries.append(entry)
        self._save()
        return entry

    def pending(self) -> list[QueueEntry]:
        return sorted((e for e in self._entries if e.state == STATE_PENDING),
                      key=lambda e: e.created_seq)

    def sent(self) -> list[QueueEntry]:
        return [e for e in self._entries if e.state == STATE_SENT]

    def envelope_bytes(self, entry: QueueEntry) -> bytes:
        return (self.root / entry.filename).read_bytes()

    def mark_sent(self, entry: QueueEntry) -> None:
        """Record an acknowledged upload, then delete its envelope file.

        The manifest is saved first, so a crash in between leaves a sent
        entry whose file the next open deletes, never a lost pending one.
        """
        entry.state = STATE_SENT
        self._save()
        self._discard_envelope(entry)

    def _discard_envelope(self, entry: QueueEntry) -> None:
        (self.root / entry.filename).unlink(missing_ok=True)


def _queue_entry(doc: dict) -> QueueEntry:
    """A manifest entry as the queue writes it, so its file lies in the queue's directory."""
    filename = f"{read_field(doc, 'entry_id', 'entry id', QueueManifestError)}.envelope"
    fields = (("entry_id", "entry id", None, None), ("filename", "str", filename, filename),
              ("kind", "queue kind", None, None), ("subject_id", "token", None, None),
              ("created_seq", "int", 0, None), ("attempts", "int", 0, None),
              ("state", "queue state", None, None))
    return QueueEntry(**{key: read_field(doc, key, kind, QueueManifestError, lo, hi)
                         for key, kind, lo, hi in fields})


def flush_uploads(queue: UploadQueue, transport: Transport) -> list[UploadResult]:
    """Push pending entries oldest-first; failures stay queued."""
    results: list[UploadResult] = []
    for entry in queue.pending():
        blob = queue.envelope_bytes(entry)
        try:
            transport.send_recording(blob, entry.subject_id, entry.entry_id)
        except TransportError as exc:
            entry.attempts += 1
            results.append(UploadResult(entry.entry_id, False, str(exc)))
            logger.warning("upload of %s failed (attempt %d): %s",
                           entry.entry_id, entry.attempts, exc)
            queue._save()
        else:
            # saved per entry, so a crash never re-sends an acknowledged upload
            queue.mark_sent(entry)
            results.append(UploadResult(entry.entry_id, True))
    return results


class DirectoryTransport:
    """Store-and-forward into a local directory; useful offline and in tests."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def send_recording(self, envelope: bytes, subject_token: str, entry_id: str) -> None:
        target = self.root / "recordings" / check_subject_token(subject_token)
        try:
            target.mkdir(parents=True, exist_ok=True)
            write_file(target / f"{entry_id}.envelope", envelope)
        except OSError as exc:
            raise TransportError(f"directory transport failed: {exc}") from exc


class HttpTransport:
    """Adapter for the documented study-server HTTP endpoints."""

    def __init__(self, base_url: str, timeout_s: float = 10.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s

    def send_recording(self, envelope: bytes, subject_token: str, entry_id: str) -> None:
        import http.client  # these two only this transport needs, and they are slow to import
        import urllib.request

        class RefuseRedirect(urllib.request.HTTPRedirectHandler):
            # urllib would follow a 301/302/303 with a bodiless GET, whose 200 is no
            # proof the envelope was stored; unfollowed, the 3xx raises HTTPError
            def redirect_request(self, *args, **kwargs):
                return None

        try:
            request = urllib.request.Request(  # a request with a body is a POST
                f"{self.base_url}/recordings", data=envelope,
                headers={"X-Subject-Token": subject_token, "X-Entry-Id": entry_id,
                         "Content-Type": "application/octet-stream"})
            opener = urllib.request.build_opener(RefuseRedirect)
            with opener.open(request, timeout=self.timeout_s) as resp:
                if resp.status != 200:  # a TransportError, so not caught below
                    raise TransportError(f"POST /recordings returned {resp.status}")
        # a URL that does not parse raises ValueError; HTTPError (a redirect or a reply
        # of 400 or more), the URLError it extends and a timeout are OSErrors
        except (ValueError, OSError, http.client.HTTPException) as exc:
            raise TransportError(f"POST /recordings failed: {exc}") from exc

# --- high-level write paths --------------------------------------------

def store_recording(dataset: RecordingDataset, public_key: rsa.RSAPublicKey,
                    queue: UploadQueue) -> QueueEntry:
    """Serialize, seal, and enqueue a recording without writing plaintext."""
    return queue.enqueue(encrypt_envelope(write_dataset(dataset), public_key),
                         dataset.subject_id, kind="recording")


def store_questionnaire(result: dict, subject_id: str, public_key: rsa.RSAPublicKey,
                        queue: UploadQueue) -> QueueEntry:
    """Seal and enqueue a questionnaire result document."""
    return queue.enqueue(encrypt_envelope(canonical_json(result), public_key),
                         subject_id, kind="questionnaire")
