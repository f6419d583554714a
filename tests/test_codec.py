"""The shared file codec: one frame for MYND and MYNP, one JSON reader for every input."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from mindkit import datastore, decoder, session, simkit
from mindkit.cli import main

# Far deeper than the JSON parser's recursion limit.
DEEP = b"[" * 200_000 + b"]" * 200_000


def frame(magic: bytes, header: bytes, payload: bytes = b"") -> bytes:
    return struct.pack("<4sHI", magic, 1, len(header)) + header + payload


# --- frame ----------------------------------------------------------------------

def test_frame_round_trip_is_canonical():
    blob = datastore.pack_frame(b"TEST", 3, {"b": [1, 2], "a": "é"}, b"\x00\x01")
    header = '{"a":"é","b":[1,2]}'.encode("utf-8")
    assert blob == struct.pack("<4sHI", b"TEST", 3, len(header)) + header + b"\x00\x01"
    assert datastore.unpack_frame(blob, b"TEST", 3) == ({"a": "é", "b": [1, 2]}, b"\x00\x01")


@pytest.mark.parametrize("payload", [
    np.arange(12, dtype="<f4").reshape(3, 4),
    np.linspace(-1.0, 1.0, 7, dtype="<f8"),
    np.zeros((0, 4), dtype="<f4"),
], ids=["f4-2d", "f8-1d", "empty"])
def test_frame_of_an_array_equals_the_frame_of_its_bytes(payload):
    header = {"shape": list(payload.shape)}
    assert datastore.pack_frame(b"TEST", 1, header, payload) == \
        datastore.pack_frame(b"TEST", 1, header, payload.tobytes())


@pytest.mark.parametrize("blob, error", [
    (b"TES", datastore.TruncatedPayloadError),
    (frame(b"XXXX", b"{}"), datastore.BadMagicError),
    (struct.pack("<4sHI", b"TEST", 2, 2) + b"{}", datastore.UnsupportedVersionError),
    (struct.pack("<4sHI", b"TEST", 1, 3) + b"{}", datastore.TruncatedPayloadError),
    (frame(b"TEST", b"{x}"), datastore.ContainerFormatError),
], ids=["short", "magic", "version", "header-past-end", "header-not-json"])
def test_unpack_frame_errors(blob, error):
    with pytest.raises(error):
        datastore.unpack_frame(blob, b"TEST", 1)


def test_mynp_uses_the_mynd_frame():
    prior = decoder.GaussianPrior.uninformative(2)
    blob = decoder.write_prior(prior)
    header, payload = datastore.unpack_frame(blob, decoder.PRIOR_MAGIC, decoder.PRIOR_VERSION)
    assert header["dim"] == 2
    assert payload == np.concatenate([prior.mean, prior.cov.ravel()]).astype("<f8").tobytes()


# --- JSON reader ------------------------------------------------------------------

@pytest.mark.parametrize("encoding", ["utf-16", "utf-32"])
def test_parse_json_accepts_only_utf8(encoding):
    data = json.dumps({"a": 1}).encode(encoding)
    assert json.loads(data) == {"a": 1}  # what parse_json must not inherit
    with pytest.raises(session.StudyFormatError):
        datastore.parse_json(data, session.StudyFormatError, "study")


def test_read_json_file_maps_os_errors(tmp_path):
    with pytest.raises(simkit.SimulatorError, match="cannot read profile"):
        datastore.read_json_file(tmp_path / "missing.json", simkit.SimulatorError, "profile")
    with pytest.raises(simkit.SimulatorError):
        datastore.read_json_file(tmp_path, simkit.SimulatorError, "profile")


def _file(tmp_path, name: str):
    path = tmp_path / name
    path.write_bytes(DEEP)
    return path


READERS = {
    "read_dataset": (lambda tmp: datastore.read_dataset(frame(b"MYND", DEEP)),
                     datastore.ContainerFormatError),
    "read_prior": (lambda tmp: decoder.read_prior(frame(b"MYNP", DEEP)),
                   decoder.DecoderError),
    "load_study": (lambda tmp: session.load_study(_file(tmp, "study.json")),
                   session.StudyFormatError),
    "load_profile": (lambda tmp: simkit.load_profile(_file(tmp, "profile.json")),
                     simkit.SimulatorError),
    "UploadQueue": (lambda tmp: datastore.UploadQueue(
        _file(tmp, datastore.UploadQueue.MANIFEST).parent), datastore.QueueManifestError),
}


@pytest.mark.parametrize("reader", READERS)
def test_deeply_nested_json_raises_the_module_error(tmp_path, reader):
    read, error = READERS[reader]
    with pytest.raises(error):
        read(tmp_path)


def _assert_cli_error(capsys, argv):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("name, content", [
    ("deep.json", DEEP), ("deep.mynd", frame(b"MYND", DEEP)),
], ids=["document", "container"])
def test_decode_deeply_nested_file_errors_without_traceback(tmp_path, capsys, name, content):
    recordings = tmp_path / "recordings"
    recordings.mkdir()
    (recordings / name).write_bytes(content)
    _assert_cli_error(capsys, ["decode", "--recordings", str(recordings),
                               "--out", str(tmp_path / "out")])


def test_simulate_deeply_nested_study_errors_without_traceback(tmp_path, capsys):
    _assert_cli_error(capsys, ["simulate-session", "--day", "1",
                               "--study", str(_file(tmp_path, "study.json")),
                               "--out", str(tmp_path / "out")])
