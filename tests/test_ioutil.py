"""The artifact codec: one fingerprinted envelope for every stored object.

Every cause :func:`repro.ioutil.unpack` refuses a blob for must raise an
:class:`ArtifactError` whose message names it, and the canonical-JSON
digest the run registry, heartbeat stream, sweep journal and campaign
golden reference share must stay byte-identical to the formulas those
modules used before they were folded onto it.
"""

import hashlib
import json
import zlib

import pytest

from repro import ioutil
from repro.ioutil import (
    ARTIFACT_FORMAT, ArtifactError, canonical_digest, code_fingerprint,
    pack, payload_digest, unpack,
)
from repro.registry import config_digest
from repro.telemetry import heartbeat_digest, heartbeat_key

DOCUMENT = {"cycles": 123, "levels": [{"name": "L1", "hits": 7}],
            "ipc": 0.5}


def _reheader(blob: bytes, field: int, value) -> bytes:
    header = list(ioutil._HEADER.unpack_from(blob))
    header[field] = value
    return ioutil._HEADER.pack(*header) + blob[ioutil._HEADER.size:]


class TestEnvelope:
    def test_round_trip(self):
        blob = pack(DOCUMENT)
        assert unpack(blob) == DOCUMENT
        assert payload_digest(blob) == hashlib.sha256(
            blob[ioutil._HEADER.size:]).hexdigest()

    def test_header_carries_format_and_fingerprint(self):
        magic, version, fingerprint, _, length = \
            ioutil._HEADER.unpack_from(pack(DOCUMENT, level=1))
        assert magic == ioutil._MAGIC
        assert version == ARTIFACT_FORMAT
        assert fingerprint == code_fingerprint()
        assert length > 0

    def test_bad_magic(self):
        with pytest.raises(ArtifactError, match="bad magic"):
            unpack(b"PK\x03\x04" + b"\x00" * 200)

    def test_other_format(self):
        blob = _reheader(pack(DOCUMENT), 1, ARTIFACT_FORMAT + 1)
        with pytest.raises(ArtifactError, match="artifact format"):
            unpack(blob)

    def test_other_code(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(ioutil, "_FINGERPRINT", b"\x01" * 32)
            blob = pack(DOCUMENT)
        with pytest.raises(ArtifactError,
                           match="written by different simulator code"):
            unpack(blob)

    def test_truncated_header(self):
        with pytest.raises(ArtifactError, match="truncated"):
            unpack(pack(DOCUMENT)[:20])

    def test_truncated_payload(self):
        with pytest.raises(ArtifactError, match="truncated"):
            unpack(pack(DOCUMENT)[:-3])

    def test_corrupt_payload(self):
        blob = bytearray(pack(DOCUMENT))
        blob[-2] ^= 0xFF
        with pytest.raises(ArtifactError, match="corrupt"):
            unpack(bytes(blob))

    def test_payload_does_not_decode(self):
        payload = zlib.compress(b"not a pickle")
        blob = ioutil._HEADER.pack(
            ioutil._MAGIC, ARTIFACT_FORMAT, code_fingerprint(),
            hashlib.sha256(payload).digest(), len(payload)) + payload
        with pytest.raises(ArtifactError, match="payload does not decode"):
            unpack(blob)

    def test_unpicklable_object(self):
        with pytest.raises(ArtifactError, match="does not serialize"):
            pack(lambda: None)

    def test_artifact_error_is_a_value_error(self):
        assert issubclass(ArtifactError, ValueError)


class TestFingerprint:
    def test_computed_once_per_process(self):
        assert code_fingerprint() is code_fingerprint()
        assert len(code_fingerprint()) == 32

    def test_recomputation_is_deterministic(self, monkeypatch):
        first = code_fingerprint()
        monkeypatch.setattr(ioutil, "_FINGERPRINT", None)
        assert code_fingerprint() == first


class TestCanonicalDigest:
    """Byte identity with the formulas each caller used before."""

    def test_plain_document(self):
        legacy = hashlib.sha256(json.dumps(
            DOCUMENT, sort_keys=True).encode("utf-8")).hexdigest()
        assert canonical_digest(DOCUMENT) == legacy

    def test_config_digest(self):
        document = {"core": object(), "b": [2, 3], "a": 1}
        legacy = hashlib.sha256(json.dumps(
            document, sort_keys=True, default=repr).encode(
                "utf-8")).hexdigest()[:16]
        assert config_digest(document) == legacy

    def test_heartbeat_digest(self):
        beats = [{"seq": 0, "cycle": 10, "wall": {"s": 1.5}},
                 {"seq": 1, "cycle": 20, "wall": {"s": 2.5}}]
        legacy = hashlib.sha256(json.dumps(
            [heartbeat_key(h) for h in beats],
            sort_keys=True).encode("utf-8")).hexdigest()
        assert heartbeat_digest(beats) == legacy

    def test_combined_segment_digest(self):
        digests = {"B@0x2000": "bb" * 32, "A@0x1000": "aa" * 32}
        legacy = hashlib.sha256(json.dumps(
            sorted(digests.items())).encode("utf-8")).hexdigest()
        assert canonical_digest(sorted(digests.items())) == legacy
