"""Crash-safe file output and the one artifact codec.

Every artifact writer in the repo (stats/trace/bench JSON, checkpoints,
sweep journals) goes through the same protocol: write to a temporary
file in the destination directory, fsync it, then atomically rename it
over the destination. A crash — power loss, SIGKILL, OOM — therefore
leaves either the previous complete artifact or the new complete
artifact on disk, never a truncated one for CI (or a resume) to choke
on.

Every stored Python object (checkpoints, prepare-cache entries, trace
files, sweep-journal stats, worker payloads) is encoded by :func:`pack`
and decoded by :func:`unpack`. The envelope is::

    8 bytes   magic  b"MSIMARTF"
    4 bytes   ARTIFACT_FORMAT (little-endian)
    32 bytes  code fingerprint of the writing simulator
    32 bytes  SHA-256 of the payload
    8 bytes   payload length (little-endian)
    N bytes   payload: zlib-compressed pickle

The code fingerprint (:func:`code_fingerprint`) covers every source file
of the ``repro`` package, so an artifact written by different simulator
code never decodes: it is refused with an :class:`ArtifactError` instead
of being replayed. ``ARTIFACT_FORMAT`` is the only hand-bumped
persistence constant; it changes only when the envelope itself does.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import tempfile
import zlib
from typing import Callable, Optional, Union

__all__ = [
    "ARTIFACT_FORMAT", "ArtifactError", "atomic_write_bytes",
    "atomic_write_json", "atomic_write_text", "canonical_digest",
    "code_fingerprint", "pack", "payload_digest", "unpack",
]

#: bump when the envelope layout changes incompatibly
ARTIFACT_FORMAT = 1

_MAGIC = b"MSIMARTF"
_HEADER = struct.Struct("<8sI32s32sQ")

#: this process's code fingerprint, computed on first use
_FINGERPRINT: Optional[bytes] = None


class ArtifactError(ValueError):
    """A stored artifact cannot be decoded; the message names the cause."""


def code_fingerprint() -> bytes:
    """SHA-256 over the relative path and bytes of every ``.py`` file in
    the ``repro`` package (computed once per process)."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        root = os.path.dirname(os.path.abspath(__file__))
        sources = []
        for directory, _, names in os.walk(root):
            sources.extend(os.path.join(directory, name)
                           for name in names if name.endswith(".py"))
        hasher = hashlib.sha256()
        for path in sorted(sources):
            relative = os.path.relpath(path, root).replace(os.sep, "/")
            with open(path, "rb") as handle:
                data = handle.read()
            hasher.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
            hasher.update(data)
        _FINGERPRINT = hasher.digest()
    return _FINGERPRINT


def pack(obj, level: int = 6) -> bytes:
    """Encode ``obj`` in the artifact envelope (see the module doc).
    Raises :class:`ArtifactError` when ``obj`` does not pickle."""
    try:
        payload = zlib.compress(pickle.dumps(obj, protocol=4), level)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise ArtifactError(f"object does not serialize: {exc}") from exc
    return _HEADER.pack(_MAGIC, ARTIFACT_FORMAT, code_fingerprint(),
                        hashlib.sha256(payload).digest(),
                        len(payload)) + payload


def unpack(blob: bytes):
    """Decode an envelope written by :func:`pack`, refusing foreign,
    other-format, other-code, truncated and corrupt blobs."""
    if blob[:len(_MAGIC)] != _MAGIC:
        raise ArtifactError(f"not a MosaicSim artifact (bad magic "
                            f"{bytes(blob[:len(_MAGIC)])!r})")
    if len(blob) < _HEADER.size:
        raise ArtifactError(
            f"truncated: {len(blob)} bytes is smaller than the "
            f"{_HEADER.size}-byte header")
    _, version, fingerprint, digest, length = _HEADER.unpack_from(blob)
    if version != ARTIFACT_FORMAT:
        raise ArtifactError(
            f"artifact format {version}, but this build reads format "
            f"{ARTIFACT_FORMAT}")
    if fingerprint != code_fingerprint():
        raise ArtifactError(
            f"written by different simulator code (fingerprint "
            f"{fingerprint.hex()[:16]}, this build "
            f"{code_fingerprint().hex()[:16]})")
    payload = memoryview(blob)[_HEADER.size:]
    if len(payload) != length:
        raise ArtifactError(
            f"truncated: header promises {length} payload bytes, found "
            f"{len(payload)}")
    if hashlib.sha256(payload).digest() != digest:
        raise ArtifactError("corrupt: payload digest mismatch")
    try:
        return pickle.loads(zlib.decompress(payload))
    except Exception as exc:  # zlib.error, UnpicklingError, ImportError...
        raise ArtifactError(f"payload does not decode: {exc}") from exc


def payload_digest(blob: bytes) -> str:
    """Hex SHA-256 of a packed blob's payload, read from its header."""
    return _HEADER.unpack_from(blob)[3].hex()


def canonical_digest(document, default: Optional[Callable] = None) -> str:
    """Hex SHA-256 over ``document`` as sorted-key JSON."""
    canonical = json.dumps(document, sort_keys=True, default=default)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp + fsync + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str, document: Union[dict, list], *,
                      indent=None, sort_keys: bool = False,
                      separators=None, trailing_newline: bool = True
                      ) -> None:
    """Serialize ``document`` and write it atomically."""
    text = json.dumps(document, indent=indent, sort_keys=sort_keys,
                      separators=separators)
    if trailing_newline:
        text += "\n"
    atomic_write_text(path, text)
