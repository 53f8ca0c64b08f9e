"""Content-addressed on-disk cache for prepare() artifacts.

The prepare phase — compile the kernel, build the static DDG, run the
Dynamic Trace Generator over the workload's memory — is a pure function
of the kernel IR and its inputs, yet it used to be recomputed on every
``simulate``/``inject``/``analyze``/``memstat`` invocation and every
sweep. This module makes it compile-once, simulate-many: prepared
artifacts are stored on disk under a content-addressed key and replayed
on the next run with identical inputs.

Key derivation
--------------
A key is the SHA-256 over:

* the code fingerprint (:func:`repro.ioutil.code_fingerprint`) — any
  change to the simulator's source invalidates every old entry at once;
* the compiled kernel's formatted IR (``format_function``) — covers
  source text, compiler pipeline and SSA naming in one artifact;
* the bound argument spec (scalars by repr, arrays by segment identity);
* the full initial memory image (segment layout + data bytes), hashed
  *before* functional interpretation mutates it; and
* ``num_tiles``.

Fault injectors corrupt functional loads and advance RNG/log state
during trace generation, so a prepare with an injector attached always
bypasses the cache (both lookup and store).

Entry format and integrity
--------------------------
An entry stores data, not code: ``(key, (traces, [(segment_identity,
data)]))`` — the per-tile traces and the post-interpretation memory
segments — in the artifact envelope of :mod:`repro.ioutil` (code
fingerprint, payload SHA-256). A hit keeps the live compiled function,
rebuilds the DDG from it and overlays the segments onto the live
memory. ``<key>.prep`` sits next to a ``<key>.json`` sidecar of
human-readable metadata. Both are written atomically, so concurrent
writers racing on one key are safe: last rename wins and every reader
sees a complete entry. Corrupt, truncated, foreign-code or mismatched
entries are discarded with a STATUS warning and the caller falls back
to a fresh compile — a broken cache can cost time, never correctness.

GC policy
---------
The cache is size-capped (default 512 MiB). After every store, and on
``repro cache gc``, least-recently-used entries (hit = mtime bump) are
removed oldest-first until the cap holds.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..ioutil import (
    ARTIFACT_FORMAT, ArtifactError, atomic_write_bytes, atomic_write_json,
    code_fingerprint, pack, payload_digest, unpack,
)
from ..ir import format_function
from ..ir.function import Function
from ..trace.memory import ArrayRef, SimMemory
from .status import STATUS

#: default size cap for the on-disk cache
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

_ENTRY_SUFFIX = ".prep"
_META_SUFFIX = ".json"


def default_cache_root() -> str:
    """``REPRO_PREP_CACHE_DIR`` when set, else ``~/.cache/repro/prepcache``."""
    env = os.environ.get("REPRO_PREP_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "prepcache")


def _segment_identity(segment: ArrayRef) -> tuple:
    return (segment.name, segment.base, str(segment.element_type),
            len(segment.data))


def overlay_segments(memory: SimMemory, segments: Sequence) -> bool:
    """Copy cached ``(segment_identity, data)`` pairs into the live
    SimMemory, so a cache hit leaves the caller's memory exactly as a
    fresh functional run would — ``workload.verify()`` reads it. False,
    with nothing copied, when the layouts disagree."""
    targets = {_segment_identity(segment): segment
               for segment in memory.segments}
    if len(targets) != len(segments) or any(
            identity not in targets for identity, _ in segments):
        return False
    for identity, data in segments:
        targets[identity].data[:] = data
    return True


def prepare_key(func: Function, args: Sequence, num_tiles: int,
                memory: SimMemory) -> Optional[str]:
    """Content address of one prepare() invocation, or None when the
    inputs defeat content addressing (an argument array backed by a
    different SimMemory than the one being interpreted).

    Must be computed over the *initial* memory image — functional
    interpretation mutates ``memory`` in place.
    """
    hasher = hashlib.sha256(code_fingerprint())
    hasher.update(repr(("prepcache", num_tiles)).encode("utf-8"))
    hasher.update(format_function(func).encode("utf-8"))
    for arg in args:
        if isinstance(arg, ArrayRef):
            if arg.memory is not memory:
                return None
            hasher.update(repr(("ref",) + _segment_identity(arg))
                          .encode("utf-8"))
        else:
            hasher.update(repr(("scalar", repr(arg))).encode("utf-8"))
    for segment in memory.segments:
        hasher.update(repr(("segment",) + _segment_identity(segment))
                      .encode("utf-8"))
        hasher.update(hashlib.sha256(segment.data.tobytes()).digest())
    return hasher.hexdigest()


class PrepareCache:
    """Content-addressed store of prepare() data: the traces and the
    post-interpretation memory segments of a
    :class:`~repro.harness.runner.Prepared`. Every failure mode —
    unreadable, foreign-code or corrupt entry, disk-full store —
    degrades to a miss with a STATUS warning; the cache never raises
    into a run.
    """

    def __init__(self, root: Optional[str] = None,
                 max_bytes: int = DEFAULT_MAX_BYTES):
        self.root = root or default_cache_root()
        self.max_bytes = max_bytes
        # session counters (per-instance, advisory)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.bypasses = 0

    # -- paths -------------------------------------------------------------
    def _entry_path(self, key: str) -> str:
        return os.path.join(self.root, key + _ENTRY_SUFFIX)

    def _meta_path(self, key: str) -> str:
        return os.path.join(self.root, key + _META_SUFFIX)

    # -- load / store ------------------------------------------------------
    def _read_entry(self, key: str):
        """(data, payload digest, problem) for ``key``; all None on a
        plain miss."""
        try:
            with open(self._entry_path(key), "rb") as handle:
                blob = handle.read()
            entry = unpack(blob)
        except FileNotFoundError:
            return None, None, None
        except (OSError, ArtifactError) as exc:
            return None, None, f"unreadable entry ({exc})"
        if not isinstance(entry, tuple) or len(entry) != 2 \
                or entry[0] != key:
            return None, None, "entry key does not match its file name"
        return entry[1], payload_digest(blob), None

    def _remove(self, key: str) -> None:
        for path in (self._entry_path(key), self._meta_path(key)):
            try:
                os.unlink(path)
            except OSError:
                pass

    def _discard(self, key: str, problem: str) -> None:
        STATUS.warn(f"prepare cache: discarding {key[:12]}: {problem}; "
                    f"falling back to a fresh compile")
        self._remove(key)

    def load(self, key: str) -> Optional[Tuple[tuple, str]]:
        """``((traces, segments), payload_digest)`` for ``key``; None on
        miss. ``segments`` is a list of ``(segment_identity, data)``.

        A hit bumps the entry's mtime — the LRU recency signal GC
        evicts by."""
        data, digest, problem = self._read_entry(key)
        if data is None:
            self.misses += 1
            if problem:
                self._discard(key, problem)
            return None
        self.hits += 1
        try:
            now = time.time()
            os.utime(self._entry_path(key), (now, now))
        except OSError:
            pass
        return data, digest

    def store(self, key: str, prepared, meta: Optional[Dict] = None
              ) -> Optional[str]:
        """Write the traces and memory segments of ``prepared`` under
        ``key``; returns the payload digest, or None when the store
        failed (never raises)."""
        try:
            blob = pack((key, (prepared.traces, [
                (_segment_identity(segment), segment.data)
                for segment in prepared.memory.segments])))
        except Exception as exc:
            STATUS.warn(f"prepare cache: cannot serialize artifact for "
                        f"{key[:12]} ({exc}); not cached")
            return None
        digest = payload_digest(blob)
        sidecar = {
            "key": key,
            "payload_bytes": len(blob),
            "payload_digest": digest,
            "created_unix": time.time(),
        }
        sidecar.update(meta or {})
        try:
            os.makedirs(self.root, exist_ok=True)
            atomic_write_bytes(self._entry_path(key), blob)
            atomic_write_json(self._meta_path(key), sidecar, indent=2)
        except OSError as exc:
            STATUS.warn(f"prepare cache: store failed for {key[:12]} "
                        f"({exc}); continuing uncached")
            return None
        self.stores += 1
        self.gc()
        return digest

    # -- inspection / maintenance ------------------------------------------
    def entries(self) -> List[Dict]:
        """Metadata for every entry, least recently used first."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        table = []
        for name in sorted(names):
            if not name.endswith(_ENTRY_SUFFIX):
                continue
            key = name[:-len(_ENTRY_SUFFIX)]
            record: Dict = {"key": key}
            try:
                stat = os.stat(self._entry_path(key))
            except OSError:
                continue
            record["disk_bytes"] = stat.st_size
            record["mtime"] = stat.st_mtime
            try:
                with open(self._meta_path(key), "r",
                          encoding="utf-8") as handle:
                    sidecar = json.load(handle)
                if isinstance(sidecar, dict):
                    for field in ("kernel", "num_tiles", "traces",
                                  "payload_bytes", "payload_digest",
                                  "created_unix"):
                        if field in sidecar:
                            record[field] = sidecar[field]
                record["disk_bytes"] += os.stat(
                    self._meta_path(key)).st_size
            except (OSError, ValueError):
                pass  # sidecar is advisory; the entry is authoritative
            table.append(record)
        table.sort(key=lambda r: r["mtime"])
        return table

    def stats(self) -> Dict:
        entries = self.entries()
        return {
            "root": self.root,
            "artifact": ARTIFACT_FORMAT,
            "entries": len(entries),
            "total_bytes": sum(e["disk_bytes"] for e in entries),
            "max_bytes": self.max_bytes,
            "session": {"hits": self.hits, "misses": self.misses,
                        "stores": self.stores, "bypasses": self.bypasses},
        }

    def gc(self, max_bytes: Optional[int] = None) -> int:
        """Evict least-recently-used entries until the cache fits in
        ``max_bytes`` (default: the instance cap). Returns the number of
        entries removed."""
        cap = self.max_bytes if max_bytes is None else max_bytes
        entries = self.entries()
        total = sum(e["disk_bytes"] for e in entries)
        removed = 0
        for entry in entries:
            if total <= cap:
                break
            self._remove(entry["key"])
            total -= entry["disk_bytes"]
            removed += 1
            STATUS.verbose(f"prepare cache: gc evicted "
                           f"{entry['key'][:12]} "
                           f"({entry['disk_bytes']} bytes)")
        return removed

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        entries = self.entries()
        for entry in entries:
            self._remove(entry["key"])
        return len(entries)

    def verify(self) -> List[Dict]:
        """Deep-check every entry (envelope, code fingerprint, payload
        digest, payload decode). Returns ``[{"key", "ok", "problem"},
        ...]``; nothing is discarded — that is ``gc``/``load``'s job."""
        results = []
        for record in self.entries():
            key = record["key"]
            _, _, problem = self._read_entry(key)
            results.append({"key": key, "ok": problem is None,
                            "problem": problem or ""})
        return results


__all__ = [
    "DEFAULT_MAX_BYTES", "PrepareCache", "default_cache_root",
    "overlay_segments", "prepare_key",
]
