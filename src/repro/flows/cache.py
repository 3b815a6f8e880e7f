"""Fingerprint-keyed stage result cache for the flow engine.

Sweep points that share a stage prefix -- same netlist and synthesis
options, different sizing/variation knobs -- redo exactly the same map,
placement and clock-tree work.  The engine snapshots the declared
outputs of every cacheable stage under its input fingerprint (see
:func:`repro.flows.engine.stage_fingerprint`), so the shared prefix is
computed once and replayed from the cache everywhere else.

An entry holds one blob per artifact key plus the stage's notes, so a
hit decodes only the keys the caller asks for: the engine replays a run
of consecutive hits by decoding each artifact once, from its last
writer.  Every hit still hands out *fresh* objects, because downstream
stages mutate netlists in place (buffering, sizing) and handing the
same module to two sweep points would corrupt both.  Most artifacts are
pickled; one with a ``snapshot()`` method (a
:class:`~repro.cells.library.CellLibrary`) is stored as a snapshot and
handed out as another snapshot, a container copy that shares the
library's frozen cells.  The in-memory side is a bounded LRU; an
optional directory spills each entry to disk as one pickle (snapshots
included), which is how pool workers (separate processes) share a cache
within a sweep, and how ``--resume`` sessions reuse work across CLI
invocations.

The cache also keeps the ``size`` stage's TILOS trajectories
(:class:`~repro.sizing.tilos.Trajectory`), spilled beside the blobs;
their lookups count as ``trajectory_hits`` / ``trajectory_misses``,
never as stage hits or misses.

Only trust cache directories you wrote: blobs are pickles, and
unpickling executes the payload's constructors.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from collections import OrderedDict
from typing import Any, Iterable

#: In-memory entry bound; oldest entries are evicted past it.
MAX_ENTRIES = 128

#: Suffix of on-disk cache blobs.
BLOB_SUFFIX = ".stage.pkl"

#: Suffix of on-disk trajectories.
TRAJECTORY_SUFFIX = ".trajectory.pkl"


def _freeze(value: Any) -> Any:
    """The stored form of one artifact: a snapshot or a pickle."""
    snapshot = getattr(value, "snapshot", None)
    return snapshot() if snapshot is not None else pickle.dumps(value)


class StageCache:
    """Bounded LRU of per-artifact stage outputs, optionally disk-backed.

    Args:
        directory: spill directory shared across processes (None = memory
            only).  Created on first write.
        max_entries: in-memory LRU bound.
    """

    def __init__(self, directory: str | None = None,
                 max_entries: int = MAX_ENTRIES) -> None:
        self.directory = directory
        self.max_entries = max_entries
        #: fingerprint -> ({key: pickle bytes or snapshot}, notes)
        self._entries: OrderedDict[str, tuple[dict, dict]] = OrderedDict()
        #: key -> trajectory (immutable, so handed out as is)
        self._trajectories: OrderedDict[str, Any] = OrderedDict()
        self.zero()

    def zero(self) -> None:
        """Zero the counters."""
        self.hits = self.misses = self.puts = 0
        #: ``pickle.loads`` calls of hits, and the bytes they decoded.
        self.decodes = self.decoded_bytes = 0
        self.trajectory_hits = self.trajectory_misses = 0

    def _path(self, fingerprint: str, suffix: str = BLOB_SUFFIX) -> str:
        return os.path.join(self.directory, fingerprint + suffix)

    def __contains__(self, fingerprint: str) -> bool:
        """Whether memory or the spill directory holds an entry.

        Decodes nothing and counts neither a hit nor a miss.
        """
        return fingerprint in self._entries or (
            self.directory is not None
            and os.path.exists(self._path(fingerprint))
        )

    def _load(self, fingerprint: str) -> tuple[dict, dict] | None:
        entry = self._entries.get(fingerprint)
        if entry is not None:
            self._entries.move_to_end(fingerprint)
            return entry
        if self.directory is None:
            return None
        try:
            with open(self._path(fingerprint), "rb") as handle:
                stored, notes = self._thaw(handle.read())
        except Exception:  # missing or corrupt blob: a miss
            return None
        if not (isinstance(stored, dict) and isinstance(notes, dict)):
            return None  # not this format's (blobs, notes) pair
        return stored, notes

    def _thaw(self, stored: Any) -> Any:
        """A fresh object from its stored form (see :func:`_freeze`)."""
        if not isinstance(stored, bytes):
            return stored.snapshot()
        self.decodes += 1
        self.decoded_bytes += len(stored)
        return pickle.loads(stored)

    def get(self, fingerprint: str,
            keys: Iterable[str] | None = None) -> dict[str, Any] | None:
        """Fresh copies of the outputs stored under a fingerprint, or None.

        Args:
            fingerprint: the stage fingerprint.
            keys: artifact keys to decode (None = all stored keys); the
                notes always come back whole.
        """
        entry = self._load(fingerprint)
        artifacts = None
        if entry is not None:
            stored, notes = entry
            try:
                artifacts = {
                    key: self._thaw(stored[key])
                    for key in (stored if keys is None else keys)
                    if key in stored
                }
            except Exception:  # undecodable blob: drop it, a miss
                self._entries.pop(fingerprint, None)
        if artifacts is None:
            self.misses += 1
            return None
        self.hits += 1
        return {"artifacts": artifacts, "notes": dict(notes)}

    def put(self, fingerprint: str, payload: dict[str, Any]) -> None:
        """Snapshot stage outputs under a fingerprint (best effort)."""
        try:
            stored = {key: _freeze(value)
                      for key, value in payload["artifacts"].items()}
            blob = None
            if self.directory is not None:
                blob = pickle.dumps(({
                    key: value if isinstance(value, bytes)
                    else pickle.dumps(value)
                    for key, value in stored.items()
                }, payload["notes"]))
        except Exception:  # unpicklable artifact: simply not cacheable
            return
        self._keep(self._entries, fingerprint,
                   (stored, dict(payload["notes"])))
        self.puts += 1
        if blob is not None:
            self._spill(fingerprint, blob)

    def get_trajectory(self, key: str) -> Any | None:
        """The trajectory recorded under ``key``, or None."""
        found = self._trajectories.get(key)
        if found is None and self.directory is not None:
            try:
                with open(self._path(key, TRAJECTORY_SUFFIX), "rb") as handle:
                    found = pickle.loads(handle.read())
            except Exception:  # missing or corrupt blob: a miss
                found = None
        if found is None:
            self.trajectory_misses += 1
            return None
        self.trajectory_hits += 1
        self._keep(self._trajectories, key, found)
        return found

    def put_trajectory(self, key: str, trajectory: Any) -> None:
        """Record an immutable trajectory under ``key`` (best effort)."""
        self._keep(self._trajectories, key, trajectory)
        if self.directory is not None:
            try:
                blob = pickle.dumps(trajectory)
            except Exception:  # unpicklable: kept in memory only
                return
            self._spill(key, blob, TRAJECTORY_SUFFIX)

    def _keep(self, entries: OrderedDict, key: str, value: Any) -> None:
        """Insert or refresh an LRU entry, evicting past the bound."""
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.max_entries:
            entries.popitem(last=False)

    def _spill(self, fingerprint: str, blob: bytes,
               suffix: str = BLOB_SUFFIX) -> None:
        """Atomic disk write; concurrent writers race idempotently."""
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=fingerprint + ".", suffix=".tmp", dir=self.directory
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp_path, self._path(fingerprint, suffix))
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # disk spill is an optimisation, never a failure

    def clear(self) -> None:
        """Drop in-memory entries (disk blobs are left alone)."""
        self._entries.clear()
        self._trajectories.clear()

    def stats(self) -> dict[str, float]:
        total = self.hits + self.misses
        return {
            "hits": float(self.hits),
            "misses": float(self.misses),
            "puts": float(self.puts),
            "hit_rate": self.hits / total if total else 0.0,
            "size": float(len(self._entries)),
            "decodes": float(self.decodes),
            "decoded_bytes": float(self.decoded_bytes),
            "trajectory_hits": float(self.trajectory_hits),
            "trajectory_misses": float(self.trajectory_misses),
        }


_enabled = True
_cache = StageCache()


def get_cache() -> StageCache:
    """The process-global stage cache the engine uses by default."""
    return _cache


def set_enabled(flag: bool) -> None:
    """Switch stage caching on/off process-wide."""
    global _enabled
    _enabled = bool(flag)


def enabled() -> bool:
    return _enabled


def configure(directory: str | None) -> None:
    """Point the global cache at a spill directory (None = memory only)."""
    _cache.directory = directory


def reset() -> None:
    """Drop entries and zero the counters (directory setting survives)."""
    _cache.clear()
    _cache.zero()


def stats() -> dict[str, float]:
    """Hit/miss/size snapshot of the global cache."""
    return _cache.stats()


def publish() -> None:
    """Export the counters as ``flows.cache.*`` gauges through repro.obs."""
    from repro import obs

    for field, value in stats().items():
        obs.gauge(f"flows.cache.{field}", float(value))
