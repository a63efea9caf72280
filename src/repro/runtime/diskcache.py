"""The persistent compile-cache tier.

:class:`DiskCacheTier` is the second tier that :meth:`~repro.
compiler.cache.CompileCache.lookup` accepts (``load``/``store``), with
one pickle file per compile key under a cache directory. Layered
beneath the in-memory LRU it makes compiled kernels survive process
restarts: a restarted server warms from disk
(zero passes executed) instead of recompiling, the JIT-warm-up pattern
long-lived runtimes rely on.

Robustness contract: ``load`` never raises into the compile path. A
truncated or otherwise unreadable pickle — a crash mid-write on a
filesystem without atomic rename, bit rot, a stale format — counts as a
corrupt miss; the offending file is **quarantined** to ``<key>.bad``
(not silently deleted) so operators can postmortem what corrupted it,
and the caller recompiles, healing the entry via write-through. At most
``max_quarantine`` ``.bad`` files are retained, pruned oldest-first
like the LRU size cap. Writes go through a temp file and ``os.replace``
so concurrent readers never observe a partial entry.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional


@dataclass
class DiskCacheStats:
    """Counters for the disk tier since construction or ``clear``.

    ``pruned``/``pruned_bytes`` count entries evicted by the
    ``max_bytes`` LRU cap (least-recently-used by mtime; loads touch
    their entry, so a hot entry survives writers). ``corrupt`` counts
    corrupt *loads* observed; ``corrupt_entries`` is the number of
    quarantined ``.bad`` files currently retained on disk (bounded by
    the tier's ``max_quarantine``).
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    corrupt: int = 0
    corrupt_entries: int = 0
    errors: int = 0
    pruned: int = 0
    pruned_bytes: int = 0

    @property
    def lookups(self) -> int:
        """Total disk lookups: hits + misses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of disk lookups that loaded successfully."""
        return self.hits / self.lookups if self.lookups else 0.0


class DiskCacheTier:
    """One pickle file per compile key under ``path``.

    Args:
        path: cache directory (created if missing).
        max_bytes: optional on-disk size cap. Every successful store
            prunes least-recently-used entries (by mtime; loads touch
            their file) until the tier fits — the entry just written is
            never pruned by its own store, so the cap can be
            exceeded transiently by one entry. ``None`` leaves the tier
            unbounded, the historical behavior.
        max_quarantine: how many corrupt entries to retain as
            ``<key>.bad`` postmortem evidence; older quarantined files
            are pruned first (mtime order, like the LRU cap).

    Raises:
        ValueError: ``max_bytes`` is not positive, or ``max_quarantine``
            is negative.
    """

    def __init__(
        self,
        path,
        max_bytes: Optional[int] = None,
        max_quarantine: int = 16,
    ) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(
                f"max_bytes must be >= 1 or None, got {max_bytes}"
            )
        if max_quarantine < 0:
            raise ValueError(
                f"max_quarantine must be >= 0, got {max_quarantine}"
            )
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_quarantine = max_quarantine
        self.stats = DiskCacheStats()
        self._lock = threading.Lock()

    def _file(self, key: str) -> Path:
        return self.path / f"{key}.pkl"

    def contains(self, key: str) -> bool:
        """Whether an entry exists on disk (it may still be corrupt)."""
        return self._file(key).exists()

    def load(self, key: str) -> Optional[Any]:
        """Read one cached kernel from disk.

        Args:
            key: the content fingerprint (compile key).

        Returns:
            The unpickled kernel, or ``None`` on a miss — including
            unreadable/corrupt entries, which are quarantined to
            ``<key>.bad`` so a recompile can heal the live entry via
            write-through while the evidence survives for postmortems.
        """
        try:
            with open(self._file(key), "rb") as handle:
                kernel = pickle.load(handle)
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return None
        except Exception:
            # Truncated/garbled pickle, or an entry written by an
            # incompatible version: quarantine it and fall back to
            # recompile.
            with self._lock:
                self.stats.corrupt += 1
                self.stats.misses += 1
            self._quarantine(key)
            return None
        try:
            os.utime(self._file(key))  # LRU touch: loads keep it warm
        except OSError:
            pass
        with self._lock:
            self.stats.hits += 1
        return kernel

    def store(self, key: str, kernel: Any) -> None:
        """Persist one kernel under ``key`` (atomic rename, best effort).

        Args:
            key: the content fingerprint (compile key).
            kernel: the compiled kernel to pickle.
        """
        try:
            fd, tmp = tempfile.mkstemp(
                dir=self.path, prefix=f".{key[:16]}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(kernel, handle, pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, self._file(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except Exception:
            # A full disk or an unpicklable artifact must not take the
            # serving path down; the entry is simply not persisted.
            with self._lock:
                self.stats.errors += 1
            return
        with self._lock:
            self.stats.stores += 1
        if self.max_bytes is not None:
            self._prune(keep=key)

    def _quarantine(self, key: str) -> None:
        """Move a corrupt entry aside as ``<key>.bad`` (best effort).

        With ``max_quarantine == 0`` the entry is deleted outright (the
        historical behavior). Retained quarantine files beyond the
        bound are pruned oldest-first by mtime.
        """
        source = self._file(key)
        if self.max_quarantine == 0:
            try:
                source.unlink()
            except OSError:
                pass
            return
        try:
            os.replace(source, self.path / f"{key}.bad")
        except OSError:
            # Rename failed (e.g. the file vanished); fall back to
            # delete so the corrupt entry cannot be served again.
            try:
                source.unlink()
            except OSError:
                pass
        quarantined = []
        for entry in self.path.glob("*.bad"):
            try:
                quarantined.append((entry.stat().st_mtime, str(entry)))
            except OSError:
                pass
        quarantined.sort()
        retained = len(quarantined)
        for _mtime, stale in quarantined[
            : max(retained - self.max_quarantine, 0)
        ]:
            try:
                os.unlink(stale)
                retained -= 1
            except OSError:
                pass
        with self._lock:
            self.stats.corrupt_entries = retained

    def quarantined_keys(self) -> List[str]:
        """Compile keys currently quarantined as ``.bad``, sorted."""
        return sorted(p.stem for p in self.path.glob("*.bad"))

    def total_bytes(self) -> int:
        """Bytes currently persisted across every entry (best effort)."""
        total = 0
        for entry in self.path.glob("*.pkl"):
            try:
                total += entry.stat().st_size
            except OSError:
                pass
        return total

    def _prune(self, keep: str) -> None:
        """Evict LRU entries until the tier fits ``max_bytes``.

        ``keep`` (the key just stored) is exempt so a store can never
        evict its own entry. Eviction order is ascending mtime — loads
        touch their file, making this true LRU rather than FIFO.
        """
        entries = []
        total = 0
        for entry in self.path.glob("*.pkl"):
            try:
                stat = entry.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, entry))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        keep_file = self._file(keep)
        pruned = pruned_bytes = 0
        for _mtime, size, entry in sorted(entries):
            if total <= self.max_bytes:
                break
            if entry == keep_file:
                continue
            try:
                entry.unlink()
            except OSError:
                continue
            total -= size
            pruned += 1
            pruned_bytes += size
        with self._lock:
            self.stats.pruned += pruned
            self.stats.pruned_bytes += pruned_bytes

    def keys(self) -> List[str]:
        """All compile keys currently persisted, sorted."""
        return sorted(p.stem for p in self.path.glob("*.pkl"))

    def clear(self) -> None:
        """Delete every persisted entry, including quarantined ``.bad``
        files (best effort)."""
        for pattern in ("*.pkl", "*.bad"):
            for entry in self.path.glob(pattern):
                try:
                    entry.unlink()
                except OSError:
                    pass
        with self._lock:
            self.stats = DiskCacheStats()

    def __len__(self) -> int:
        return sum(1 for _ in self.path.glob("*.pkl"))
