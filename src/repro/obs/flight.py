"""The flight recorder: a bounded ring of recent events for postmortems.

A :class:`FlightRecorder` keeps the last ``capacity`` records — finished
trace spans (fed automatically when attached to a
:class:`~repro.obs.trace.Tracer`) and free-form events
(:meth:`FlightRecorder.note`: worker exceptions, lifecycle marks) — in
memory at O(1) cost. :meth:`dump` writes them to disk as JSON;
:class:`~repro.runtime.server.RuntimeServer` dumps on ``close()`` and
whenever a worker loop dies with an unexpected exception, so a crashed
or misbehaving server always leaves a black box behind.

Dumps **rotate**: alongside the stable "latest" file at ``path``, every
dump also writes a uniquely-named archive sibling
(``<stem>-<seq>-<reason><suffix>``), and only the ``max_dumps`` newest
archives are kept per directory — a crash-looping server cannot fill
the disk with postmortems, and the most recent evidence always
survives.

Record timestamps are ``time.perf_counter`` like every span; the dump
*header* carries the one sanctioned wall-clock timestamp in the
codebase (``time.time``), so a postmortem can anchor the monotonic
timeline to calendar time.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import CypressError

_REASON_SAFE = re.compile(r"[^A-Za-z0-9_.-]+")


class FlightRecorder:
    """A thread-safe bounded ring buffer of span/event records.

    Args:
        capacity: records retained; the oldest fall off first.
        path: default dump destination for :meth:`dump` (and what the
            server uses on close/crash). ``None`` means callers must
            pass a path explicitly.
        max_dumps: rotated archive files kept next to ``path``; the
            oldest are pruned after each dump. The stable "latest"
            file at ``path`` itself does not count against the bound.
    """

    def __init__(
        self, capacity: int = 4096, path=None, max_dumps: int = 8
    ) -> None:
        if capacity < 1:
            raise CypressError(
                f"flight recorder capacity must be >= 1, got {capacity!r}"
            )
        if max_dumps < 1:
            raise CypressError(
                f"max_dumps must be >= 1, got {max_dumps!r}"
            )
        self.capacity = capacity
        self.path = path
        self.max_dumps = max_dumps
        self._lock = threading.Lock()
        #: One dump at a time, so each written file takes the next
        #: sequence number and a failed write numbers nothing.
        self._dump_lock = threading.Lock()
        self._records: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._recorded = 0
        self._dumps = 0

    def record_span(self, span) -> None:
        """Append one finished :class:`~repro.obs.trace.Span`.

        This is the :class:`~repro.obs.trace.Tracer` feed — attach the
        recorder as ``Tracer(recorder=...)`` and every closed span
        lands here automatically.
        """
        self._append(
            {
                "kind": "span",
                "name": span.name,
                "cat": span.cat,
                "sid": span.sid,
                "parent": span.parent,
                "tid": span.tid,
                "start_s": span.start_s,
                "end_s": span.end_s,
                "args": dict(span.args),
            }
        )

    def note(
        self, name: str, args: Optional[Dict[str, Any]] = None
    ) -> None:
        """Append one instantaneous event (exception, lifecycle mark).

        Args:
            name: event name (``"worker-exception"``, ``"close"``...).
            args: free-form attributes; exceptions go in as strings.
        """
        self._append(
            {
                "kind": "event",
                "name": name,
                "t_s": time.perf_counter(),
                "args": dict(args) if args else {},
            }
        )

    def _append(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._records.append(record)
            self._recorded += 1

    def records(self) -> List[Dict[str, Any]]:
        """A snapshot of retained records, oldest first."""
        with self._lock:
            return list(self._records)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def recorded(self) -> int:
        """Records appended over the recorder's lifetime (retained or
        not)."""
        with self._lock:
            return self._recorded

    @property
    def dumps(self) -> int:
        """How many times :meth:`dump` has written a file."""
        with self._lock:
            return self._dumps

    def payload(self, reason: str = "snapshot") -> Dict[str, Any]:
        """The dump payload as an in-memory dict, nothing written.

        What :meth:`dump` serializes and the ``/flightz`` diagnostics
        endpoint serves: a header (reason, wall time, retained and
        lifetime counts) plus the retained records, oldest first.
        """
        with self._lock:
            records = list(self._records)
            recorded = self._recorded
            dumps = self._dumps
        return {
            "flight_recorder": {
                "reason": reason,
                "wall_time_s": time.time(),
                "wall_time_iso": time.strftime(
                    "%Y-%m-%dT%H:%M:%S", time.localtime()
                ),
                "capacity": self.capacity,
                "retained": len(records),
                "recorded": recorded,
                "dumps": dumps,
            },
            "records": records,
        }

    def dump(self, path=None, reason: str = "manual") -> Optional[str]:
        """Write the ring to disk as JSON; returns the path written.

        The header carries the dump ``reason`` (``"close"``,
        ``"worker-exception"``, ...), a wall-clock timestamp — the one
        place outside trace-export headers wall time appears — and the
        retained/lifetime record counts. Returns ``None`` (without
        writing) when no path was given at construction or call time.
        A dump counts in :attr:`dumps` only once its file is written;
        an ``OSError`` from the write propagates and counts nothing.

        The destination is always (over)written as the stable "latest"
        dump; a rotated archive copy named
        ``<stem>-<seq>-<reason><suffix>`` lands beside it and the
        archive set is pruned to the ``max_dumps`` newest.

        Args:
            path: destination override; defaults to the constructor's.
            reason: why the dump happened, recorded in the header.
        """
        destination = path if path is not None else self.path
        if destination is None:
            return None
        destination = Path(destination)
        with self._dump_lock:
            payload = self.payload(reason)
            header = payload["flight_recorder"]
            header["dumps"] = sequence = header["dumps"] + 1
            text = json.dumps(payload, indent=1, default=str) + "\n"
            destination.write_text(text)
            with self._lock:
                self._dumps = sequence
        self._rotate(destination, sequence, reason, text)
        return str(destination)

    def _rotate(
        self, destination: Path, sequence: int, reason: str, text: str
    ) -> None:
        # Rotation is best-effort bookkeeping around the primary
        # write: a pruning race (another recorder, an operator's rm)
        # must never turn a successful dump into a failure.
        safe_reason = _REASON_SAFE.sub("_", reason) or "dump"
        archive = destination.with_name(
            f"{destination.stem}-{sequence:04d}-{safe_reason}"
            f"{destination.suffix}"
        )
        try:
            archive.write_text(text)
            pattern = f"{destination.stem}-*{destination.suffix}"
            archives = [
                candidate
                for candidate in destination.parent.glob(pattern)
                if candidate != destination
            ]
            archives.sort(
                key=lambda p: (p.stat().st_mtime, p.name), reverse=True
            )
            for stale in archives[self.max_dumps:]:
                stale.unlink()
        except OSError:
            pass
