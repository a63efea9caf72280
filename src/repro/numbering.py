"""Where IR entities get their numbers: one counter per kind, counted
in creation order.

``compile_step``'s ``compute`` runs in a :func:`fresh_numbering`, so a
compile numbers its entities from zero and prints the same IR and CUDA
whatever the process compiled before. Everything created outside a
compile (graph capture, hand-built IR, baseline schedules) draws from
one process-wide numbering that never restarts. A number is unique
within its numbering only, so entities compare by identity.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Dict, Iterator

KINDS = ("tensor", "op", "event", "loop", "buffer")


def _numbering() -> Dict[str, Iterator[int]]:
    return {kind: itertools.count() for kind in KINDS}


_process = _numbering()


class _Current(threading.local):
    """A thread's current numbering: the process-wide one (the class
    default, read without a failed per-thread lookup) until
    :func:`fresh_numbering` sets the thread's own."""

    numbering = _process


_tls = _Current()


def next_number(kind: str) -> int:
    """The next number of ``kind`` in this thread's current numbering."""
    return next(_tls.numbering[kind])


@contextmanager
def fresh_numbering() -> Iterator[None]:
    """Number every entity this thread creates inside from zero."""
    outer = _tls.numbering
    _tls.numbering = _numbering()
    try:
        yield
    finally:
        _tls.numbering = outer
