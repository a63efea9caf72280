"""Record every function a Python process enters, for the function census.

``python tests/test_reachability.py --functions <checkout>`` puts this
directory on ``PYTHONPATH`` and names an output directory in
``REPRO_CENSUS_OUT``. Every interpreter started with both (child
processes inherit them) then records the code object of each function
it enters, on every thread, and at exit writes ``<pid>.tsv`` there:
one ``filename<TAB>qualname`` line per code object.

A program may install a profile hook of its own (``bench/layers.py``
counts calls that way). :func:`start` wraps ``sys.setprofile`` and
``threading.setprofile`` so such a hook runs after the recorder instead
of replacing it, and uninstalling it leaves the recorder in place.
The tier-1 census test uses :func:`start` / :func:`stop` in process.
"""

import atexit
import os
import sys
import threading

_seen = set()
_originals = None


def _record(frame, event, _arg):
    if event == "call":
        _seen.add(frame.f_code)


_record.census = True


def _chained(hook):
    """``hook`` with the recorder in front of it."""
    if hook is None:
        return _record
    if getattr(hook, "census", False):
        return hook

    def both(frame, event, arg):
        if event == "call":
            _seen.add(frame.f_code)
        return hook(frame, event, arg)

    both.census = True
    return both


def start():
    """Record from now on, on this thread and every thread started later."""
    global _originals
    set_sys, set_threads = sys.setprofile, threading.setprofile
    _originals = set_sys, set_threads
    sys.setprofile = lambda hook: set_sys(_chained(hook))
    threading.setprofile = lambda hook: set_threads(_chained(hook))
    set_threads(_record)
    set_sys(_record)


def stop():
    """Stop recording and return the code objects entered since :func:`start`."""
    set_sys, set_threads = _originals
    sys.setprofile, threading.setprofile = set_sys, set_threads
    set_sys(None)
    set_threads(None)
    codes = set(_seen)
    _seen.clear()
    return codes


def _write(out_dir):
    # Daemon threads may still be running; copy before iterating.
    lines = sorted({f"{code.co_filename}\t{code.co_qualname}\n"
                    for code in list(_seen)})
    with open(os.path.join(out_dir, f"{os.getpid()}.tsv"), "w") as handle:
        handle.writelines(lines)


if os.environ.get("REPRO_CENSUS_OUT"):
    start()
    atexit.register(_write, os.environ["REPRO_CENSUS_OUT"])
