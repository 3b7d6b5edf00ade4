"""Every process a benchmark run starts has ended before the run exits.

The program's shared-memory segments start multiprocessing's resource
tracker, a helper process that by design outlives its parent: it exits only
once it reads end-of-file on a pipe, a moment after the parent is gone.  A
cold-start child leaves its own tracker behind the same way.  So the runner
calls :func:`adopt_orphans` first, which makes orphaned descendants its
children (Linux), and :func:`stop_all` on every way out, which closes the
tracker's pipe and waits for every child, adopted ones included.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from multiprocessing import active_children, resource_tracker
from pathlib import Path

PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> bool:
    """Make this process the reaper of descendants whose parent has exited."""
    if not sys.platform.startswith("linux"):
        return False
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children() -> list[int]:
    """Pids whose parent is this process, from ``/proc`` (empty elsewhere)."""
    me = os.getpid()
    found = []
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            # The command name in field 2 may hold spaces; fields after it don't.
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry.parent.name))
    return found


def stop_all(grace: float = 10.0) -> None:
    """Stop the resource tracker and wait until no child is left.

    Children still running after ``grace`` seconds are killed, then waited for.
    """
    for child in active_children():
        child.join(grace)
    # Unlink the segments the program still owns now: unlinking after the
    # tracker stops would start a new one.
    sweep = getattr(sys.modules.get("repro.engine.shm"), "_sweep_owned_segments", None)
    if sweep is not None:
        sweep()
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for pid in children():
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = float("inf")
        time.sleep(0.01)
