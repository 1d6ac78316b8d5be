"""Process groups: how the harness leaves no process behind.

Every process the harness starts leads a session of its own, so its
process group is exactly what it went on to start: pool workers and
multiprocessing's resource tracker.  The tracker ends only *after* its
parent has, so waiting for the parent is not waiting for the group.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time
from typing import List

#: What a stopped process leaves behind gets this long to end by itself.
REAP_GRACE = 5.0


def end_with_parent() -> None:
    """Have the kernel send this process SIGTERM when its parent ends.

    ``PR_SET_PDEATHSIG``, called by ``server.py`` and ``probes.py``: a
    harness that is killed outright still leaves nothing running.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(1, signal.SIGTERM, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def adopt_orphans() -> None:
    """Make this process the parent of whatever its children orphan.

    ``PR_SET_CHILD_SUBREAPER``: a descendant whose parent has ended is
    handed to this process instead of init, so :func:`reap_group` can
    ``waitpid`` it.  Where the call is not to be had the orphans go to
    init and ``reap_group`` only watches them end.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def group_members(pgid: int) -> List[int]:
    """Pids in process group ``pgid`` that have not ended (zombies have)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # pid (comm) state ppid pgrp ...; comm may hold anything.
                state, _ppid, pgrp = fh.read().rpartition(")")[2].split()[:3]
        except (OSError, ValueError):
            continue  # ended while we looked
        if int(pgrp) == pgid and state not in "ZX":
            members.append(int(entry))
    return members


def reap_group(pgid: int, grace: float = REAP_GRACE) -> None:
    """Return once nothing of process group ``pgid`` is left.

    Its leader has been waited for already.  The rest get ``grace``
    seconds to end by themselves, then SIGKILL; each is reaped as it
    ends (they are our children, see :func:`adopt_orphans`).
    """
    deadline = time.monotonic() + grace
    while True:
        try:
            reaped, _ = os.waitpid(-pgid, os.WNOHANG)
            ours = True
        except ChildProcessError:
            reaped, ours = 0, False  # none of the group is our child
        if reaped:
            continue
        if not ours and not group_members(pgid):
            return
        if time.monotonic() > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.005)
