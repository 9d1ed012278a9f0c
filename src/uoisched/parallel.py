"""Run disjoint parts of one computation in forked child processes.

`in_parts(run, cuts)` calls `run(lo, hi)` for each cut (lo, hi): the first
in this process, each other one in a child forked for it, and returns the
results in the order of the cuts.  A child inherits the caller's state by
the fork, so `run` may be a closure; only its result crosses back, pickled
through a pipe, and only bytes written by these children are unpickled.

A child writes its pickled result, or the exception it raised with its
formatted traceback, to its pipe and always ends in `os._exit`: it never
returns into the caller's frames, runs none of its `finally` or `atexit`
handlers, and never flushes the stdio buffers it inherited.  The parent
runs its own part, then reads each pipe to its end before it reaps that
child.  It re-raises a child's exception, and names the exit status of a
child that ended without a result (a signal, or a short write).  Whatever
ends the call, an exception in the parent's own part or a
KeyboardInterrupt included, its `finally` kills and reaps every child not
yet reaped, so no child outlives it.

`max_parts()` is 1 where a fork is unavailable or unsafe: without
`os.fork`, and with a second live thread, since a fork copies only the
forking thread and a lock another thread holds stays held in the child.
Otherwise it is the number of CPUs this process may run on.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import traceback
import warnings


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def max_parts() -> int:
    """The most parts worth passing to `in_parts`: one per usable CPU, or 1
    without os.fork or with a second live thread."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return usable_cpus()


class ChildTraceback(Exception):
    """The traceback of an exception raised in a child; the parent sets it
    as the cause of the exception it re-raises."""


def _child(run, lo: int, hi: int, fd: int) -> None:
    """Run part (lo, hi) and write (result, None) or (exception, traceback)
    to fd; never returns."""
    code = 1  # also if the outcome does not pickle: the parent reports the status
    try:
        try:
            outcome = run(lo, hi), None
        except BaseException as exc:
            outcome = exc, traceback.format_exc()
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        code = 0
    finally:
        os._exit(code)


def _fork() -> int:
    # Python >= 3.12 warns on a fork in a process with several OS threads.
    # max_parts has ruled out a second Python thread; the others belong to
    # native pools such as BLAS's, which wait idle between calls.
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        return os.fork()


def in_parts(run, cuts: list[tuple[int, int]]) -> list:
    """[run(lo, hi) for (lo, hi) in cuts], the first in this process and the
    others in forked children (see the module docstring)."""
    children = []  # [pid, read fd, cut]; pid and fd become None once reaped and closed
    try:
        for lo, hi in cuts[1:]:
            r, w = os.pipe()
            try:
                pid = _fork()
            except BaseException:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _child(run, lo, hi, w)
            os.close(w)
            children.append([pid, r, (lo, hi)])
        results = [run(*cuts[0])]
        for child in children:
            pid, fd, (lo, hi) = child
            with os.fdopen(fd, "rb") as pipe:
                child[1] = None
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            child[0] = None
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                how = f"signal {-code} ({signal.strsignal(-code)})" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"the child process for part {lo}..{hi - 1} ended by {how} without a result")
            value, tb = pickle.loads(payload)
            if tb is not None:
                raise value from ChildTraceback(tb)
            results.append(value)
        return results
    finally:
        for pid, fd, _ in children:
            if fd is not None:
                os.close(fd)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
