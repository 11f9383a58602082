"""Forked worker processes: the one place that flushes, forks, and kills and reaps.

A worker whose pipe or fork fails (EAGAIN, ENOMEM, EMFILE) was never started,
and its caller does its share, so it costs time, not output.  What a worker
is fed and what it replies are the caller's own formats.
"""

import contextlib
import os
import signal
import sys


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Worker:
    """A started worker: its ``pid``, ``reply`` pipe and, once reaped, ``exit_code``."""

    def __init__(self, pid, reply):
        self.pid, self.reply, self.exit_code = pid, reply, None


def _start(j, n, child):
    """Worker ``j`` of ``n - 1``, running ``child(j, n, out)``; None if its pipe or fork fails."""
    fds = ()
    try:
        r, w = fds = os.pipe()
        with contextlib.suppress(ImportError, AttributeError, OSError):
            import fcntl  # Linux: 1 MiB holds several trace blocks, ~20 ms off sample's writer

            fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1 << 20)
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    if pid == 0:
        try:
            os.close(r)  # so that a write fails once the parent is gone
            # Left for os._exit to close, so that the parent sees EOF only once
            # this process is exiting and a kill cannot change its exit code.
            out = open(w, "wb")
            child(j, n, out)
            out.flush()
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    return Worker(pid, open(r, "rb"))


@contextlib.contextmanager
def forked(most, child, *streams):
    """Fork W workers, ``most`` or one fewer than usable CPUs if less, and yield them.

    W is fixed before the first fork, so each worker knows it, and is 0 where
    ``os.fork`` is missing.  ``streams``, stdout and stderr, whose buffered
    text a child would write again, are flushed before the first fork.  Worker
    j = 1..W runs ``child(j, W + 1, out)``, where ``out`` is the binary write
    end of its pipe, and exits 0 once ``child`` returns and 1 if it raises.
    The yielded list holds W entries, worker j's at index j - 1: a ``Worker``,
    or None for one that could not be started.  On exit each worker's read end
    is closed, and the worker killed and reaped.  A worker whose reply was
    read to EOF keeps its own exit code.
    """
    w = min(most, usable_cpus() - 1) if hasattr(os, "fork") else 0
    for stream in (*streams, sys.stdout, sys.stderr):
        stream.flush()
    workers = []
    try:
        for j in range(1, w + 1):
            workers.append(_start(j, w + 1, child))
        yield workers
    finally:
        for worker in filter(None, workers):
            worker.reply.close()
            os.kill(worker.pid, signal.SIGKILL)
            worker.exit_code = os.waitstatus_to_exitcode(os.waitpid(worker.pid, 0)[1])
