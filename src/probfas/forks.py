"""One forked child doing part of this process's work, its result sent back
through a pipe, for training a sweep cell's arms and for splitting a large
table: how many CPUs this process may use, a child that dies with its parent,
and the child itself. Bare os.fork and os.pipe: multiprocessing costs every
command's start-up about 20 ms and 2 MB when imported."""

import contextlib
import ctypes
import os
import signal
import sys


def usable_cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def can_fork():
    """Whether a forked child can run beside this process: os.fork exists
    and two or more CPUs are usable."""
    return hasattr(os, "fork") and usable_cpus() >= 2


def exit_with_parent(parent):
    """Run first in a forked child: on Linux it asks for SIGTERM when the
    process that forked it dies, so a killed command leaves no child behind,
    and it exits if that process is already gone."""
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
        prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG; on failure the child only loses this guard
    if os.getppid() != parent:  # the parent died before the request
        os._exit(1)


class Child:
    """A forked child: read what it wrote from pipe, then ask succeeded()."""

    def __init__(self, pid, pipe):
        self.pid, self.pipe = pid, pipe

    def succeeded(self):
        """Closes the pipe and reaps the child: whether it exited 0, which it
        does only once it has written all it had."""
        self.pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return status == 0


@contextlib.contextmanager
def child(work):
    """Forks a child that runs work(out), out a binary file writing to a pipe,
    and yields a Child reading that pipe, or None if the pipe or fork fails.
    The child exits 0 once work has returned and out is flushed, else 1,
    never returning into the caller's code; it flushes nothing it inherits.
    Only the forking thread lives on in the child, so work must take no lock
    another thread may hold. numpy's parsing and formatting take none; OpenBLAS
    stops its threads at a fork (pthread_atfork), so training may run in the
    child. A child not reaped when the block ends is killed, then reaped."""
    sys.stdout.flush()
    sys.stderr.flush()
    parent, fds, pid = os.getpid(), (), None
    try:
        fds = read, write = os.pipe()
        pid = os.fork()
    except OSError:  # EMFILE, EAGAIN, ENOMEM: the caller does the child's work itself
        for fd in fds:
            os.close(fd)
    if pid is None:
        yield None
        return
    if pid == 0:
        status = 1
        try:
            os.close(read)
            exit_with_parent(parent)
            with os.fdopen(write, "wb") as out:
                work(out)
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    handle = Child(pid, os.fdopen(read, "rb"))
    try:
        yield handle
    finally:
        if handle.pid is not None:
            handle.pipe.close()
            os.kill(pid, signal.SIGKILL)  # unreaped, so pid is still this child
            os.waitpid(pid, 0)
