"""The fork helper: how many workers it starts, one that cannot start, and exit codes."""

import errno
import os
import signal

import pytest

from hrlmc import workers


@pytest.fixture
def no_child_left():
    """A 5 s limit on the test, and no child process left after it."""

    def too_slow(signum, frame):
        raise TimeoutError("the workers took over 5 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _say_place(j, n, out):
    out.write(bytes([j, n]))


@pytest.mark.parametrize("most, cpus, w", [(5, 1, 0), (0, 3, 0), (1, 3, 1), (5, 3, 2)])
def test_worker_count_is_most_and_one_fewer_than_usable_cpus(most, cpus, w, no_child_left,
                                                             monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    with workers.forked(most, _say_place) as started:
        replies = [worker.reply.read() for worker in started]
    assert replies == [bytes([j, w + 1]) for j in range(1, w + 1)]
    assert [worker.exit_code for worker in started] == [0] * w


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("call, err", [("pipe", errno.EMFILE), ("fork", errno.EAGAIN)])
def test_worker_that_fails_to_start_is_none_and_holds_no_descriptor(call, err, no_child_left,
                                                                   monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
    calls, real = [], getattr(os, call)

    def fail_first():
        calls.append(None)
        if len(calls) == 1:
            raise OSError(err, os.strerror(err))
        return real()

    monkeypatch.setattr(os, call, fail_first)
    fds = len(os.listdir("/proc/self/fd"))
    with workers.forked(2, _say_place) as started:
        assert started[0] is None
        assert started[1].reply.read() == bytes([2, 3])
    assert len(calls) == 2
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("end, code", [("raise", 1), ("exit", 3), ("kill", -signal.SIGTERM)])
def test_worker_that_ends_without_a_reply_keeps_its_exit_code(end, code, no_child_left,
                                                              monkeypatch):
    # The reap follows a kill, which must not replace the code of a worker that ended.
    def child(j, n, out):
        out.write(b"unflushed")
        if end == "raise":
            raise ValueError("a worker that raises exits 1")
        if end == "exit":
            os._exit(3)
        os.kill(os.getpid(), signal.SIGTERM)

    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    with workers.forked(1, child) as (worker,):
        assert worker.reply.read() == b""
    assert worker.exit_code == code
