"""Forked workers that return their jobs' values through pipes.

``load_interactions`` and ``write_recommendations`` each cut their input
into contiguous parts, one per worker: as many workers as usable cores,
but at most one per measured amount of work (:func:`worker_count`). This
process does the first part while a child made with ``os.fork`` does each
of the others (:func:`forked`), and unpickles their values in order. A
bare ``os.fork`` is used because importing ``multiprocessing``,
``concurrent`` or ``subprocess`` would add to every command's startup.
"""

from __future__ import annotations

import os
import pickle  # loaded by numpy already: no cost at startup
import signal
from contextlib import contextmanager
from typing import IO, Any, Callable, Iterator

from .errors import WhiterecError


def worker_count(work: int, min_work: int) -> int:
    """Usable cores, but at most one per ``min_work`` units of ``work``; at least 1.

    The cores are ``os.sched_getaffinity``, else ``os.cpu_count``. Without
    ``os.fork`` there is one worker, this process.
    """
    if not hasattr(os, "fork"):
        return 1
    getaffinity = getattr(os, "sched_getaffinity", None)
    cores = len(getaffinity(0)) if getaffinity else os.cpu_count() or 1
    return max(1, min(cores, work // min_work))


@contextmanager
def forked(jobs: list[tuple[str, Callable[[], Any]]]) -> Iterator[Iterator[Any]]:
    """Call each job in a forked child; gives the jobs' return values in job order.

    ``jobs`` are ``(name, job)`` pairs, and ``job`` is only called in the
    child. Every child is forked on entry. The iterator this gives reaps
    each child as it reads its value; a child that failed is a
    ``WhiterecError`` naming the job, with the child's message. On leaving,
    every child not yet reaped is killed and reaped.
    """
    pending: dict[int, tuple[str, IO[bytes]]] = {}  # pid -> job name and pipe
    try:
        for name, job in jobs:
            pid, pipe = _fork(job)
            pending[pid] = name, pipe
        yield _collect(pending)
    finally:
        for pid, (_, pipe) in pending.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _collect(pending: dict[int, tuple[str, IO[bytes]]]) -> Iterator[Any]:
    """Each pending child's value in order, reaping it and removing it from ``pending``."""
    for pid, (name, pipe) in list(pending.items()):
        with pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del pending[pid]
        if code:
            raise WhiterecError(
                f"{name} failed with status {code}: {data.decode('utf-8', 'replace')}")
        # Only the bytes of a child that exited with status 0 are a pickle.
        yield pickle.loads(data)


def _fork(job: Callable[[], Any]) -> tuple[int, IO[bytes]]:
    """Call ``job`` in a forked child: its pid and the pipe its pickled value arrives on.

    The child sends nothing before ``job`` returns, so it works through its
    whole part while this process does its own, instead of stalling on a
    full pipe. On an error it sends the message instead and exits with
    code 1. It always leaves by ``os._exit``: no cleanup of this process
    runs twice, and no buffered output is flushed twice.
    """
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                data, code = pickle.dumps(job(), pickle.HIGHEST_PROTOCOL), 0
            except BaseException as exc:
                data = f"{type(exc).__name__}: {exc}".encode("utf-8", "replace")
            with open(write_end, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")
