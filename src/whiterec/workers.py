"""Forked workers that send their bytes back through pipes.

``load_interactions`` and ``write_recommendations`` each cut their input
into contiguous parts, one per worker: as many workers as usable cores,
but at most one per measured amount of work (:func:`worker_count`). This
process does the first part while a child made with ``os.fork`` does each
of the others (:func:`forked`), and reads their bytes back in order. A bare
``os.fork`` is used because importing ``multiprocessing``, ``concurrent``
or ``subprocess`` would add to every command's startup.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from typing import IO, Iterator

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
def forked(jobs: list[tuple[str, Iterator[bytes]]]) -> Iterator[Iterator[bytes]]:
    """Make each job's chunks in a forked child; gives the children's bytes in job order.

    ``jobs`` are ``(name, chunks)`` pairs, and ``chunks`` is only iterated
    in the child. Every child is forked on entry. The iterator this gives
    reaps each child as it reads its bytes; a child that failed is a
    ``WhiterecError`` naming the job, with the child's message. On leaving,
    every child not yet reaped is killed and reaped.
    """
    pending: dict[int, tuple[str, IO[bytes]]] = {}  # pid -> job name and pipe
    try:
        for name, chunks in jobs:
            pid, pipe = _fork(chunks)
            pending[pid] = name, pipe
        yield _collect(pending)
    finally:
        for pid, (_, pipe) in pending.items():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _collect(pending: dict[int, tuple[str, IO[bytes]]]) -> Iterator[bytes]:
    """Each pending child's bytes in order, reaping it and removing it from ``pending``."""
    for pid, (name, pipe) in list(pending.items()):
        with pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del pending[pid]
        if code:
            raise WhiterecError(
                f"{name} failed with status {code}: {data.decode('utf-8', 'replace')}")
        yield data


def _fork(chunks: Iterator[bytes]) -> tuple[int, IO[bytes]]:
    """Produce ``chunks`` in a forked child: its pid and the pipe its bytes arrive on.

    The child sends nothing before its last chunk is made, so it works
    through its whole part while this process does its own, instead of
    stalling on a full pipe. On an error it sends the message instead and
    exits with code 1. It always leaves by ``os._exit``: no cleanup of this
    process runs twice, and no buffered output is flushed twice.
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
                data, code = list(chunks), 0
            except BaseException as exc:
                data = [f"{type(exc).__name__}: {exc}".encode("utf-8", "replace")]
            with open(write_end, "wb") as pipe:
                pipe.writelines(data)
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")
