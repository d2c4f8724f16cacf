"""workers.forked on its own: each job runs in a forked child, its return
value comes back in job order, a failed job is one WhiterecError, and no
child outlives the ``with`` block."""

import os
import time

import numpy as np
import pytest

from whiterec import workers
from whiterec.errors import WhiterecError
from whiterec.ingest import InteractionLog


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def returning(value):
    """A job that returns ``value``."""
    return lambda: value


def failing(message):
    """A job that raises RuntimeError(message)."""
    def job():
        raise RuntimeError(message)
    return job


def log_columns(log):
    # Bytes, so NaN ratings compare equal; dtypes, so a cast shows.
    return (log.users.tolist(), log.items.tolist(), log.ratings.tobytes(),
            log.user_ids, log.item_ids, log.users.dtype, log.items.dtype, log.ratings.dtype)


def test_values_come_back_in_job_order():
    log = InteractionLog(np.array([0, 1, 0]), np.array([0, 0, 1]),
                         np.array([np.nan, 4.0, np.nan]), ["u1", "u2"], ["i1", "i2"])
    empty = InteractionLog(np.zeros(0, np.int64), np.zeros(0, np.int64),
                           np.zeros(0, np.float64), [], [])
    values = [None, b"", b"a\nb\x00", log, empty, None]
    with workers.forked([(f"job {k}", returning(v)) for k, v in enumerate(values)]) as results:
        got = list(results)
    assert got[:3] == values[:3] and got[5] is None
    assert log_columns(got[3]) == log_columns(log)
    assert log_columns(got[4]) == log_columns(empty)
    assert_no_child_left()


def test_each_job_runs_in_its_own_child():
    with workers.forked([("first", os.getpid), ("second", os.getpid)]) as results:
        pids = list(results)
    assert os.getpid() not in pids and len(set(pids)) == 2
    assert_no_child_left()


def test_values_larger_than_a_pipe_buffer():
    # Each child fills its pipe while this process still reads the one before.
    values = [np.random.default_rng(k).bytes(1 << 20) for k in range(3)]
    with workers.forked([(f"job {k}", returning(v)) for k, v in enumerate(values)]) as results:
        assert list(results) == values
    assert_no_child_left()


def test_failed_job_is_one_error_naming_it():
    jobs = [("first job", returning(1)), ("second job", failing("job broke")),
            ("third job", returning(3))]
    with workers.forked(jobs) as results:
        assert next(results) == 1
        with pytest.raises(WhiterecError,
                           match="^second job failed with status 1: RuntimeError: job broke$"):
            next(results)
    assert_no_child_left()


def test_value_that_cannot_be_pickled_is_a_failure():
    with workers.forked([("unpicklable job", returning(lambda: None))]) as results:
        with pytest.raises(WhiterecError, match="^unpicklable job failed with status 1: "):
            next(results)
    assert_no_child_left()


def test_leaving_early_kills_and_reaps_every_child():
    jobs = [("quick job", returning(1))] + [(f"job {k}", lambda: time.sleep(30))
                                             for k in range(2)]
    started = time.monotonic()
    with workers.forked(jobs) as results:
        assert next(results) == 1
    assert_no_child_left()
    with workers.forked(jobs):
        pass
    assert_no_child_left()
    with pytest.raises(ValueError, match="this process broke"):
        with workers.forked(jobs):
            raise ValueError("this process broke")
    assert_no_child_left()
    assert time.monotonic() - started < 10  # the sleeping children were killed
