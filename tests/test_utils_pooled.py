"""`repro.utils.run_pooled`: every key committed exactly once, whatever
the pool does.

`CampaignRunner` shards batches across processes through this helper; the
campaign suite checks the bytes that come out.  Here the helper itself is
pinned: the serial path, the pool path, and both degradations
(``pool_unavailable``, ``broken_process_pool``) each commit every key once,
never recompute a key the pool already committed, and record what
happened.
"""

import multiprocessing
import os

import pytest

from repro.utils import run_pooled

KEYS = [0, 1, 2, 3, 4, 5]
_PARENT_PID = os.getpid()


def _context():
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _die_in_worker_on_three(key):
    """Hard-kills the pool worker that gets key 3; the executor surfaces
    that as `BrokenProcessPool`."""
    if key == 3 and os.getpid() != _PARENT_PID:
        os._exit(1)
    return key * key


class Recorder:
    """``run_local`` and ``commit`` callbacks that remember every call."""

    def __init__(self):
        self.local = []
        self.commits = []

    def run_local(self, key):
        self.local.append(key)
        return key * key

    def commit(self, key, value):
        self.commits.append((key, value))

    def committed(self):
        return dict(self.commits)


def _negated_square(key):
    return -key * key  # built in the parent; `abs` in the worker undoes the sign


def run(recorder, keys=KEYS, *, task=_negated_square, worker=abs, mp_context=None):
    return run_pooled(
        keys,
        task,
        worker,
        recorder.run_local,
        recorder.commit,
        workers=2,
        mp_context=mp_context or _context(),
    )


def _unpicklable_task(key):
    raise AssertionError("the serial path must not build pool tasks")


class TestSerialPath:
    def test_one_worker_runs_every_key_in_order_in_process(self):
        rec = Recorder()
        degradations = run_pooled(
            KEYS,
            _unpicklable_task,
            _unpicklable_task,
            rec.run_local,
            rec.commit,
            workers=1,
            mp_context="no-such-start-method",
        )
        assert degradations == []
        assert rec.local == KEYS
        assert rec.commits == [(k, k * k) for k in KEYS]

    def test_a_single_key_never_starts_a_pool(self):
        rec = Recorder()
        degradations = run_pooled(
            [7],
            _unpicklable_task,
            _unpicklable_task,
            rec.run_local,
            rec.commit,
            workers=4,
            mp_context="no-such-start-method",
        )
        assert degradations == []
        assert rec.commits == [(7, 49)]

    def test_nothing_pending_commits_nothing(self):
        rec = Recorder()
        assert run(rec, keys=[]) == []
        assert rec.commits == [] and rec.local == []


class TestPoolPath:
    def test_every_key_committed_once_from_the_pool(self):
        rec = Recorder()
        assert run(rec) == []
        assert rec.local == []
        assert sorted(k for k, _ in rec.commits) == KEYS
        assert rec.committed() == {k: k * k for k in KEYS}

    def test_unknown_start_method_degrades_to_serial(self):
        rec = Recorder()
        degradations = run(rec, mp_context="no-such-start-method")
        assert [d["kind"] for d in degradations] == ["pool_unavailable"]
        assert degradations[0]["error"].startswith("ValueError: ")
        assert degradations[0]["pending"] == KEYS
        assert rec.local == KEYS
        assert rec.commits == [(k, k * k) for k in KEYS]

    def test_dead_worker_leaves_the_rest_to_the_serial_path(self):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable on this platform")
        rec = Recorder()
        degradations = run(
            rec, task=int, worker=_die_in_worker_on_three, mp_context="fork"
        )
        assert [d["kind"] for d in degradations] == ["broken_process_pool"]
        record = degradations[0]
        assert "BrokenProcessPool" in record["error"]
        # Key 3 can only ever finish serially; whatever the pool committed
        # before it broke is never run again.
        assert 3 in record["pending"]
        assert record["pending"] == rec.local
        assert record["completed_before_failure"] == len(KEYS) - len(rec.local)
        assert sorted(k for k, _ in rec.commits) == KEYS
        assert rec.committed() == {k: k * k for k in KEYS}
