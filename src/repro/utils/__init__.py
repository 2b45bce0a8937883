"""Small shared helpers: deterministic RNG handling, atomic file writes,
quarantine of corrupt files, and a process pool with a serial fallback."""

from __future__ import annotations

import multiprocessing
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Hashable, List, Sequence, Union

import numpy as np

__all__ = ["ensure_rng", "atomic_write_text", "quarantine", "run_pooled"]


def ensure_rng(rng: "int | np.random.Generator | None") -> np.random.Generator:
    """Coerce ``rng`` into a `numpy.random.Generator`.

    Accepts an existing generator (returned as-is, so callers can share a
    stream), an integer seed, or ``None`` (fresh nondeterministic stream).
    Every stochastic component in the package funnels through this, which is
    what makes "same seed => identical output" testable end to end.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically.

    The text goes to a temporary file in the same directory (same
    filesystem, so the final rename cannot degrade into a copy) and is
    fsynced before `os.replace` swaps it into place.  Readers therefore see
    either the previous complete file or the new complete file — never a
    truncated intermediate — and an interrupt mid-write leaves the
    destination untouched.  Dataset saves, campaign shards, and campaign
    manifests all funnel through here.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def quarantine(path: Union[str, Path]) -> Path:
    """Rename a corrupt file aside so it is kept but never read again.

    The first quarantine of ``name`` becomes ``name.corrupt``, later ones
    ``name.corrupt1``, ``name.corrupt2``, ... — a repeated corruption of
    the same file never overwrites the evidence of an earlier one.
    Returns the quarantined path.
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    n = 0
    while target.exists():
        n += 1
        target = path.with_name(f"{path.name}.corrupt{n}")
    path.rename(target)
    return target


def run_pooled(
    pending: Sequence[Hashable],
    task: Callable[[Hashable], Any],
    worker: Callable[[Any], Any],
    run_local: Callable[[Hashable], Any],
    commit: Callable[[Hashable, Any], None],
    *,
    workers: int,
    mp_context: str,
) -> List[dict]:
    """Compute every key in ``pending`` and ``commit(key, result)`` it.

    With ``workers == 1`` or a single pending key, each key runs
    in-process, in order, through ``run_local(key)``.  Otherwise
    ``worker(task(key))`` runs on a process pool of at most ``workers``
    processes started with the ``mp_context`` start method — so ``worker``
    must be a module-level function and ``task(key)`` picklable — and each
    result is committed in the parent as soon as it completes.

    The pool degrades instead of aborting.  When it cannot be created
    (``pool_unavailable``: an unknown start method, no semaphore support)
    or breaks mid-run because a worker died (``broken_process_pool``), the
    keys not yet committed run serially through ``run_local``; keys the
    pool already committed are never recomputed.  Each failure survived
    is returned as a ``{"kind", "error", ...}`` record for the caller to
    persist with its provenance; an empty list means nothing degraded.
    """
    pending = list(pending)
    degradations: List[dict] = []
    if workers > 1 and len(pending) > 1:
        pending, degradations = _run_on_pool(
            pending, task, worker, commit, workers, mp_context
        )
    for key in pending:
        commit(key, run_local(key))
    return degradations


def _run_on_pool(pending, task, worker, commit, workers, mp_context):
    """The pool half of `run_pooled`: returns the keys left for the serial
    path and the degradation records explaining why any were left."""
    try:
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            mp_context=multiprocessing.get_context(mp_context),
        )
    except (ImportError, NotImplementedError, OSError, ValueError) as exc:
        # ValueError: the start method does not exist on this platform
        # (e.g. "fork" on Windows).
        degradation = {
            "kind": "pool_unavailable",
            "error": f"{type(exc).__name__}: {exc}",
            "pending": list(pending),
        }
        return pending, [degradation]
    committed = set()
    try:
        with pool:
            futures = {pool.submit(worker, task(key)): key for key in pending}
            for future in as_completed(futures):
                key = futures[future]
                commit(key, future.result())
                committed.add(key)
    except BrokenProcessPool as exc:
        still_pending = [key for key in pending if key not in committed]
        degradation = {
            "kind": "broken_process_pool",
            "error": f"{type(exc).__name__}: {exc}",
            "completed_before_failure": len(committed),
            "pending": list(still_pending),
        }
        return still_pending, [degradation]
    return [], []
