"""Adaptive micro-batching: many awaiting requests, one vectorized call.

The whole reason a served surrogate can beat per-request prediction is
that every hot path under it — `encode_batch`, the numpy predictors — is
vectorized: the cost of a call is almost independent of the row count
until the batch gets large.  `MicroBatcher` converts request concurrency
into batch size: a ``submit`` parks the request on a per-key pending list
and returns a future; the list is flushed as **one** call to the supplied
``flush_fn`` either when it reaches ``max_batch`` or when the oldest
request has waited ``max_wait_s`` (the classic latency/throughput knob
pair, tuned like clipper-style adaptive batching).

The batcher is deliberately ignorant of models and encodings — it moves
``(key, item)`` pairs — so it can be tested in isolation and reused for
any keyed vectorizable work.  Everything runs on one event loop: flushes
are synchronous callbacks (numpy releases the GIL where it matters), so
no locks are needed and a flush observes a consistent pending list.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Hashable, List, Sequence, Tuple

__all__ = ["MicroBatcher"]


class MicroBatcher:
    """Queue ``(key, item)`` submissions briefly; flush them as one batch.

    ``flush_fn(key, items)`` must return one result per item, in order.
    If it raises, every future of that batch receives the exception —
    a failed batch is failed requests, never silently dropped ones.
    """

    def __init__(
        self,
        flush_fn: Callable[[Hashable, Sequence[Any]], Sequence[Any]],
        *,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if not max_wait_s >= 0:  # NaN too
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        self._flush_fn = flush_fn
        self.max_batch = int(max_batch)
        self.max_wait_s = float(max_wait_s)
        self._pending: Dict[Hashable, List[Tuple[Any, asyncio.Future]]] = {}
        self._timers: Dict[Hashable, asyncio.TimerHandle] = {}
        # Accounting the benchmarks and tests assert against.
        self.submitted = 0
        self.batches = 0
        self.items_flushed = 0
        self.largest_batch = 0

    # ------------------------------------------------------------------ #

    def submit(self, key: Hashable, item: Any) -> "asyncio.Future":
        """Enqueue ``item`` under ``key``; the future resolves at flush.

        Must be called from a running event loop.  The fast path is a
        list append; the batch-full flush happens inline so a tight
        submission loop drains itself in ``max_batch``-sized chunks
        without ever yielding to the loop.
        """
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self.submitted += 1
        pending = self._pending.get(key)
        if pending is None:
            pending = self._pending[key] = []
        pending.append((item, future))
        if len(pending) >= self.max_batch:
            self._flush_key(key)
        elif len(pending) == 1:
            self._timers[key] = loop.call_later(
                self.max_wait_s, self._flush_key, key
            )
        return future

    def flush(self) -> None:
        """Force-flush every pending key (drain on shutdown)."""
        for key in list(self._pending):
            self._flush_key(key)

    @property
    def pending_count(self) -> int:
        return sum(len(items) for items in self._pending.values())

    # ------------------------------------------------------------------ #

    def _flush_key(self, key: Hashable) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        batch = self._pending.pop(key, None)
        if not batch:
            return
        self.batches += 1
        self.items_flushed += len(batch)
        self.largest_batch = max(self.largest_batch, len(batch))
        items = [item for item, _ in batch]
        try:
            results = self._flush_fn(key, items)
            if len(results) != len(items):
                raise RuntimeError(
                    f"flush_fn returned {len(results)} results for "
                    f"{len(items)} items"
                )
        except BaseException as exc:
            for _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        for (_, future), result in zip(batch, results):
            if not future.done():
                future.set_result(result)
