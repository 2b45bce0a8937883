"""MicroBatcher: coalescing, timers, per-key isolation, failure fan-out.

No pytest-asyncio in the toolchain, so each test drives its own loop via
``asyncio.run`` — which also keeps every test hermetic: fresh loop, fresh
batcher, no timers leaking across tests.
"""

import asyncio

import pytest

from repro import MicroBatcher


def run(coro):
    return asyncio.run(coro)


class RecordingFlush:
    """flush_fn that records every (key, items) batch it executes."""

    def __init__(self, fn=None):
        self.calls = []
        self._fn = fn or (lambda key, items: [(key, item) for item in items])

    def __call__(self, key, items):
        self.calls.append((key, list(items)))
        return self._fn(key, items)


class TestCoalescing:
    def test_full_batches_flush_inline(self):
        flush = RecordingFlush()

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=4, max_wait_s=60.0)
            futures = [batcher.submit("k", i) for i in range(8)]
            # Two full batches flushed synchronously during submission —
            # no event-loop turn, no timers needed.
            assert [len(items) for _, items in flush.calls] == [4, 4]
            return await asyncio.gather(*futures)

        results = run(scenario())
        assert results == [("k", i) for i in range(8)]

    def test_remainder_flushes_on_timer(self):
        flush = RecordingFlush()

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=64, max_wait_s=0.005)
            futures = [batcher.submit("k", i) for i in range(3)]
            assert flush.calls == []  # under max_batch: parked, not flushed
            assert batcher.pending_count == 3
            results = await asyncio.gather(*futures)
            assert batcher.pending_count == 0
            return results

        assert run(scenario()) == [("k", i) for i in range(3)]
        assert [len(items) for _, items in flush.calls] == [3]

    def test_keys_batch_independently(self):
        flush = RecordingFlush()

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=2, max_wait_s=0.005)
            futures = [
                batcher.submit("a", 1),
                batcher.submit("b", 2),
                batcher.submit("a", 3),  # completes a's batch of 2
            ]
            return await asyncio.gather(*futures)

        assert run(scenario()) == [("a", 1), ("b", 2), ("a", 3)]
        assert ("a", [1, 3]) in flush.calls and ("b", [2]) in flush.calls

    def test_explicit_flush_drains(self):
        flush = RecordingFlush()

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=64, max_wait_s=60.0)
            futures = [batcher.submit("k", i) for i in range(5)]
            batcher.flush()
            assert batcher.pending_count == 0
            return await asyncio.gather(*futures)

        assert len(run(scenario())) == 5

    def test_accounting(self):
        flush = RecordingFlush()

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=4, max_wait_s=0.005)
            await asyncio.gather(*[batcher.submit("k", i) for i in range(10)])
            return batcher

        batcher = run(scenario())
        assert batcher.submitted == 10
        assert batcher.items_flushed == 10
        assert batcher.batches == 3  # 4 + 4 + 2
        assert batcher.largest_batch == 4


class TestFailureModes:
    def test_flush_error_fans_out_to_every_future(self):
        def explode(key, items):
            raise RuntimeError("model fell over")

        async def scenario():
            batcher = MicroBatcher(explode, max_batch=2, max_wait_s=60.0)
            futures = [batcher.submit("k", i) for i in range(2)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            assert all(
                isinstance(r, RuntimeError) and "fell over" in str(r)
                for r in results
            )

        run(scenario())

    def test_result_count_mismatch_is_an_error(self):
        async def scenario():
            batcher = MicroBatcher(
                lambda key, items: [1], max_batch=2, max_wait_s=60.0
            )
            futures = [batcher.submit("k", i) for i in range(2)]
            results = await asyncio.gather(*futures, return_exceptions=True)
            assert all(isinstance(r, RuntimeError) for r in results)
            assert "2 items" in str(results[0])

        run(scenario())

    def test_cancelled_future_does_not_poison_the_batch(self):
        flush = RecordingFlush()

        async def scenario():
            batcher = MicroBatcher(flush, max_batch=64, max_wait_s=0.005)
            doomed = batcher.submit("k", 0)
            survivor = batcher.submit("k", 1)
            doomed.cancel()
            assert await survivor == ("k", 1)

        run(scenario())

    def test_submit_outside_loop_rejected(self):
        batcher = MicroBatcher(lambda key, items: list(items))
        with pytest.raises(RuntimeError):
            batcher.submit("k", 1)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(lambda k, i: i, max_batch=0)
        with pytest.raises(ValueError, match="max_wait_s"):
            MicroBatcher(lambda k, i: i, max_wait_s=-1.0)
        with pytest.raises(ValueError, match="max_wait_s"):
            MicroBatcher(lambda k, i: i, max_wait_s=float("nan"))
