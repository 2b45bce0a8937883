"""Surrogate-as-a-service: the async prediction server.

`PredictionServer` ties the three serve primitives together into the
request path::

    submit(space, device, encoding, config)
      └─ PredictionLRU  ── hit ───────────────► resolved future
         └─ space check ── not a member ─────► ValueError, alone
            └─ MicroBatcher ── flush ─► one encode_batch + one predict
                                          on the registry's current model

A flush snapshots the registry entry **once**, so every response in a
micro-batch comes from exactly one model version; a hot-swap lands
between batches, never inside one.  Within a batch, duplicate configs
(by `ArchConfig.cache_key()`) are encoded and predicted once and fanned
back out.  A config outside its space is rejected before it joins a
batch, so it fails alone rather than failing its batch-mates; the check
is the encoders' memoised `config_rows` walk, which the flush reuses.
Swapping a key replaces its prediction LRU wholesale — the invalidation
is the same pointer flip the registry itself uses.

The in-process API is the product (`submit` / `predict` /
`predict_many`); `start_tcp` adds a stdlib-asyncio JSON-lines front end
(one request object per line, ``id`` echoed back) plus a background
`ModelRegistry.poll` loop so freshly retrained surrogates saved over the
watched files go live without a restart.  ``python -m repro.serve`` is
the command-line wrapper around exactly this.

The front end costs one reader loop per connection and no task per
request: cache hits, ``stats``, ``models`` and request errors are
answered inline, and a miss answers from a done-callback on its batch
future.  Replies are coalesced per connection into one transport write
per event-loop turn; the reader waits for the transport to drain only
when its buffer is above the high-water mark, so a client that stops
reading stops being read.  A malformed request gets a typed error
naming its field (``ValueError: config.units[2][0].kernel_size ...``).
"""

from __future__ import annotations

import asyncio
import json
import math
from functools import partial
from typing import Dict, List, NamedTuple, Optional, Sequence, Union

from ..archspace.config import ArchConfig
from ..archspace.spaces import SpaceSpec, space_by_name
from ..encodings import encoder_for
from ..encodings.encoders import config_rows
from .batcher import MicroBatcher
from .cache import CachedPrediction, PredictionLRU
from .registry import ModelEntry, ModelRegistry, ServeKey

__all__ = ["PredictionResult", "PredictionServer", "request_lines"]


class PredictionResult(NamedTuple):
    """One answered query, with full provenance of how it was answered.

    A `NamedTuple` rather than a dataclass: the server mints one per
    request on the hot path, and tuple construction is several times
    cheaper than a frozen dataclass's per-field ``object.__setattr__``.
    """

    latency_s: float
    model_version: int
    batch_seq: int
    cached: bool

    def to_dict(self) -> dict:
        return {
            "latency_s": self.latency_s,
            "model_version": self.model_version,
            "batch_seq": self.batch_seq,
            "cached": self.cached,
        }


class PredictionServer:
    """Async micro-batching prediction service over a `ModelRegistry`."""

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        *,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        cache_size: int = 4096,
    ):
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.registry = registry if registry is not None else ModelRegistry()
        self.cache_size = int(cache_size)
        self._batcher = MicroBatcher(
            self._flush, max_batch=max_batch, max_wait_s=max_wait_s
        )
        self._caches: Dict[ServeKey, PredictionLRU] = {}
        self._specs: Dict[str, SpaceSpec] = {}
        self._batch_seq = 0
        self.requests = 0
        self.cache_hits = 0
        self.registry.subscribe(self._on_model_change)

    # ------------------------------------------------------------------ #
    # The request path
    # ------------------------------------------------------------------ #

    def submit(
        self, space: str, device: str, encoding: str, config: ArchConfig
    ) -> "asyncio.Future[PredictionResult]":
        """The hot entry point: returns a future, never blocks.

        Cache hits resolve immediately; misses join the key's pending
        micro-batch.  Unknown keys and configs outside the space fail
        here, synchronously — not inside somebody else's batch.
        """
        result = self._lookup(ServeKey(space, device, encoding), config)
        if isinstance(result, asyncio.Future):
            return result
        future = asyncio.get_running_loop().create_future()
        future.set_result(result)
        return future

    async def predict(
        self, space: str, device: str, encoding: str, config: ArchConfig
    ) -> PredictionResult:
        """Await one prediction (sugar over `submit`)."""
        return await self.submit(space, device, encoding, config)

    async def predict_many(
        self,
        space: str,
        device: str,
        encoding: str,
        configs: Sequence[ArchConfig],
    ) -> List[PredictionResult]:
        """Submit a whole sequence concurrently and await all results.

        The bulk twin of `submit`, tuned for throughput: hits come back
        as results rather than resolved futures, and the futures are
        awaited in order rather than ``gather``-ed — full batches flush
        inline during the submit loop, so most futures are already
        resolved here, and awaiting a done future is a constant-time
        check while ``gather`` would register a done callback on every
        future and pay a ``call_soon`` loop turn per request to deliver
        each result.
        """
        key = ServeKey(space, device, encoding)
        lookup = self._lookup
        out = [lookup(key, config) for config in configs]
        return [
            (await item) if isinstance(item, asyncio.Future) else item
            for item in out
        ]

    def drain(self) -> None:
        """Flush every pending micro-batch now (shutdown path)."""
        self._batcher.flush()

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #

    def _lookup(
        self, key: ServeKey, config: ArchConfig
    ) -> Union[PredictionResult, "asyncio.Future[PredictionResult]"]:
        """A cache hit's result, or the future of the batch ``config`` joins.

        Raises for an unknown key and for a config outside the key's
        space (`config_rows` validates membership, memoised on the
        config, so the flush's `encode_batch` reuses the walk).
        """
        cache = self._cache_for(key)
        self.requests += 1
        # A disabled cache (maxsize=0) never hits: skip the key hashing.
        hit = cache.get(config.cache_key()) if cache.maxsize else None
        if hit is None:
            config_rows(config, self._specs[key.space])
            return self._batcher.submit(key, config)
        self.cache_hits += 1
        return PredictionResult(hit.latency_s, hit.model_version, hit.batch_seq, True)

    def _cache_for(self, key: ServeKey) -> PredictionLRU:
        """The key's prediction LRU, validating the key on first sight."""
        cache = self._caches.get(key)
        if cache is None:
            self.registry.get(key)  # raises the informative KeyError
            self._spec_for(key.space)  # and unknown spaces fail here too
            cache = self._caches[key] = PredictionLRU(self.cache_size)
        return cache

    def _spec_for(self, space: str) -> SpaceSpec:
        spec = self._specs.get(space)
        if spec is None:
            spec = self._specs[space] = space_by_name(space)
        return spec

    def _flush(
        self, key: ServeKey, configs: Sequence[ArchConfig]
    ) -> List[PredictionResult]:
        # One snapshot: the entire batch is answered by this entry, even
        # if a hot-swap rebinds the key while we are predicting.
        entry = self.registry.get(key)
        spec = self._spec_for(key.space)
        encoder = encoder_for(key.encoding, spec)

        cache_keys = [config.cache_key() for config in configs]
        row_of: Dict[tuple, int] = {}
        for ck in cache_keys:
            if ck not in row_of:
                row_of[ck] = len(row_of)
        if len(row_of) == len(cache_keys):
            unique: Sequence[ArchConfig] = configs  # the common case
        else:
            seen = set()
            unique = [
                config
                for config, ck in zip(configs, cache_keys)
                if not (ck in seen or seen.add(ck))
            ]

        X = encoder.encode_batch(unique, spec)
        # .tolist() converts to Python floats in one C pass; per-element
        # ``float(y[i])`` would pay numpy scalar indexing per request.
        values = entry.predictor.predict(X).tolist()

        self._batch_seq += 1
        seq = self._batch_seq
        version = entry.version
        cache = self._caches[key]
        if cache.maxsize:
            for ck, row in row_of.items():
                cache.put(ck, CachedPrediction(values[row], version, seq))
        if len(row_of) == len(cache_keys):  # no duplicates: aligned 1:1
            return [
                PredictionResult(value, version, seq, False) for value in values
            ]
        return [
            PredictionResult(values[row_of[ck]], version, seq, False)
            for ck in cache_keys
        ]

    def _on_model_change(self, key: ServeKey, entry: ModelEntry) -> None:
        # Fresh model, fresh cache: stale predictions must not outlive a
        # swap.  Replacing the LRU object is itself an atomic rebind.
        if key in self._caches:
            self._caches[key] = PredictionLRU(self.cache_size)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Counters for benchmarks, tests, and the TCP ``stats`` op."""
        batcher = self._batcher
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": (
                self.cache_hits / self.requests if self.requests else 0.0
            ),
            "batches": batcher.batches,
            "items_flushed": batcher.items_flushed,
            "mean_batch": (
                batcher.items_flushed / batcher.batches if batcher.batches else 0.0
            ),
            "largest_batch": batcher.largest_batch,
            "pending": batcher.pending_count,
            "swaps": self.registry.swaps,
            "reload_failures": self.registry.reload_failures,
            "models": self.registry.describe(),
        }

    # ------------------------------------------------------------------ #
    # JSON-lines TCP front end
    # ------------------------------------------------------------------ #

    async def start_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "asyncio.base_events.Server":
        """Listen for JSON-lines clients; returns the asyncio server.

        Request: ``{"id": ..., "space": ..., "device": ..., "encoding":
        ..., "config": {...}}`` (one per line).  Response mirrors ``id``
        and adds the `PredictionResult` fields, or ``{"id", "error"}``.
        ``{"op": "stats"}`` and ``{"op": "models"}`` answer from the
        counters and the registry.
        """
        return await asyncio.start_server(self._handle_client, host, port)

    def start_polling(self, interval_s: float) -> "asyncio.Task":
        """Background task: `ModelRegistry.poll` every ``interval_s``."""
        if not 0 < interval_s < math.inf:
            raise ValueError(
                f"interval_s must be positive and finite, got {interval_s}"
            )

        async def poll_loop() -> None:
            while True:
                await asyncio.sleep(interval_s)
                self.registry.poll()

        return asyncio.get_running_loop().create_task(poll_loop())

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        transport = writer.transport
        high_water = transport.get_write_buffer_limits()[1]
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:  # a line over the reader's limit
                    conn.send({"id": None, "error": f"ValueError: {exc}"})
                    continue
                if not line:
                    break
                line = line.strip()
                if line:
                    self._answer(line, conn)
                if transport.get_write_buffer_size() > high_water:
                    await writer.drain()  # the client is not reading: stop too
            await conn.finish()  # client done sending; flush its answers
        except (ConnectionError, OSError):
            pass  # client went away; its replies go with it
        except asyncio.CancelledError:
            # Server/loop shutdown cancels handlers mid-read.  Swallow the
            # cancellation and finish normally: asyncio's stream-protocol
            # completion callback logs any handler task that ends in the
            # cancelled state, and there is nothing left to salvage here.
            # Abort rather than close: a close would wait for a client that
            # has stopped reading to take the unsent replies.
            transport.abort()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # pragma: no cover - teardown race

    def _answer(self, line: bytes, conn: "_Connection") -> None:
        """Answer one request line now, or once its batch flushes."""
        try:
            request = json.loads(line)
        except json.JSONDecodeError as exc:
            conn.send({"id": None, "error": f"bad JSON: {exc}"})
            return
        is_object = isinstance(request, dict)
        reply = {"id": request.get("id") if is_object else None}
        try:
            if not is_object:
                raise ValueError(
                    f"a request must be a JSON object, got {type(request).__name__}"
                )
            op = request.get("op", "predict")
            if op == "predict":
                key = ServeKey(
                    str(request["space"]),
                    str(request["device"]),
                    str(request["encoding"]),
                )
                result = self._lookup(key, ArchConfig.from_dict(request["config"]))
                if isinstance(result, asyncio.Future):
                    conn.send_when_done(reply, result)
                    return
                reply.update(result.to_dict())
            elif op == "stats":
                reply.update(self.stats())
            elif op == "models":
                reply["models"] = self.registry.describe()
            else:
                raise ValueError(f"unknown op {op!r}")
        except Exception as exc:  # per-request isolation
            reply["error"] = f"{type(exc).__name__}: {exc}"
        conn.send(reply)


class _Connection:
    """One JSON-lines client's reply side.

    Replies queue in ``out`` and leave in one transport write per
    event-loop turn (`flush`, scheduled when ``out`` becomes non-empty),
    in the order they were sent.  ``outstanding`` counts replies still
    waiting on a batch, so `finish` can answer every request before the
    connection closes.
    """

    __slots__ = ("writer", "loop", "out", "outstanding", "idle")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.loop = asyncio.get_running_loop()
        self.out: List[str] = []
        self.outstanding = 0
        self.idle: Optional[asyncio.Future] = None

    def send(self, reply: dict) -> None:
        if not self.out:
            self.loop.call_soon(self.flush)
        self.out.append(json.dumps(reply))

    def send_when_done(self, reply: dict, future: asyncio.Future) -> None:
        """Send ``reply`` completed from ``future`` once it resolves."""
        # Done already when this request filled its batch: answer it now,
        # ahead of its batch-mates' callbacks, as an awaiting task would.
        if future.done():
            self._resolved(reply, future)
            return
        self.outstanding += 1
        future.add_done_callback(partial(self._waited, reply))

    def _resolved(self, reply: dict, future: asyncio.Future) -> None:
        exc = future.exception()
        if exc is None:
            reply.update(future.result().to_dict())
        else:
            reply["error"] = f"{type(exc).__name__}: {exc}"
        self.send(reply)

    def _waited(self, reply: dict, future: asyncio.Future) -> None:
        self._resolved(reply, future)
        self.outstanding -= 1
        if not self.outstanding and self.idle is not None and not self.idle.done():
            self.idle.set_result(None)

    def flush(self) -> None:
        if not self.out:
            return
        data = ("\n".join(self.out) + "\n").encode()
        self.out.clear()
        if not self.writer.transport.is_closing():
            self.writer.write(data)

    async def finish(self) -> None:
        """Wait for every outstanding reply, then write them all out."""
        if self.outstanding:
            self.idle = self.loop.create_future()
            await self.idle
        self.flush()
        await self.writer.drain()


async def request_lines(
    host: str, port: int, requests: Sequence[dict]
) -> List[dict]:
    """Minimal JSON-lines client: send ``requests``, gather the replies.

    Replies are returned in arrival order; callers match them to their
    requests via the echoed ``id``.  Used by the tests, the README
    quick-start, and anyone who wants to poke a server from a script.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for request in requests:
            writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        replies = []
        for _ in requests:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed before answering")
            replies.append(json.loads(line))
        return replies
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
