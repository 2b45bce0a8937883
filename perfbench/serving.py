"""The ``serve_tcp`` workload: the shipped server under open-loop load.

``python -m repro.serve`` runs in its own process over a directory holding
one saved surrogate.  This process is the single client.  It speaks
JSON-lines over `CONNECTIONS` TCP connections and drives four phases, in
this order, over one request stream:

1. `ROUNDS` rounds of
   a. a burst -- a closed loop with `WINDOW` requests in flight per
      connection, `BURST` requests: server CPU per request, throughput;
   b. an open loop at `LOW_RPS`: p50 latency (the batch window dominates);
   c. an open loop at `HIGH_RPS`: tail latency (queueing dominates);
2. a ladder of open-loop rates `LADDER_RPS`: ``serve_max_rps`` is the
   highest one that meets `P99_LIMIT_MS` with every request answered,
   no growing backlog, and the generator on time.

Each metric is the median of its per-round values.

In an open loop each request is due at ``start + i / rate`` whether or
not earlier ones were answered, and its latency runs from that due time,
so a stall is charged to every request it delays.  The generator records
how late it actually sent each request; a ladder rate whose lateness p99
exceeds `LATE_LIMIT_MS` is rejected, because the client, not the server,
was the bottleneck.

Requests draw their configs from a seeded stream in which `REPEAT_SHARE`
of requests repeat a recent request's config, so the server's LRU sees
some hits.
Every reply is checked against a direct ``predictor.predict(
encoder.encode_batch(...))`` in this process.
"""

from __future__ import annotations

import asyncio
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

SPACE = "resnet"
DEVICE = "raspberrypi4"
ENCODING = "fcc"
TRAIN_SIZE = 600
TRAIN_EPOCHS = 600

CONNECTIONS = 2  # at most nproc
WINDOW = 64  # in-flight requests per connection during a burst
BURST = 5000  # requests per burst
# Fixed rates, about 20% and 70% of the open-loop capacity (~2.8k req/s)
# measured on a 2-core x86 host, where client and server share the cores;
# the ladder brackets that capacity.
LOW_RPS = 600
HIGH_RPS = 2000
LADDER_RPS = (1000, 1500, 2000, 2500, 3000, 3500)
P99_LIMIT_MS = 25.0
LATE_LIMIT_MS = 2.0
REPEAT_SHARE = 0.25
RECENT = 512  # a repeat copies one of this many most recent requests
# Distinct configs; larger than the server's 4096-entry LRU, so a config
# met again on the pool's next lap has been evicted: only repeats hit.
POOL = 5000
SCORED = 1000  # distinct configs the served values are scored on
DRAIN_S = 5.0  # how long to wait for stragglers after the last due time
READY_TIMEOUT_S = 60.0

_SLOT_TRAIN = 0x5E7
_SLOT_REQUESTS = 0x5E8


# ---------------------------------------------------------------------- #
# Inputs: the saved surrogate and the request stream
# ---------------------------------------------------------------------- #


def make_inputs(seed: int, work_root: Path, n_requests: int) -> dict:
    """Train and save the surrogate; build ``n_requests`` request lines."""
    from repro import MLPPredictor, RandomSampler, SimulatedDevice, space_by_name
    from repro.encodings import encoder_for

    spec = space_by_name(SPACE)
    device = SimulatedDevice(DEVICE, seed=seed)
    train = RandomSampler(
        spec, rng=np.random.default_rng([seed, _SLOT_TRAIN])
    ).sample_batch(TRAIN_SIZE)
    measured, _ = device.measure_batch(train)
    encoder = encoder_for(ENCODING, spec)
    model = MLPPredictor(epochs=TRAIN_EPOCHS, seed=seed).fit(
        encoder.encode_batch(train, spec), measured
    )
    models = work_root / "models"
    models.mkdir(parents=True, exist_ok=True)
    model.save(models / f"{SPACE}__{DEVICE}__{ENCODING}.json")

    rng = np.random.default_rng([seed, _SLOT_REQUESTS])
    distinct = RandomSampler(spec, rng=rng).sample_batch(POOL)
    order = np.empty(n_requests, dtype=np.int64)
    fresh = 0  # requests that are not repeats walk the pool in order
    for i in range(n_requests):
        if fresh and rng.random() < REPEAT_SHARE:
            order[i] = order[i - 1 - int(rng.integers(0, min(i, RECENT)))]
        else:
            order[i] = fresh % POOL
            fresh += 1
    prefix = [
        json.dumps(
            {"op": "predict", "space": SPACE, "device": DEVICE,
             "encoding": ENCODING, "config": c.to_dict()}
        )[1:]
        for c in distinct
    ]
    expected = model.predict(encoder.encode_batch(distinct, spec))
    return {
        "models": models,
        "order": order,
        "prefix": prefix,
        "expected": expected[order],
        # Served values are scored on the first `SCORED` distinct configs.
        "true": np.array([device.true_latency(c) for c in distinct[:SCORED]]),
        "repeat_share": 1.0 - fresh / n_requests,
    }


def scored_pairs(inputs: dict, answers: Dict[int, float]):
    """``(true, served)`` latencies of the first `SCORED` distinct configs."""
    served = {}
    for rid, value in answers.items():
        config = int(inputs["order"][rid])
        if config < SCORED:
            served.setdefault(config, value)
    keys = sorted(served)
    return inputs["true"][keys], np.array([served[k] for k in keys])


def request_line(inputs: dict, i: int) -> bytes:
    return ('{"id": %d, ' % i + inputs["prefix"][inputs["order"][i]] + "\n").encode()


# ---------------------------------------------------------------------- #
# The server process
# ---------------------------------------------------------------------- #


class Server:
    """One server process; ``start`` returns once it is listening."""

    def __init__(self, root: Path, models: Path, log: Path, trace_out: Optional[Path] = None):
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.serve"]
        else:
            cmd = [
                sys.executable,
                str(Path(__file__).with_name("serve_launcher.py")),
                "--trace-out",
                str(trace_out),
            ]
        self.cmd = cmd + [
            "--models", str(models), "--port", "0", "--poll-interval", "3600",
        ]
        self.root = root
        self.log = log
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.ready_wall_s: Optional[float] = None

    def start(self) -> float:
        """Launch; return the server's CPU seconds until its listening line.

        (Wall seconds from spawn are kept in ``ready_wall_s``.)
        """
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"  # the listening line must not sit in a buffer
        t0 = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(
                self.cmd, cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log,
            )
        deadline = t0 + READY_TIMEOUT_S
        buffered = b""
        fd = self.proc.stdout.fileno()
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.proc.poll() is not None:
                self.stop()
                raise RuntimeError(f"server did not start; see {self.log}")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                continue
            buffered += chunk
            for line in buffered.decode(errors="replace").splitlines():
                if line.startswith("listening on "):
                    self.ready_wall_s = time.perf_counter() - t0
                    self.port = int(line.split()[2].rsplit(":", 1)[1])
                    return self.cpu_s()

    def cpu_s(self) -> float:
        """CPU seconds the server's main thread has run (steal excluded)."""
        with open(f"/proc/{self.proc.pid}/schedstat") as fh:
            return int(fh.read().split()[0]) / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return float("nan")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


# ---------------------------------------------------------------------- #
# The client
# ---------------------------------------------------------------------- #


@dataclass
class Phase:
    """Replies of one phase, indexed by position in the phase."""

    ids: np.ndarray
    due: np.ndarray  # due (open loop) or send (closed loop) times
    sent: np.ndarray
    recv: np.ndarray  # NaN where no reply arrived
    wall_s: float = 0.0
    server_cpu_s: float = 0.0  # closed loop only
    errors: int = 0
    mismatches: int = 0
    values: Dict[int, float] = field(default_factory=dict)
    remaining: Optional[int] = None  # replies still awaited; None once closed
    done: Optional[asyncio.Event] = None
    window: Optional[asyncio.Semaphore] = None  # closed loop only

    @property
    def latencies_ms(self) -> np.ndarray:
        return (self.recv - self.due) * 1e3

    @property
    def answered(self) -> int:
        return int(np.isfinite(self.recv).sum())

    @property
    def failed(self) -> int:
        return len(self.ids) - self.answered + self.errors + self.mismatches

    def percentile_ms(self, q: float) -> float:
        lat = self.latencies_ms
        lat = lat[np.isfinite(lat)]
        return float(np.percentile(lat, q)) if lat.size else float("inf")

    @property
    def late_ms_p99(self) -> float:
        return float(np.percentile((self.sent - self.due) * 1e3, 99))

    @property
    def backlog_grows(self) -> bool:
        lat = self.latencies_ms
        q = max(1, len(lat) // 4)
        first, last = np.nanmedian(lat[:q]), np.nanmedian(lat[-q:])
        return bool(last > 2.0 * first + 1.0)


class Client:
    """`CONNECTIONS` JSON-lines connections and the reply bookkeeping."""

    def __init__(self, inputs: dict, server: Server):
        self.inputs = inputs
        self.server = server
        self.next_id = 0
        self.conns = []
        self._waiters: Dict[int, asyncio.Future] = {}
        self._phase: Optional[Phase] = None
        self._index: Dict[int, int] = {}
        self._readers: List[asyncio.Task] = []
        self._expected = inputs["expected"].tolist()

    async def open(self) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", self.server.port)
            self.conns.append(writer)
            self._readers.append(asyncio.ensure_future(self._read(reader)))

    async def close(self) -> None:
        for writer in self.conns:
            writer.close()
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)

    async def _read(self, reader: asyncio.StreamReader) -> None:
        clock = time.perf_counter
        async for line in reader:
            now = clock()
            reply = json.loads(line)
            rid = reply.get("id")
            waiter = self._waiters.pop(rid, None) if isinstance(rid, int) else None
            if waiter is not None:  # an out-of-band op (stats)
                waiter.set_result(reply)
                continue
            phase = self._phase
            pos = self._index.get(rid) if phase is not None else None
            if pos is None:
                continue
            phase.recv[pos] = now
            value = reply.get("latency_s")
            expected = self._expected[rid]
            if "error" in reply:
                phase.errors += 1
            elif (
                reply.get("model_version") != 1
                or not isinstance(value, float)
                or abs(value - expected) > 1e-9 * abs(expected)
            ):
                phase.mismatches += 1
            else:
                phase.values[rid] = value
            if phase.remaining is not None:
                phase.remaining -= 1
                if phase.remaining == 0:
                    phase.done.set()
                if phase.window is not None:
                    phase.window.release()

    def _new_phase(self, n: int) -> Phase:
        ids = np.arange(self.next_id, self.next_id + n)
        if ids[-1] >= len(self.inputs["order"]):
            raise RuntimeError("request stream exhausted")
        self.next_id += n
        nan = np.full(n, np.nan)
        phase = Phase(ids=ids, due=nan.copy(), sent=nan.copy(), recv=nan.copy())
        phase.remaining = n
        phase.done = asyncio.Event()
        self._index = {int(rid): pos for pos, rid in enumerate(ids)}
        self._phase = phase
        return phase

    async def _finish(self, phase: Phase, last_due: float) -> None:
        for writer in self.conns:
            await writer.drain()
        timeout = max(0.0, last_due + DRAIN_S - time.perf_counter())
        try:
            await asyncio.wait_for(phase.done.wait(), timeout)
        except asyncio.TimeoutError:
            pass
        phase.remaining = None
        self._phase = None

    async def burst(self, n: int) -> Phase:
        """Closed loop: keep `WINDOW` requests in flight per connection."""
        phase = self._new_phase(n)
        phase.window = asyncio.Semaphore(WINDOW * CONNECTIONS)
        clock = time.perf_counter
        t0 = clock()
        cpu0 = self.server.cpu_s()
        for pos, rid in enumerate(phase.ids):
            try:  # a window that never reopens means replies stopped coming
                await asyncio.wait_for(phase.window.acquire(), DRAIN_S)
            except asyncio.TimeoutError:
                break
            now = clock()
            phase.due[pos] = phase.sent[pos] = now
            self.conns[pos % CONNECTIONS].write(request_line(self.inputs, int(rid)))
            if pos % 64 == 63:
                await asyncio.sleep(0)
        await self._finish(phase, clock())
        phase.wall_s = clock() - t0
        phase.server_cpu_s = self.server.cpu_s() - cpu0
        return phase

    async def open_loop(self, rate: float, seconds: float) -> Phase:
        """Open loop: request ``i`` is due at ``start + i / rate``."""
        n = max(1, int(rate * seconds))
        phase = self._new_phase(n)
        lines = [request_line(self.inputs, int(rid)) for rid in phase.ids]
        clock = time.perf_counter
        start = clock() + 0.01
        phase.due[:] = start + np.arange(n) / rate
        pos = 0
        while pos < n:
            now = clock()
            if phase.due[pos] > now:
                await asyncio.sleep(phase.due[pos] - now)
                now = clock()
            while pos < n and phase.due[pos] <= now:
                phase.sent[pos] = now
                self.conns[pos % CONNECTIONS].write(lines[pos])
                pos += 1
            for writer in self.conns:
                await writer.drain()
        await self._finish(phase, float(phase.due[-1]))
        phase.wall_s = clock() - start
        return phase

    async def stats(self) -> dict:
        rid = -1
        future = asyncio.get_running_loop().create_future()
        self._waiters[rid] = future
        self.conns[0].write(json.dumps({"id": rid, "op": "stats"}).encode() + b"\n")
        return await asyncio.wait_for(future, 30)


# ---------------------------------------------------------------------- #
# The workload
# ---------------------------------------------------------------------- #


ROUNDS = 4  # burst / low / high rounds; each metric is a median over them
SETTLE_S = 0.5  # discarded low-rate lead-in before the measured rounds


def phase_seconds(seconds: float):
    """(low, high, ladder step) open-loop durations for a run of ``seconds``.

    The rounds interleave the three measurements, so a slow spell of the
    host lands in one round rather than in one metric.
    """
    return 0.06 * seconds, 0.1 * seconds, 0.02 * seconds


def requests_needed(seconds: float) -> int:
    low, high, step = phase_seconds(seconds)
    return int(
        BURST * (ROUNDS + 1)
        + LOW_RPS * (ROUNDS * low + SETTLE_S)
        + HIGH_RPS * ROUNDS * high
        + sum(LADDER_RPS) * step
        + 10
    )


async def drive(inputs: dict, server: Server, seconds: float, bursts_only: bool = False) -> dict:
    """Run every phase against a listening server; return the raw figures.

    ``bursts_only`` runs only the bursts (the traced run's baseline).
    """
    low_s, high_s, step_s = phase_seconds(seconds)
    client = Client(inputs, server)
    await client.open()
    bursts, lows, highs, ladder = [], [], [], []
    max_rps = 0.0
    stats = None
    try:
        phases: List[Phase] = [await client.burst(BURST)]  # warm-up
        if not bursts_only:
            phases.append(await client.open_loop(LOW_RPS, SETTLE_S))
        for _ in range(ROUNDS):
            bursts.append(await client.burst(BURST))
            if not bursts_only:
                lows.append(await client.open_loop(LOW_RPS, low_s))
                highs.append(await client.open_loop(HIGH_RPS, high_s))
        for rate in LADDER_RPS if not bursts_only else ():
            step = await client.open_loop(rate, step_s)
            ladder.append(step)
            ok = (
                step.failed == 0
                and step.percentile_ms(99) <= P99_LIMIT_MS
                and not step.backlog_grows
                and step.late_ms_p99 <= LATE_LIMIT_MS
            )
            if not ok:
                break
            max_rps = float(rate)
        stats = await client.stats()
    finally:
        await client.close()
    phases += bursts + lows + highs + ladder
    answered = {}
    for phase in phases:
        answered.update(phase.values)
    return {
        "phases": phases,
        "bursts": bursts,
        "lows": lows,
        "highs": highs,
        "ladder": ladder,
        "max_rps": max_rps,
        "stats": stats,
        "answers": answered,
    }
