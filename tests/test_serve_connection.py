"""The JSON-lines connection path of `PredictionServer.start_tcp`.

What these tests lock:

* the replies of one request stream: served ``latency_s`` bits (a sha256
  over ``float.hex``) and the exact reply lines of ``stats``, ``models``,
  bad JSON, an unknown key and an unknown op, all recorded against the
  task-per-request front end this one replaced;
* the connection costs no `asyncio.Task` per request;
* a client that sends and never reads stops being read (back-pressure),
  and still gets every reply once it reads;
* a config outside its space fails alone, not its whole micro-batch;
* hostile request objects (a hypothesis suite of mutations) each get
  exactly one reply — a result or a typed error naming the field — over
  a connection that stays open, and never fail a valid batch-mate.

Each test drives its own ``asyncio.run`` loop (no pytest-asyncio here).
"""

import asyncio
import copy
import hashlib
import json
import math
import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ArchConfig,
    BlockConfig,
    CARTPredictor,
    ModelRegistry,
    PredictionServer,
    RandomSampler,
    ServeKey,
    encoder_for,
    resnet_space,
)

SPACE, DEVICE, ENCODING = "resnet", "raspberrypi4", "fcc"
KEY = ServeKey(SPACE, DEVICE, ENCODING)


@pytest.fixture(scope="module")
def spec():
    return resnet_space()


@pytest.fixture(scope="module")
def configs(spec):
    """96 distinct resnet configs (the same stream as test_serve_server)."""
    seen, unique = set(), []
    sampler = RandomSampler(spec, rng=17)
    while len(unique) < 96:
        config = sampler.sample()
        if config.cache_key() not in seen:
            seen.add(config.cache_key())
            unique.append(config)
    return unique


@pytest.fixture(scope="module")
def model(spec, configs):
    X = encoder_for(ENCODING, spec).encode_batch(configs, spec)
    return CARTPredictor().fit(X, X.sum(axis=1) * 0.01 + 3.0)


@pytest.fixture(scope="module")
def direct(spec, configs, model):
    """Each config's prediction straight from the model, by cache key."""
    values = model.predict(encoder_for(ENCODING, spec).encode_batch(configs, spec))
    return {c.cache_key(): float(v) for c, v in zip(configs, values)}


def make_server(model, **kwargs):
    registry = ModelRegistry()
    registry.register(KEY, model)
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("max_wait_s", 0.001)
    return PredictionServer(registry, **kwargs)


def predict_request(rid, config_dict):
    return {"id": rid, "space": SPACE, "device": DEVICE, "encoding": ENCODING,
            "config": config_dict}


async def exchange(port, lines):
    """Send raw request ``lines`` on one connection; one reply per line."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write("".join(line + "\n" for line in lines).encode())
    await writer.drain()
    replies = []
    for _ in lines:
        line = await asyncio.wait_for(reader.readline(), 10)
        assert line, "server closed the connection before answering"
        replies.append(line)
    writer.close()
    await writer.wait_closed()
    return replies


def serve(server, client):
    """Run ``client(port)`` against ``server`` listening on a free port."""

    async def scenario():
        tcp = await server.start_tcp(port=0)
        try:
            return await client(tcp.sockets[0].getsockname()[1], tcp)
        finally:
            tcp.close()
            await tcp.wait_closed()

    return asyncio.run(scenario())


class TestRecordedReplies:
    # Recorded with the task-per-request front end on the same stream.
    LATENCY_SHA256 = "85e242d4873771762e9c51787e01396988618e88d1e9fb17c57678fb89bfc6a7"
    MODELS = (
        '[{"key": "resnet/raspberrypi4/fcc", "kind": "cart", "version": 1, '
        '"path": null, "fingerprint": null}]'
    )
    EXPECTED = {
        '"stats"': '{"id": "stats", "requests": 0, "cache_hits": 0, '
        '"cache_hit_rate": 0.0, "batches": 0, "items_flushed": 0, '
        '"mean_batch": 0.0, "largest_batch": 0, "pending": 0, "swaps": 0, '
        '"reload_failures": 0, "models": ' + MODELS + "}",
        "null": '{"id": null, "error": "bad JSON: Expecting property name '
        'enclosed in double quotes: line 1 column 2 (char 1)"}',
        '"nokey"': '{"id": "nokey", "error": "KeyError: \'no model registered '
        "for nope/raspberrypi4/fcc; registered: resnet/raspberrypi4/fcc'\"}",
        '"noop"': '{"id": "noop", "error": "ValueError: unknown op \'fly\'"}',
        '"models"': '{"id": "models", "models": ' + MODELS + "}",
    }

    def test_latencies_and_reply_lines_match_the_recording(self, configs, model, direct):
        lines = [json.dumps({"id": "stats", "op": "stats"})]
        lines += [json.dumps(predict_request(i, c.to_dict())) for i, c in enumerate(configs)]
        repeats = [configs[(7 * i) % 96] for i in range(96)]
        lines += [json.dumps(predict_request(96 + i, c.to_dict())) for i, c in enumerate(repeats)]
        lines += [
            "{not json",
            json.dumps({"id": "nokey", "space": "nope", "device": DEVICE,
                        "encoding": ENCODING, "config": configs[0].to_dict()}),
            json.dumps({"id": "noop", "op": "fly"}),
            json.dumps({"id": "models", "op": "models"}),
        ]
        raw = serve(make_server(model), lambda port, _: exchange(port, lines))

        replies = {}
        for line in raw:
            reply = json.loads(line)
            key = json.dumps(reply["id"])
            assert key not in replies, "two replies for one request"
            replies[key] = (reply, line.decode().rstrip("\n"))
        assert len(replies) == len(lines)
        latencies = sorted(
            (r["id"], r["latency_s"].hex()) for r, _ in replies.values()
            if isinstance(r["id"], int)
        )
        assert len(latencies) == 192
        digest = hashlib.sha256(json.dumps(latencies).encode()).hexdigest()
        assert digest == self.LATENCY_SHA256
        for i, config in enumerate(configs + repeats):
            assert replies[str(i)][0]["latency_s"] == direct[config.cache_key()]
            assert replies[str(i)][0]["model_version"] == 1
        for key, expected in self.EXPECTED.items():
            assert replies[key][1] == expected


class TestConnectionPath:
    def test_no_task_per_request(self, spec, model):
        """A 2,000-request stream on one connection runs on a bounded
        number of tasks (the old front end held one per request in
        flight — hundreds here, with a wide batch window)."""
        stream = RandomSampler(spec, rng=3).sample_batch(2000)
        lines = [json.dumps(predict_request(i, c.to_dict())) for i, c in enumerate(stream)]
        server = make_server(model, max_batch=512, max_wait_s=0.02)

        async def client(port, _):
            loop = asyncio.get_running_loop()
            peak = 0

            def sample():
                nonlocal peak, handle
                peak = max(peak, len(asyncio.all_tasks(loop)))
                handle = loop.call_soon(sample)

            handle = loop.call_soon(sample)
            try:
                replies = await exchange(port, lines)
            finally:
                handle.cancel()
            return replies, peak

        replies, peak = serve(server, client)
        assert sorted(json.loads(r)["id"] for r in replies) == list(range(2000))
        assert all("latency_s" in json.loads(r) for r in replies)
        assert peak <= 4, f"{peak} tasks alive at once"

    def test_client_that_never_reads_stops_being_read(self, configs, model):
        """Replies back up into a small socket buffer; the server then stops
        reading instead of buffering without bound, and resumes — with
        every reply — once the client reads."""
        n = 10_000
        payload = "".join(
            json.dumps(predict_request(i, configs[0].to_dict())) + "\n" for i in range(n)
        ).encode()
        server = make_server(model)

        async def client(port, tcp):
            for listener in tcp.sockets:  # accepted sockets inherit these
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            sock.setblocking(False)
            await asyncio.get_running_loop().sock_connect(sock, ("127.0.0.1", port))
            reader, writer = await asyncio.open_connection(sock=sock)
            writer.write(payload)  # never drained: the client does not read
            seen = -1
            for _ in range(100):  # wait until the server stops making progress
                await asyncio.sleep(0.05)
                if server.requests == seen:
                    break
                seen = server.requests
            stalled_at = server.requests
            ids = []
            for _ in range(n):
                line = await asyncio.wait_for(reader.readline(), 10)
                ids.append(json.loads(line)["id"])
            writer.close()
            await writer.wait_closed()
            return stalled_at, ids

        stalled_at, ids = serve(server, client)
        assert 0 < stalled_at < n // 2
        assert sorted(ids) == list(range(n))

    def test_oversized_line_is_answered_and_the_connection_kept(self, configs, model, direct):
        """A line over the reader's 64 KiB limit gets ``id: null`` errors,
        not a dropped connection; the request after it is answered."""
        huge = json.dumps({"id": "huge", "op": "stats", "pad": "x" * 100_000})
        good = json.dumps(predict_request(1, configs[1].to_dict()))

        async def client(port, _):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write((huge + "\n" + good + "\n").encode())
            await writer.drain()
            replies = []
            while not replies or replies[-1].get("id") != 1:
                line = await asyncio.wait_for(reader.readline(), 10)
                assert line, "server closed the connection"
                replies.append(json.loads(line))
            writer.close()
            await writer.wait_closed()
            return replies

        replies = serve(make_server(model), client)
        assert replies[-1]["latency_s"] == direct[configs[1].cache_key()]
        assert replies[:-1] and all(
            r["id"] is None and "error" in r for r in replies[:-1]
        )

    def test_bad_config_fails_alone(self, configs, model, direct):
        """One out-of-space config in a micro-batch of six fails alone; its
        five batch-mates get their latencies."""
        bad = configs[0].to_dict()
        bad["units"][0][0]["kernel_size"] = 11
        requests = [predict_request(i, configs[i].to_dict()) for i in range(5)]
        requests.insert(2, predict_request("bad", bad))
        server = make_server(model, max_batch=6, max_wait_s=0.05)
        lines = [json.dumps(r) for r in requests]
        replies = [json.loads(r) for r in serve(server, lambda port, _: exchange(port, lines))]
        by_id = {r["id"]: r for r in replies}
        assert by_id["bad"]["error"] == (
            "ValueError: config (family='resnet') is not a member of the "
            "'resnet' space"
        )
        for i in range(5):
            assert by_id[i]["latency_s"] == direct[configs[i].cache_key()]
        assert len({by_id[i]["batch_seq"] for i in range(5)}) == 1

    def test_submit_rejects_an_out_of_space_config(self, configs, model):
        bad = ArchConfig(SPACE, [[BlockConfig(3, 0.3)]] * 4)  # 0.3: not a choice

        async def scenario():
            server = make_server(model)
            with pytest.raises(ValueError, match="not a member of the 'resnet' space"):
                server.submit(SPACE, DEVICE, ENCODING, bad)
            return await server.predict(SPACE, DEVICE, ENCODING, configs[0])

        assert asyncio.run(scenario()).batch_seq == 1


# ---------------------------------------------------------------------- #
# Hostile requests
# ---------------------------------------------------------------------- #

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.lists(st.integers(0, 9), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@st.composite
def hostile_request(draw, config_dicts):
    """A valid predict request with one field of it mutated."""
    request = predict_request(0, copy.deepcopy(draw(st.sampled_from(config_dicts))))
    config = request["config"]
    u = draw(st.integers(0, len(config["units"]) - 1))
    b = draw(st.integers(0, len(config["units"][u]) - 1))
    block = config["units"][u][b]
    kind = draw(st.sampled_from(
        ["request", "field", "drop", "config", "units", "unit", "block",
         "block_field", "block_drop", "number"]
    ))
    if kind == "request":
        return draw(st.one_of(st.lists(st.integers(), max_size=2), st.integers(), st.text(max_size=4)))
    if kind == "field":
        request[draw(st.sampled_from(["space", "device", "encoding", "op"]))] = draw(_JUNK)
    elif kind == "drop":
        del request[draw(st.sampled_from(["space", "device", "encoding", "config"]))]
    elif kind == "config":
        request["config"] = draw(_JUNK)
    elif kind == "units":
        config[draw(st.sampled_from(["units", "family"]))] = draw(_JUNK)
    elif kind == "unit":
        config["units"][u] = draw(_JUNK)
    elif kind == "block":
        config["units"][u][b] = draw(_JUNK)
    elif kind == "block_field":
        block[draw(st.sampled_from(["kernel_size", "expand_ratio"]))] = draw(_JUNK)
    elif kind == "block_drop":
        del block[draw(st.sampled_from(["kernel_size", "expand_ratio"]))]
    else:  # a number, possibly non-finite or outside the space
        block[draw(st.sampled_from(["kernel_size", "expand_ratio"]))] = draw(
            st.sampled_from([11, 0, -3, 2**70, 0.3, 1e308, math.nan, math.inf, -math.inf])
        )
    return request


class TestHostileRequests:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_every_request_gets_one_reply(self, data, configs, model, direct):
        dicts = [c.to_dict() for c in configs[:8]]
        hostile = data.draw(st.lists(hostile_request(dicts), min_size=1, max_size=6))
        valid = [predict_request(None, d) for d in dicts[:4]]
        requests = hostile + valid
        order = data.draw(st.permutations(range(len(requests))))
        requests = [requests[i] for i in order]
        for rid, request in enumerate(requests):
            if isinstance(request, dict):
                request["id"] = rid
        lines = [json.dumps(r) for r in requests]
        server = make_server(model, max_batch=16, max_wait_s=0.01)

        async def client(port, _):
            replies = await exchange(port, lines)
            # The connection served everything and is still usable.
            again = await exchange(port, [json.dumps({"id": "after", "op": "models"})])
            return replies, again

        raw, again = serve(server, client)
        assert json.loads(again[0])["id"] == "after"
        replies = [json.loads(r) for r in raw]
        ids = [r["id"] for r in replies if r["id"] is not None]
        assert sorted(ids) == [i for i, r in enumerate(requests) if isinstance(r, dict)]
        assert len(replies) - len(ids) == sum(not isinstance(r, dict) for r in requests)
        by_id = {r["id"]: r for r in replies}
        for rid, request in enumerate(requests):
            if not isinstance(request, dict):
                continue  # answered with id null: it has no id to echo
            reply = by_id[rid]
            if "error" in reply:
                assert reply["error"].startswith(("ValueError: ", "KeyError: ")), reply
                if reply["error"].startswith("ValueError: ") and "unknown op" not in reply["error"]:
                    assert reply["error"].startswith("ValueError: config"), reply
            elif request.get("op", "predict") == "predict":
                assert set(reply) == {"id", "latency_s", "model_version", "batch_seq", "cached"}
                assert math.isfinite(reply["latency_s"])
        for request in valid:
            reply = by_id[request["id"]]
            assert "error" not in reply, reply
            config_key = configs[dicts.index(request["config"])].cache_key()
            assert reply["latency_s"] == direct[config_key]
