"""PredictionServer end to end: correctness, caching, hot-swap, TCP, CLI.

The load-bearing assertions mirror the acceptance criteria:

* micro-batched responses are bit-identical to calling the same model's
  ``encode_batch`` + ``predict`` on the same rows directly;
* a hot-swap mid-load never tears a batch — every response belongs to
  exactly one model version and matches that version's model exactly —
  and never drops a request;
* swapping in the *same* model payload leaves predictions byte-identical
  while the version advances.

Each test drives its own ``asyncio.run`` loop (no pytest-asyncio here).
"""

import asyncio
import json
from collections import defaultdict

import numpy as np
import pytest

from repro import (
    CARTPredictor,
    MLPPredictor,
    ModelRegistry,
    PredictionServer,
    RandomSampler,
    ServeKey,
    encoder_for,
    resnet_space,
)
from repro.serve import request_lines
from repro.serve.__main__ import key_from_filename, load_models_dir, main

SPACE, DEVICE, ENCODING = "resnet", "raspberrypi4", "fcc"
KEY = ServeKey(SPACE, DEVICE, ENCODING)


@pytest.fixture(scope="module")
def spec():
    return resnet_space()


@pytest.fixture(scope="module")
def configs(spec):
    """96 distinct resnet configs (distinct so cache/dedupe effects are
    explicit per test, and 96 = 12 full batches of 8 for deterministic
    grouping)."""
    seen, unique = set(), []
    sampler = RandomSampler(spec, rng=17)
    while len(unique) < 96:
        config = sampler.sample()
        ck = config.cache_key()
        if ck not in seen:
            seen.add(ck)
            unique.append(config)
    return unique


@pytest.fixture(scope="module")
def training(spec, configs):
    X = encoder_for(ENCODING, spec).encode_batch(configs, spec)
    y = X.sum(axis=1) * 0.01 + 3.0
    return X, y


@pytest.fixture(scope="module")
def model_a(training):
    X, y = training
    return CARTPredictor().fit(X, y)


@pytest.fixture(scope="module")
def model_b(training):
    X, y = training
    # Trained on shifted targets: predictions differ from model_a everywhere.
    return CARTPredictor().fit(X, y * 2.0 + 1.0)


def make_server(model, **kwargs):
    registry = ModelRegistry()
    registry.register(KEY, model)
    kwargs.setdefault("max_batch", 8)
    kwargs.setdefault("max_wait_s", 0.001)
    return PredictionServer(registry, **kwargs)


def group_by_batch(configs, results):
    """(config, result) pairs grouped per flushed batch, submission order."""
    batches = defaultdict(list)
    for config, result in zip(configs, results):
        batches[result.batch_seq].append((config, result))
    return batches


class TestRequestPath:
    def test_batched_predictions_bit_identical_to_direct(
        self, spec, configs, model_a
    ):
        # max_batch=1 is the naive server: every request its own flush.
        encoder = encoder_for(ENCODING, spec)
        served = {}
        for max_batch in (1, 8):
            server = make_server(model_a, max_batch=max_batch)

            async def scenario():
                return await server.predict_many(SPACE, DEVICE, ENCODING, configs)

            results = asyncio.run(scenario())
            assert len(results) == len(configs)
            assert all(r.model_version == 1 and not r.cached for r in results)
            for batch in group_by_batch(configs, results).values():
                rows = [c for c, _ in batch]
                direct = model_a.predict(encoder.encode_batch(rows, spec))
                np.testing.assert_array_equal(
                    np.array([r.latency_s for _, r in batch]), direct
                )
            # Micro-batching happened: one flush per max_batch requests.
            assert server.stats()["batches"] == len(configs) // max_batch
            served[max_batch] = [r.latency_s for r in results]
        np.testing.assert_allclose(served[8], served[1])

    def test_repeat_queries_short_circuit(self, configs, model_a):
        server = make_server(model_a)

        async def scenario():
            first = await server.predict_many(SPACE, DEVICE, ENCODING, configs[:10])
            second = await server.predict_many(SPACE, DEVICE, ENCODING, configs[:10])
            return first, second

        first, second = asyncio.run(scenario())
        assert all(r.cached for r in second)
        assert [r.latency_s for r in second] == [r.latency_s for r in first]
        assert [r.model_version for r in second] == [1] * 10
        stats = server.stats()
        assert stats["cache_hits"] == 10
        assert stats["items_flushed"] == 10  # second round never hit the batcher

    def test_duplicates_in_one_batch_predicted_once(self, configs, model_a):
        server = make_server(model_a, max_batch=64)

        async def scenario():
            return await server.predict_many(
                SPACE, DEVICE, ENCODING, [configs[0]] * 40
            )

        results = asyncio.run(scenario())
        assert len({r.latency_s for r in results}) == 1
        stats = server.stats()
        assert stats["batches"] == 1 and stats["items_flushed"] == 40

    def test_predict_single_sugar(self, spec, configs, model_a):
        server = make_server(model_a)

        async def scenario():
            return await server.predict(SPACE, DEVICE, ENCODING, configs[0])

        result = asyncio.run(scenario())
        encoder = encoder_for(ENCODING, spec)
        assert result.latency_s == model_a.predict(
            encoder.encode_batch([configs[0]], spec)
        )[0]

    def test_unknown_key_fails_synchronously(self, configs, model_a):
        server = make_server(model_a)

        async def scenario():
            with pytest.raises(KeyError, match="no model registered"):
                server.submit(SPACE, "imaginary-device", ENCODING, configs[0])
            with pytest.raises(KeyError):
                server.submit("no-such-space", DEVICE, ENCODING, configs[0])

        asyncio.run(scenario())

    def test_drain_flushes_pending(self, configs, model_a):
        server = make_server(model_a, max_batch=512, max_wait_s=60.0)

        async def scenario():
            futures = [
                server.submit(SPACE, DEVICE, ENCODING, c) for c in configs[:5]
            ]
            server.drain()
            return await asyncio.gather(*futures)

        assert len(asyncio.run(scenario())) == 5


class TestHotSwap:
    def test_swap_mid_stream_no_torn_batches(
        self, spec, configs, model_a, model_b
    ):
        """Swap while a micro-batch is partially filled: nothing dropped,
        every batch single-versioned, every value exactly the claimed
        version's model output."""
        server = make_server(model_a)

        async def scenario():
            futures = []
            for i, config in enumerate(configs):
                futures.append(server.submit(SPACE, DEVICE, ENCODING, config))
                if i == 42:  # 42 % 8 != 0: a partial batch is pending now
                    server.registry.swap(KEY, model_b)
            return await asyncio.gather(*futures)

        results = asyncio.run(scenario())
        assert len(results) == len(configs)  # zero dropped
        versions = {r.model_version for r in results}
        assert versions == {1, 2}
        encoder = encoder_for(ENCODING, spec)
        models = {1: model_a, 2: model_b}
        for batch in group_by_batch(configs, results).values():
            batch_versions = {r.model_version for _, r in batch}
            assert len(batch_versions) == 1  # no torn batches
            model = models[batch_versions.pop()]
            rows = [c for c, _ in batch]
            np.testing.assert_array_equal(
                np.array([r.latency_s for _, r in batch]),
                model.predict(encoder.encode_batch(rows, spec)),
            )

    def test_swap_under_concurrent_producers(
        self, spec, configs, model_a, model_b
    ):
        """Several producer tasks stream queries while another task swaps
        the model: every response resolves and no batch mixes versions."""
        server = make_server(model_a, max_batch=4)
        encoder = encoder_for(ENCODING, spec)
        # Per-config expected values per version.  CART prediction is a
        # per-row tree walk, so single-row and batched predictions are
        # bit-identical — exact equality is safe however rows were grouped.
        expected = {
            version: {
                config.cache_key(): model.predict(
                    encoder.encode_batch([config], spec)
                )[0]
                for config in configs
            }
            for version, model in ((1, model_a), (2, model_b))
        }

        async def producer(chunk):
            collected = []
            for config in chunk:
                collected.append(
                    (config, await server.submit(SPACE, DEVICE, ENCODING, config))
                )
                await asyncio.sleep(0)  # let other producers interleave
            return collected

        async def swapper():
            await asyncio.sleep(0.002)
            server.registry.swap(KEY, model_b)

        async def scenario():
            chunks = [configs[i::3] for i in range(3)]
            produced = await asyncio.gather(
                producer(chunks[0]), producer(chunks[1]), producer(chunks[2]),
                swapper(),
            )
            return [pair for chunk in produced[:3] for pair in chunk]

        pairs = asyncio.run(scenario())
        assert len(pairs) == len(configs)
        by_batch = defaultdict(set)
        for config, result in pairs:
            if result.cached:
                continue
            by_batch[result.batch_seq].add(result.model_version)
            assert result.latency_s == expected[result.model_version][
                config.cache_key()
            ]
        assert all(len(v) == 1 for v in by_batch.values())

    def test_swap_invalidates_prediction_cache(self, configs, model_a, model_b):
        server = make_server(model_a)

        async def scenario():
            before = await server.predict(SPACE, DEVICE, ENCODING, configs[0])
            cached = await server.predict(SPACE, DEVICE, ENCODING, configs[0])
            server.registry.swap(KEY, model_b)
            after = await server.predict(SPACE, DEVICE, ENCODING, configs[0])
            return before, cached, after

        before, cached, after = asyncio.run(scenario())
        assert cached.cached and cached.model_version == 1
        assert not after.cached and after.model_version == 2
        assert after.latency_s != before.latency_s

    def test_same_payload_swap_serves_byte_identical(
        self, configs, training, tmp_path
    ):
        """Acceptance: hot-swapping the same model payload leaves every
        served prediction byte-identical; only the version advances."""
        X, y = training
        path = tmp_path / "model.json"
        MLPPredictor(epochs=15).fit(X, y).save(path)

        registry = ModelRegistry()
        registry.load(KEY, path)
        server = PredictionServer(registry, max_batch=8, max_wait_s=0.001)

        async def scenario():
            first = await server.predict_many(SPACE, DEVICE, ENCODING, configs)
            registry.swap(KEY, MLPPredictor.load(path))
            second = await server.predict_many(SPACE, DEVICE, ENCODING, configs)
            return first, second

        first, second = asyncio.run(scenario())
        assert all(not r.cached for r in second)  # swap dropped the LRU
        a = np.array([r.latency_s for r in first])
        b = np.array([r.latency_s for r in second])
        assert a.tobytes() == b.tobytes()
        assert {r.model_version for r in first} == {1}
        assert {r.model_version for r in second} == {2}


class TestTcpFrontEnd:
    def test_json_lines_round_trip(self, spec, configs, model_a):
        server = make_server(model_a)
        encoder = encoder_for(ENCODING, spec)

        async def scenario():
            tcp = await server.start_tcp(port=0)
            port = tcp.sockets[0].getsockname()[1]
            requests = [
                {
                    "id": i,
                    "space": SPACE,
                    "device": DEVICE,
                    "encoding": ENCODING,
                    "config": configs[i].to_dict(),
                }
                for i in range(12)
            ]
            requests.append({"id": "stats", "op": "stats"})
            requests.append({"id": "models", "op": "models"})
            requests.append({"id": "bad", "op": "predict", "space": "nope",
                             "device": DEVICE, "encoding": ENCODING,
                             "config": configs[0].to_dict()})
            replies = await request_lines("127.0.0.1", port, requests)
            tcp.close()
            await tcp.wait_closed()
            return replies

        replies = asyncio.run(scenario())
        by_id = {r["id"]: r for r in replies}
        direct = model_a.predict(encoder.encode_batch(configs[:12], spec))
        for i in range(12):
            assert by_id[i]["latency_s"] == direct[i]
            assert by_id[i]["model_version"] == 1
        assert by_id["stats"]["requests"] >= 12
        assert by_id["models"]["models"][0]["key"] == str(KEY)
        assert "error" in by_id["bad"] and "KeyError" in by_id["bad"]["error"]

    def test_malformed_line_is_isolated(self, configs, model_a):
        server = make_server(model_a)

        async def scenario():
            tcp = await server.start_tcp(port=0)
            port = tcp.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"this is not json\n")
            writer.write(
                json.dumps(
                    {
                        "id": 1,
                        "space": SPACE,
                        "device": DEVICE,
                        "encoding": ENCODING,
                        "config": configs[0].to_dict(),
                    }
                ).encode()
                + b"\n"
            )
            await writer.drain()
            replies = [json.loads(await reader.readline()) for _ in range(2)]
            writer.close()
            await writer.wait_closed()
            tcp.close()
            await tcp.wait_closed()
            return replies

        replies = asyncio.run(scenario())
        by_id = {r["id"]: r for r in replies}
        assert "bad JSON" in by_id[None]["error"]
        assert "latency_s" in by_id[1]


class TestCli:
    def test_key_from_filename(self, tmp_path):
        path = tmp_path / "resnet__raspberrypi4__fcc.json"
        assert key_from_filename(path) == KEY
        with pytest.raises(ValueError, match="not <space>__<device>__<encoding>"):
            key_from_filename(tmp_path / "resnet-fcc.json")

    def test_load_models_dir(self, training, tmp_path):
        X, y = training
        MLPPredictor(epochs=5).fit(X, y).save(
            tmp_path / "resnet__raspberrypi4__fcc.json"
        )
        MLPPredictor(epochs=5).fit(X, y).save(
            tmp_path / "resnet__rtx4090__fcc.json"
        )
        registry = ModelRegistry()
        assert load_models_dir(registry, tmp_path) == 2
        assert len(registry) == 2
        assert registry.watched()[KEY].name == "resnet__raspberrypi4__fcc.json"

    def test_main_refuses_empty_models_dir(self, tmp_path, capsys):
        assert main(["--models", str(tmp_path)]) == 1
        assert "no *.json model payloads" in capsys.readouterr().err
