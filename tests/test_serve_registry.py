"""ModelRegistry: keyed lookup, hot-swap versioning, watch/reload atomicity."""

import asyncio
import json
import os

import numpy as np
import pytest

from repro import (
    MLPPredictor,
    ModelRegistry,
    PredictionServer,
    RidgePredictor,
    ServeKey,
)

KEY = ServeKey("resnet", "raspberrypi4", "fcc")
OTHER = ServeKey("densenet", "rtx4090", "fcc")


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(3)
    X = rng.integers(0, 5, size=(60, 7)).astype(float)
    y = X @ rng.uniform(0.5, 2.0, size=7) + 1.0
    return X, y


@pytest.fixture()
def ridge(toy):
    X, y = toy
    return RidgePredictor().fit(X, y)


class TestRegisterAndGet:
    def test_register_and_get(self, ridge):
        registry = ModelRegistry()
        entry = registry.register(KEY, ridge)
        assert entry.version == 1 and entry.predictor is ridge
        assert registry.get(KEY) is entry
        assert registry.get(("resnet", "raspberrypi4", "fcc")) is entry  # tuple ok
        assert KEY in registry and len(registry) == 1
        assert registry.keys() == (KEY,)

    def test_unknown_key_names_known_ones(self, ridge):
        registry = ModelRegistry()
        registry.register(KEY, ridge)
        with pytest.raises(KeyError, match="resnet/raspberrypi4/fcc"):
            registry.get(ServeKey("densenet", "rtx4090", "fc"))

    def test_unfitted_predictor_rejected(self):
        with pytest.raises(ValueError, match="unfitted"):
            ModelRegistry().register(KEY, RidgePredictor())

    def test_describe(self, ridge, toy, tmp_path):
        X, y = toy
        registry = ModelRegistry()
        registry.register(KEY, ridge)
        path = tmp_path / "m.json"
        MLPPredictor(epochs=5).fit(X, y).save(path)
        registry.load(ServeKey("densenet", "rtx4090", "fc"), path)
        rows = registry.describe()
        assert [r["key"] for r in rows] == [
            "densenet/rtx4090/fc",
            "resnet/raspberrypi4/fcc",
        ]
        assert rows[0]["kind"] == "mlp" and rows[0]["fingerprint"]
        assert rows[1]["path"] is None


class TestHotSwap:
    def test_swap_bumps_version_and_flips_pointer(self, toy, ridge):
        X, y = toy
        registry = ModelRegistry()
        registry.register(KEY, ridge)
        old = registry.get(KEY)
        replacement = RidgePredictor().fit(X, y * 2)
        entry = registry.swap(KEY, replacement)
        assert entry.version == 2 and registry.swaps == 1
        assert registry.get(KEY).predictor is replacement
        # The old entry is an immutable snapshot: holders keep a
        # consistent (predictor, version) pair across the swap.
        assert old.predictor is ridge and old.version == 1

    def test_swap_unregistered_key_rejected(self, ridge):
        with pytest.raises(KeyError, match="no model registered"):
            ModelRegistry().swap(KEY, ridge)

    def test_subscribers_run_after_flip(self, toy, ridge):
        X, y = toy
        registry = ModelRegistry()
        seen = []
        registry.subscribe(
            lambda key, entry: seen.append((key, entry.version, registry.get(key)))
        )
        registry.register(KEY, ridge)
        registry.swap(KEY, RidgePredictor().fit(X, y * 2))
        assert [(k, v) for k, v, _ in seen] == [(KEY, 1), (KEY, 2)]
        # Subscriber observed the *new* entry already installed.
        assert seen[1][2].version == 2

    def test_same_payload_swap_is_byte_identical(self, toy, tmp_path):
        """Acceptance: swapping in the same model payload changes nothing
        about the predictions, bit for bit — only the version moves."""
        X, y = toy
        path = tmp_path / "model.json"
        MLPPredictor(epochs=10).fit(X, y).save(path)

        registry = ModelRegistry()
        registry.load(KEY, path)
        before = registry.get(KEY).predictor.predict(X)

        registry.swap(KEY, type(registry.get(KEY).predictor).load(path))
        after = registry.get(KEY).predictor.predict(X)
        np.testing.assert_array_equal(before, after)
        assert after.tobytes() == before.tobytes()
        assert registry.get(KEY).version == 2


class TestWatchReload:
    def test_load_watch_poll_cycle(self, toy, tmp_path):
        X, y = toy
        path = tmp_path / "model.json"
        RidgePredictor().fit(X, y).save(path)

        registry = ModelRegistry()
        registry.load(KEY, path, watch=True)
        assert registry.watched() == {KEY: path}
        assert registry.poll() == []  # unchanged bytes: no churn

        retrained = RidgePredictor().fit(X, y * 3)
        retrained.save(path)  # atomic overwrite, like a real retrain job
        assert registry.poll() == [KEY]
        entry = registry.get(KEY)
        assert entry.version == 2
        np.testing.assert_array_equal(
            entry.predictor.predict(X), retrained.predict(X)
        )
        assert registry.poll() == []  # converged again

    def test_poll_reloads_across_kinds(self, toy, tmp_path):
        """The watch path goes through `load_predictor`: a retrain that
        switches predictor kind (mlp -> ridge) hot-swaps cleanly."""
        X, y = toy
        path = tmp_path / "model.json"
        MLPPredictor(epochs=5).fit(X, y).save(path)
        registry = ModelRegistry()
        registry.load(KEY, path, watch=True)
        RidgePredictor().fit(X, y).save(path)
        assert registry.poll() == [KEY]
        assert registry.get(KEY).predictor.KIND == "ridge"

    def test_crash_mid_save_leaves_model_live(self, toy, tmp_path, monkeypatch):
        """A trainer dying mid-save must not disturb the served model:
        the atomic-save contract leaves the old bytes in place, so the
        fingerprint matches and poll is a no-op."""
        X, y = toy
        path = tmp_path / "model.json"
        RidgePredictor().fit(X, y).save(path)
        registry = ModelRegistry()
        registry.load(KEY, path, watch=True)
        before_bytes = path.read_bytes()
        before_pred = registry.get(KEY).predictor.predict(X)

        def boom(*args, **kwargs):
            raise OSError("simulated crash during rename")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            RidgePredictor().fit(X, y * 5).save(path)
        monkeypatch.undo()

        assert path.read_bytes() == before_bytes
        assert registry.poll() == []
        entry = registry.get(KEY)
        assert entry.version == 1
        np.testing.assert_array_equal(entry.predictor.predict(X), before_pred)

    def test_poll_skips_missing_file(self, toy, tmp_path):
        X, y = toy
        path = tmp_path / "model.json"
        RidgePredictor().fit(X, y).save(path)
        registry = ModelRegistry()
        registry.load(KEY, path, watch=True)
        path.unlink()
        assert registry.poll() == []  # keeps answering from the loaded model
        assert registry.get(KEY).version == 1


class TestReloadFailures:
    """A watched file that does not load never stops the other keys."""

    @pytest.fixture()
    def watched(self, toy, tmp_path):
        X, y = toy
        torn, good = tmp_path / "torn.json", tmp_path / "good.json"
        RidgePredictor().fit(X, y).save(torn)
        RidgePredictor().fit(X, y).save(good)
        registry = ModelRegistry()
        registry.load(KEY, torn, watch=True)  # polled first
        registry.load(OTHER, good, watch=True)
        return registry, torn, good

    def test_torn_file_keeps_old_model_and_other_keys_reload(self, toy, watched):
        X, y = toy
        registry, torn, good = watched
        before = registry.get(KEY).predictor.predict(X)
        torn.write_bytes(torn.read_bytes()[:40])  # a non-atomic cp, cut short
        retrained = RidgePredictor().fit(X, y * 2)
        retrained.save(good)

        assert registry.poll() == [OTHER]
        assert registry.get(OTHER).version == 2
        np.testing.assert_array_equal(
            registry.get(OTHER).predictor.predict(X), retrained.predict(X)
        )
        assert registry.get(KEY).version == 1
        np.testing.assert_array_equal(registry.get(KEY).predictor.predict(X), before)
        assert registry.reload_failures == 1

    def test_mlp_payload_fit_cannot_write_keeps_old_model(self, toy, tmp_path):
        """An MLP payload that parses but whose weights do not chain (it
        would fail at predict) is a reload failure, not a served model."""
        X, y = toy
        path = tmp_path / "mlp.json"
        MLPPredictor(epochs=5).fit(X, y).save(path)
        registry = ModelRegistry()
        registry.load(KEY, path, watch=True)
        before = registry.get(KEY).predictor.predict(X)

        payload = json.loads(path.read_text())
        payload["state"]["weights"][1].pop()  # one hidden row short
        path.write_text(json.dumps(payload))
        assert registry.poll() == []
        assert registry.reload_failures == 1
        assert registry.get(KEY).version == 1
        np.testing.assert_array_equal(registry.get(KEY).predictor.predict(X), before)

    def test_the_same_bad_bytes_are_not_retried(self, toy, watched, monkeypatch):
        X, y = toy
        registry, torn, _ = watched
        torn.write_text('{"kind": "ridge"}')  # parses, but is no payload
        assert registry.poll() == []
        assert registry.reload_failures == 1

        import repro.serve.registry as registry_module

        def must_not_load(path, **kwargs):
            raise AssertionError(f"re-parsed unchanged bad bytes of {path}")

        monkeypatch.setattr(registry_module, "load_predictor", must_not_load)
        assert registry.poll() == []
        monkeypatch.undo()
        assert registry.reload_failures == 1

        RidgePredictor().fit(X, y * 3).save(torn)  # fixed: reloads again
        assert registry.poll() == [KEY]
        assert registry.get(KEY).version == 2

    def test_a_save_landing_mid_reload_is_loaded_next_poll(
        self, toy, watched, monkeypatch
    ):
        """The bytes a poll fingerprints are the bytes it parses: a save
        (here torn, then good) that lands while a reload is parsing is
        neither taken for the model just loaded nor rejected in its
        place, and the next polls pick it up."""
        import repro.serve.registry as registry_module

        X, y = toy
        registry, torn, _ = watched
        second = RidgePredictor().fit(X, y * 2)
        third = RidgePredictor().fit(X, y * 3)
        second.save(torn)
        real_load = registry_module.load_predictor

        def load_then_overwrite(path, **kwargs):
            predictor = real_load(path, **kwargs)
            path.write_bytes(path.read_bytes()[:40])  # a cp cut short
            return predictor

        monkeypatch.setattr(registry_module, "load_predictor", load_then_overwrite)
        assert registry.poll() == [KEY]
        monkeypatch.undo()
        np.testing.assert_array_equal(
            registry.get(KEY).predictor.predict(X), second.predict(X)
        )
        assert registry.reload_failures == 0

        assert registry.poll() == []  # the torn bytes: rejected, not served
        assert registry.reload_failures == 1
        third.save(torn)
        assert registry.poll() == [KEY]
        assert registry.get(KEY).version == 3
        np.testing.assert_array_equal(
            registry.get(KEY).predictor.predict(X), third.predict(X)
        )

    def test_a_vanished_file_is_skipped_not_rejected(self, toy, watched):
        X, y = toy
        registry, torn, _ = watched
        saved = torn.read_bytes()
        torn.unlink()
        assert registry.poll() == []
        assert registry.reload_failures == 0
        torn.write_bytes(saved)  # back with the bytes already served
        assert registry.poll() == []
        RidgePredictor().fit(X, y * 2).save(torn)
        assert registry.poll() == [KEY]
        assert registry.reload_failures == 0

    def test_polling_task_survives_and_counts_the_failure(self, toy, watched):
        X, y = toy
        registry, torn, good = watched
        server = PredictionServer(registry)

        async def scenario():
            task = server.start_polling(0.005)
            torn.write_text("{")
            await asyncio.sleep(0.05)
            RidgePredictor().fit(X, y * 2).save(good)
            await asyncio.sleep(0.05)
            alive = not task.done()
            task.cancel()
            return alive

        assert asyncio.run(scenario())
        assert registry.get(OTHER).version == 2
        assert registry.get(KEY).version == 1
        assert server.stats()["reload_failures"] == 1
