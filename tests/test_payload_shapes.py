"""Predictor payloads whose arrays `fit` could never write are refused at load.

A tree payload whose children point backwards would make ``predict`` walk
a cycle forever; one whose arrays disagree in length, or whose feature
index is out of range, would fail deep inside numpy.  A ridge payload one
entry short fails in ``matmul``.  Each is refused by `predictor_from_payload`
(so by `load_predictor`, the server's ``--models`` and hot reload) with a
`ValueError` naming the field.  Also here: the server start-up error and
`ESMLoop`'s check of the config's space and device names.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import (
    CARTPredictor,
    ESMConfig,
    ESMLoop,
    GradientBoostingPredictor,
    RandomForestPredictor,
    RidgePredictor,
    resnet_space,
)
from repro.predictors import predictor_from_payload
from repro.serve import ModelRegistry, ServeKey

SRC = Path(__file__).resolve().parent.parent / "src"
KEY = ServeKey("resnet", "raspberrypi4", "fcc")


@pytest.fixture(scope="module")
def toy():
    rng = np.random.default_rng(0)
    X = rng.random((60, 5))
    return X, X @ np.arange(1.0, 6.0) + 0.1 * rng.random(60)


@pytest.fixture(scope="module")
def payloads(toy):
    X, y = toy
    return {
        "cart": CARTPredictor(max_depth=3).fit(X, y).to_payload(),
        "rf": RandomForestPredictor(n_estimators=4, max_depth=3).fit(X, y).to_payload(),
        "gb": GradientBoostingPredictor(n_estimators=4, max_depth=3).fit(X, y).to_payload(),
        "ridge": RidgePredictor().fit(X, y).to_payload(),
    }


def _tree(payload, kind):
    """The (first) tree dict of a payload and the path naming it."""
    if kind == "cart":
        return payload["state"]["tree"], "state.tree"
    return payload["state"]["trees"][0], "state.trees.0"


def _refused(payload, match):
    with pytest.raises(ValueError, match=match):
        predictor_from_payload(payload)


@pytest.mark.parametrize("kind", ["cart", "rf", "gb"])
class TestTreePayloads:
    def test_valid_payload_round_trips(self, kind, payloads, toy):
        X, _ = toy
        model = predictor_from_payload(copy.deepcopy(payloads[kind]))
        assert model.to_payload() == payloads[kind]
        assert np.all(np.isfinite(model.predict(X)))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_a_cycle_is_refused(self, kind, side, payloads):
        payload = copy.deepcopy(payloads[kind])
        tree, where = _tree(payload, kind)
        assert tree["feature"][0] >= 0  # the root splits
        tree[side][0] = 0  # the root's child is the root: predict would spin
        _refused(payload, rf"^{where}\.{side}\.0: child 0 of node 0")

    def test_a_backward_child_is_refused(self, kind, payloads):
        payload = copy.deepcopy(payloads[kind])
        tree, where = _tree(payload, kind)
        internal = [i for i, f in enumerate(tree["feature"]) if f >= 0]
        node = internal[-1]
        tree["right"][node] = node - 1 if node else 0
        _refused(payload, rf"^{where}\.right\.{node}: ")

    def test_a_child_past_the_end_is_refused(self, kind, payloads):
        payload = copy.deepcopy(payloads[kind])
        tree, where = _tree(payload, kind)
        tree["left"][0] = len(tree["feature"])
        _refused(payload, rf"^{where}\.left\.0: .* inside the {len(tree['feature'])} nodes")

    @pytest.mark.parametrize("field", ["feature", "threshold", "left", "right", "value"])
    def test_unequal_lengths_are_refused(self, kind, field, payloads):
        payload = copy.deepcopy(payloads[kind])
        tree, where = _tree(payload, kind)
        n = len(tree["feature"])
        if field == "feature":
            tree[field].append(-1)
            _refused(payload, rf"^{where}\.threshold: expected shape \({n + 1},\)")
        else:
            tree[field].pop()
            _refused(payload, rf"^{where}\.{field}: expected shape \({n},\)")

    def test_a_feature_below_minus_one_is_refused(self, kind, payloads):
        payload = copy.deepcopy(payloads[kind])
        tree, where = _tree(payload, kind)
        tree["feature"][0] = -2
        _refused(payload, rf"^{where}\.feature\.0: -2 is neither -1")

    @pytest.mark.parametrize("bad", [1.5, "x", None])
    def test_a_non_integer_index_is_refused(self, kind, bad, payloads):
        payload = copy.deepcopy(payloads[kind])
        tree, where = _tree(payload, kind)
        tree["left"][0] = bad
        _refused(payload, rf"^{where}\.left")

    def test_an_empty_or_missing_tree_is_refused(self, kind, payloads):
        payload = copy.deepcopy(payloads[kind])
        tree, where = _tree(payload, kind)
        for field in tree:
            tree[field] = []
        _refused(payload, rf"^{where}\.feature: a tree needs at least one node")
        del tree["value"]
        _refused(payload, rf"^{where}\.value: missing")

    def test_a_feature_past_the_input_is_a_value_error(self, kind, payloads, toy):
        """The payload stores no feature width: a split on a column the
        input does not have fails at predict with a `ValueError`, not an
        `IndexError`."""
        X, _ = toy
        model = predictor_from_payload(copy.deepcopy(payloads[kind]))
        with pytest.raises(ValueError, match="features per row"):
            model.predict(X[:, :1])


def test_forest_feature_must_index_its_column_subset(payloads):
    payload = copy.deepcopy(payloads["rf"])
    n_cols = len(payload["state"]["features"][0])
    payload["state"]["trees"][0]["feature"][0] = n_cols
    _refused(payload, rf"^state\.trees\.0\.feature\.0: {n_cols} .* below {n_cols}")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda s: s["features"].pop(),
        lambda s: s["features"][1].reverse(),
        lambda s: s["features"][1].__setitem__(0, -1),
        lambda s: s["features"].__setitem__(1, []),
    ],
)
def test_forest_column_subsets_are_checked(payloads, mutate):
    payload = copy.deepcopy(payloads["rf"])
    mutate(payload["state"])
    _refused(payload, r"^state\.features")


class TestRidgePayloads:
    @pytest.mark.parametrize("field", ["coef", "x_std"])
    def test_an_entry_short_is_refused(self, field, payloads):
        payload = copy.deepcopy(payloads["ridge"])
        payload["state"][field].pop()
        _refused(payload, rf"^state\.{field}: expected shape \(5,\), got shape \(4,\)")

    def test_x_mean_sets_the_width(self, payloads):
        payload = copy.deepcopy(payloads["ridge"])
        payload["state"]["x_mean"].pop()
        _refused(payload, r"^state\.x_std: expected shape \(4,\)")

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_x_std_must_be_a_finite_positive_scale(self, bad, payloads):
        payload = copy.deepcopy(payloads["ridge"])
        payload["state"]["x_std"][2] = bad
        _refused(payload, r"^state\.x_std\.2: .* is not a finite scale > 0")

    def test_a_retyped_entry_is_refused(self, payloads):
        payload = copy.deepcopy(payloads["ridge"])
        payload["state"]["coef"][0] = "x"
        _refused(payload, r"^state\.coef: not a numeric array")


@pytest.mark.parametrize("kind", ["cart", "ridge"])
def test_hot_reload_keeps_the_old_model(kind, payloads, toy, tmp_path):
    X, _ = toy
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payloads[kind]))
    registry = ModelRegistry()
    registry.load(KEY, path, watch=True)
    before = registry.get(KEY).predictor.predict(X)

    payload = copy.deepcopy(payloads[kind])
    if kind == "cart":
        payload["state"]["tree"]["left"][0] = 0
    else:
        payload["state"]["coef"].pop()
    path.write_text(json.dumps(payload))
    assert registry.poll() == []
    assert registry.reload_failures == 1
    assert registry.get(KEY).version == 1
    np.testing.assert_array_equal(registry.get(KEY).predictor.predict(X), before)


def test_server_start_up_names_the_file_and_the_field(payloads, tmp_path):
    models = tmp_path / "models"
    models.mkdir()
    payload = copy.deepcopy(payloads["ridge"])
    payload["state"]["coef"] = "torn"
    path = models / "resnet__raspberrypi4__fcc.json"
    path.write_text(json.dumps(payload))
    out = subprocess.run(
        [sys.executable, "-m", "repro.serve", "--models", str(models), "--port", "0"],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 2
    assert out.stderr.splitlines() == [
        f"error: predictor file {path}: state.coef: expected list, got str"
    ]


class TestESMConfigNames:
    @pytest.mark.parametrize(
        "field, valid",
        [("space", "resnet, mobilenetv3, densenet"), ("device", "rtx4090, ")],
    )
    def test_unknown_name_is_refused_by_the_loop(self, field, valid, tmp_path):
        config = ESMConfig(**{field: "nope"})
        with pytest.raises(ValueError, match=f"unknown {field} 'nope'; available: {valid}"):
            ESMLoop(config, tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_explicit_instances_only_label_the_run(self, tmp_path):
        from repro import SimulatedDevice

        config = ESMConfig(space="custom", device="lab-board")
        loop = ESMLoop(
            config,
            tmp_path / "run",
            spec=resnet_space(),
            device=SimulatedDevice("rtx4090", seed=0),
        )
        assert loop.spec.family == "resnet"
