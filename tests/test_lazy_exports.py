"""Every package's public names resolve on first use, to the same objects.

`repro` and its subpackages declare their exports in one table each
(`repro._lazy_exports`); a name is imported from its defining module when
first read.  So ``import repro`` loads no submodule, ``python -m
repro.serve`` loads neither the simulator nor the search, campaign or
transfer layers, and `load_predictor` imports only the payload's kind.
"""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import repro

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = [
    "repro",
    "repro.archspace",
    "repro.core",
    "repro.data",
    "repro.encodings",
    "repro.hardware",
    "repro.metrics",
    "repro.nas",
    "repro.network",
    "repro.predictors",
    "repro.profiling",
    "repro.serve",
    "repro.transfer",
    "repro.utils",
]

# What the server must not pay for at start-up.
NOT_ON_THE_SERVE_PATH = [
    "repro.core",
    "repro.nas",
    "repro.profiling",
    "repro.network",
    "repro.data",
    "repro.transfer",
    "repro.hardware.simulator",
    "multiprocessing",
]


def _loaded_after(code):
    """The modules a fresh interpreter has loaded after running ``code``."""
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_to_its_defining_object(package):
    module = importlib.import_module(package)
    listed = dir(module)
    for name in module.__all__:
        obj = getattr(module, name)
        assert name in listed, name
        if isinstance(obj, (type, types.FunctionType)):
            defining = importlib.import_module(obj.__module__)
            assert obj.__module__.startswith("repro."), name
            assert getattr(defining, name) is obj, name


def test_every_module_binding_a_public_name_binds_the_same_object():
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            getattr(module, name)
    loaded = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "repro"]
    for name in repro.__all__:
        obj = getattr(repro, name)
        for module in loaded:
            if name in vars(module):
                assert vars(module)[name] is obj, f"{module.__name__}.{name}"


def test_star_import_binds_every_name():
    namespace = {}
    exec("from repro import *", namespace)
    for name in repro.__all__:
        assert namespace[name] is getattr(repro, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'repro.hardware' has no attribute 'nope'"):
        importlib.import_module("repro.hardware").nope
    assert not hasattr(repro, "nope")


def test_registry_order_and_errors_are_unchanged():
    from repro.predictors import PREDICTORS, get_predictor, predictor_from_payload

    assert repro.list_predictors() == (
        "mlp", "lut", "lut+bias", "ridge", "cart", "rf", "gb", "as", "transfer",
    )
    assert PREDICTORS["mlp"] is repro.MLPPredictor
    assert PREDICTORS["transfer"] is repro.TransferPredictor
    assert get_predictor("lut+bias").bias_correction is True
    with pytest.raises(ValueError) as info:
        predictor_from_payload({"kind": "nope"})
    assert str(info.value) == (
        "unknown predictor kind 'nope'; known: mlp, lut, ridge, cart, rf, gb, as, transfer"
    )
    with pytest.raises(KeyError, match="unknown predictor 'nope'; available: mlp, lut, lut"):
        get_predictor("nope")


def test_import_repro_loads_no_submodule():
    loaded = _loaded_after("import repro")
    assert [m for m in loaded if m.startswith("repro.")] == []


def test_the_server_loads_only_what_it_serves():
    loaded = set(_loaded_after("import repro.serve.__main__"))
    assert "repro.serve.server" in loaded
    assert sorted(loaded.intersection(NOT_ON_THE_SERVE_PATH)) == []


def test_load_predictor_imports_only_the_payloads_kind(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "ridge.json"
    repro.RidgePredictor().fit(rng.random((20, 3)), rng.random(20)).save(path)
    loaded = _loaded_after(
        f"from repro.predictors import load_predictor\nload_predictor({str(path)!r})"
    )
    members = [m for m in loaded if m.startswith("repro.predictors.")]
    assert members == ["repro.predictors.linear", "repro.predictors.protocol"]


@pytest.mark.parametrize(
    "command, loads, skips",
    [
        ([], "repro", ["repro.archspace", "repro.core", "repro.nas", "repro.transfer"]),
        (["serve"], "repro.serve.server", NOT_ON_THE_SERVE_PATH),
        (["samplers"], "repro.core.experiments", ["repro.nas", "repro.transfer"]),
        (["nas"], "repro.nas.experiments", ["repro.transfer"]),
        (["transfer"], "repro.transfer.experiments", ["repro.core", "repro.nas"]),
    ],
    ids=["help", "serve", "samplers", "nas", "transfer"],
)
def test_each_front_door_command_loads_only_its_own_layer(command, loads, skips):
    """``python -m repro <command> --help`` imports that command's layer
    and none of the others'; the server none of the layers it does not
    serve."""
    argv = ["repro", *command, "--help"]
    loaded = set(_loaded_after(
        "import runpy, sys\n"
        f"sys.argv = {argv!r}\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass"
    ))
    assert loads in loaded
    assert sorted(loaded.intersection(skips)) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["repro.serve"],
        ["repro"],
        ["repro", "samplers"],
        ["repro", "nas"],
        ["repro", "transfer"],
        ["repro", "serve"],
    ],
    ids=" ".join,
)
def test_cli_runs_as_a_module_without_a_runpy_warning(argv):
    """``python -m <cli>`` executes one copy of the module: no package
    above it imports it first, so runpy has nothing to warn about (and
    warnings are errors here)."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", *argv, "--help"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: ")
