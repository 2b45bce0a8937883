"""The front door, ``python -m repro <command>``: argument checking.

Every bad argument is a usage error (exit status 2, the flag named on
stderr) raised while parsing, before any experiment starts: each
command's library entry point is replaced by a spy that records a call,
and none may be recorded.  Full runs of each command live with their
experiment's tests (test_core_loop.py, test_nas_experiments.py,
test_transfer_experiments.py).
"""

import argparse
import json

import pytest

import repro.core.experiments
import repro.nas.experiments
import repro.transfer.experiments
from repro.__main__ import main, positive_int
from repro.hardware.simulator import SimulatedDevice


@pytest.fixture
def started(monkeypatch):
    """The experiment entry points and device measurements that ran."""
    calls = []

    def spy(name):
        return lambda *args, **kwargs: calls.append(name)

    for module, name in (
        (repro.core.experiments, "compare_samplers"),
        (repro.nas.experiments, "run_experiment"),
        (repro.transfer.experiments, "run_experiment"),
    ):
        monkeypatch.setattr(module, name, spy(f"{module.__name__}.{name}"))
    monkeypatch.setattr(SimulatedDevice, "measure_batch", spy("measure_batch"))
    return calls


@pytest.mark.parametrize(
    "argv, flag, detail",
    [
        (["samplers", "--space", "nope"], "--space", "invalid choice"),
        (["samplers", "--device", "nope"], "--device", "invalid choice"),
        (["samplers", "--predictor", "nope"], "--predictor", "invalid choice"),
        (["samplers", "--workers", "0"], "--workers", "positive integer"),
        (["samplers", "--seed", "-1"], "--seed", "non-negative integer"),
        (["samplers", "--acc-th", "150"], "--acc-th", "acc_th must be in (0, 100], got 150.0"),
        (["nas", "--device", "nope"], "--device", "invalid choice"),
        (["nas", "--spaces", "nope"], "--spaces", "invalid choice"),
        (["nas", "--surrogates", "nope"], "--surrogates", "invalid choice"),
        (["nas", "--workers", "0"], "--workers", "positive integer"),
        (["nas", "--max-latency", "-1.0"], "--max-latency", "positive number"),
        (["nas", "--max-params", "0"], "--max-params", "positive number"),
        (["nas", "--max-flops", "nan"], "--max-flops", "positive number"),
        (["nas", "--warm-start", "absent.json"], "--warm-start", "does not exist"),
        (["nas", "--workdir"], "--workdir", "expected one argument"),
        (["transfer", "--budgets", "-3"], "--budgets", "integer >= 2"),
        (["transfer", "--budgets", "1", "5"], "--budgets", "got '1'"),
        (["transfer", "--base", "nope"], "--base", "invalid choice"),
        (["transfer", "--base", "transfer"], "--base", "invalid choice"),
        (["transfer", "--devices", "rtx4090", "nope"], "--devices", "invalid choice"),
        (["transfer", "--devices", "rtx4090", "rtx4090"], "--devices", "two distinct"),
        (["transfer", "--devices", "rtx4090"], "--devices", "two distinct"),
        (["transfer", "--encoding", "nope"], "--encoding", "invalid choice"),
        (["transfer", "--workers", "2"], "--workers", "unrecognized arguments"),
        (["transfer", "--resume"], "--resume", "unrecognized arguments"),
    ],
)
def test_bad_argument_exits_2_naming_the_flag(argv, flag, detail, started, capsys):
    command, *rest = argv
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--smoke", *rest])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "error: " in err and flag in err and detail in err
    assert started == []


def test_a_command_is_required(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    assert "required: command" in capsys.readouterr().err


def test_serve_gets_its_arguments_unparsed(capsys):
    """``serve`` is `repro.serve.__main__.main`: its own flags, its own checks."""
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--models", "m", "--poll-interval", "0"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: python -m repro.serve")
    assert "argument --poll-interval: " in err


def test_warm_start_is_loaded_while_parsing(started, tmp_path, capsys):
    torn = tmp_path / "front.json"
    torn.write_text(json.dumps([1, 2]))
    with pytest.raises(SystemExit) as excinfo:
        main(["nas", "--smoke", "--warm-start", str(torn)])
    assert excinfo.value.code == 2
    assert f"argument --warm-start: search result file {torn}" in capsys.readouterr().err
    assert started == []


class TestPositiveInt:
    @pytest.mark.parametrize("text", ["0", "-3", "two", "2.5"])
    def test_rejects_what_is_not_a_positive_count(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match=repr(text)):
            positive_int(text)

    def test_accepts_a_positive_count(self):
        assert positive_int("3") == 3
        assert positive_int(" 12 ") == 12
