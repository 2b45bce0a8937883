"""Tests for `SearchFleet`: many-seed search with dispersion aggregation.

The load-bearing property throughout: *execution strategy never enters
the result bytes*.  A serial fleet, a parallel fleet, a fleet whose pool
broke and fell back to serial, and a killed-and-resumed fleet must all
report the same members and the same dispersion bands.  The broken-pool
scenario reuses the campaign suite's worker-killing pattern (`os._exit`
in any non-parent pid under a fork context).
"""

import json
import os

import pytest

from repro import (
    DeviceOracle,
    FleetResult,
    SearchConstraints,
    SimulatedDevice,
    SyntheticAccuracyProxy,
    space_by_name,
)
from repro.nas.fleet import FleetError, SearchFleet, format_fleet_report

EVO_PARAMS = {"population_size": 6, "generations": 2}
SEEDS = [3, 1, 2]


@pytest.fixture(scope="module")
def harness():
    spec = space_by_name("resnet")
    device = SimulatedDevice("rtx4090", seed=0)
    return spec, DeviceOracle(device), SyntheticAccuracyProxy(spec, seed=0)


def make_fleet(harness, **overrides):
    spec, oracle, proxy = harness
    kwargs = dict(
        driver="evolutionary",
        search_params=EVO_PARAMS,
        seeds=SEEDS,
    )
    kwargs.update(overrides)
    oracle = kwargs.pop("oracle", oracle)
    return SearchFleet(spec, oracle, proxy, **kwargs)


@pytest.fixture(scope="module")
def serial_json(harness):
    return make_fleet(harness).run().to_json()


class TestValidation:
    def test_unknown_driver_rejected(self, harness):
        with pytest.raises(ValueError, match="driver"):
            make_fleet(harness, driver="annealing")

    def test_duplicate_seeds_rejected(self, harness):
        with pytest.raises(ValueError, match="unique"):
            make_fleet(harness, seeds=[1, 1, 2])

    def test_invalid_workers_rejected(self, harness):
        with pytest.raises(ValueError, match="workers"):
            make_fleet(harness, workers=0)

    def test_invalid_n_seeds_rejected(self, harness):
        with pytest.raises(ValueError, match="n_seeds"):
            make_fleet(harness, seeds=None, n_seeds=0)

    def test_default_seed_range(self, harness):
        fleet = make_fleet(harness, seeds=None, n_seeds=4, seed_base=10)
        assert fleet.seeds == [10, 11, 12, 13]


class TestAggregation:
    def test_result_shape(self, harness, serial_json):
        payload = json.loads(serial_json)
        assert payload["kind"] == "search_fleet_result"
        assert payload["seeds"] == sorted(SEEDS)
        assert set(payload["members"]) == {str(s) for s in SEEDS}
        band = payload["dispersion"]["hypervolume"]
        assert set(band) == {"median", "iqr", "q25", "q75", "min", "max"}
        assert band["min"] <= band["median"] <= band["max"]
        assert band["iqr"] == pytest.approx(band["q75"] - band["q25"])

    def test_hypervolumes_positive_and_shared_reference(self, harness):
        result = make_fleet(harness).run()
        ref_latency, ref_accuracy = result.reference_point
        worst = max(
            c.latency_s for r in result.results.values() for c in r.evaluated
        )
        assert ref_latency == pytest.approx(1.1 * worst)
        for hv in result.hypervolumes().values():
            assert hv > 0

    def test_member_order_is_seed_sorted_not_completion_sorted(
        self, harness, serial_json
    ):
        payload = json.loads(serial_json)
        assert list(payload["members"]) == [str(s) for s in sorted(SEEDS)]

    def test_report_renders(self, serial_json):
        text = format_fleet_report(json.loads(serial_json))
        assert "hypervolume median" in text
        for seed in SEEDS:
            assert f"\n{seed:>6} " in text


class TestParallelIdentity:
    def test_parallel_matches_serial_bytes(self, harness, serial_json):
        parallel = make_fleet(harness, workers=2).run()
        assert parallel.to_json() == serial_json

    def test_constrained_fleet_parallel_matches_serial(self, harness):
        cons = SearchConstraints(max_latency_s=0.0009)
        a = make_fleet(harness, constraints=cons).run()
        b = make_fleet(harness, constraints=cons, workers=2).run()
        assert a.to_json() == b.to_json()
        payload = json.loads(a.to_json())
        assert payload["constraints"] == cons.to_dict()
        for member in payload["members"].values():
            assert member["n_feasible"] > 0

    def test_pool_unavailable_degrades_to_serial(self, harness, serial_json):
        fleet = make_fleet(harness, workers=2, mp_context="no-such-context")
        result = fleet.run()
        kinds = [d["kind"] for d in result.degradations]
        assert kinds == ["pool_unavailable"]
        # Everything except the degradation record matches the serial run.
        got, want = result.to_dict(), json.loads(serial_json)
        got.pop("degradations"), want.pop("degradations")
        assert got == want


class TestDurableFleet:
    def test_resume_completed_fleet_is_identical(
        self, harness, serial_json, tmp_path
    ):
        fleet_dir = tmp_path / "fleet"
        first = make_fleet(harness, fleet_dir=fleet_dir).run()
        again = make_fleet(harness, fleet_dir=fleet_dir).run()
        assert first.to_json() == again.to_json() == serial_json

    def test_resume_after_losing_a_member_result(
        self, harness, serial_json, tmp_path
    ):
        fleet_dir = tmp_path / "fleet"
        make_fleet(harness, fleet_dir=fleet_dir).run()
        # The member's committed result vanishes; its per-generation
        # checkpoints survive, so the rerun replays instead of recomputing.
        (fleet_dir / "member_00002" / "result.json").unlink()
        resumed = make_fleet(harness, fleet_dir=fleet_dir).run()
        assert resumed.to_json() == serial_json

    def test_corrupt_member_result_quarantined_and_recomputed(
        self, harness, serial_json, tmp_path
    ):
        fleet_dir = tmp_path / "fleet"
        make_fleet(harness, fleet_dir=fleet_dir).run()
        victim = fleet_dir / "member_00003" / "result.json"
        victim.write_text('{"kind": "search_result", "seed": 999}')
        resumed = make_fleet(harness, fleet_dir=fleet_dir).run()
        assert resumed.to_json() == serial_json
        assert (fleet_dir / "member_00003" / "result.json.corrupt").exists()

    def test_repeated_corruption_keeps_every_quarantined_file(
        self, harness, serial_json, tmp_path
    ):
        fleet_dir = tmp_path / "fleet"
        make_fleet(harness, fleet_dir=fleet_dir).run()
        member_dir = fleet_dir / "member_00003"
        torn = ['{"kind": "search_res', '{"kind": "search_result", "seed": 999}']
        for payload in torn:
            (member_dir / "result.json").write_text(payload)
            resumed = make_fleet(harness, fleet_dir=fleet_dir).run()
            assert resumed.to_json() == serial_json
        quarantined = sorted(member_dir.glob("result.json.corrupt*"))
        assert [p.name for p in quarantined] == [
            "result.json.corrupt",
            "result.json.corrupt1",
        ]
        assert [p.read_text() for p in quarantined] == torn

    def test_foreign_fleet_dir_refused(self, harness, tmp_path):
        fleet_dir = tmp_path / "fleet"
        make_fleet(harness, fleet_dir=fleet_dir).run()
        other = make_fleet(harness, seeds=[7, 8], fleet_dir=fleet_dir)
        with pytest.raises(FleetError, match="different fleet"):
            other.run()

    def test_workers_do_not_enter_the_fingerprint(self, harness):
        assert (
            make_fleet(harness).fingerprint()
            == make_fleet(harness, workers=8).fingerprint()
        )


_PARENT_PID = os.getpid()


class WorkerKillingOracle:
    """Hard-kills any pool worker that asks it for latencies.

    In the parent it delegates to a clean `DeviceOracle`; in a pool
    worker (any other pid) the first batch call `os._exit`s, which the
    executor surfaces as `BrokenProcessPool` — the closest a test can get
    to a segfaulting or OOM-killed search worker.
    """

    def __init__(self, device_name="rtx4090", seed=0):
        self._inner = DeviceOracle(SimulatedDevice(device_name, seed=seed))
        self.name = self._inner.name  # identical fleet fingerprint

    def latency_batch(self, configs):
        if os.getpid() != _PARENT_PID:
            os._exit(1)
        return self._inner.latency_batch(configs)

    def latency(self, config):
        return float(self.latency_batch([config])[0])


class TestBrokenPoolRecovery:
    def test_dead_workers_fall_back_to_serial(self, harness, serial_json):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable on this platform")
        fleet = make_fleet(
            harness,
            oracle=WorkerKillingOracle(),
            workers=2,
            mp_context="fork",
        )
        result = fleet.run()
        degraded = [
            d for d in result.degradations if d["kind"] == "broken_process_pool"
        ]
        assert len(degraded) == 1
        assert degraded[0]["pending"]
        assert "BrokenProcessPool" in degraded[0]["error"]
        # The fleet completed anyway, serially, in the parent — and the
        # members/dispersion match a never-pooled fleet byte for byte.
        got, want = result.to_dict(), json.loads(serial_json)
        got.pop("degradations"), want.pop("degradations")
        assert got == want

    def test_retired_worker_under_resume(self, harness, serial_json, tmp_path):
        """A durable fleet whose pool dies resumes its members from disk."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable on this platform")
        fleet_dir = tmp_path / "fleet"
        broken = make_fleet(
            harness,
            oracle=WorkerKillingOracle(),
            workers=2,
            mp_context="fork",
            fleet_dir=fleet_dir,
        )
        result = broken.run()
        assert any(
            d["kind"] == "broken_process_pool" for d in result.degradations
        )
        # A later fleet on the same directory reuses every committed member
        # and reports identical members/dispersion.
        resumed = make_fleet(harness, fleet_dir=fleet_dir).run()
        got, want = resumed.to_dict(), json.loads(serial_json)
        got.pop("degradations"), want.pop("degradations")
        assert got == want


class TestCLI:
    def test_smoke_cli_round_trip(self, tmp_path, capsys):
        from repro.nas.fleet import main

        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        argv = [
            "--smoke",
            "--n-seeds", "3",
            "--population-size", "6",
            "--generations", "2",
            "--max-latency", "0.0009",
            "--workdir", str(tmp_path / "fleet"),
        ]
        assert main(argv + ["--out", str(out_a)]) == 0
        # Second invocation resumes every member from disk...
        assert main(argv + ["--out", str(out_b)]) == 0
        # ...and the two reports are byte-identical.
        assert out_a.read_bytes() == out_b.read_bytes()
        payload = json.loads(out_a.read_text())
        assert payload["kind"] == "search_fleet_result"
        assert payload["n_seeds"] == 3
        text = capsys.readouterr().out
        assert "hypervolume median" in text

    def test_non_positive_budget_is_a_usage_error(self, capsys):
        from repro.nas.fleet import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--smoke", "--max-latency", "-1"])
        assert excinfo.value.code == 2
        assert "argument --max-latency: " in capsys.readouterr().err
