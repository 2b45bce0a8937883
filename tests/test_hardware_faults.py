"""`FaultyDevice`: seeded injection of the failure modes QC must survive."""

import numpy as np
import pytest

from repro import (
    FaultPlan,
    FaultyDevice,
    MeasurementError,
    MeasurementProtocol,
    MeasurementTimeout,
    RandomSampler,
    SimulatedDevice,
    resnet_space,
)


@pytest.fixture(scope="module")
def sample_config():
    return RandomSampler(resnet_space(), rng=3).sample()


def make_device(plan, seed=0):
    return FaultyDevice(SimulatedDevice("rtx4090", seed=123), plan, seed=seed)


class TestFaultPlan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"throttle_prob": -0.1},
            {"error_prob": 1.5},
            {"timeout_prob": 2.0},
            {"corrupt_prob": -1.0},
            {"throttle_factor": 0.0},
            {"corrupt_fraction": 0.0},
            {"corrupt_fraction": 1.5},
        ],
    )
    def test_bad_parameters_raise(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_default_plan_is_benign(self):
        plan = FaultPlan()
        assert plan.throttle_prob == plan.error_prob == 0.0
        assert plan.timeout_prob == plan.corrupt_prob == 0.0


class TestDelegation:
    def test_true_latency_and_profile_pass_through(self, sample_config):
        inner = SimulatedDevice("rtx4090", seed=0)
        faulty = FaultyDevice(inner, FaultPlan(), seed=0)
        assert faulty.true_latency(sample_config) == inner.true_latency(sample_config)
        assert faulty.profile.name == "rtx4090"

    def test_benign_plan_measures_positive_trace(self, sample_config):
        trace = make_device(FaultPlan()).measure(sample_config, runs=25)
        assert trace.shape == (25,)
        assert (trace > 0).all()


class TestThrottleSessions:
    def test_throttle_is_sustained_across_the_session(self, sample_config):
        plan = FaultPlan(throttle_prob=1.0, throttle_factor=1.4)
        clean = make_device(FaultPlan())
        throttled = make_device(plan)
        assert throttled.begin_session(np.random.default_rng(0)) is True
        assert throttled.session_throttled
        # Both wrappers consume the passed stream identically, so every
        # trace in the throttled session is exactly factor x the clean one.
        for call_seed in (7, 8):
            a = clean.measure(
                sample_config, runs=30, rng=np.random.default_rng(call_seed)
            )
            b = throttled.measure(
                sample_config, runs=30, rng=np.random.default_rng(call_seed)
            )
            np.testing.assert_allclose(b, 1.4 * a)

    def test_clean_session_leaves_trace_unscaled(self, sample_config):
        device = make_device(FaultPlan(throttle_prob=0.0, throttle_factor=2.0))
        assert device.begin_session(np.random.default_rng(0)) is False
        assert not device.session_throttled

    def test_session_draw_is_seeded(self):
        device = make_device(FaultPlan(throttle_prob=0.5))
        draws_a = [device.begin_session(np.random.default_rng(s)) for s in range(20)]
        draws_b = [device.begin_session(np.random.default_rng(s)) for s in range(20)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)


class TestTransientFaults:
    def test_error_injection(self, sample_config):
        device = make_device(FaultPlan(error_prob=1.0))
        with pytest.raises(MeasurementError):
            device.measure(sample_config, runs=10)

    def test_timeout_injection(self, sample_config):
        device = make_device(FaultPlan(timeout_prob=1.0))
        with pytest.raises(MeasurementTimeout):
            device.measure(sample_config, runs=10)

    def test_timeout_is_a_measurement_error(self):
        assert issubclass(MeasurementTimeout, MeasurementError)

    def test_corruption_rejected_by_protocol(self, sample_config):
        device = make_device(FaultPlan(corrupt_prob=1.0, corrupt_fraction=0.2))
        trace = device.measure(sample_config, runs=20)
        assert np.isnan(trace).any() or (trace <= 0).any()
        with pytest.raises(MeasurementError):
            MeasurementProtocol(runs=20).trimmed_mean(trace)
        with pytest.raises(MeasurementError):
            device.measure_latency(sample_config, runs=20)

    def test_fault_sequence_is_seeded(self, sample_config):
        plan = FaultPlan(error_prob=0.2, timeout_prob=0.2, corrupt_prob=0.3)

        def outcomes(seed):
            device = make_device(plan, seed=seed)
            result = []
            for _ in range(30):
                try:
                    result.append(round(device.measure_latency(
                        sample_config, runs=5
                    ), 12))
                except MeasurementTimeout:
                    result.append("timeout")
                except MeasurementError:
                    result.append("error")
            return result

        a, b = outcomes(9), outcomes(9)
        assert a == b
        kinds = set(type(x).__name__ for x in a)
        assert "str" in kinds and "float" in kinds  # both faults and successes
