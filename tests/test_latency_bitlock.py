"""Fast bit-lock on the simulator's analytical latency.

``true_latency`` of seeded configs from all three Table I spaces, on all
four device profiles, must hash to exactly the digest recorded below.  The
digest is sha256 over the newline-joined ``float.hex`` of every latency,
in a fixed order.  Every golden trace downstream depends on these bits; a
change to lowering, the roofline or the summation order that moves one
bit (including a drift between Python versions, e.g. a switch to
compensated summation) fails here in under a second.

Re-record only after an *intentional* change to analytical latencies::

    PYTHONPATH=src python tests/test_latency_bitlock.py
"""

import hashlib

from repro import DEVICE_NAMES, RandomSampler, SimulatedDevice, space_by_name

SPACES = ("resnet", "mobilenetv3", "densenet")
CONFIGS_PER_SPACE = 40

EXPECTED_SHA256 = "3519b49e377d18b6c020061c29f22b8e64c26ddf728cc18b28924dee5cb9e595"


def bitlock_configs():
    """Seeded samples plus the min- and max-depth corners of each space."""
    configs = []
    for i, name in enumerate(SPACES):
        spec = space_by_name(name)
        configs.extend(RandomSampler(spec, rng=100 + i).sample_batch(CONFIGS_PER_SPACE))
        for depth in (spec.min_depth, spec.max_depth):
            for k in spec.kernel_choices:
                expands = None
                if spec.expand_choices is not None:
                    expands = [spec.expand_choices[-1]] * spec.num_units
                configs.append(
                    spec.make_config([depth] * spec.num_units, [k] * spec.num_units, expands)
                )
    return configs


def latency_sha256():
    configs = bitlock_configs()
    lines = []
    for device_name in DEVICE_NAMES:
        device = SimulatedDevice(device_name)
        lines.extend(float.hex(device.true_latency(c)) for c in configs)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_true_latency_bits_are_locked():
    assert len(DEVICE_NAMES) == 4
    assert latency_sha256() == EXPECTED_SHA256


if __name__ == "__main__":
    print(latency_sha256())
