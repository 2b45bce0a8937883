"""Architecture spaces (Table I), configurations, samplers, and operators."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".config": "ArchConfig BlockConfig",
    ".spaces": """SpaceSpec resnet_space mobilenetv3_space densenet_space
        space_by_name SPACE_NAMES""",
    ".sampling": "RandomSampler BalancedSampler depth_bins assign_depth_bin",
    ".ops": "mutate crossover",
})
