"""Layer IR, per-family network builders, and cost analysis."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".ir": "Layer Network LAYER_KINDS",
    ".builders": "build_network BUILDER_FAMILIES",
    ".analysis": """total_flops total_params total_traffic_bytes
        working_set_bytes num_kernels NetworkCosts network_costs""",
})
