"""ESM reproduction: surrogate latency models for hardware-aware NAS.

Top-level re-exports of the public API: architecture spaces and samplers,
the layer IR and builders, the simulated devices (plus fault injection),
all encodings and predictors, the paper's metrics, the latency dataset
layer, and the fault-tolerant measurement-campaign subsystem.
`SearchFleet` and `FleetResult` resolve on first access, through
`repro.nas` (see there).
"""

from .archspace import (
    SPACE_NAMES,
    ArchConfig,
    BalancedSampler,
    BlockConfig,
    RandomSampler,
    SpaceSpec,
    assign_depth_bin,
    crossover,
    densenet_space,
    depth_bins,
    mobilenetv3_space,
    mutate,
    resnet_space,
    space_by_name,
)
from .core import (
    ESMConfig,
    ESMLoop,
    ESMRunReport,
    ESMRunResult,
    IterationRecord,
    extension_plan,
    extension_weights,
    load_run,
)
from .data import (
    FORMAT_VERSION,
    DatasetError,
    LatencyDataset,
    LatencySample,
)
from .encodings import (
    ENCODINGS,
    Encoding,
    FCCEncoding,
    FCEncoding,
    FeatureEncoding,
    OneHotEncoding,
    StatisticalEncoding,
    clear_encoder_cache,
    encoder_for,
    get_encoding,
    list_encodings,
)
from .hardware import (
    DEVICE_NAMES,
    DEVICES,
    AnalyticalCache,
    CacheInfo,
    DeviceProfile,
    FaultPlan,
    FaultyDevice,
    MeasurementError,
    MeasurementTimeout,
    SimulatedDevice,
    device_by_name,
)
from .metrics import (
    binwise_accuracy,
    failing_bins,
    kendall_tau,
    mape,
    paper_accuracy,
    rmse,
    spearman,
)
from .nas import (
    Candidate,
    EvolutionarySearch,
    ParetoFront,
    ParetoPoint,
    RandomSearch,
    SearchCheckpointError,
    SearchConstraints,
    SearchResult,
    SyntheticAccuracyProxy,
    displacement_metrics,
)
from .network import (
    BUILDER_FAMILIES,
    Layer,
    Network,
    NetworkCosts,
    build_network,
    network_costs,
    num_kernels,
    total_flops,
    total_params,
    total_traffic_bytes,
    working_set_bytes,
)
from .predictors import (
    PREDICTORS,
    AdaptiveSwitchingPredictor,
    CARTPredictor,
    DeviceOracle,
    GradientBoostingPredictor,
    LatencyOracle,
    LookupTableSurrogate,
    MLPPredictor,
    Predictor,
    PredictorBase,
    PredictorOracle,
    RandomForestPredictor,
    RidgePredictor,
    get_predictor,
    kfold_indices,
    list_predictors,
    load_predictor,
    select_winner,
)
from .transfer import (
    MonotoneLatencyMap,
    TransferPredictor,
)
from .serve import (
    CachedPrediction,
    MicroBatcher,
    ModelEntry,
    ModelRegistry,
    PredictionLRU,
    PredictionResult,
    PredictionServer,
    ServeKey,
    request_lines,
)
from .profiling import (
    CampaignError,
    CampaignReport,
    CampaignResult,
    CampaignRunner,
    MeasurementProtocol,
    QCResult,
    ReferenceSet,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # archspace
    "ArchConfig",
    "BlockConfig",
    "SpaceSpec",
    "resnet_space",
    "mobilenetv3_space",
    "densenet_space",
    "space_by_name",
    "SPACE_NAMES",
    "RandomSampler",
    "BalancedSampler",
    "depth_bins",
    "assign_depth_bin",
    "mutate",
    "crossover",
    # network
    "Layer",
    "Network",
    "build_network",
    "BUILDER_FAMILIES",
    "total_flops",
    "total_params",
    "total_traffic_bytes",
    "working_set_bytes",
    "num_kernels",
    "NetworkCosts",
    "network_costs",
    # hardware
    "AnalyticalCache",
    "CacheInfo",
    "DeviceProfile",
    "DEVICES",
    "DEVICE_NAMES",
    "device_by_name",
    "SimulatedDevice",
    "MeasurementError",
    "MeasurementTimeout",
    "FaultPlan",
    "FaultyDevice",
    # profiling
    "MeasurementProtocol",
    "ReferenceSet",
    "QCResult",
    "CampaignRunner",
    "CampaignResult",
    "CampaignReport",
    "CampaignError",
    # encodings
    "Encoding",
    "OneHotEncoding",
    "FeatureEncoding",
    "StatisticalEncoding",
    "FCEncoding",
    "FCCEncoding",
    "ENCODINGS",
    "get_encoding",
    "list_encodings",
    "encoder_for",
    "clear_encoder_cache",
    # predictors
    "Predictor",
    "PredictorBase",
    "MLPPredictor",
    "LookupTableSurrogate",
    "RidgePredictor",
    "CARTPredictor",
    "RandomForestPredictor",
    "GradientBoostingPredictor",
    "AdaptiveSwitchingPredictor",
    "kfold_indices",
    "select_winner",
    "PREDICTORS",
    "get_predictor",
    "list_predictors",
    "load_predictor",
    "LatencyOracle",
    "PredictorOracle",
    "DeviceOracle",
    # transfer (proxy-device surrogates)
    "MonotoneLatencyMap",
    "TransferPredictor",
    # core (the ESM loop itself)
    "ESMConfig",
    "ESMLoop",
    "ESMRunResult",
    "ESMRunReport",
    "IterationRecord",
    "extension_weights",
    "extension_plan",
    "load_run",
    # metrics
    "paper_accuracy",
    "binwise_accuracy",
    "failing_bins",
    "mape",
    "rmse",
    "spearman",
    "kendall_tau",
    # nas
    "SyntheticAccuracyProxy",
    "ParetoPoint",
    "ParetoFront",
    "displacement_metrics",
    "Candidate",
    "SearchResult",
    "RandomSearch",
    "EvolutionarySearch",
    "SearchConstraints",
    "SearchCheckpointError",
    "SearchFleet",
    "FleetResult",
    # serve
    "PredictionServer",
    "PredictionResult",
    "ModelRegistry",
    "ModelEntry",
    "ServeKey",
    "MicroBatcher",
    "PredictionLRU",
    "CachedPrediction",
    "request_lines",
    # data
    "LatencyDataset",
    "LatencySample",
    "DatasetError",
    "FORMAT_VERSION",
]


def __getattr__(name):
    if name in ("SearchFleet", "FleetResult"):
        from . import nas

        return getattr(nas, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
