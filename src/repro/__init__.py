"""ESM reproduction: surrogate latency models for hardware-aware NAS.

Top-level re-exports of the public API: architecture spaces and samplers,
the layer IR and builders, the simulated devices (plus fault injection),
all encodings and predictors, the paper's metrics, the latency dataset
layer, the measurement campaigns, the ESM loop, search, transfer and the
prediction server.

Every name resolves on first use (PEP 562): ``import repro`` loads no
submodule, and ``repro.SimulatedDevice`` imports `repro.hardware` (and
what the simulator needs) only when it is first read.  Each package
declares its names once, in the table passed to `_lazy_exports`.
"""

__version__ = "0.1.0"


def _lazy_exports(namespace, exports):
    """``(__all__, __getattr__, __dir__)`` for a package of re-exports.

    ``namespace`` is the package's ``globals()``; ``exports`` maps a module
    path relative to the package (``".config"``, ``"..transfer.predictor"``)
    to the space-separated names it defines.  A name is imported from its
    module when first read and then bound in the package, so later reads
    are plain attribute lookups.
    """
    from importlib import import_module

    package = namespace["__name__"]
    where = {
        name: module for module, names in exports.items() for name in names.split()
    }

    def __getattr__(name):
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(import_module(module, package), name)
        return value

    def __dir__():
        return sorted(namespace.keys() | where.keys())

    return list(where), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".archspace": """ArchConfig BlockConfig SpaceSpec resnet_space
        mobilenetv3_space densenet_space space_by_name SPACE_NAMES
        RandomSampler BalancedSampler depth_bins assign_depth_bin mutate
        crossover""",
    ".network": """Layer Network build_network BUILDER_FAMILIES total_flops
        total_params total_traffic_bytes working_set_bytes num_kernels
        NetworkCosts network_costs""",
    ".hardware": """AnalyticalCache CacheInfo DeviceProfile DEVICES
        DEVICE_NAMES device_by_name SimulatedDevice MeasurementError
        MeasurementTimeout FaultPlan FaultyDevice""",
    ".profiling": """MeasurementProtocol ReferenceSet QCResult CampaignRunner
        CampaignResult CampaignReport CampaignError""",
    ".encodings": """Encoding OneHotEncoding FeatureEncoding
        StatisticalEncoding FCEncoding FCCEncoding ENCODINGS get_encoding
        list_encodings encoder_for clear_encoder_cache""",
    ".predictors": """Predictor PredictorBase MLPPredictor LookupTableSurrogate
        RidgePredictor CARTPredictor RandomForestPredictor
        GradientBoostingPredictor AdaptiveSwitchingPredictor kfold_indices
        select_winner PREDICTORS get_predictor list_predictors load_predictor
        LatencyOracle PredictorOracle DeviceOracle""",
    ".transfer": "MonotoneLatencyMap TransferPredictor",
    ".core": """ESMConfig ESMLoop ESMRunResult ESMRunReport IterationRecord
        extension_weights extension_plan load_run""",
    ".metrics": """paper_accuracy binwise_accuracy failing_bins mape rmse
        spearman kendall_tau""",
    ".nas": """SyntheticAccuracyProxy ParetoPoint ParetoFront
        displacement_metrics Candidate SearchResult RandomSearch
        EvolutionarySearch SearchConstraints SearchCheckpointError SearchFleet
        FleetResult""",
    ".serve": """PredictionServer PredictionResult ModelRegistry ModelEntry
        ServeKey MicroBatcher PredictionLRU CachedPrediction request_lines""",
    ".data": "LatencyDataset LatencySample DatasetError FORMAT_VERSION",
})
__all__.insert(0, "__version__")
