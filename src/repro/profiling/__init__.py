"""Fault-tolerant measurement campaigns: the paper's dataset-generation
protocol (150-run trimmed mean), reference-model QC with the 3% drift
gate (Fig. 6), and a checkpointed batch runner that resumes a killed
sweep without re-measuring anything."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    ".protocol": "MeasurementProtocol",
    ".reference": "ReferenceSet QCResult",
    ".report": "AttemptRecord BatchRecord CampaignReport",
    ".storage": "CampaignStore MANIFEST_VERSION",
    ".campaign": "CampaignRunner CampaignResult CampaignError",
    ".paired": "PairedMeasurementSet measure_paired",
})
