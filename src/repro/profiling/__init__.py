"""Fault-tolerant measurement campaigns: the paper's dataset-generation
protocol (150-run trimmed mean), reference-model QC with the 3% drift
gate (Fig. 6), and a checkpointed batch runner that resumes a killed
sweep without re-measuring anything."""

from .campaign import CampaignError, CampaignResult, CampaignRunner
from .paired import PairedMeasurementSet, measure_paired
from .protocol import MeasurementProtocol
from .reference import QCResult, ReferenceSet
from .report import AttemptRecord, BatchRecord, CampaignReport
from .storage import MANIFEST_VERSION, CampaignStore

__all__ = [
    "MeasurementProtocol",
    "ReferenceSet",
    "QCResult",
    "AttemptRecord",
    "BatchRecord",
    "CampaignReport",
    "CampaignStore",
    "MANIFEST_VERSION",
    "CampaignRunner",
    "CampaignResult",
    "CampaignError",
    "PairedMeasurementSet",
    "measure_paired",
]
