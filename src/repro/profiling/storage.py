"""On-disk layout of a measurement campaign: shards + manifest.

A campaign directory looks like::

    campaign_dir/
      manifest.json            # config fingerprint, baselines, batch records
      report.json              # final CampaignReport (rewritten every run)
      shards/
        batch-0000.json        # completed batches, LatencyDataset schema
        batch-0001.json
        ...

Every write is atomic (temp file + `os.replace` via
`repro.utils.atomic_write_text`), and the manifest is only updated *after*
its batch's shard is durably in place.  A campaign killed at any point
therefore leaves a directory from which `CampaignRunner` resumes without
re-measuring a single completed batch, and without ever reading a
half-written file.

The manifest is compact JSON (no indentation, so `json` takes its C
encoder) and is rewritten whole on every commit.  Indented manifests
written by earlier versions load the same way.  A torn manifest is
refused with a `DatasetError` naming the field, never quarantined: the
shards it indexes are real measurements that must not be thrown away.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

from ..data.dataset import DatasetError, LatencyDataset
from ..utils import NUMBER, read_manifest, refuse, require, require_degradations
from ..utils import write_manifest
from .reference import ReferenceSet
from .report import AttemptRecord, BatchRecord

__all__ = ["CampaignStore", "MANIFEST_VERSION"]

MANIFEST_VERSION = 1

_REFERENCE_FIELDS = {"configs": list, "baselines": (list, type(None))}


def _check_manifest(manifest: dict) -> None:
    """Raise `ValueError` naming the first field the campaign cannot use."""
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise ValueError(
            f"unsupported manifest_version {version!r} (expected {MANIFEST_VERSION})"
        )
    require(manifest, "manifest", {"references": dict, "batches": dict})
    if "degradations" in manifest:  # absent until a pool degrades
        require_degradations(manifest)
    require(manifest["references"], "manifest.references", _REFERENCE_FIELDS)
    try:
        ReferenceSet.from_dict(manifest["references"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest.references: {exc}") from None
    for key, record in manifest["batches"].items():
        where = f"manifest.batches.{key}"
        if not key.isdigit():
            raise ValueError(f"{where}: not a batch index")
        require(record, where, BatchRecord.FIELDS)
        for i, attempt in enumerate(record["attempts"]):
            require(attempt, f"{where}.attempts.{i}", AttemptRecord.FIELDS)
            if not all(isinstance(x, NUMBER) for x in attempt["drifts"]):
                raise ValueError(f"{where}.attempts.{i}.drifts: expected numbers")


class CampaignStore:
    """Paths and atomic IO for one campaign directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.shard_dir = self.root / "shards"
        self.manifest_path = self.root / "manifest.json"
        self.report_path = self.root / "report.json"

    def ensure_layout(self) -> None:
        self.shard_dir.mkdir(parents=True, exist_ok=True)

    # ----------------------------- manifest ---------------------------- #

    def load_manifest(
        self,
        fingerprint: Optional[str] = None,
        foreign: Optional[Exception] = None,
    ) -> Optional[dict]:
        """The manifest dict, or None for a fresh campaign directory.

        A torn manifest raises `DatasetError`; one whose fingerprint is
        not ``fingerprint`` (when given) raises ``foreign``.
        """
        return read_manifest(
            self.manifest_path,
            policy=refuse(DatasetError),
            schema=_check_manifest,
            fingerprint=fingerprint,
            foreign=foreign,
        )

    def save_manifest(self, manifest: dict) -> None:
        write_manifest(self.manifest_path, manifest)

    # ------------------------------ shards ----------------------------- #

    def shard_name(self, index: int) -> str:
        return f"shards/batch-{index:04d}.json"

    def shard_path(self, index: int) -> Path:
        return self.root / self.shard_name(index)

    def has_shard(self, index: int) -> bool:
        return self.shard_path(index).exists()

    def write_shard(self, index: int, dataset: LatencyDataset) -> str:
        """Persist one completed batch; returns the manifest-relative name."""
        self.ensure_layout()
        dataset.save(self.shard_path(index))
        return self.shard_name(index)

    def read_shard(self, index: int) -> LatencyDataset:
        return LatencyDataset.load(self.shard_path(index))
