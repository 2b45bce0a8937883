"""Architecture configurations: concrete points of a supernet space.

The on-disk schema (``format_version: 1``, used by ``repro.data`` and the
committed dataset fixture under ``tests/fixtures/``) is::

    {"family": "resnet",
     "units": [[{"kernel_size": 3, "expand_ratio": 0.25}, ...], ...]}

``expand_ratio`` is ``null`` for families without a width-expansion choice
(DenseNet).  `ArchConfig.from_dict` is the one parser of this schema —
datasets, checkpoints, reference sets and the prediction server all use
it — and malformed input raises `ValueError` naming the field's path.

Configs share their blocks: `from_dict`, the samplers and the mutation
operator take each `BlockConfig` from one table (`shared_block`), whose
entries also hold the block's JSON text in both key orders.
`ArchConfig.to_json` joins those fragments instead of building a dict
tree; a config holding any block that is not the table's own object is
rendered by ``json.dumps(config.to_dict())`` itself, so the text, or
the exception, is always exactly what that call gives.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

__all__ = ["BlockConfig", "ArchConfig", "shared_block"]


@dataclass(frozen=True, order=True)
class BlockConfig:
    """One block's choices: kernel size and (optional) expansion ratio."""

    kernel_size: int
    expand_ratio: Optional[float] = None

    def to_dict(self) -> dict:
        return {"kernel_size": self.kernel_size, "expand_ratio": self.expand_ratio}

    def __reduce__(self):
        # Unpickled through the shared table, so a config a pool worker
        # sends back holds the table's blocks and renders from fragments;
        # a choice the table does not share comes back as its own block.
        return shared_block, (self.kernel_size, self.expand_ratio)


@dataclass(frozen=True)
class ArchConfig:
    """A fully specified architecture: per-unit tuples of `BlockConfig`."""

    family: str
    units: Tuple[Tuple[BlockConfig, ...], ...]

    def __post_init__(self) -> None:
        # Normalise nested sequences to tuples so configs are hashable.
        units = tuple(tuple(blocks) for blocks in self.units)
        object.__setattr__(self, "units", units)
        for blocks in units:
            if len(blocks) == 0:
                raise ValueError("every unit must contain at least one block")
            for block in blocks:
                if not isinstance(block, BlockConfig):
                    raise TypeError(f"expected BlockConfig, got {type(block)!r}")

    @property
    def num_units(self) -> int:
        return len(self.units)

    @property
    def depths(self) -> Tuple[int, ...]:
        """Blocks per unit."""
        return tuple(len(blocks) for blocks in self.units)

    @property
    def total_blocks(self) -> int:
        return sum(self.depths)

    def iter_blocks(self) -> Iterable[Tuple[int, BlockConfig]]:
        """Yield ``(unit_index, block)`` over all blocks in order."""
        for u, blocks in enumerate(self.units):
            for block in blocks:
                yield u, block

    def cache_key(self) -> Tuple:
        """Canonical hashable identity of this architecture.

        A flat tuple of primitives — cheaper to hash and compare than the
        nested dataclass itself — used to key per-config memoization (the
        simulator's analytical-latency cache).  Two configs have equal
        cache keys iff they lower to the same network.

        Memoized per instance (configs are immutable): callers on hot
        paths — the analytical cache, the serving LRU and micro-batch
        dedupe — may call this once per request without rebuilding the
        nested tuples each time.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = (
                self.family,
                tuple(
                    tuple((b.kernel_size, b.expand_ratio) for b in blocks)
                    for blocks in self.units
                ),
            )
            object.__setattr__(self, "_cache_key", key)
        return key

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "units": [[b.to_dict() for b in blocks] for blocks in self.units],
        }

    def to_json(self, sort_keys: bool = False) -> str:
        """Exactly ``json.dumps(self.to_dict(), sort_keys=sort_keys)``.

        Joined from the shared blocks' fragments when every block is the
        table's own object (the case for parsed, sampled and mutated
        configs), so no block dict is built.  Otherwise the dict path runs
        itself: user-built blocks, ``np.int64`` or ``bool`` kernels, ``int``
        or non-finite expands all render, or raise, as `to_dict` does.
        """
        text = self._joined(3 if sort_keys else 2)
        if text is None:
            return json.dumps(self.to_dict(), sort_keys=sort_keys)
        return text

    def _joined(self, column: int) -> Optional[str]:
        """The JSON text from the table's fragments in ``column``, or None
        when a block is not the table's own object."""
        if type(self.family) is not str:
            return None
        table = _INTERNED
        units = []
        for blocks in self.units:
            texts = []
            for b in blocks:
                try:
                    entry = table.get((b.kernel_size, b.expand_ratio))
                except TypeError:  # an unhashable choice
                    return None
                if entry is None or entry[1] is not b:
                    return None
                texts.append(entry[column])
            units.append("[" + ", ".join(texts) + "]")
        return (
            '{"family": ' + json.dumps(self.family)
            + ', "units": [' + ", ".join(units) + "]}"
        )

    @classmethod
    def from_dict(cls, d: dict) -> "ArchConfig":
        """Parse the on-disk/wire schema; the one parser every caller uses.

        A single pass coerces each block (``int`` kernel, ``float`` or
        ``None`` expand) and builds the `cache_key` alongside the units, so
        the key is set up front rather than rebuilt from the blocks.
        Blocks come from a shared table (`shared_block`), so a config
        holds the same `BlockConfig` objects as every other config making
        the same choice instead of building its own.

        Malformed input raises `ValueError` naming the offending field by
        its path, e.g. ``config.units[2][0].kernel_size``.
        """
        if not isinstance(d, dict):
            raise ValueError(f"config must be an object, got {type(d).__name__}")
        try:
            family = str(d["family"])
            units_in = d["units"]
        except KeyError as exc:
            raise ValueError(f"config.{exc.args[0]} is missing") from None
        if type(units_in) is not list and type(units_in) is not tuple:
            raise ValueError(
                f"config.units must be a list of lists, got {type(units_in).__name__}"
            )
        interned = _INTERNED
        units = []
        units_key = []
        for u, blocks_in in enumerate(units_in):
            if type(blocks_in) is not list and type(blocks_in) is not tuple:
                raise ValueError(
                    f"config.units[{u}] must be a list of blocks, "
                    f"got {type(blocks_in).__name__}"
                )
            if not blocks_in:
                raise ValueError(
                    f"config.units[{u}] is empty: every unit must contain at "
                    "least one block"
                )
            blocks = []
            blocks_key = []
            try:
                for b in blocks_in:
                    field = "kernel_size"
                    k = int(b["kernel_size"])
                    field = "expand_ratio"
                    e = b["expand_ratio"]
                    if e is not None:
                        e = float(e)
                    entry = interned.get((k, e)) or _interned_block(k, e)
                    blocks_key.append(entry[0])
                    blocks.append(entry[1])
            except (KeyError, TypeError, ValueError, OverflowError):
                i = len(blocks)  # the first block that failed
                raise ValueError(
                    _block_error(f"config.units[{u}][{i}]", field, blocks_in[i])
                ) from None
            units.append(tuple(blocks))
            units_key.append(tuple(blocks_key))
        units = tuple(units)
        # The fields are already canonical tuples of `BlockConfig`, which is
        # all `__post_init__` would establish, so skip it.
        config = object.__new__(cls)
        vars(config).update(
            family=family, units=units, _cache_key=(family, tuple(units_key))
        )
        return config


#: ``(kernel_size, expand_ratio) -> ((k, e), BlockConfig, text, sorted
#: text)``: the block and its ``json.dumps(block.to_dict())`` with and
#: without ``sort_keys``.  The entries are immutable, so sharing them is
#: safe; the table is emptied when it reaches `_INTERN_CAP`, so a request
#: stream of ever-new choices cannot grow it, and the real choices are
#: interned again on their next use.  (A block dropped that way is no
#: longer the table's object and renders through the dict path.)
_INTERNED: Dict[
    Tuple[int, Optional[float]], Tuple[tuple, BlockConfig, str, str]
] = {}
_INTERN_CAP = 256


def _interned_block(
    k: int, e: Optional[float]
) -> Tuple[Tuple[int, Optional[float]], BlockConfig, str, str]:
    """The entry for a choice not yet in the table, stored unless ``e`` is
    zero: the table keys on equality, so ``0.0`` and ``-0.0`` would share
    one block and a parsed ``0.0`` could come back as ``-0.0``."""
    if e is not None and not math.isfinite(e):
        raise ValueError("expand_ratio is not finite")
    block = BlockConfig(k, e)
    d = block.to_dict()
    entry = ((k, e), block, json.dumps(d), json.dumps(d, sort_keys=True))
    if e != 0.0:
        if len(_INTERNED) >= _INTERN_CAP:
            _INTERNED.clear()
        _INTERNED[k, e] = entry
    return entry


def shared_block(kernel_size: int, expand_ratio: Optional[float] = None) -> BlockConfig:
    """``BlockConfig(kernel_size, expand_ratio)``, from the shared table.

    Only an ``int`` kernel with a ``None`` or finite ``float`` expand is
    shared.  The table keys on equality, so it would hand back the ``1``
    block for a ``True`` kernel or the ``1.0`` expand for ``1``; any other
    choice gets a block of its own, exactly as the constructor builds it.
    """
    e = expand_ratio
    if type(kernel_size) is int and (
        e is None or (type(e) is float and math.isfinite(e))
    ):
        entry = _INTERNED.get((kernel_size, e)) or _interned_block(kernel_size, e)
        return entry[1]
    return BlockConfig(kernel_size, expand_ratio)


def _block_error(path: str, field: str, block) -> str:
    if not isinstance(block, dict):
        return f"{path} must be an object, got {type(block).__name__}"
    if field not in block:
        return f"{path}.{field} is missing"
    return f"{path}.{field} must be a finite number, got {block[field]!r}"
