"""Small shared helpers: deterministic RNG handling, atomic file writes,
typed JSON loads, fingerprinted manifests, and a process pool with a
serial fallback.

The manifest helpers own the fingerprinted directory that campaigns,
search checkpoints and search fleets share: `fingerprint` hashes a
store's identity, `read_manifest` parses and checks the manifest and
refuses a foreign fingerprint, `write_manifest` writes it, and a torn one
follows the tear policy (`refuse` or `quarantine_with`) the store names.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Hashable, Iterable, List, Optional, Sequence, Union

import numpy as np

__all__ = [
    "ensure_rng",
    "pick",
    "atomic_write_text",
    "quarantine",
    "fingerprint",
    "read_json_object",
    "load_json",
    "NUMBER",
    "require",
    "require_header",
    "refuse",
    "quarantine_with",
    "read_manifest",
    "write_manifest",
    "require_degradations",
    "run_pooled",
    "positive_int",
]


def ensure_rng(rng: "int | np.random.Generator | None") -> np.random.Generator:
    """Coerce ``rng`` into a `numpy.random.Generator`.

    Accepts an existing generator (returned as-is, so callers can share a
    stream), an integer seed, or ``None`` (fresh nondeterministic stream).
    Every stochastic component in the package funnels through this, which is
    what makes "same seed => identical output" testable end to end.
    """
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def pick(rng: np.random.Generator, seq: Sequence):
    """A uniform draw from ``seq``: the element ``rng.choice(seq)`` returns.

    ``rng.choice`` draws one ``integers(len(seq))`` index after converting
    ``seq`` to an array; indexing with that draw directly gives the same
    element and leaves the generator in the same state, without the array
    round trip (several times cheaper on the sampling and mutation paths).
    """
    return seq[int(rng.integers(len(seq)))]


def positive_int(text: str) -> int:
    """argparse type for counts such as ``--workers`` and ``--budgets``.

    A bad value exits with status 2 and a usage error naming the flag,
    not a traceback from deep inside the run.
    """
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        import argparse

        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def atomic_write_text(path: Union[str, Path], text: str) -> None:
    """Write ``text`` to ``path`` atomically.

    The text goes to a temporary file in the same directory (same
    filesystem, so the final rename cannot degrade into a copy) and is
    fsynced before `os.replace` swaps it into place.  Readers therefore see
    either the previous complete file or the new complete file — never a
    truncated intermediate — and an interrupt mid-write leaves the
    destination untouched.  Dataset saves, campaign shards, and campaign
    manifests all funnel through here.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def quarantine(path: Union[str, Path]) -> Path:
    """Rename a corrupt file aside so it is kept but never read again.

    The first quarantine of ``name`` becomes ``name.corrupt``, later ones
    ``name.corrupt1``, ``name.corrupt2``, ... — a repeated corruption of
    the same file never overwrites the evidence of an earlier one.
    Returns the quarantined path.
    """
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    n = 0
    while target.exists():
        n += 1
        target = path.with_name(f"{path.name}.corrupt{n}")
    path.rename(target)
    return target


def fingerprint(payload: dict, lists: Optional[dict] = None) -> str:
    """The sha256 hex digest of ``payload`` (string keys) as sorted-key JSON.

    ``lists`` maps more top-level keys to iterables of their items' own
    sorted-key JSON text.  The hash is fed a field, then an item, at a
    time, so a long list never becomes one string; the digest is the one
    ``payload`` with those lists in place would give.
    """
    lists = lists or {}
    digest = hashlib.sha256(b"{")
    for i, key in enumerate(sorted({**payload, **lists})):
        digest.update(((", " if i else "") + json.dumps(key) + ": ").encode())
        if key not in lists:
            digest.update(json.dumps(payload[key], sort_keys=True).encode())
            continue
        digest.update(b"[")
        for j, text in enumerate(lists[key]):
            digest.update(((", " if j else "") + text).encode())
        digest.update(b"]")
    digest.update(b"}")
    return digest.hexdigest()


def read_json_object(path: Union[str, Path], data: Optional[bytes] = None) -> dict:
    """The JSON object in ``path`` (or in ``data``, its bytes already read):
    `FileNotFoundError` when absent, `ValueError` saying what is wrong when
    it is not a JSON object."""
    try:
        payload = json.loads(Path(path).read_bytes() if data is None else data)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(
            f"not a JSON object (expected a JSON object, got {type(payload).__name__})"
        )
    return payload


def load_json(path, parse: Callable[[dict], Any], *, what, error=ValueError, data=None):
    """``parse`` the JSON object in ``path`` (``data``: its bytes, already
    read); every failure (absent, unreadable, torn, rejected by ``parse``)
    is an ``error`` naming the file."""
    path = Path(path)
    try:
        return parse(read_json_object(path, data))
    except FileNotFoundError:
        raise error(f"{what} {path} does not exist") from None
    except OSError as exc:
        raise error(f"{what} {path} is unreadable: {exc}") from exc
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        detail = exc if isinstance(exc, ValueError) else repr(exc)
        raise error(f"{what} {path}: {detail}") from exc


def require_header(d: dict, what: str, version: int, kind=None, error=ValueError):
    """Refuse a payload of another ``format_version`` or ``kind``."""
    if d.get("format_version") != version:
        found = d.get("format_version")
        raise error(f"{what} has format_version {found!r} (expected {version})")
    if kind is not None and d.get("kind") != kind:
        raise error(f"{what} holds kind {d.get('kind')!r}, expected {kind!r}")


# The Python types a JSON number parses to, for `require`.
NUMBER = (int, float)


def require(obj: Any, where: str, fields: dict) -> None:
    """Check a parsed JSON object: each of ``fields`` present with its type
    (or tuple of types).  The `ValueError` names the path, e.g.
    ``manifest.batches.0.index: missing``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {type(obj).__name__}")
    for name, kind in fields.items():
        if name not in obj:
            raise ValueError(f"{where}.{name}: missing")
        if not isinstance(obj[name], kind):
            kinds = kind if isinstance(kind, tuple) else (kind,)
            raise ValueError(
                f"{where}.{name}: expected {' or '.join(k.__name__ for k in kinds)}, "
                f"got {type(obj[name]).__name__}"
            )


def refuse(error: type) -> Callable[[Path, str], None]:
    """Tear policy: raise ``error`` and move nothing."""

    def policy(path: Path, reason: str) -> None:
        raise error(f"manifest {path}: {reason}")

    return policy


def quarantine_with(
    children: Callable[[], Iterable[Path]]
) -> Callable[[Path, str], None]:
    """Tear policy: quarantine the manifest and every file ``children()``
    lists, and start fresh."""

    def policy(path: Path, reason: str) -> None:
        for torn in [path, *children()]:
            quarantine(torn)

    return policy


def read_manifest(
    path: Path,
    *,
    policy: Callable[[Path, str], None],
    fingerprint: Optional[str] = None,
    foreign: Optional[Exception] = None,
    schema: Optional[Callable[[dict], None]] = None,
) -> Optional[dict]:
    """A store's manifest, or None when there is none to resume from.

    Absent: None.  Torn (not a JSON object, no string ``fingerprint``, or
    rejected by ``schema``): ``policy(path, reason)`` raises or sets it
    aside, then None.  A fingerprint other than ``fingerprint`` raises
    ``foreign``, the caller's typed error.
    """
    try:
        manifest = read_json_object(path)
        if schema is not None:
            schema(manifest)
        require(manifest, "manifest", {"fingerprint": str})
    except FileNotFoundError:
        return None
    except ValueError as exc:
        policy(path, str(exc))
        return None
    if fingerprint is not None and manifest["fingerprint"] != fingerprint:
        raise foreign
    return manifest


def write_manifest(path: Path, manifest: dict) -> None:
    """Atomically replace ``path`` with ``manifest`` as compact JSON."""
    atomic_write_text(path, json.dumps(manifest))


def require_degradations(manifest: dict) -> None:
    """Check the `run_pooled` degradation records a manifest keeps."""
    require(manifest, "manifest", {"degradations": list})
    for i, record in enumerate(manifest["degradations"]):
        require(record, f"manifest.degradations.{i}", {"kind": str})


def run_pooled(
    pending: Sequence[Hashable],
    task: Callable[[Hashable], Any],
    worker: Callable[[Any], Any],
    run_local: Callable[[Hashable], Any],
    commit: Callable[[Hashable, Any], None],
    *,
    workers: int,
    mp_context: str,
) -> List[dict]:
    """Compute every key in ``pending`` and ``commit(key, result)`` it.

    With ``workers == 1`` or a single pending key, each key runs
    in-process, in order, through ``run_local(key)``.  Otherwise
    ``worker(task(key))`` runs on a process pool of at most ``workers``
    processes started with the ``mp_context`` start method — so ``worker``
    must be a module-level function and ``task(key)`` picklable — and each
    result is committed in the parent as soon as it completes.

    The pool degrades instead of aborting.  When it cannot be created
    (``pool_unavailable``: an unknown start method, no semaphore support)
    or breaks mid-run because a worker died (``broken_process_pool``), the
    keys not yet committed run serially through ``run_local``; keys the
    pool already committed are never recomputed.  Each failure survived
    is returned as a ``{"kind", "error", ...}`` record for the caller to
    persist with its provenance; an empty list means nothing degraded.
    """
    pending = list(pending)
    degradations: List[dict] = []
    if workers > 1 and len(pending) > 1:
        pending, degradations = _run_on_pool(
            pending, task, worker, commit, workers, mp_context
        )
    for key in pending:
        commit(key, run_local(key))
    return degradations


def _run_on_pool(pending, task, worker, commit, workers, mp_context):
    """The pool half of `run_pooled`: returns the keys left for the serial
    path and the degradation records explaining why any were left."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    try:
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            mp_context=multiprocessing.get_context(mp_context),
        )
    except (ImportError, NotImplementedError, OSError, ValueError) as exc:
        # ValueError: the start method does not exist on this platform
        # (e.g. "fork" on Windows).
        degradation = {
            "kind": "pool_unavailable",
            "error": f"{type(exc).__name__}: {exc}",
            "pending": list(pending),
        }
        return pending, [degradation]
    committed = set()
    try:
        with pool:
            futures = {pool.submit(worker, task(key)): key for key in pending}
            for future in as_completed(futures):
                key = futures[future]
                commit(key, future.result())
                committed.add(key)
    except BrokenProcessPool as exc:
        still_pending = [key for key in pending if key not in committed]
        degradation = {
            "kind": "broken_process_pool",
            "error": f"{type(exc).__name__}: {exc}",
            "completed_before_failure": len(committed),
            "pending": list(still_pending),
        }
        return still_pending, [degradation]
    return [], []
