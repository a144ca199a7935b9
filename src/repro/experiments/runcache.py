"""Cached instrumented scenario runs shared by all experiments.

Several tables/figures consume the same expensive artifacts:

* **census runs** — a scenario simulated with the trivialization census
  (and optionally memoization tables) enabled, yielding per-(phase, op)
  totals and hit counts;
* **tuned precisions** — the Table 1 minimum-precision search results;
* **design evaluations** — the design-space optimizer's points.

All of them go through one front end, :func:`cached_json`: an
in-memory layer plus one JSON file per entry under the cache directory
(``REPRO_CACHE_DIR`` env var, default ``.repro_cache`` in the working
directory), so re-running a benchmark does not repeat hours of
simulation.  Every key includes :data:`ENGINE_FINGERPRINT`, so entries
computed by an engine whose output has since changed are never read.

Artifacts written outside the cache (``BENCH_*.json``, ``DESIGN_*.json``)
share its atomic writer, :func:`write_json_atomic`, and name themselves
with :func:`bench_stamp`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple

from ..fp.context import FPContext, OpCounter
from ..fp.rounding import RoundingMode
from ..memo.memo_table import MemoBank
from ..workloads import build, default_steps

__all__ = ["ENGINE_FINGERPRINT", "bench_stamp", "cache_dir", "cache_path",
           "census_stats", "cached_json", "write_json_atomic", "StatsDict"]

StatsDict = Dict[Tuple[str, str], OpCounter]

#: What the engine computes, as part of every cache key: the first 16
#: hex digits of the sha256 of the engine goldens' canonical JSON,
#: ``host`` left out (``tests/engine_goldens.py`` computes it).  It
#: changes exactly when re-recorded goldens do.
ENGINE_FINGERPRINT = "170c2570f6b8b5b3"

_JSON_CACHE: Dict[str, dict] = {}
#: guards the in-memory layer (sweep results can land from pool-callback
#: threads while the main thread reads)
_JSON_LOCK = threading.Lock()


def write_json_atomic(path, payload: dict) -> None:
    """Persist ``payload`` via temp-file-then-rename.

    ``os.replace`` is atomic on POSIX, so concurrent sweep workers
    writing the same cache entry can never leave a torn file for a
    reader to trip over — last writer wins with a complete document.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=1)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


#: Monotone per-process suffix so two payloads written in the same
#: process never collide even within one wall-clock second.
_STAMP_COUNTER = itertools.count(1)


def bench_stamp() -> str:
    """Collision-proof payload stamp: wall time + pid + sequence number.

    ``time.strftime`` alone collides when two runs (CI matrix lanes, the
    sharded bench's back-to-back topologies) land in the same second and
    silently overwrite each other's ``BENCH_*.json``.  The stamp stays
    sortable-by-time first, and keeps the ``BENCH_<stamp>[_serve].json``
    naming scheme every baseline-comparison glob relies on.
    """
    return (f"{time.strftime('%Y%m%d_%H%M%S')}"
            f"_p{os.getpid()}n{next(_STAMP_COUNTER)}")


def cache_dir() -> Path:
    """Directory for persisted experiment artifacts."""
    root = os.environ.get("REPRO_CACHE_DIR", ".repro_cache")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _entry(kind: str, params: dict) -> Tuple[dict, str, Path]:
    """An entry's full key parameters, their hash, and its file."""
    payload = {"engine": ENGINE_FINGERPRINT, "kind": kind, **params}
    blob = json.dumps(payload, sort_keys=True)
    key = hashlib.sha1(blob.encode()).hexdigest()[:16]
    return payload, key, cache_dir() / f"{kind}_{key}.json"


def cache_path(kind: str, params: dict) -> Path:
    """The file :func:`cached_json` keeps the ``(kind, params)`` entry in."""
    return _entry(kind, params)[2]


def _serialize(stats: StatsDict) -> dict:
    return {
        f"{phase}|{op}": [c.total, c.conventional_trivial,
                          c.extended_trivial, c.memo_lookups, c.memo_hits]
        for (phase, op), c in stats.items()
    }


def _deserialize(payload: dict) -> StatsDict:
    stats: StatsDict = {}
    for key, values in payload.items():
        phase, op = key.split("|", 1)
        stats[(phase, op)] = OpCounter(*values)
    return stats


def cached_json(kind: str, params: dict, compute,
                use_cache: bool = True) -> dict:
    """Memoize an arbitrary JSON-valued computation by parameter tuple.

    ``params`` must be JSON-serializable and, with the engine
    fingerprint, fully determine the result; ``compute()`` runs on a
    miss and must return a JSON-serializable dict.  Entries live in an
    in-memory layer plus a ``{kind}_{key}.json`` file written
    atomically, so concurrent sweep workers (processes *and* threads)
    can race on the same entry safely.  ``use_cache=False`` bypasses
    both layers without poisoning them (the fresh result is still
    stored for later hits).
    """
    payload, key, path = _entry(kind, params)
    if use_cache:
        with _JSON_LOCK:
            cached = _JSON_CACHE.get(key)
        if cached is not None:
            return cached
        if path.exists():
            try:
                with path.open() as handle:
                    result = json.load(handle)["result"]
            except (OSError, ValueError, KeyError):
                result = None  # unreadable/corrupt entry: recompute
            if result is not None:
                with _JSON_LOCK:
                    _JSON_CACHE[key] = result
                return result
    result = compute()
    write_json_atomic(path, {"params": payload, "result": result})
    with _JSON_LOCK:
        _JSON_CACHE[key] = result
    return result


def census_stats(
    scenario: str,
    phase_precision: Optional[Mapping[str, int]] = None,
    mode: str = "jam",
    steps: Optional[int] = None,
    scale: float = 1.0,
    memo: bool = False,
    memo_budget: int = 400_000,
) -> StatsDict:
    """Instrumented run returning per-(phase, op) census counters.

    Results are cached (:func:`cached_json`) by the full parameter
    tuple; every call returns its own counters.
    """
    steps = default_steps() if steps is None else steps
    mode = RoundingMode.parse(mode)

    def run() -> dict:
        ctx = FPContext(
            phase_precision,
            mode=mode,
            memo=MemoBank() if memo else None,
            memo_budget=memo_budget if memo else None,
            census=True,
        )
        world = build(scenario, ctx=ctx, scale=scale)
        for _ in range(steps):
            world.step()
        return _serialize(ctx.stats)

    return _deserialize(cached_json("census", {
        "scenario": scenario,
        "precision": dict(phase_precision or {}),
        "mode": mode.value,
        "steps": steps,
        "scale": scale,
        "memo": memo,
        "memo_budget": memo_budget if memo else 0,
    }, run))
