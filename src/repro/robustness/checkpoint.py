"""Shared world-state checkpointing (the recovery substrate).

The paper's fail-safe ("functional correctness is maintained by
re-executing the previous simulation step at full precision") needs a
faithful snapshot of everything one simulation step mutates.  This module
is the single source of truth for that capture: rigid-body state, cloth
particles, the step counter, the energy monitor's record stream and
injection ledger, the penetration series, the warm-start contact cache,
and the quarantine set.  Both the dynamic precision controller's one-shot
re-execution and the robustness engine's multi-step rollback ladder
restore through here, and the serving layer's session snapshots travel
as :func:`serialize_checkpoint` bytes over the wire.
"""

from __future__ import annotations

import json
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["WorldCheckpoint", "CheckpointRing", "capture_world",
           "restore_world", "serialize_checkpoint",
           "deserialize_checkpoint"]

#: Body arrays a step mutates (derived arrays are refreshed every step).
_BODY_ARRAYS = ("pos", "quat", "linvel", "angvel", "asleep",
                "low_motion_steps")


@dataclass
class WorldCheckpoint:
    """Everything needed to rewind a world to the start of a step."""

    step_count: int
    body_state: Dict[str, np.ndarray]
    cloth_state: List[Tuple[np.ndarray, np.ndarray]]
    monitor_records: int
    injected_total: float
    penetration_len: int
    last_contact_count: int
    contact_cache: Dict
    quarantined: frozenset


def capture_world(world) -> WorldCheckpoint:
    """Snapshot ``world`` (call at a step boundary)."""
    bodies = world.bodies
    bodies.ensure_world_row()
    n = bodies.count + 1  # include the virtual world row
    body_state = {
        name: getattr(bodies, name)[:n].copy() for name in _BODY_ARRAYS
    }
    cloth_state = [
        (cloth.pos.copy(), cloth.vel.copy()) for cloth in world.cloths
    ]
    # The cache's per-contact entries are immutable once stored, so a
    # per-key shallow copy of the lists is a faithful snapshot.
    cache = {key: list(entries)
             for key, entries in world.contact_cache._store.items()}
    return WorldCheckpoint(
        step_count=world.step_count,
        body_state=body_state,
        cloth_state=cloth_state,
        monitor_records=len(world.monitor.records),
        injected_total=world.monitor.injected_total,
        penetration_len=len(world.penetration_series),
        last_contact_count=world.last_contact_count,
        contact_cache=cache,
        quarantined=frozenset(getattr(world, "quarantined", ())),
    )


def restore_world(world, checkpoint: WorldCheckpoint) -> None:
    """Rewind ``world`` to ``checkpoint``, discarding later records.

    The capture includes the virtual world row, which a freshly built
    world may not have materialized yet, so its capacity comes first.
    """
    bodies = world.bodies
    bodies.ensure_world_row()
    n = len(checkpoint.body_state["pos"])
    for name, data in checkpoint.body_state.items():
        getattr(bodies, name)[:n] = data
    for cloth, (pos, vel) in zip(world.cloths, checkpoint.cloth_state):
        cloth.pos = pos.copy()
        cloth.vel = vel.copy()
    world.step_count = checkpoint.step_count
    # Truncate (not pop): a rollback may discard several steps at once.
    world.monitor.records.truncate(checkpoint.monitor_records)
    world.monitor._injected_total = checkpoint.injected_total
    world.penetration_series.truncate(checkpoint.penetration_len)
    world.last_contact_count = checkpoint.last_contact_count
    world.contact_cache._store = {
        key: list(entries)
        for key, entries in checkpoint.contact_cache.items()
    }
    if hasattr(world, "quarantined"):
        world.quarantined = set(checkpoint.quarantined)


class CheckpointRing:
    """Bounded ring of per-step checkpoints for N-step rollback."""

    def __init__(self, depth: int = 8) -> None:
        if depth < 1:
            raise ValueError("checkpoint depth must be >= 1")
        self.depth = depth
        self._ring: Deque[WorldCheckpoint] = deque(maxlen=depth)

    def __len__(self) -> int:
        return len(self._ring)

    def push(self, checkpoint: WorldCheckpoint) -> None:
        self._ring.append(checkpoint)

    def latest(self) -> Optional[WorldCheckpoint]:
        return self._ring[-1] if self._ring else None

    def rollback_target(self, steps_back: int) -> Optional[WorldCheckpoint]:
        """The checkpoint up to ``steps_back`` steps before the latest.

        ``steps_back=0`` is the latest checkpoint; a request deeper than
        the ring clamps to the oldest retained checkpoint (the best the
        ladder can do once history has been evicted).  An empty ring has
        no target; a negative depth is a caller bug, not a clamp case.
        """
        if steps_back < 0:
            raise ValueError(f"steps_back must be >= 0, got {steps_back}")
        if not self._ring:
            return None
        index = max(0, len(self._ring) - 1 - steps_back)
        return self._ring[index]

    def truncate_after(self, step_count: int) -> None:
        """Drop checkpoints newer than ``step_count`` (stale after rewind).

        A checkpoint captured *at* ``step_count`` is kept: it snapshots
        the state at the start of that step, which is exactly where a
        rewind to ``step_count`` lands.
        """
        while self._ring and self._ring[-1].step_count > step_count:
            self._ring.pop()


# ----------------------------------------------------------------------
# Byte serialization (session snapshots over the wire)
# ----------------------------------------------------------------------
#: Frame layout: magic, little-endian uint32 header length, JSON header,
#: then the referenced arrays' raw bytes concatenated in header order.
#: Codec v2 flattens the warm-start contact cache into four stacked
#: arrays (keys, entry counts per key, positions, impulses) so encode
#: cost — and the journal's sha256 over the payload — stays
#: array-at-a-time instead of growing a tiny array + JSON floats per
#: contact.  v1 frames (one ref'd array per cache entry) still decode.
_CODEC_MAGIC = b"RPROCKPT"
_CODEC_VERSION = 2


def _flatten_contact_cache(cache: Dict, ref) -> dict:
    """Stack the cache's per-entry data into whole arrays (dict order)."""
    keys: List[Tuple] = []
    counts: List[int] = []
    positions: List[np.ndarray] = []
    impulses: List[Tuple] = []
    for key, entries in cache.items():
        keys.append(key)
        counts.append(len(entries))
        for pos, imp in entries:
            positions.append(pos)
            impulses.append(imp)
    pos_arr = (np.stack(positions) if positions
               else np.empty((0, 3), dtype=np.float32))
    return {
        "keys": ref(np.asarray(keys, dtype=np.int64).reshape(-1, 2)),
        "counts": ref(np.asarray(counts, dtype=np.int64)),
        "pos": ref(pos_arr),
        "impulses": ref(np.asarray(impulses,
                                   dtype=np.float64).reshape(-1, 3)),
    }


def _rebuild_contact_cache(spec: dict, take) -> Dict:
    """Inverse of :func:`_flatten_contact_cache` (same dict order)."""
    keys = take(spec["keys"])
    counts = take(spec["counts"])
    pos = take(spec["pos"])
    impulses = take(spec["impulses"])
    cache: Dict = {}
    base = 0
    for k in range(len(keys)):
        entries = [(pos[base + i].copy(),
                    tuple(impulses[base + i].tolist()))
                   for i in range(int(counts[k]))]
        cache[tuple(int(v) for v in keys[k])] = entries
        base += int(counts[k])
    return cache


def serialize_checkpoint(checkpoint: WorldCheckpoint) -> bytes:
    """Encode a checkpoint as self-contained bytes.

    The format is an explicit JSON-header-plus-raw-array-blobs frame
    (no pickle: snapshots cross process and trust boundaries in
    ``repro.serve``).  :func:`deserialize_checkpoint` round-trips it
    bit-exactly.
    """
    arrays: List[np.ndarray] = []

    def ref(arr: np.ndarray) -> dict:
        arr = np.ascontiguousarray(arr)
        arrays.append(arr)
        return {"dtype": arr.dtype.str, "shape": list(arr.shape)}

    header = {
        "codec": _CODEC_VERSION,
        "step_count": checkpoint.step_count,
        "body_state": {name: ref(data)
                       for name, data in checkpoint.body_state.items()},
        "cloth_state": [[ref(pos), ref(vel)]
                        for pos, vel in checkpoint.cloth_state],
        "monitor_records": checkpoint.monitor_records,
        "injected_total": checkpoint.injected_total,
        "penetration_len": checkpoint.penetration_len,
        "last_contact_count": checkpoint.last_contact_count,
        "contact_cache": _flatten_contact_cache(
            checkpoint.contact_cache, ref),
        "quarantined": sorted(int(b) for b in checkpoint.quarantined),
    }
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    parts = [_CODEC_MAGIC, struct.pack("<I", len(head)), head]
    parts.extend(arr.tobytes() for arr in arrays)
    return b"".join(parts)


def deserialize_checkpoint(data: bytes) -> WorldCheckpoint:
    """Decode :func:`serialize_checkpoint` bytes back to a checkpoint."""
    if data[:len(_CODEC_MAGIC)] != _CODEC_MAGIC:
        raise ValueError("not a serialized checkpoint (bad magic)")
    offset = len(_CODEC_MAGIC)
    (head_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    try:
        header = json.loads(data[offset:offset + head_len])
    except json.JSONDecodeError as exc:
        raise ValueError(f"corrupt checkpoint header: {exc}") from None
    offset += head_len
    codec = header.get("codec")
    if codec not in (1, _CODEC_VERSION):
        raise ValueError(f"unsupported checkpoint codec: {codec!r}")

    cursor = offset

    def take(spec: dict) -> np.ndarray:
        nonlocal cursor
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        blob = data[cursor:cursor + nbytes]
        if len(blob) != nbytes:
            raise ValueError("truncated checkpoint payload")
        cursor += nbytes
        # .copy() detaches from the (read-only) buffer so restore_world
        # can hand the arrays to a live world.
        return np.frombuffer(blob, dtype=dtype).reshape(shape).copy()

    body_state = {name: take(spec)
                  for name, spec in header["body_state"].items()}
    cloth_state = [(take(pos), take(vel))
                   for pos, vel in header["cloth_state"]]
    if codec == 1:
        contact_cache = {
            tuple(key): [(take(pos), tuple(impulses))
                         for pos, impulses in entries]
            for key, entries in header["contact_cache"]}
    else:
        contact_cache = _rebuild_contact_cache(
            header["contact_cache"], take)
    return WorldCheckpoint(
        step_count=int(header["step_count"]),
        body_state=body_state,
        cloth_state=cloth_state,
        monitor_records=int(header["monitor_records"]),
        injected_total=float(header["injected_total"]),
        penetration_len=int(header["penetration_len"]),
        last_contact_count=int(header["last_contact_count"]),
        contact_cache=contact_cache,
        quarantined=frozenset(header["quarantined"]),
    )
