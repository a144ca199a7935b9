"""Memoization tables for FP value reuse (paper Section 4.3.3, Table 4).

The paper simulates two 256-entry, 16-way set-associative memoization
tables — one for FP add(/sub) and one for FP multiply — indexed by an XOR
of the most significant mantissa bits of the two (already precision
reduced) operands.  A hit means the cached result is reused instead of
occupying the FPU; results are numerically identical, so the tables here
track *timing/energy-relevant* hit statistics only.

Trivializable operations are filtered before reaching these tables (the
caller enforces this: :class:`~repro.fp.context.FPContext` only streams
non-trivial operands).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict

import numpy as np

__all__ = ["MemoTable", "MemoBank"]

_MANTISSA_MSB_SHIFT = 19  # top 4 of the 23 mantissa bits
#: Operand pairs :meth:`MemoTable.probe_batch` turns into Python ints at
#: a time.
_WALK_CHUNK = 4096


@dataclass
class _TableStats:
    lookups: int = 0
    hits: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class MemoTable:
    """One set-associative memoization table with LRU replacement.

    Parameters mirror the paper's configuration: 256 entries, 16-way
    (16 sets), set index = XOR of the 4 most-significant mantissa bits of
    each operand.
    """

    def __init__(self, entries: int = 256, ways: int = 16) -> None:
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        self.entries = entries
        self.ways = ways
        self.num_sets = entries // ways
        self._sets = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = _TableStats()

    def _set_index(self, abits: int, bbits: int) -> int:
        msb_a = (abits >> _MANTISSA_MSB_SHIFT) & 0xF
        msb_b = (bbits >> _MANTISSA_MSB_SHIFT) & 0xF
        return (msb_a ^ msb_b) % self.num_sets

    def lookup(self, abits: int, bbits: int) -> bool:
        """Probe with one reduced operand pair; insert on miss.

        Returns True on a hit.
        """
        self.stats.lookups += 1
        key = (int(abits) << 32) | int(bbits)
        ways = self._sets[self._set_index(abits, bbits)]
        if key in ways:
            ways.move_to_end(key)
            self.stats.hits += 1
            return True
        ways[key] = True
        if len(ways) > self.ways:
            ways.popitem(last=False)
        return False

    def probe_batch(self, abits: np.ndarray, bbits: np.ndarray,
                    ends=None):
        """Probe a sequence of operand pairs in order; returns hit count.

        With ``ends`` (increasing end offsets splitting the sequence into
        consecutive segments) returns the hit count of every segment
        instead.  The hot path precomputes keys and set indices
        vectorized, then walks the (inherently sequential) LRU state in
        Python, converting ``_WALK_CHUNK`` pairs at a time to Python ints
        so a long sequence never lives as one list of them.
        """
        keys = ((abits.astype(np.uint64) << np.uint64(32))
                | bbits.astype(np.uint64))
        idx = (
            ((abits >> np.uint32(_MANTISSA_MSB_SHIFT)) & np.uint32(0xF))
            ^ ((bbits >> np.uint32(_MANTISSA_MSB_SHIFT)) & np.uint32(0xF))
        ) % np.uint32(self.num_sets)
        sets = self._sets
        ways_limit = self.ways
        segments = []
        start = chunk_start = 0
        chunk_end = -1
        for end in ([len(keys)] if ends is None else ends):
            if end > chunk_end:
                chunk_start = start
                chunk_end = max(end, start + _WALK_CHUNK)
                chunk_keys = keys[chunk_start:chunk_end].tolist()
                chunk_idx = idx[chunk_start:chunk_end].tolist()
            lo, hi = start - chunk_start, end - chunk_start
            hits = 0
            for key, set_i in zip(chunk_keys[lo:hi], chunk_idx[lo:hi]):
                ways = sets[set_i]
                if key in ways:
                    ways.move_to_end(key)
                    hits += 1
                else:
                    ways[key] = True
                    if len(ways) > ways_limit:
                        ways.popitem(last=False)
            segments.append(hits)
            start = end
        total = sum(segments)
        self.stats.lookups += len(keys)
        self.stats.hits += total
        return total if ends is None else segments

    def reset(self) -> None:
        for ways in self._sets:
            ways.clear()
        self.stats = _TableStats()


class MemoBank:
    """Per-op-type memoization tables (add/sub share one, mul has one)."""

    def __init__(self, entries: int = 256, ways: int = 16) -> None:
        self.tables: Dict[str, MemoTable] = {
            "add": MemoTable(entries, ways),
            "mul": MemoTable(entries, ways),
        }

    @staticmethod
    def _table_name(op: str) -> str:
        return "add" if op in ("add", "sub") else "mul"

    def probe(self, op: str, abits: np.ndarray, bbits: np.ndarray,
              ends=None):
        """Stream non-trivial operand pairs of ``op``; returns hit count
        (per segment with ``ends``, as :meth:`MemoTable.probe_batch`)."""
        return self.tables[self._table_name(op)].probe_batch(abits, bbits,
                                                             ends)

    def hit_rate(self, op: str) -> float:
        return self.tables[self._table_name(op)].stats.hit_rate

    def reset(self) -> None:
        for table in self.tables.values():
            table.reset()
