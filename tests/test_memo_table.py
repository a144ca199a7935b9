"""Unit + property tests for the memoization tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.bits import array_to_bits
from repro.memo.memo_table import MemoBank, MemoTable


def keys(*pairs):
    a = np.array([p[0] for p in pairs], dtype=np.uint32)
    b = np.array([p[1] for p in pairs], dtype=np.uint32)
    return a, b


class TestMemoTable:
    def test_paper_configuration(self):
        table = MemoTable()
        assert table.entries == 256
        assert table.ways == 16
        assert table.num_sets == 16

    def test_entries_multiple_of_ways(self):
        with pytest.raises(ValueError):
            MemoTable(entries=100, ways=16)

    def test_first_lookup_misses(self):
        table = MemoTable()
        assert not table.lookup(1, 2)

    def test_repeat_lookup_hits(self):
        table = MemoTable()
        table.lookup(1, 2)
        assert table.lookup(1, 2)

    def test_operand_order_matters(self):
        table = MemoTable()
        table.lookup(1, 2)
        assert not table.lookup(2, 1)

    def test_stats_accumulate(self):
        table = MemoTable()
        table.lookup(1, 2)
        table.lookup(1, 2)
        table.lookup(3, 4)
        assert table.stats.lookups == 3
        assert table.stats.hits == 1
        assert table.stats.hit_rate == pytest.approx(1 / 3)

    def test_lru_eviction_within_set(self):
        table = MemoTable(entries=4, ways=2)  # 2 sets, 2 ways
        # Mantissa MSBs drive the set index; craft three keys in set 0.
        def key(n):
            return (n << 1, n << 1)  # XOR of equal MSBs = 0 -> set 0
        table.lookup(*key(1))
        table.lookup(*key(2))
        table.lookup(*key(3))  # evicts key(1)
        assert not table.lookup(*key(1))
        assert table.lookup(*key(3))

    def test_lru_refresh_on_hit(self):
        table = MemoTable(entries=4, ways=2)
        def key(n):
            return (n << 1, n << 1)
        table.lookup(*key(1))
        table.lookup(*key(2))
        table.lookup(*key(1))  # refresh 1
        table.lookup(*key(3))  # should evict 2, not 1
        assert table.lookup(*key(1))
        assert not table.lookup(*key(2))

    def test_batch_matches_sequential(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2**32, 500, dtype=np.uint64).astype(np.uint32)
        b = rng.integers(0, 2**32, 500, dtype=np.uint64).astype(np.uint32)
        # duplicate a window to force hits
        a[250:300] = a[:50]
        b[250:300] = b[:50]
        batch_table = MemoTable()
        hits_batch = batch_table.probe_batch(a, b)
        seq_table = MemoTable()
        hits_seq = sum(seq_table.lookup(int(x), int(y))
                       for x, y in zip(a, b))
        assert hits_batch == hits_seq

    def test_segment_hits_match_sequential(self):
        # A segmented walk longer than one conversion chunk, with an
        # empty segment, reports each segment's own hits.
        rng = np.random.default_rng(1)
        a = rng.integers(0, 64, 9000).astype(np.uint32) << np.uint32(19)
        b = rng.integers(0, 64, 9000).astype(np.uint32) << np.uint32(19)
        ends = [10, 10, 4500, 8999, 9000]
        segments = MemoTable().probe_batch(a, b, ends=ends)
        seq_table = MemoTable()
        hits = [seq_table.lookup(int(x), int(y)) for x, y in zip(a, b)]
        starts = [0] + ends[:-1]
        assert segments == [sum(hits[lo:hi])
                            for lo, hi in zip(starts, ends)]
        assert sum(segments) > 0
        empty = np.empty(0, dtype=np.uint32)
        assert MemoTable().probe_batch(empty, empty) == 0

    def test_reset(self):
        table = MemoTable()
        table.lookup(1, 2)
        table.reset()
        assert table.stats.lookups == 0
        assert not table.lookup(1, 2)

    def test_reduced_precision_improves_hit_rate(self):
        """The paper's core memoization claim (Section 4.3.3)."""
        from repro.fp.rounding import RoundingMode, reduce_array
        rng = np.random.default_rng(1)
        values_a = rng.uniform(0.5, 4.0, 3000).astype(np.float32)
        values_b = rng.uniform(0.5, 4.0, 3000).astype(np.float32)

        full = MemoTable()
        full_hits = full.probe_batch(array_to_bits(values_a),
                                     array_to_bits(values_b))
        reduced = MemoTable()
        ra = reduce_array(values_a, 4, RoundingMode.JAMMING)
        rb = reduce_array(values_b, 4, RoundingMode.JAMMING)
        red_hits = reduced.probe_batch(array_to_bits(ra),
                                       array_to_bits(rb))
        assert red_hits > 10 * max(full_hits, 1)

    def test_four_bit_operands_fully_covered(self):
        """2^4 x 2^4 value pairs fit in 256 entries -> 100% steady-state."""
        from repro.fp.rounding import RoundingMode, reduce_array
        rng = np.random.default_rng(2)
        values_a = reduce_array(
            rng.uniform(1.0, 2.0, 2000).astype(np.float32), 4,
            RoundingMode.TRUNCATION)
        values_b = reduce_array(
            rng.uniform(1.0, 2.0, 2000).astype(np.float32), 4,
            RoundingMode.TRUNCATION)
        table = MemoTable()
        table.probe_batch(array_to_bits(values_a), array_to_bits(values_b))
        # Second pass over the same distribution: all combinations cached.
        hits = table.probe_batch(array_to_bits(values_a),
                                 array_to_bits(values_b))
        assert hits == 2000


class TestMemoBank:
    def test_sub_shares_add_table(self):
        bank = MemoBank()
        a = np.array([10], dtype=np.uint32)
        b = np.array([20], dtype=np.uint32)
        bank.probe("sub", a, b)
        assert bank.probe("add", a, b) == 1

    def test_mul_separate_from_add(self):
        bank = MemoBank()
        a = np.array([10], dtype=np.uint32)
        b = np.array([20], dtype=np.uint32)
        bank.probe("add", a, b)
        assert bank.probe("mul", a, b) == 0

    def test_hit_rate(self):
        bank = MemoBank()
        a = np.array([1, 1], dtype=np.uint32)
        b = np.array([2, 2], dtype=np.uint32)
        bank.probe("mul", a, b)
        assert bank.hit_rate("mul") == pytest.approx(0.5)

    def test_reset(self):
        bank = MemoBank()
        a = np.array([1], dtype=np.uint32)
        bank.probe("add", a, a)
        bank.reset()
        assert bank.hit_rate("add") == 0.0


class TestSetIndexing:
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_index_in_range(self, a, b):
        table = MemoTable()
        assert 0 <= table._set_index(a, b) < table.num_sets

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1)),
        min_size=1, max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_occupancy_never_exceeds_ways(self, pairs):
        table = MemoTable(entries=32, ways=4)
        for a, b in pairs:
            table.lookup(a, b)
        for ways in table._sets:
            assert len(ways) <= table.ways

    @given(st.lists(st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=2**32 - 1)),
        min_size=2, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_immediate_repeat_always_hits(self, pairs):
        table = MemoTable()
        for a, b in pairs:
            table.lookup(a, b)
            assert table.lookup(a, b)
