"""Tests for the ALTIndex facade (Algorithm 2 and §III-G operations)."""

import threading

import numpy as np
import pytest

from repro.core.alt_index import ALTIndex
from repro.core.learned_layer import FULL, TOMBSTONE
from repro.sim.trace import MemoryMap, tracer


@pytest.fixture
def loaded(sorted_keys):
    half = sorted_keys[::2].copy()
    rest = sorted_keys[1::2]
    idx = ALTIndex.bulk_load(half, memory=MemoryMap())
    return idx, half, rest


class TestBulkLoad:
    def test_all_loaded_keys_found(self, loaded):
        idx, half, _ = loaded
        for k in half:
            assert idx.get(int(k)) == int(k)

    def test_absent_keys_not_found(self, loaded):
        idx, half, rest = loaded
        present = set(half.tolist())
        for k in rest[:500]:
            if int(k) not in present:
                assert idx.get(int(k)) is None

    def test_epsilon_default_rule(self, sorted_keys):
        idx = ALTIndex.bulk_load(sorted_keys, memory=MemoryMap())
        assert idx.epsilon == max(len(sorted_keys) // 1000, 16)

    def test_values_default_to_keys(self, small_keys):
        idx = ALTIndex.bulk_load(small_keys, memory=MemoryMap())
        assert idx.get(int(small_keys[0])) == int(small_keys[0])

    def test_explicit_values(self, small_keys):
        vals = [f"v{i}" for i in range(len(small_keys))]
        idx = ALTIndex.bulk_load(small_keys, vals, memory=MemoryMap())
        assert idx.get(int(small_keys[10])) == "v10"

    def test_size(self, loaded):
        idx, half, _ = loaded
        assert len(idx) == len(half)

    def test_two_layer_split_covers_everything(self, loaded):
        idx, half, _ = loaded
        s = idx.stats()
        assert s["learned_keys"] + s["art_keys"] == len(half)
        assert s["learned_fraction"] > 0.5  # Fig. 10c's claim


class TestInsert:
    def test_insert_then_get(self, loaded):
        idx, half, rest = loaded
        for k in rest[:2000]:
            assert idx.insert(int(k), int(k) + 1)
        for k in rest[:2000]:
            assert idx.get(int(k)) == int(k) + 1

    def test_insert_existing_updates(self, loaded):
        idx, half, _ = loaded
        k = int(half[10])
        assert not idx.insert(k, "updated")
        assert idx.get(k) == "updated"
        assert len(idx) == len(half)

    def test_insert_conflict_goes_to_art(self, loaded):
        idx, half, rest = loaded
        before = len(idx.art)
        for k in rest[:2000]:
            idx.insert(int(k), int(k))
        assert len(idx.art) > before  # some inserts must collide

    def test_insert_below_smallest_key(self, loaded):
        idx, half, _ = loaded
        small = int(half[0]) - 1000
        assert idx.insert(small, "low")
        assert idx.get(small) == "low"

    def test_insert_above_largest_key(self, loaded):
        idx, half, _ = loaded
        big = int(half[-1]) + 1000
        assert idx.insert(big, "high")
        assert idx.get(big) == "high"

    def test_empty_index_bootstrap(self):
        idx = ALTIndex.bulk_load(np.array([], dtype=np.uint64), memory=MemoryMap())
        assert idx.insert(42, "x")
        assert idx.get(42) == "x"
        assert idx.insert(41, "y") and idx.insert(43, "z")
        assert idx.get(41) == "y" and idx.get(43) == "z"


class TestUpdateRemove:
    def test_update_learned_resident(self, loaded):
        idx, half, _ = loaded
        k = int(half[5])
        assert idx.update(k, "u")
        assert idx.get(k) == "u"

    def test_update_art_resident(self, loaded):
        idx, half, rest = loaded
        # force a conflict insert, then update it
        target = None
        for k in rest[:3000]:
            before = len(idx.art)
            idx.insert(int(k), int(k))
            if len(idx.art) > before:
                target = int(k)
                break
        assert target is not None
        assert idx.update(target, "artv")
        assert idx.get(target) == "artv"

    def test_update_missing_returns_false(self, loaded):
        idx, half, rest = loaded
        absent = int(rest[0])
        if idx.get(absent) is None:
            assert not idx.update(absent, "x")

    def test_remove_learned_key_leaves_tombstone(self, loaded):
        idx, half, _ = loaded
        k = int(half[100])
        i, m = idx._route(k)
        slot = m.slot_of(k)
        if m.read_slot(slot)[0] == FULL and m.read_slot(slot)[1] == k:
            assert idx.remove(k)
            assert m.read_slot(slot)[0] == TOMBSTONE
            assert idx.get(k) is None

    def test_remove_missing(self, loaded):
        idx, half, rest = loaded
        absent = int(rest[1])
        if idx.get(absent) is None:
            assert not idx.remove(absent)

    def test_remove_then_reinsert(self, loaded):
        idx, half, _ = loaded
        k = int(half[42])
        assert idx.remove(k)
        assert idx.insert(k, "back")
        assert idx.get(k) == "back"

    def test_size_tracks_ops(self, loaded):
        idx, half, rest = loaded
        n0 = len(idx)
        idx.insert(int(rest[0]), 1)
        idx.remove(int(half[0]))
        assert len(idx) == n0


class TestWriteBack:
    def test_search_repatriates_art_key(self, loaded):
        """Algorithm 2 lines 10-13: finding a key in ART while its
        predicted slot is free moves it back to the learned layer."""
        idx, half, _ = loaded
        # Construct the scenario directly: remove a learned-resident key
        # (leaving a tombstone) and plant its twin in ART.
        k = int(half[77])
        i, m = idx._route(k)
        slot = m.slot_of(k)
        state, resident, _ = m.read_slot(slot)
        if not (state == FULL and resident == k):
            pytest.skip("key not learned-resident under this seed")
        m.clear_slot(slot)  # tombstone
        idx.art.insert(k, "from-art")
        wb0 = idx.writebacks
        assert idx.get(k) == "from-art"
        assert idx.writebacks == wb0 + 1
        assert m.read_slot(slot) == (FULL, k, "from-art")
        assert idx.art.search(k) is None


class TestScans:
    def test_scan_merges_layers_sorted(self, loaded):
        idx, half, rest = loaded
        for k in rest[:3000]:
            idx.insert(int(k), int(k))
        live = sorted(set(half.tolist()) | {int(k) for k in rest[:3000]})
        lo = live[50]
        got = [k for k, _ in idx.scan(lo, 100)]
        assert got == live[50:150]

    def test_scan_beyond_end(self, loaded):
        idx, half, _ = loaded
        got = idx.scan(int(half[-1]) + 1, 10)
        assert got == []

    def test_range_query_counts(self, loaded):
        idx, half, _ = loaded
        lo, hi = int(half[10]), int(half[60])
        got = idx.range_query(lo, hi)
        assert [k for k, _ in got] == [int(k) for k in half if lo <= k <= hi]

    def test_full_range_equals_size(self, loaded):
        idx, half, rest = loaded
        for k in rest[:1000]:
            idx.insert(int(k), int(k))
        for k in half[:500]:
            idx.remove(int(k))
        got = idx.range_query(0, 2**64 - 1)
        assert len(got) == len(idx)
        keys = [k for k, _ in got]
        assert keys == sorted(set(keys))


class TestAblations:
    def test_no_fast_pointers_still_correct(self, sorted_keys):
        idx = ALTIndex.bulk_load(
            sorted_keys[::2].copy(), fast_pointers=False, memory=MemoryMap()
        )
        for k in sorted_keys[::2][:500]:
            assert idx.get(int(k)) == int(k)
        assert idx.fast_pointers is None

    def test_no_merge_more_pointers(self, sorted_keys):
        merged = ALTIndex.bulk_load(
            sorted_keys[::2].copy(), merge_pointers=True, memory=MemoryMap()
        )
        raw = ALTIndex.bulk_load(
            sorted_keys[::2].copy(), merge_pointers=False, memory=MemoryMap()
        )
        if merged.fast_pointers.raw_count:
            assert len(raw.fast_pointers) >= len(merged.fast_pointers)

    def test_no_retraining_never_expands(self, sorted_keys):
        idx = ALTIndex.bulk_load(
            sorted_keys[::2].copy(), retraining=False, memory=MemoryMap()
        )
        for k in sorted_keys[1::2]:
            idx.insert(int(k), int(k))
        assert idx.expansions == 0

    def test_custom_epsilon(self, sorted_keys):
        fine = ALTIndex.bulk_load(sorted_keys, epsilon=16, memory=MemoryMap())
        coarse = ALTIndex.bulk_load(sorted_keys, epsilon=512, memory=MemoryMap())
        assert fine.layer.model_count >= coarse.layer.model_count


class TestRetrainingIntegration:
    def test_heavy_inserts_trigger_expansion(self):
        rng = np.random.default_rng(5)
        keys = np.sort(rng.choice(2**40, 20_000, replace=False).astype(np.uint64))
        idx = ALTIndex.bulk_load(keys[::4].copy(), memory=MemoryMap())
        # concentrate inserts to overload specific models
        for k in keys:
            idx.insert(int(k), int(k))
        assert idx.expansions >= 1
        for k in keys[::17]:
            assert idx.get(int(k)) == int(k)

    def test_consistency_through_expansion(self):
        keys = np.arange(1000, 2000, 2, dtype=np.uint64)
        idx = ALTIndex.bulk_load(keys, memory=MemoryMap())
        inserted = list(range(1001, 2000, 2)) + list(range(2001, 2400))
        for k in inserted:
            idx.insert(k, k * 2)
        for k in inserted:
            assert idx.get(k) == k * 2, k
        for k in keys:
            assert idx.get(int(k)) == int(k)


class TestStatsAndTracing:
    def test_stats_shape(self, loaded):
        idx, _, _ = loaded
        s = idx.stats()
        for field in (
            "epsilon",
            "model_count",
            "learned_keys",
            "art_keys",
            "memory_bytes",
            "fast_pointers",
        ):
            assert field in s
        assert s["memory_bytes"] > 0

    def test_ops_emit_traces(self, loaded):
        idx, half, rest = loaded
        with tracer() as t:
            idx.get(int(half[3]))
        assert t.reads and t.model_calcs >= 1
        with tracer() as t:
            idx.insert(int(rest[3]), 1)
        assert t.writes

    def test_art_path_length(self, loaded):
        idx, half, rest = loaded
        for k in rest[:1000]:
            idx.insert(int(k), int(k))
        k = int(rest[5])
        with_ptr = idx.art_path_length(k)
        without = idx.art.lookup_path_length(k)
        assert with_ptr <= without


@pytest.mark.slow
class TestConcurrentALT:
    def test_parallel_inserts_and_reads(self, sorted_keys):
        half = sorted_keys[::2].copy()
        rest = [int(k) for k in sorted_keys[1::2]]
        idx = ALTIndex.bulk_load(half, memory=MemoryMap())
        errors = []
        writer_errors: list[BaseException] = []
        stop = threading.Event()

        def writer(chunk):
            try:
                for k in chunk:
                    idx.insert(k, k)
            except BaseException as exc:  # surfaced after join
                writer_errors.append(exc)

        def reader():
            import random

            while not stop.is_set():
                k = int(half[random.randrange(len(half))])
                v = idx.get(k)
                if v != k:
                    errors.append((k, v))

        chunks = [rest[i::4] for i in range(4)]
        writers = [threading.Thread(target=writer, args=(c,)) for c in chunks]
        readers = [threading.Thread(target=reader) for _ in range(2)]
        for t in readers:
            t.start()
        for t in writers:
            t.start()
        for t in writers:
            t.join()
        stop.set()
        for t in readers:
            t.join()
        assert not writer_errors, writer_errors
        assert not errors
        for k in rest[::13]:
            assert idx.get(k) == k
