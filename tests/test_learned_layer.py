"""Tests for GPL models and the flattened learned layer."""

import numpy as np
import pytest

from repro.core.learned_layer import (
    EMPTY,
    FULL,
    TOMBSTONE,
    GPLModel,
    LearnedLayer,
    model_bytes,
)
from repro.sim.trace import MemoryMap, tracer


@pytest.fixture
def mem():
    return MemoryMap()


def build_layer(keys, eps=None, mem=None):
    keys = np.asarray(keys, dtype=np.uint64)
    eps = eps or max(len(keys) // 100, 8)
    return LearnedLayer.bulk_build(keys, keys, eps, mem or MemoryMap(), "t", 2.0)


class TestGPLModel:
    def test_slot_of_monotone_and_clamped(self, mem):
        m = GPLModel(100, 0.5, 10, mem, "t")
        slots = [m.slot_of(100 + d) for d in range(0, 40, 2)]
        assert slots == sorted(slots)
        assert m.slot_of(50) == 0  # below first key clamps to 0
        assert m.slot_of(10**9) == 9  # beyond range clamps to last

    def test_slot_states(self, mem):
        m = GPLModel(0, 1.0, 8, mem, "t")
        assert m.read_slot(3) == (EMPTY, None, None)
        m.write_slot(3, 3, "v")
        assert m.read_slot(3) == (FULL, 3, "v")
        m.clear_slot(3)
        assert m.read_slot(3) == (TOMBSTONE, None, None)
        m.clear_slot(3, tombstone=False)
        assert m.read_slot(3) == (EMPTY, None, None)

    def test_write_over_tombstone(self, mem):
        m = GPLModel(0, 1.0, 4, mem, "t")
        m.write_slot(1, 1, "a")
        m.clear_slot(1)
        m.write_slot(1, 1, "b")
        assert m.read_slot(1) == (FULL, 1, "b")

    def test_place_bulk_conflicts_are_collisions(self, mem):
        keys = np.array([0, 1, 2, 3, 100], dtype=np.uint64)
        # slope 0.5 -> keys 0/1 collide at slot 0, 2/3 at slot 1
        m = GPLModel(0, 0.5, 60, mem, "t")
        conflicts = m.place_bulk(keys, keys)
        conflict_keys = [k for k, _ in conflicts]
        assert conflict_keys == [1, 3]
        assert m.build_size == 3
        assert m.read_slot(0)[1] == 0
        assert m.read_slot(1)[1] == 2

    def test_place_bulk_agrees_with_slot_of(self, mem):
        """Placement and lookup arithmetic must agree, including for
        keys above 2^53 where float64 rounding bites."""
        base = np.uint64(2**61)
        keys = base + np.arange(0, 5000, 7, dtype=np.uint64)
        m = GPLModel(int(keys[0]), 0.31, 2000, mem, "t")
        m.place_bulk(keys, keys)
        for k in keys[::13]:
            s = m.slot_of(int(k))
            state, resident, _ = m.read_slot(s)
            if state == FULL and resident == int(k):
                continue
            # collided keys are allowed to be absent, but a present key
            # must always be found at its predicted slot
            assert int(k) not in [m.keys[s]], "key placed at wrong slot"

    def test_occupancy_counts_live_keys_only(self, mem):
        m = GPLModel(0, 1.0, 10, mem, "t")
        m.write_slot(0, 0, "a")
        m.write_slot(5, 5, "b")
        m.clear_slot(5)
        assert m.occupancy() == 1

    def test_iter_slots_sorted(self, mem):
        m = GPLModel(0, 1.0, 100, mem, "t")
        for k in (5, 50, 20):
            m.write_slot(m.slot_of(k), k, k)
        assert [k for k, _ in m.iter_slots()] == [5, 20, 50]

    def test_model_bytes_formula(self):
        assert model_bytes(0) == 64
        assert model_bytes(8) == 64 + 128 + 1  # versions live in slots

    def test_read_traces_lines(self, mem):
        m = GPLModel(0, 1.0, 64, mem, "t")
        with tracer() as t:
            m.read_slot(10)
        assert t.model_calcs == 1
        assert len(t.reads) == 2  # bitmap line + slot line


class TestLearnedLayerBuild:
    def test_empty(self):
        layer, conflicts = build_layer([])
        assert layer.model_count == 0
        assert conflicts == []

    def test_all_keys_resident_or_conflict(self, sorted_keys):
        layer, conflicts = build_layer(sorted_keys)
        assert layer.occupancy() + len(conflicts) == len(sorted_keys)

    def test_conflicts_not_resident(self, sorted_keys):
        layer, conflicts = build_layer(sorted_keys)
        resident = {k for k, _ in layer.items(0, 2**64 - 1)}
        for k, _ in conflicts:
            assert k not in resident

    def test_models_sorted_by_first_key(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        firsts = [m.first_key for m in layer.models]
        assert firsts == sorted(firsts)

    def test_linear_data_single_model(self):
        keys = np.arange(0, 50_000, 5, dtype=np.uint64)
        layer, conflicts = build_layer(keys, eps=64)
        assert layer.model_count == 1
        assert conflicts == []  # gapped linear placement is collision-free

    def test_bigger_epsilon_fewer_models_more_conflicts(self, sorted_keys):
        small, c_small = build_layer(sorted_keys, eps=16)
        big, c_big = build_layer(sorted_keys, eps=512)
        assert big.model_count <= small.model_count
        assert len(c_big) >= len(c_small)  # Eq. (3): conflicts grow with eps


class TestRouting:
    def test_route_matches_bisect(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        firsts = [m.first_key for m in layer.models]
        import bisect

        for k in sorted_keys[::37]:
            i, m = layer.route(int(k))
            expect = max(bisect.bisect_right(firsts, int(k)) - 1, 0)
            assert i == expect

    def test_route_below_first_key(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        i, m = layer.route(0)
        assert i == 0

    def test_route_empty_layer_raises(self):
        layer, _ = build_layer([])
        with pytest.raises(LookupError):
            layer.route(1)

    def test_route_traced_matches_untraced(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        for k in sorted_keys[::101]:
            plain = layer.route(int(k))
            with tracer():
                traced = layer.route(int(k))
            assert plain[0] == traced[0]

    def test_route_trace_records_probes(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        with tracer() as t:
            layer.route(int(sorted_keys[500]))
        assert t.comparisons >= 1
        assert len(t.reads) == t.comparisons


class TestLayerItems:
    def test_items_full_range_sorted(self, sorted_keys):
        layer, conflicts = build_layer(sorted_keys)
        got = [k for k, _ in layer.items(0, 2**64 - 1)]
        assert got == sorted(got)
        assert len(got) == layer.occupancy()

    def test_items_subrange(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        lo, hi = int(sorted_keys[100]), int(sorted_keys[200])
        got = [k for k, _ in layer.items(lo, hi)]
        assert all(lo <= k <= hi for k in got)
        full = [k for k, _ in layer.items(0, 2**64 - 1) if lo <= k <= hi]
        assert got == full


class TestOverflowAndReplace:
    def test_append_overflow_model(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        last = layer.models[-1]
        m = layer.append_overflow_model(int(sorted_keys[-1]) + 1000, 1.0, 16)
        assert layer.models[-1] is m
        i, routed = layer.route(int(sorted_keys[-1]) + 2000)
        assert routed is m

    def test_append_out_of_order_rejected(self, sorted_keys):
        from repro.core.errors import KeysNotSortedError

        layer, _ = build_layer(sorted_keys)
        with pytest.raises(KeysNotSortedError):
            layer.append_overflow_model(0, 1.0, 16)

    def test_replace_model_keeps_fast_index(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        old = layer.models[0]
        old.fast_index = 7
        new = GPLModel(old.first_key, old.slope_eff, old.n_slots, MemoryMap(), "t")
        layer.replace_model(0, new)
        assert layer.models[0] is new
        assert new.fast_index == 7


def assert_probe_matches_scalar(layer, keys):
    """``probe_live`` equals per-key route + slot_of + read_slot."""
    keys = np.asarray(keys, dtype=np.uint64)
    midx, slots, flat, state, resident = layer.probe_live(keys)
    for j, k in enumerate(keys.tolist()):
        i, m = layer.route(k)
        s = m.slot_of(k)
        st, rk, _ = m.read_slot(s)
        assert (int(midx[j]), int(slots[j]), int(state[j])) == (i, s, st), k
        assert int(resident[j]) == (0 if rk is None else rk), k
        assert int(flat[j]) == m.offset + s


def assert_mirrors_match_lists(layer):
    """Every model's store region mirrors its authoritative slot lists."""
    for m in layer.models:
        state = [
            FULL if occ and k is not None else TOMBSTONE if occ else EMPTY
            for k, occ in zip(m.keys, m.occupied)
        ]
        assert m.np_state.tolist() == state
        assert m.np_keys.tolist() == [0 if k is None else k for k in m.keys]
        assert np.shares_memory(m.np_keys, layer._keys)
        assert np.shares_memory(m.np_state, layer._state)


def force_repack(layer):
    with layer._store_lock:
        layer._repack()


class TestSlotStore:
    """One flat key/state store per layer, gathered by ``probe_live``."""

    @staticmethod
    def probe_mix(keys, rng):
        absent = rng.choice(2**50, size=500).astype(np.uint64)
        edges = np.array([0, 2**64 - 1], dtype=np.uint64)
        return np.concatenate([keys[::7], absent, edges])

    def test_bulk_build_lays_models_end_to_end(self, sorted_keys, rng):
        layer, _ = build_layer(sorted_keys)
        offsets = [m.offset for m in layer.models]
        assert offsets[0] == 0
        assert offsets[1:] == [m.offset + m.n_slots for m in layer.models[:-1]]
        assert len(layer._keys) == layer.total_slots()
        assert_mirrors_match_lists(layer)
        assert_probe_matches_scalar(layer, self.probe_mix(sorted_keys, rng))

    def test_ascending_overflow_appends(self, sorted_keys, rng):
        layer, _ = build_layer(sorted_keys)
        first = int(sorted_keys[-1]) + 1
        for _ in range(40):
            m = layer.append_overflow_model(first, 1.0, 16)
            for s in (0, 5, 15):
                m.write_slot(s, first + s, s)
            m.clear_slot(5)
            first += 16
        assert_mirrors_match_lists(layer)
        appended = np.arange(int(sorted_keys[-1]) + 1, first, dtype=np.uint64)
        probe = np.concatenate([self.probe_mix(sorted_keys, rng), appended])
        assert_probe_matches_scalar(layer, probe)

    def test_expansions_and_forced_repack(self, rng):
        from repro.core.alt_index import ALTIndex

        base = np.sort(rng.choice(2**45, size=4_000, replace=False).astype(np.uint64))
        extra = rng.choice(2**45, size=12_000, replace=False).astype(np.uint64)
        idx = ALTIndex.bulk_load(base, memory=MemoryMap())
        layer = idx._layer
        for k in extra.tolist():
            idx.insert(k, k)
        for k in base[::3].tolist():
            idx.remove(k)
        assert idx.expansions > 0
        # Open expansions merge the model's slots with its buffer's.
        assert any(m.expansion is not None for m in layer.models)
        live = (set(base.tolist()) | set(extra.tolist())) - set(base[::3].tolist())
        assert [k for k, _ in idx.range_query(0, 2**64 - 1)] == sorted(live)
        probe = np.concatenate([base[::5], extra[::5], self.probe_mix(base, rng)])
        assert_mirrors_match_lists(layer)
        assert_probe_matches_scalar(layer, probe)
        store, version = layer._keys, layer._version
        force_repack(layer)
        assert layer._keys is not store and layer._version != version
        assert len(layer._keys) == 2 * sum(m.n_slots for m in layer.models)
        assert_mirrors_match_lists(layer)
        assert_probe_matches_scalar(layer, probe)

    def test_replace_drops_dead_region_at_repack(self, sorted_keys):
        layer, _ = build_layer(sorted_keys)
        old = layer.models[3]
        new = GPLModel(old.first_key, old.slope_eff * 2, old.n_slots * 2, MemoryMap(), "t")
        new.write_slot(1, old.first_key + 1, "v")
        layer.replace_model(3, new)
        # The store was sized exactly at load, so the swap repacked it.
        assert len(layer._keys) == 2 * layer.total_slots()
        assert new.np_state[1] == FULL and new.np_keys[1] == old.first_key + 1
        assert_mirrors_match_lists(layer)

    @pytest.mark.slow
    def test_mirrors_survive_concurrent_region_moves(self, rng):
        """Writers insert and remove while another thread drives
        expansions and repacks; no mirror store may land in a retired
        array."""
        import sys
        import threading

        from repro.core.alt_index import ALTIndex

        keys = np.sort(rng.choice(2**40, size=24_000, replace=False).astype(np.uint64))
        # A loose error bound makes few, large models: long region copies,
        # and each writer keeps hitting the model a repack is moving.
        idx = ALTIndex.bulk_load(keys[::2].copy(), epsilon=1000, memory=MemoryMap())
        layer = idx._layer
        # Split the fresh keys by model, so no two threads share a
        # model's expansion: two writers and the mover.
        fresh = keys[1::2]
        owner = layer.probe_live(fresh)[0] % 3
        thirds = [fresh[owner == 0].tolist(), fresh[owner == 1].tolist()]
        mover_keys = fresh[owner == 2].tolist()
        errors: list[BaseException] = []

        def writer(chunk):
            try:
                for j, k in enumerate(chunk):
                    idx.insert(k, k)
                    if j % 3 == 0:
                        idx.remove(k)
            except BaseException as e:  # pragma: no cover - reported below
                errors.append(e)

        def mover_loop():
            # Repack after every insert until the writers finish.
            pending = iter(mover_keys)
            try:
                while not writers_done.is_set():
                    k = next(pending, None)
                    if k is not None:
                        idx.insert(k, k)
                    force_repack(layer)
            except BaseException as e:  # pragma: no cover - reported below
                errors.append(e)

        writers_done = threading.Event()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            writers = [threading.Thread(target=writer, args=(c,)) for c in thirds]
            mover = threading.Thread(target=mover_loop)
            for t in [mover, *writers]:
                t.start()
            for t in writers:
                t.join()
            writers_done.set()
            mover.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert idx.expansions > 0
        assert_mirrors_match_lists(layer)
        probe = keys[::3]
        assert idx.batch_get(probe) == [idx.get(int(k)) for k in probe]
