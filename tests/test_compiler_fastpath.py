"""The fast compile path: the tile-lattice memo and the persistent store.

The contract under test everywhere here is *byte-for-byte identity*: the
memoized tile lattice and the on-disk schedule store are pure
accelerations — every schedule, every search counter, and every
trace-visible step charge must be exactly what the plain search
produces.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.compiler import (
    ScheduleSearch,
    ceil_tile_candidates,
    schedule_layer,
    schedule_network,
)
from repro.compiler.cache import ScheduleCache
from repro.compiler.persist import PersistentScheduleStore, store_key
from repro.errors import ScheduleError
from repro.overlay.config import OverlayConfig
from repro.workloads.layers import ConvLayer, MatMulLayer
from repro.workloads.models import build_smallcnn

CONFIGS = [
    OverlayConfig(3, 2, 2),
    OverlayConfig(4, 2, 3),
    OverlayConfig(2, 2, 2, double_pump=False),
]

LAYERS = [
    ConvLayer("c_pad", in_channels=4, out_channels=8, in_h=14, in_w=14,
              kernel_h=3, kernel_w=3, stride=1, padding=1),
    ConvLayer("c_stride", in_channels=8, out_channels=6, in_h=15, in_w=15,
              kernel_h=3, kernel_w=3, stride=2, padding=0),
    ConvLayer("c_group", in_channels=8, out_channels=8, in_h=10, in_w=10,
              kernel_h=3, kernel_w=3, stride=1, padding=1, groups=4),
    MatMulLayer("mm_fc", in_features=64, out_features=32, batch=1),
    MatMulLayer("mm_b", in_features=48, out_features=24, batch=8),
]


def _naive_lattice(size: int, cap: int) -> list[int]:
    """The definition ``ceil_tile_candidates`` must reproduce."""
    tiles = {1}
    for m in range(1, size + 1):
        tile = math.ceil(size / m)
        if tile <= cap:
            tiles.add(tile)
    return sorted(tiles)


class TestCeilTileMemo:
    def test_matches_naive_lattice(self):
        for size in (1, 2, 3, 7, 12, 48, 97, 224, 1000):
            for cap in (1, 2, 5, size // 2 + 1, size, size + 7):
                assert ceil_tile_candidates(size, cap) == \
                    _naive_lattice(size, cap), (size, cap)

    def test_seeded_property_sweep(self):
        rng = np.random.default_rng(1234)
        for _ in range(200):
            size = int(rng.integers(1, 600))
            cap = int(rng.integers(1, 700))
            assert ceil_tile_candidates(size, cap) == \
                _naive_lattice(size, cap), (size, cap)

    def test_returns_fresh_lists(self):
        first = ceil_tile_candidates(12, 5)
        first.append(-1)
        assert ceil_tile_candidates(12, 5) == _naive_lattice(12, 5)


class TestCacheBound:
    @pytest.mark.parametrize(
        "value", [float("nan"), 2.5, True, 0],
        ids=["nan", "fraction", "bool", "zero"],
    )
    def test_bad_max_entries_rejected(self, value):
        """A nan bound compared false with every size, so the cache never
        evicted; only None or an integer >= 1 is a bound."""
        with pytest.raises(ScheduleError, match="max_entries"):
            ScheduleCache(OverlayConfig(3, 2, 2), max_entries=value)


class TestPersistentStore:
    def test_round_trip_is_identical(self, tmp_path):
        store = PersistentScheduleStore(tmp_path)
        config = OverlayConfig(3, 2, 2)
        for layer in LAYERS:
            search = ScheduleSearch(layer, config, top_k=1)
            schedule = search.run()[0]
            store.save(schedule, steps=search.steps)
            loaded = store.load(layer, config, "performance")
            assert loaded is not None
            reloaded, steps = loaded
            assert reloaded.mapping == schedule.mapping
            assert reloaded.estimate == schedule.estimate
            assert steps == search.steps

    def test_miss_on_unknown_layer(self, tmp_path):
        store = PersistentScheduleStore(tmp_path)
        assert store.load(LAYERS[0], OverlayConfig(3, 2, 2),
                          "performance") is None

    def test_config_and_objective_isolate_entries(self, tmp_path):
        """A fault-masked (smaller) grid never reads the full grid's entry."""
        store = PersistentScheduleStore(tmp_path)
        layer = LAYERS[0]
        full = OverlayConfig(3, 2, 2)
        masked = OverlayConfig(3, 2, 1)
        schedule = schedule_layer(layer, full)
        store.save(schedule, steps=10)
        assert store.load(layer, masked, "performance") is None
        assert store.load(layer, full, "balance") is None
        assert store.load(layer, full, "performance") is not None
        assert store_key(layer, full, "performance") != \
            store_key(layer, masked, "performance")

    @pytest.mark.parametrize("tamper", [
        lambda text: "not json at all",
        lambda text: text[: len(text) // 2],
        lambda text: json.dumps({**json.loads(text), "version": 999}),
        lambda text: json.dumps(
            {**json.loads(text),
             "trips": {k: {n: 1 for n in v}
                       for k, v in json.loads(text)["trips"].items()}}
        ),
        lambda text: json.dumps(
            {**json.loads(text), "loop_names": ["bogus"]}),
        lambda text: json.dumps({**json.loads(text), "steps": -5}),
    ], ids=["garbage", "truncated", "bad-version", "infeasible-trips",
            "bad-loops", "negative-steps"])
    def test_corrupt_entries_fall_back_to_search(self, tmp_path, tamper):
        store = PersistentScheduleStore(tmp_path)
        config = OverlayConfig(3, 2, 2)
        layer = LAYERS[0]
        reference = schedule_layer(layer, config)
        store.save(reference, steps=3)
        path = tmp_path / f"{store_key(layer, config, 'performance')}.json"
        path.write_text(tamper(path.read_text()))

        cache = ScheduleCache(config, store=PersistentScheduleStore(tmp_path))
        schedule = cache.schedule(layer)
        assert schedule.mapping == reference.mapping
        stats = cache.stats()
        assert stats.persistent_corrupt == 1
        assert stats.persistent_hits == 0
        assert stats.persistent_misses == stats.persistent_stores == 1
        # the fresh search overwrote the corrupt entry
        assert cache.store.load(layer, config, "performance") is not None

    def test_beams_isolate_entries(self, tmp_path):
        """A store filled with budget-beam (16/24) searches never serves
        a default-beam cache: that cache searches, and returns what a
        fresh default search returns.  A second budget-beam cache
        loads every entry."""
        config = OverlayConfig(3, 2, 2)
        budget = {"spatial_beam": 16, "temporal_beam": 24}
        filled = ScheduleCache(
            config, store=PersistentScheduleStore(tmp_path), **budget)
        for layer in LAYERS:
            filled.schedule(layer)

        default = ScheduleCache(
            config, store=PersistentScheduleStore(tmp_path))
        for layer in LAYERS:
            fresh = schedule_layer(layer, config)
            schedule = default.schedule(layer)
            assert (schedule.mapping, schedule.estimate) == \
                (fresh.mapping, fresh.estimate)
        stats = default.stats()
        assert stats.persistent_hits == 0
        assert stats.compiles == stats.persistent_stores == len(LAYERS)

        warm = ScheduleCache(
            config, store=PersistentScheduleStore(tmp_path), **budget)
        for layer in LAYERS:
            assert warm.schedule(layer).mapping == \
                filled.schedule(layer).mapping
        assert warm.stats().persistent_hits == len(LAYERS)
        assert warm.stats().compiles == 0

    def test_infeasible_trips_detected_not_trusted(self, tmp_path):
        """A tampered mapping is rejected by re-validation, not loaded."""
        store = PersistentScheduleStore(tmp_path)
        config = OverlayConfig(3, 2, 2)
        layer = LAYERS[3]
        schedule = schedule_layer(layer, config)
        store.save(schedule, steps=1)
        path = tmp_path / f"{store_key(layer, config, 'performance')}.json"
        payload = json.loads(path.read_text())
        payload["trips"]["T"] = {n: 10_000 for n in payload["loop_names"]}
        path.write_text(json.dumps(payload))
        assert store.load(layer, config, "performance") == store.CORRUPT


def _fuzz_cases(rng: np.random.Generator, n: int):
    """Seeded (layer, config) pairs spanning batches and masked grids."""
    for _ in range(n):
        config = CONFIGS[int(rng.integers(len(CONFIGS)))]
        draw = int(rng.integers(3))
        if draw == 0:
            layer = MatMulLayer(
                "mm",
                in_features=int(rng.integers(8, 96)),
                out_features=int(rng.integers(4, 64)),
                batch=int(2 ** rng.integers(0, 4)),
            )
        elif draw == 1:
            # Attention-style streamed matmul: cache keys must cover it.
            layer = MatMulLayer(
                "mm_streamed",
                in_features=int(rng.integers(4, 32)),
                out_features=int(rng.integers(4, 32)),
                batch=int(rng.integers(1, 12)),
                weight_source="producer",
            )
        else:
            layer = ConvLayer(
                "conv",
                in_channels=int(rng.integers(2, 10)),
                out_channels=int(rng.integers(2, 12)),
                in_h=int(rng.integers(6, 20)),
                in_w=int(rng.integers(6, 20)),
                kernel_h=3, kernel_w=3,
                stride=int(rng.integers(1, 3)),
                padding=int(rng.integers(0, 2)),
            )
        yield layer, config


class TestCacheEquivalenceFuzz:
    def test_all_paths_produce_identical_schedules(self, tmp_path):
        """searched == memory-cached == disk-cached."""
        rng = np.random.default_rng(20260807)
        for case, (layer, config) in enumerate(_fuzz_cases(rng, 12)):
            try:
                direct = schedule_layer(layer, config)
            except ScheduleError:
                continue  # infeasible draw: all paths must agree it is

            root = tmp_path / f"case{case}"
            cold = ScheduleCache(config, store=PersistentScheduleStore(root))
            first = cold.schedule(layer)
            second = cold.schedule(layer)  # memory hit
            warm = ScheduleCache(config, store=PersistentScheduleStore(root))
            from_disk = warm.schedule(layer)  # persistent hit

            for other in (first, second, from_disk):
                assert other.mapping == direct.mapping, (case, layer)
                assert other.estimate == direct.estimate, (case, layer)
            assert warm.stats().persistent_hits == 1

    def test_network_paths_identical(self, tmp_path):
        network = build_smallcnn()
        config = OverlayConfig(3, 2, 2)
        sequential = schedule_network(network, config)
        store = PersistentScheduleStore(tmp_path)
        disk_cold = ScheduleCache(config, store=store)
        cold = [disk_cold.schedule(l) for l in network.accelerated_layers()]
        disk_warm = ScheduleCache(
            config, store=PersistentScheduleStore(tmp_path))
        warm = [disk_warm.schedule(l) for l in network.accelerated_layers()]
        for seq, c, w in zip(sequential, cold, warm):
            assert seq.mapping == c.mapping == w.mapping
            assert seq.estimate == c.estimate == w.estimate
        stats = disk_warm.stats()
        assert stats.persistent_hits == stats.misses > 0
        assert stats.compiles == 0  # the warm start never searched

    def test_transformer_network_paths_identical(self, tmp_path):
        """The fast paths must agree on a transformer network too: host
        layers skipped, weight-streaming matmuls keyed like any MM."""
        from repro.workloads.models import TransformerConfig, build_transformer
        network = build_transformer(TransformerConfig(
            d_model=32, n_heads=2, seq_len=8, d_ff=64, n_blocks=1,
        ))
        config = OverlayConfig(3, 2, 2)
        sequential = schedule_network(network, config)
        disk_cold = ScheduleCache(
            config, store=PersistentScheduleStore(tmp_path))
        cold = [disk_cold.schedule(l) for l in network.accelerated_layers()]
        disk_warm = ScheduleCache(
            config, store=PersistentScheduleStore(tmp_path))
        warm = [disk_warm.schedule(l) for l in network.accelerated_layers()]
        assert len(sequential) == len(network.accelerated_layers())
        for seq, c, w in zip(sequential, cold, warm):
            assert seq.mapping == c.mapping == w.mapping
            assert seq.estimate == c.estimate == w.estimate
        assert disk_warm.stats().compiles == 0


class TestDescribeSurface:
    def test_describe_mentions_disk(self, tmp_path):
        config = OverlayConfig(3, 2, 2)
        cache = ScheduleCache(config,
                              store=PersistentScheduleStore(tmp_path))
        cache.schedule(LAYERS[0])
        cache.schedule(LAYERS[0])
        text = cache.describe()
        assert "disk" in text and "stores" in text

    def test_describe_quiet_without_store(self):
        cache = ScheduleCache(OverlayConfig(3, 2, 2))
        assert "disk" not in cache.stats().describe()
