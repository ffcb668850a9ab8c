"""Cross-layer reconciliation: trace aggregates == engine-native metrics.

The tracing subsystem only *observes* values the compiler and the
serving engine already computed, so every aggregate derivable from a
trace must equal the corresponding report field exactly — no epsilon.
These tests pin that contract for all three instrumented layers.
"""

import pytest

from repro.compiler.cache import ScheduleCache
from repro.compiler.hwsearch import feasible_grids, search_hardware_config
from repro.compiler.search import ScheduleSearch
from repro.faults.events import ReplicaCrash, ReplicaRecovery
from repro.faults.schedule import FaultSchedule, generate_fault_schedule
from repro.serving.batcher import BatchPolicy
from repro.serving.engine import ServingEngine
from repro.serving.metrics import percentile
from repro.serving.request import RetryPolicy, make_requests, poisson_arrivals
from repro.trace.metrics import MetricsRegistry
from repro.trace.span import Tracer

from tests.test_trace_fuzz import FuzzService


class TestCompilerSearchTracing:
    def test_traced_search_identical_to_untraced(self, tiny_config, small_mm):
        plain = ScheduleSearch(small_mm, tiny_config).run()
        tracer = Tracer(unit="step")
        traced = ScheduleSearch(
            small_mm, tiny_config, tracer=tracer, metrics=MetricsRegistry()
        ).run()
        assert [s.cycles for s in traced] == [s.cycles for s in plain]
        assert [s.mapping for s in traced] == [s.mapping for s in plain]
        assert tracer.validate() == []

    def test_counters_mirror_instance_counts(self, tiny_config, small_conv):
        registry = MetricsRegistry()
        search = ScheduleSearch(
            small_conv, tiny_config, metrics=registry
        )
        search.run()
        counter = registry.counter("search_candidates_evaluated", "")
        assert counter.value(objective="performance") \
            == search.candidates_evaluated
        assert registry.counter("search_steps", "").value(
            objective="performance") == search.steps
        assert registry.counter("search_spatial_choices", "").value(
            objective="performance") == search.spatial_enumerated

    def test_root_span_covers_all_search_steps(self, tiny_config, small_mm):
        tracer = Tracer(unit="step")
        search = ScheduleSearch(small_mm, tiny_config, tracer=tracer)
        search.run()
        root = next(tracer.find(f"search:{small_mm.name}"))
        assert root.start == 0
        assert root.duration == search.steps
        phases = [c.name for c in tracer.children_of(root)]
        assert phases == ["spatial", "evaluate", "materialize"]

    def test_step_base_offsets_the_timeline(self, tiny_config, small_mm):
        tracer = Tracer(unit="step")
        search = ScheduleSearch(
            small_mm, tiny_config, tracer=tracer, step_base=1000
        )
        search.run()
        root = next(tracer.find(f"search:{small_mm.name}"))
        assert root.start == 1000
        assert root.end == 1000 + search.steps

    def test_failed_search_leaves_no_open_spans(self, tiny_config,
                                                small_mm):
        """hwsearch swallows per-grid failures — the tracer must come
        back balanced so the sweep's remaining grids still nest right."""
        from repro.errors import ScheduleError

        tracer = Tracer(unit="step")
        search = ScheduleSearch(small_mm, tiny_config, tracer=tracer)

        def explode(tr):
            tr.begin("evaluate", at=search.steps, track="search")
            raise ScheduleError("no feasible mapping")

        search._run_traced = explode
        with pytest.raises(ScheduleError):
            search.run()
        assert tracer.open_depth == 0
        assert all(s.closed for s in tracer.spans)


class TestCacheAndHwsearchTracing:
    def test_cache_instants_match_stats(self, tiny_config, small_mm,
                                        small_conv):
        tracer = Tracer(unit="step")
        registry = MetricsRegistry()
        cache = ScheduleCache(tiny_config, tracer=tracer, metrics=registry)
        for layer in (small_mm, small_conv, small_mm, small_conv):
            cache.schedule(layer)
        stats = cache.stats()
        hits = [i for i in tracer.instants if i.name == "cache.hit"]
        misses = [i for i in tracer.instants if i.name == "cache.miss"]
        assert len(hits) == stats.hits == 2
        assert len(misses) == stats.misses == 2
        assert registry.counter("schedule_cache_hits", "").value() == 2
        assert registry.counter("schedule_cache_misses", "").value() == 2

    def test_cache_chains_one_monotonic_step_timeline(
        self, tiny_config, small_mm, small_conv
    ):
        tracer = Tracer(unit="step")
        cache = ScheduleCache(tiny_config, tracer=tracer)
        cache.schedule(small_mm)
        cache.schedule(small_conv)
        roots = tracer.roots()
        assert len(roots) == 2
        assert roots[0].start == 0
        assert roots[1].start == roots[0].end  # second search resumes

    def test_hwsearch_nests_per_grid_searches(self, small_mm):
        from repro.overlay.config import OverlayConfig

        config = OverlayConfig(d1=2, d2=2, d3=2)
        tracer = Tracer(unit="step")
        registry = MetricsRegistry()
        cache = ScheduleCache(config, tracer=tracer, metrics=registry)
        result = search_hardware_config(small_mm, config, cache=cache)
        assert result.best is not None
        assert tracer.validate() == []
        root = next(tracer.find(f"hwsearch:{small_mm.name}"))
        children = tracer.children_of(root)
        n_grids = len(feasible_grids(config.n_tpe))
        assert registry.counter("hwsearch_grids_evaluated", "").value(
            objective="performance") == n_grids
        # One nested search span per grid that got as far as running.
        assert len(children) == n_grids
        assert all(c.name == f"search:{small_mm.name}" for c in children)
        # The sweep's span runs on the cache's step clock.
        assert (root.start, root.end) == (0, cache.steps)

    def test_hwsearch_sweep_repeated_over_one_cache_searches_nothing(
        self, small_mm, monkeypatch
    ):
        from repro.compiler import cache as cache_module
        from repro.overlay.config import OverlayConfig

        config = OverlayConfig(d1=2, d2=2, d3=2)
        cache = ScheduleCache(config)
        first = search_hardware_config(small_mm, config, cache=cache)
        searched = []

        class CountingSearch(cache_module.ScheduleSearch):
            def run(self):
                searched.append(self.config.grid)
                return super().run()

        monkeypatch.setattr(cache_module, "ScheduleSearch", CountingSearch)
        steps = cache.steps
        second = search_hardware_config(small_mm, config, cache=cache)
        assert searched == []
        assert cache.steps == steps
        assert second == first


def _chaos(seed, tracer=None, metrics=None):
    service = FuzzService(2, service_s=1e-3)
    times = poisson_arrivals(800.0, 80, seed=seed)
    requests = make_requests(times, "fuzz", deadline_s=0.05)
    faults = generate_fault_schedule(
        seed=seed, duration_s=times[-1] - times[0],
        replicas=service.replica_names(), grid=(2, 2, 2),
        crash_rate_hz=15.0, mean_repair_s=0.005, slowdown_rate_hz=5.0,
        bitflip_rate_hz=10.0, correctable_fraction=0.5,
    )
    engine = ServingEngine(
        service, batch_policy=BatchPolicy(max_batch=4, max_wait_s=0.002),
        fault_schedule=faults, retry_policy=RetryPolicy(),
        tracer=tracer, metrics=metrics,
    )
    return engine.run(requests)


class TestServingReconciliation:
    def test_trace_latencies_equal_percentile_inputs(self):
        tracer = Tracer(unit="s")
        report = _chaos(3, tracer=tracer)
        durations = sorted(
            s.duration for s in tracer.find("request")
            if s.args["status"] == "completed"
        )
        assert durations == sorted(report.latencies_s)
        # Therefore every percentile the report exposes is re-derivable
        # from the trace alone, bit-for-bit.
        for q in (50, 95, 99):
            assert percentile(durations, q) \
                == report.latency_percentile_s(q)

    def test_trace_mttr_equals_health_report(self):
        tracer = Tracer(unit="s")
        report = _chaos(4, tracer=tracer)
        assert report.health is not None
        assert report.health.crashes > 0
        repairs = [i.args["repair_s"] for i in tracer.instants
                   if i.name == "health.up"]
        mttr = sum(repairs) / len(repairs) if repairs else 0.0
        assert mttr == report.health.mttr_s

    def test_fault_instants_match_injected_counts(self):
        tracer = Tracer(unit="s")
        report = _chaos(5, tracer=tracer)
        injected = {}
        for instant in tracer.instants:
            if instant.name.startswith("fault."):
                kind = instant.name.removeprefix("fault.")
                injected[kind] = injected.get(kind, 0) + 1
        assert injected == report.fault_counts

    def test_monitor_emits_only_state_changing_transitions(self):
        tracer = Tracer(unit="s")
        schedule = FaultSchedule(events=(
            ReplicaCrash(1.0, "fuzz0"),
            ReplicaCrash(2.0, "fuzz0"),     # already down: no new instant
            ReplicaRecovery(3.0, "fuzz0"),
            ReplicaRecovery(4.0, "fuzz0"),  # already up: no new instant
        ))
        ServingEngine(
            FuzzService(1, 1e-3), fault_schedule=schedule, tracer=tracer,
        ).run(make_requests([0.0, 5.0], "fuzz"))
        health = [i for i in tracer.instants if i.name.startswith("health.")]
        assert [i.name for i in health] == ["health.down", "health.up"]
        assert health[1].args["repair_s"] == 2.0


class TestZeroCostDisabled:
    def test_engine_defaults_to_null_instruments(self):
        engine = ServingEngine(FuzzService(1, 1e-3))
        assert not engine.tracer.enabled
        assert not engine.metrics.enabled

    def test_search_defaults_to_null_instruments(self, tiny_config,
                                                 small_mm):
        search = ScheduleSearch(small_mm, tiny_config)
        assert not search.tracer.enabled
        assert not search.metrics.enabled
