"""Schedule memoization keyed by layer shape.

Real networks repeat layer shapes heavily (ResNet50's six identical
``layer3`` bottlenecks, the seqLSTM's 50 tied-gate MMs); the cache makes
whole-network compilation pay for each distinct shape once.

The cache is optionally bounded: a long-running server compiling
schedules for every (layer, batch) combination it encounters would grow
without limit, so :class:`ScheduleCache` accepts ``max_entries`` and
evicts least-recently-used shapes past that bound.  Hit/miss/eviction
counters are exposed through :meth:`ScheduleCache.stats` for the serving
metrics layer.

An optional :class:`~repro.compiler.persist.PersistentScheduleStore`
sits behind the in-memory map and turns cold starts into disk loads:
misses consult the store before searching, and fresh searches are
written back.  Loads replay the original search's step-clock charge, so
the trace timeline is the same warm or cold.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.compiler.search import Schedule, ScheduleSearch, check_count
from repro.overlay.config import OverlayConfig
from repro.trace.metrics import MetricsRegistry, as_metrics
from repro.trace.span import Tracer, as_tracer
from repro.workloads.layers import ConvLayer, MatMulLayer

if TYPE_CHECKING:  # pragma: no cover - avoids an import cycle
    from repro.compiler.persist import PersistentScheduleStore

AcceleratedLayer = ConvLayer | MatMulLayer


def layer_signature(layer: AcceleratedLayer) -> tuple:
    """Shape signature: everything that affects scheduling but not names."""
    if isinstance(layer, ConvLayer):
        return (
            "conv", layer.in_channels, layer.out_channels, layer.in_h,
            layer.in_w, layer.kernel_h, layer.kernel_w, layer.stride,
            layer.padding, layer.groups,
        )
    return ("mm", layer.in_features, layer.out_features, layer.batch)


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one :class:`ScheduleCache`'s counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    max_entries: int | None
    #: Lookups served by loading the persistent store (subset of misses).
    persistent_hits: int = 0
    #: Store lookups that found nothing (or a corrupt entry).
    persistent_misses: int = 0
    #: Entries this cache wrote to the persistent store.
    persistent_stores: int = 0
    #: Corrupt / stale entries detected and skipped (subset of
    #: persistent_misses).
    persistent_corrupt: int = 0
    #: Whether a persistent store is attached at all.
    has_store: bool = False

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def compiles(self) -> int:
        """Lookups that actually ran a search."""
        return self.misses - self.persistent_hits

    def describe(self) -> str:
        bound = "unbounded" if self.max_entries is None else str(self.max_entries)
        text = (
            f"{self.size} entries (bound {bound}): {self.hits} hits / "
            f"{self.misses} misses ({self.hit_rate:.1%}), "
            f"{self.evictions} evictions"
        )
        if self.has_store:
            text += (
                f"; disk {self.persistent_hits} hits / "
                f"{self.persistent_misses} misses, "
                f"{self.persistent_stores} stores, "
                f"{self.persistent_corrupt} corrupt"
            )
        return text


class ScheduleCache:
    """Memoized per-layer scheduling against one overlay config.

    Args:
        config: The overlay all layers are scheduled for.
        objective: Search objective forwarded to :class:`ScheduleSearch`.
        max_entries: Bound on cached distinct shapes; least-recently-used
            entries are evicted past it.  ``None`` keeps every shape.
        tracer: Optional :class:`~repro.trace.span.Tracer`; hit/miss/
            eviction instants land on the ``cache`` track and miss
            compiles are forwarded to :class:`ScheduleSearch` on one
            monotonic step timeline shared across all lookups.
        metrics: Optional :class:`~repro.trace.metrics.MetricsRegistry`
            receiving live ``schedule_cache_*`` counters.
        store: Optional :class:`~repro.compiler.persist.
            PersistentScheduleStore`; misses consult it before searching
            and fresh searches are persisted into it.
        spatial_beam: Optional override of the search's spatial beam
            width.  ``None`` (default) keeps the search default; smaller
            beams trade schedule quality for compile time (the
            conformance harness's budget mode uses this).
        temporal_beam: Optional override of the search's temporal beam
            width; same semantics as ``spatial_beam``.

    Raises:
        ScheduleError: if ``max_entries`` or a beam override is neither
            None nor an integer >= 1.
    """

    _SEARCH_DEFAULT = object()

    def __init__(
        self,
        config: OverlayConfig,
        objective: str = "performance",
        max_entries: int | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        store: "PersistentScheduleStore | None" = None,
        spatial_beam: int | None | object = _SEARCH_DEFAULT,
        temporal_beam: int | None | object = _SEARCH_DEFAULT,
    ):
        check_count("max_entries", max_entries, optional=True)
        self.config = config
        self.objective = objective
        self.max_entries = max_entries
        self.tracer = as_tracer(tracer)
        self.metrics = as_metrics(metrics)
        self.store = store
        self._beam_kwargs: dict[str, int | None] = {}
        for name, width in (("spatial_beam", spatial_beam),
                            ("temporal_beam", temporal_beam)):
            if width is not ScheduleCache._SEARCH_DEFAULT:
                check_count(name, width, optional=True)
                self._beam_kwargs[name] = width
        self._cache: OrderedDict[tuple, Schedule] = OrderedDict()
        self._step_base = 0
        self.misses = 0
        self.hits = 0
        self.evictions = 0
        # Disk counters are this cache's own: a store may be shared.
        self.persistent_hits = 0
        self.persistent_misses = 0
        self.persistent_stores = 0
        self.persistent_corrupt = 0

    def __len__(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------ #
    def _insert(self, key: tuple, schedule: Schedule) -> None:
        self._cache[key] = schedule
        if self.max_entries is not None and len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
            self.evictions += 1
            self.metrics.counter(
                "schedule_cache_evictions", "LRU entries dropped at the bound"
            ).inc()

    def _memory_hit(self, key: tuple, layer: AcceleratedLayer) -> Schedule:
        self.hits += 1
        self.metrics.counter(
            "schedule_cache_hits", "schedule lookups served from cache"
        ).inc()
        self.tracer.instant(
            "cache.hit", at=self._step_base, track="cache",
            layer=layer.name,
        )
        self._cache.move_to_end(key)
        cached = self._cache[key]
        if cached.layer is layer:
            return cached
        return replace(cached, layer=layer)

    def load_persistent(self, layer: AcceleratedLayer) -> bool:
        """Try to promote this layer's entry from the store into memory.

        Returns True when the store held a valid entry.  The entry's
        recorded step charge is replayed onto the cache's step clock so
        trace timelines are identical warm or cold.
        """
        if self.store is None:
            return False
        loaded = self.store.load(layer, self.config, self.objective)
        if loaded is None or loaded == self.store.CORRUPT:
            self.persistent_misses += 1
            self.persistent_corrupt += loaded is not None
            return False
        schedule, steps = loaded
        self._step_base += steps
        self.persistent_hits += 1
        self.tracer.instant(
            "cache.persistent_hit", at=self._step_base, track="cache",
            layer=layer.name,
        )
        self.metrics.counter(
            "schedule_cache_persistent_hits",
            "schedule lookups loaded from the persistent store",
        ).inc()
        self._insert(layer_signature(layer), schedule)
        return True

    # ------------------------------------------------------------------ #
    def schedule(self, layer: AcceleratedLayer) -> Schedule:
        """Return the best schedule for ``layer``, reusing shape twins."""
        key = layer_signature(layer)
        if key in self._cache:
            return self._memory_hit(key, layer)
        if self.store is not None and self.load_persistent(layer):
            # A miss satisfied from disk: no search ran, the entry is in
            # memory now.  stats().compiles stays honest about searches.
            self.misses += 1
            self.metrics.counter(
                "schedule_cache_misses", "schedule lookups that compiled"
            ).inc()
            cached = self._cache[key]
            if cached.layer is layer:
                return cached
            return replace(cached, layer=layer)
        self.misses += 1
        self.metrics.counter(
            "schedule_cache_misses", "schedule lookups that compiled"
        ).inc()
        self.tracer.instant(
            "cache.miss", at=self._step_base, track="cache",
            layer=layer.name,
        )
        search = ScheduleSearch(
            layer, self.config, objective=self.objective, top_k=1,
            tracer=self.tracer, metrics=self.metrics,
            step_base=self._step_base,
            **self._beam_kwargs,
        )
        schedule = search.run()[0]
        self._step_base += search.steps
        self._insert(key, schedule)
        if self.store is not None:
            self.store.save(schedule, steps=search.steps)
            self.persistent_stores += 1
        return schedule

    # ------------------------------------------------------------------ #
    def stats(self) -> CacheStats:
        """Snapshot the hit/miss/eviction counters."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._cache),
            max_entries=self.max_entries,
            persistent_hits=self.persistent_hits,
            persistent_misses=self.persistent_misses,
            persistent_stores=self.persistent_stores,
            persistent_corrupt=self.persistent_corrupt,
            has_store=self.store is not None,
        )

    def describe(self) -> str:
        """One-line cache summary including disk-store behavior."""
        return self.stats().describe()
