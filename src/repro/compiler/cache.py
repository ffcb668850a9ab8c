"""Schedule memoization keyed by overlay config and layer shape.

Real networks repeat layer shapes heavily (ResNet50's six identical
``layer3`` bottlenecks, the seqLSTM's 50 tied-gate MMs), and one
deployment compiles the same shapes for several configs (pipeline stages,
fault-masked sub-grids); the cache makes a deployment pay for each
distinct (config, shape) once.

The cache is optionally bounded: a long-running server compiling
schedules for every (layer, batch) combination it encounters would grow
without limit, so :class:`ScheduleCache` accepts ``max_entries`` and
evicts least-recently-used entries past that bound.  Hit/miss/eviction
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

from repro.compiler.search import (
    DEFAULT_SPATIAL_BEAM,
    DEFAULT_TEMPORAL_BEAM,
    Schedule,
    ScheduleSearch,
    check_count,
)
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
    """Memoized per-layer scheduling, keyed by (overlay config, layer
    shape): one cache serves every config a deployment compiles for.
    The objective and beams are fixed per cache.

    Args:
        config: The overlay :meth:`schedule` compiles for by default.
        objective: Search objective forwarded to :class:`ScheduleSearch`.
        max_entries: Bound on cached (config, shape) entries;
            least-recently-used entries are evicted past it.  ``None``
            keeps every entry.
        tracer: Optional :class:`~repro.trace.span.Tracer`; hit/miss/
            eviction instants land on the ``cache`` track and miss
            compiles are forwarded to :class:`ScheduleSearch` on one
            monotonic step timeline shared across all lookups.
        metrics: Optional :class:`~repro.trace.metrics.MetricsRegistry`
            receiving live ``schedule_cache_*`` counters.
        store: Optional :class:`~repro.compiler.persist.
            PersistentScheduleStore`; misses consult it before searching
            and fresh searches are persisted into it.
        spatial_beam: The search's spatial beam width (``None`` explores
            all); smaller beams trade schedule quality for compile time
            (the conformance harness's budget mode uses this).
        temporal_beam: The search's temporal beam width; same semantics
            as ``spatial_beam``.

    Raises:
        ScheduleError: if ``max_entries`` or a beam width is neither
            None nor an integer >= 1.
    """

    def __init__(
        self,
        config: OverlayConfig,
        objective: str = "performance",
        max_entries: int | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        store: "PersistentScheduleStore | None" = None,
        spatial_beam: int | None = DEFAULT_SPATIAL_BEAM,
        temporal_beam: int | None = DEFAULT_TEMPORAL_BEAM,
    ):
        check_count("max_entries", max_entries, optional=True)
        check_count("spatial_beam", spatial_beam, optional=True)
        check_count("temporal_beam", temporal_beam, optional=True)
        self.config = config
        self.objective = objective
        self.max_entries = max_entries
        self.tracer = as_tracer(tracer)
        self.metrics = as_metrics(metrics)
        self.store = store
        self.beams = (spatial_beam, temporal_beam)
        self._cache: OrderedDict[tuple, Schedule] = OrderedDict()
        # Entries key on a per-config index, so a lookup under the
        # cache's own config hashes no config.
        self._config_index = {config: 0}
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

    @property
    def steps(self) -> int:
        """The step clock: work units of every search this cache ran or
        replayed from the store, failed searches included."""
        return self._step_base

    # ------------------------------------------------------------------ #
    def _insert(self, key: tuple, schedule: Schedule) -> None:
        self._cache[key] = schedule
        if self.max_entries is not None and len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
            self.evictions += 1
            self.metrics.counter(
                "schedule_cache_evictions", "LRU entries dropped at the bound"
            ).inc()

    def _load(
        self, layer: AcceleratedLayer, config: OverlayConfig
    ) -> Schedule | None:
        """The store's entry for ``layer`` on ``config``, or None; its
        step charge is replayed so timelines match warm or cold."""
        loaded = self.store.load(layer, config, self.objective, self.beams)
        if loaded is None or loaded == self.store.CORRUPT:
            self.persistent_misses += 1
            self.persistent_corrupt += loaded is not None
            return None
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
        return schedule

    # ------------------------------------------------------------------ #
    def schedule(
        self, layer: AcceleratedLayer, config: OverlayConfig | None = None
    ) -> Schedule:
        """Return the best schedule for ``layer`` on ``config`` (the
        cache's own config when None), reusing shape twins."""
        config = self.config if config is None else config
        index = 0 if config is self.config else self._config_index.setdefault(
            config, len(self._config_index))
        key = (index, layer_signature(layer))
        schedule = self._cache.get(key)
        if schedule is not None:
            self.hits += 1
            self.metrics.counter(
                "schedule_cache_hits", "schedule lookups served from cache"
            ).inc()
            self.tracer.instant(
                "cache.hit", at=self._step_base, track="cache",
                layer=layer.name,
            )
            self._cache.move_to_end(key)
        else:
            # A miss served from disk runs no search: stats().compiles
            # counts searches only.
            if self.store is not None:
                schedule = self._load(layer, config)
            self.misses += 1
            self.metrics.counter(
                "schedule_cache_misses", "schedule lookups that compiled"
            ).inc()
            if schedule is None:
                self.tracer.instant(
                    "cache.miss", at=self._step_base, track="cache",
                    layer=layer.name,
                )
                spatial_beam, temporal_beam = self.beams
                search = ScheduleSearch(
                    layer, config, objective=self.objective, top_k=1,
                    tracer=self.tracer, metrics=self.metrics,
                    step_base=self._step_base,
                    spatial_beam=spatial_beam, temporal_beam=temporal_beam,
                )
                try:
                    schedule = search.run()[0]
                finally:
                    self._step_base += search.steps
                if self.store is not None:
                    self.store.save(schedule, search.steps, self.beams)
                    self.persistent_stores += 1
            self._insert(key, schedule)
        if schedule.layer is layer:
            return schedule
        return replace(schedule, layer=layer)

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
