"""Objective 3: best hardware configuration at fixed cost (paper §IV-D3).

Given a TPE budget ``D1 * D2 * D3``, enumerate the divisor triples,
compile the layer on each through one schedule cache, and return the
configuration whose best schedule wins.  Device geometry constraints
(§III-D) can prune triples that no real part could host.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.cache import ScheduleCache
from repro.compiler.search import Schedule, rank_key
from repro.errors import ScheduleError
from repro.fpga.devices import Device
from repro.overlay.config import OverlayConfig
from repro.workloads.layers import ConvLayer, MatMulLayer

AcceleratedLayer = ConvLayer | MatMulLayer


@dataclass(frozen=True)
class HardwareSearchResult:
    """Outcome of one Objective-3 sweep."""

    best: Schedule
    #: Every evaluated (d1, d2, d3) with its best schedule, best first.
    ranking: tuple[tuple[tuple[int, int, int], Schedule], ...]


def feasible_grids(
    n_tpe: int,
    device: Device | None = None,
    max_d1: int = 64,
) -> list[tuple[int, int, int]]:
    """All (d1, d2, d3) triples with ``d1 * d2 * d3 == n_tpe``.

    With a ``device``, apply the §III-D layout constraints: ``d2`` within
    the DSP column count and ``d1 * d3`` within one column's DSP count.
    """
    if n_tpe < 1:
        raise ScheduleError(f"TPE budget must be >= 1, got {n_tpe}")
    triples = []
    for d1 in range(1, min(max_d1, n_tpe) + 1):
        if n_tpe % d1:
            continue
        rest = n_tpe // d1
        for d2 in range(1, rest + 1):
            if rest % d2:
                continue
            d3 = rest // d2
            if device is not None:
                if d2 > len(device.dsp_columns):
                    continue
                if d1 * d3 > device.dsps_per_column:
                    continue
            triples.append((d1, d2, d3))
    return triples


def search_hardware_config(
    layer: AcceleratedLayer,
    base_config: OverlayConfig,
    device: Device | None = None,
    cache: ScheduleCache | None = None,
) -> HardwareSearchResult:
    """Find the best (d1, d2, d3) for ``layer`` at the TPE cost of
    ``base_config`` (Objective 3).

    Each grid compiles through ``cache`` (a fresh one over
    ``base_config`` when None), which fixes the objective and beams and
    carries the tracer, metrics and store: a sweep repeated over one
    cache searches nothing.  Grids rank as search candidates do, by
    ``(rank_key, enumeration index)``, largest first.  With a tracer,
    the sweep opens one ``hwsearch:<layer>`` span on the cache's step
    clock with each grid's mapping search nested under it; the metrics
    receive ``hwsearch_grids_*`` counters.

    Raises:
        ScheduleError: if no grid shape admits a feasible schedule.
    """
    if cache is None:
        cache = ScheduleCache(base_config)
    tracer, metrics, objective = cache.tracer, cache.metrics, cache.objective
    n_tpe = base_config.n_tpe
    ranked: list[tuple[tuple, tuple[int, int, int], Schedule]] = []
    root = tracer.begin(
        f"hwsearch:{layer.name}", at=cache.steps, track="hwsearch",
        n_tpe=n_tpe, objective=objective,
    )
    try:
        for index, grid in enumerate(feasible_grids(n_tpe, device)):
            metrics.counter(
                "hwsearch_grids_evaluated", "grid shapes swept"
            ).inc(objective=objective)
            try:
                schedule = cache.schedule(layer, base_config.with_grid(*grid))
            except ScheduleError:
                metrics.counter(
                    "hwsearch_grids_infeasible",
                    "grid shapes with no feasible schedule",
                ).inc(objective=objective)
                continue
            est = schedule.estimate
            key = rank_key(objective, est.c_exe, est.e_wbuf, est.score)
            ranked.append(((*key, index), grid, schedule))
    finally:
        tracer.end(cache.steps, root)
    if not ranked:
        raise ScheduleError(
            f"no grid of {n_tpe} TPEs can schedule layer {layer.name!r}"
        )
    ranked.sort(key=lambda item: item[0], reverse=True)
    ranking = tuple((grid, schedule) for _, grid, schedule in ranked)
    return HardwareSearchResult(best=ranking[0][1], ranking=ranking)
