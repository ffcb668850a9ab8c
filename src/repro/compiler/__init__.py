"""The FTDL compiler: workload scheduling onto the overlay (paper §IV).

Pipeline: a layer's K-level loop nest is tiled across the six hardware
loops (``D3, D2, D1, X, L, T``) by *mapping vectors*; the adjacency matrix
restricts which workload loop may occupy which hardware loop; the
analytical model prices every candidate (compute, ActBUS, PSumBUS, DRAM,
WBUF efficiency); and the search enumerates the feasible space to return
top-k schedules under Objective 1 (performance), Objective 2
(performance/WBUF balance) or Objective 3 (best hardware shape).
"""

from repro.compiler.mapping import (
    HW_LEVELS,
    SPATIAL_LEVELS,
    TEMPORAL_LEVELS,
    MappingVectors,
)
from repro.compiler.adjacency import adjacency_matrix, needs_ewop_reduction
from repro.compiler.model import PerformanceEstimate, evaluate_mapping
from repro.compiler.constraints import check_constraints
from repro.compiler.search import (
    Schedule,
    ScheduleSearch,
    ceil_tile_candidates,
    schedule_layer,
    schedule_network,
)
from repro.compiler.hwsearch import HardwareSearchResult, search_hardware_config
from repro.compiler.codegen import compile_schedule, compile_network, CompiledLayer, NetworkProgram
from repro.compiler.cache import CacheStats, ScheduleCache
from repro.compiler.persist import PersistentScheduleStore
from repro.compiler.residency import ResidencyPlan, plan_residency
from repro.compiler.randsearch import random_schedule_search

__all__ = [
    "HW_LEVELS",
    "SPATIAL_LEVELS",
    "TEMPORAL_LEVELS",
    "MappingVectors",
    "adjacency_matrix",
    "needs_ewop_reduction",
    "PerformanceEstimate",
    "evaluate_mapping",
    "check_constraints",
    "Schedule",
    "ScheduleSearch",
    "ceil_tile_candidates",
    "schedule_layer",
    "schedule_network",
    "HardwareSearchResult",
    "search_hardware_config",
    "compile_schedule",
    "compile_network",
    "CompiledLayer",
    "NetworkProgram",
    "CacheStats",
    "ScheduleCache",
    "PersistentScheduleStore",
    "ResidencyPlan",
    "plan_residency",
    "random_schedule_search",
]
