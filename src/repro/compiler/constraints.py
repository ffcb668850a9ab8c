"""Feasibility constraints on mapping vectors (paper §IV-C2).

Three families, exactly the paper's:

1. **Adjacency** — a loop may only take a trip count > 1 at a hardware
   level the adjacency matrix permits.
2. **Logical** (Eqns 10-11) — spatial products within (D1, D2, D3); every
   loop's padded size covers its true trip count.
3. **Capacity** — the per-TPE ActBUF/WBUF tiles and the per-SuperBlock
   PSumBUF tile fit their (double-buffer-halved) capacities.
"""

from __future__ import annotations

from repro.compiler.adjacency import adjacency_matrix
from repro.compiler.mapping import MappingVectors, SPATIAL_LEVELS
from repro.overlay.config import OverlayConfig
from repro.workloads.layers import ConvLayer, MatMulLayer

AcceleratedLayer = ConvLayer | MatMulLayer


def coverage_violations(
    layer: AcceleratedLayer,
    mapping: MappingVectors,
) -> list[str]:
    """Loop-name and Eqn-11 violations of ``mapping`` (empty = covered).

    The mapping must name exactly the layer's loops, and every loop's
    padded size must reach its true trip count.
    """
    sizes = layer.loop_sizes
    expected = tuple(sizes)
    if mapping.loop_names != expected:
        return [f"mapping loops {mapping.loop_names} != layer loops {expected}"]
    violations = []
    for name, size in sizes.items():
        padded = mapping.loop_product(name)
        if padded < size:
            violations.append(
                f"loop {name} covered {padded} < required {size}"
            )
    return violations


def check_constraints(
    layer: AcceleratedLayer,
    config: OverlayConfig,
    mapping: MappingVectors,
) -> list[str]:
    """Return all constraint violations of ``mapping`` (empty = feasible)."""
    coverage = coverage_violations(layer, mapping)
    if coverage and mapping.loop_names != tuple(layer.loop_sizes):
        # A mapping over other loops cannot be checked any further.
        return coverage
    violations: list[str] = []

    # 1. Adjacency.
    matrix = adjacency_matrix(layer)
    for level, loops in mapping.trips.items():
        for name, trip in loops.items():
            if trip > 1 and not matrix[level][name]:
                violations.append(
                    f"loop {name} cannot map to level {level} "
                    f"(adjacency), got trip {trip}"
                )

    # 2a. Eqn 10: spatial products within the hardware grid.
    for level, limit in zip(SPATIAL_LEVELS, (config.d3, config.d2, config.d1)):
        used = mapping.level_product(level)
        if used > limit:
            violations.append(
                f"spatial level {level} uses {used} > {limit} available"
            )

    # 2b. Eqn 11: full coverage of every workload loop.
    violations.extend(coverage)

    # 3. Buffer capacities.
    actbuf = layer.act_footprint(mapping.tile(("T",)))
    if actbuf > config.actbuf_usable_words:
        violations.append(
            f"ActBUF tile {actbuf} words > usable {config.actbuf_usable_words}"
        )
    # One LoopX pass's weight slice must be resident; slices swap across
    # passes via DRAM weight streaming.
    wbuf = layer.weight_footprint(mapping.tile(("L", "T")))
    if wbuf > config.s_wbuf_words:
        violations.append(
            f"WBUF pass slice {wbuf} words > capacity {config.s_wbuf_words}"
        )
    psumbuf = layer.out_footprint(mapping.tile(("T", "L")))
    if psumbuf > config.psumbuf_usable_words:
        violations.append(
            f"PSumBUF tile {psumbuf} words > usable {config.psumbuf_usable_words}"
        )

    return violations
