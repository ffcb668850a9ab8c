"""WBUF residency planning across a network's layers.

This is what the paper's Objective 2 exists for (§IV-D2): "less weight
duplication means more workload layers can be arranged on one FPGA
device".  Given per-layer schedules, the planner packs layers' *stored*
weight footprints (duplication included — that is the E_WBUF price) into
the device's aggregate WBUF budget.  Resident layers skip the per-frame
DRAM weight stream; the rest keep streaming.

The packing is a greedy knapsack by streamed-bytes-saved per stored byte
— optimal enough for the monotone benefit here and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.compiler.cache import ScheduleCache
from repro.compiler.search import Schedule, schedule_network
from repro.errors import ScheduleError
from repro.overlay.config import OverlayConfig
from repro.units import BYTES_PER_WORD
from repro.workloads.network import Network


@dataclass(frozen=True)
class ResidentLayer:
    """One layer's residency decision."""

    name: str
    schedule: Schedule
    stored_words: int
    resident: bool


@dataclass(frozen=True)
class ResidencyPlan:
    """Outcome of planning one network's WBUF residency.

    Attributes:
        network: The planned network.
        config: The overlay (budget source).
        layers: Per accelerated layer, the decision and its schedule.
    """

    network: Network
    config: OverlayConfig
    layers: tuple[ResidentLayer, ...] = field(default_factory=tuple)

    @property
    def budget_words(self) -> int:
        """Aggregate WBUF capacity of the overlay."""
        return self.config.n_tpe * self.config.s_wbuf_words

    @property
    def resident_words(self) -> int:
        return sum(l.stored_words for l in self.layers if l.resident)

    @property
    def n_resident(self) -> int:
        return sum(1 for l in self.layers if l.resident)

    @property
    def streamed_bytes_per_frame(self) -> int:
        """DRAM weight traffic left after residency, per inference."""
        return BYTES_PER_WORD * sum(
            l.stored_words for l in self.layers if not l.resident
        )

    def total_cycles(self) -> int:
        """Network cycles with resident layers re-priced stream-free."""
        resident_config = replace(self.config, weights_resident=True)
        total = 0
        for layer in self.layers:
            if layer.resident:
                # Same mapping, weight stream removed.
                from repro.compiler.model import evaluate_mapping
                estimate = evaluate_mapping(
                    layer.schedule.layer, resident_config,
                    layer.schedule.mapping,
                )
                total += estimate.c_exe
            else:
                total += layer.schedule.cycles
        return total

    def fps(self) -> float:
        cycles = self.total_cycles()
        if not cycles:
            return 0.0
        return self.config.clk_h_mhz * 1e6 / cycles


def plan_residency(
    network: Network,
    config: OverlayConfig,
    objective: str = "balance",
    cache: ScheduleCache | None = None,
) -> ResidencyPlan:
    """Schedule every layer and pack as many as fit into the WBUF budget.

    Args:
        network: Workload to plan.
        config: Overlay configuration (must not itself claim global
            residency — the plan decides per layer).
        objective: Scheduling objective; ``"balance"`` (Objective 2) keeps
            stored footprints small, which is the whole point.
        cache: Optional shared schedule cache searching under ``objective``.

    Raises:
        ScheduleError: if ``config.weights_resident`` is already set (the
            global flag and per-layer planning would double-count).
    """
    if config.weights_resident:
        raise ScheduleError(
            "plan_residency needs a streaming config; the plan assigns "
            "residency per layer"
        )

    entries = []
    for schedule in schedule_network(network, config, objective, cache):
        layer, estimate = schedule.layer, schedule.estimate
        stored = int(round(layer.weight_words / max(estimate.e_wbuf, 1e-9)))
        entries.append((layer.name, schedule, stored))

    # Tied weight groups store one copy; credit the group to its first
    # layer and make twins free riders (their stream cost is also shared).
    budget = config.n_tpe * config.s_wbuf_words
    seen_groups: set[str] = set()
    decisions: dict[str, bool] = {}
    charged: dict[str, int] = {}
    for name, schedule, stored in entries:
        group = getattr(schedule.layer, "weight_group", None)
        if group and group in seen_groups:
            charged[name] = 0
        else:
            charged[name] = stored
            if group:
                seen_groups.add(group)

    # Greedy: small stored footprints first maximizes resident layer
    # count and, with equal duplication, streamed bytes saved per word.
    order = sorted(entries, key=lambda e: charged[e[0]])
    remaining = budget
    group_resident: dict[str, bool] = {}
    for name, schedule, stored in order:
        group = getattr(schedule.layer, "weight_group", None)
        if group and group in group_resident:
            decisions[name] = group_resident[group]
            continue
        cost = charged[name]
        resident = cost <= remaining
        if resident:
            remaining -= cost
        decisions[name] = resident
        if group:
            group_resident[group] = resident

    planned = tuple(
        ResidentLayer(
            name=name,
            schedule=schedule,
            stored_words=stored,
            resident=decisions[name],
        )
        for name, schedule, stored in entries
    )
    return ResidencyPlan(network=network, config=config, layers=planned)
