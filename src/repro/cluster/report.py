"""Fleet-level serving reports: per-tenant accounting + cluster counters.

A :class:`ClusterReport` wraps the core
:class:`~repro.serving.metrics.ServingReport` (identical semantics —
the degenerate one-tenant fixed-fleet cluster run produces a core
report bit-identical to a plain :class:`ServingEngine` run) and adds
what only exists at fleet scale: per-tenant conservation accounting,
autoscaler activity, hedged placements, drain/re-admit transitions and
per-rack utilization.

The conservation identity the chaos campaigns assert is per tenant:

    offered == completed + rejected + dropped

for every tenant, under any fault schedule — a rack dying mid-load may
move requests between the completed/dropped buckets but can never leak
one.  :func:`tenant_ledger` derives it from where each request ended.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from operator import attrgetter, eq
from typing import Sequence

from repro.errors import ServingError
from repro.serving.metrics import ServingReport, percentile
from repro.serving.request import REJECT_QUOTA, InferenceRequest


@dataclass(frozen=True)
class TenantStats:
    """Request conservation accounting for one tenant.

    Attributes:
        tenant: Tenant name.
        n_offered: Arrivals belonging to this tenant.
        n_completed: Requests served to completion.
        n_rejected: Arrivals refused by admission (global capacity or
            the tenant's own quota).
        n_quota_rejected: The subset of ``n_rejected`` refused by the
            tenant quota specifically.
        n_dropped: Requests dropped after admission (deadline, retries
            exhausted, no routable board, detected SDC).
    """

    tenant: str
    n_offered: int
    n_completed: int
    n_rejected: int
    n_dropped: int
    n_quota_rejected: int = 0

    @property
    def conserved(self) -> bool:
        """The accounting identity: no request created or leaked."""
        return self.n_offered == (
            self.n_completed + self.n_rejected + self.n_dropped
        )

    @property
    def availability(self) -> float:
        """Share of this tenant's offered requests that completed."""
        if not self.n_offered:
            return 1.0
        return self.n_completed / self.n_offered

    def describe(self) -> str:
        return (
            f"{self.tenant}: {self.n_offered} offered = "
            f"{self.n_completed} completed + {self.n_rejected} rejected + "
            f"{self.n_dropped} dropped ({self.availability:.2%} avail"
            + (f", {self.n_quota_rejected} quota-rejected"
               if self.n_quota_rejected else "")
            + ")"
        )


def tenant_ledger(
    offered: Sequence[InferenceRequest], core: ServingReport
) -> dict[str, TenantStats]:
    """Per-tenant accounting of one run, sorted by tenant.

    Raises:
        ServingError: unless ``core.completed``, ``core.dropped`` and
            ``core.rejected`` partition the ``offered`` request ids.
    """
    request_id, tenant_of = attrgetter("request_id"), attrgetter("tenant")
    outcomes = (core.completed, core.dropped, core.rejected)
    # Sorted lists, no copies: temporaries here add to a run's peak RSS.
    ids = sorted(map(request_id, offered))
    ended = sorted(chain.from_iterable(map(request_id, o) for o in outcomes))
    if ended != ids or any(map(eq, ids, islice(ids, 1, None))):
        raise ServingError(
            f"the outcomes of {core.n_offered} requests do not partition "
            f"the {len(offered)} offered request ids"
        )
    quota = [r for r in core.rejected if r.reject_reason == REJECT_QUOTA]
    n_offered, n_completed, n_dropped, n_rejected, n_quota = (
        Counter(map(tenant_of, requests))
        for requests in (offered, *outcomes, quota)
    )
    return {
        tenant: TenantStats(
            tenant=tenant,
            n_offered=n_offered[tenant],
            n_completed=n_completed[tenant],
            n_rejected=n_rejected[tenant],
            n_dropped=n_dropped[tenant],
            n_quota_rejected=n_quota[tenant],
        )
        for tenant in sorted(n_offered)
    }


@dataclass(frozen=True)
class ClusterReport:
    """One fleet serving run: the core report plus cluster accounting.

    Attributes:
        core: The underlying :class:`ServingReport` (fleet-wide).
        t_start_s: Virtual-clock instant of the first arrival (anchors
            :meth:`windowed_p99`).
        n_racks: Racks in the fleet.
        n_boards: Boards in the fleet.
        per_tenant: Conservation accounting per tenant, sorted by name.
        scale_ups: Boards activated by the autoscaler.
        scale_downs: Boards drained by the autoscaler.
        autoscale_ticks: Autoscaler evaluations performed.
        hedged_dispatches: Batches steered away from a board that had
            just failed one of their requests.
        drains: Board drain transitions (crash / rack power / partition
            closing a gate).
        readmits: Board re-admission transitions (gate reopening).
        cold_starts: Weight reloads paid (power restores + autoscale
            activations).
        cold_start_s: Per-board weight-reload time the run charged.
        rack_utilization: Mean member busy fraction per rack.
    """

    core: ServingReport
    t_start_s: float
    n_racks: int
    n_boards: int
    per_tenant: dict[str, TenantStats] = field(default_factory=dict)
    scale_ups: int = 0
    scale_downs: int = 0
    autoscale_ticks: int = 0
    hedged_dispatches: int = 0
    drains: int = 0
    readmits: int = 0
    cold_starts: int = 0
    cold_start_s: float = 0.0
    rack_utilization: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def conserved(self) -> bool:
        """Whether every tenant's accounting identity holds."""
        return all(t.conserved for t in self.per_tenant.values())

    @property
    def availability(self) -> float:
        return self.core.availability

    @property
    def n_offered(self) -> int:
        return self.core.n_offered

    @property
    def n_completed(self) -> int:
        return self.core.n_completed

    @property
    def n_dropped(self) -> int:
        return self.core.n_dropped

    @property
    def n_rejected(self) -> int:
        return self.core.n_rejected

    @property
    def p99_s(self) -> float:
        return self.core.p99_s

    def windowed_p99(self, window_s: float) -> list[tuple[float, float]]:
        """p99 latency per completion window across the makespan.

        Partitions ``[t_start_s, t_start_s + makespan]`` into windows of
        ``window_s`` and computes the nearest-rank p99 of the requests
        *completed* in each; empty windows report 0.0.  This is the
        recovery curve a chaos campaign checks: the window p99 spikes
        when a rack dies and must return to the healthy baseline before
        the run ends.

        Raises:
            ServingError: for a non-positive window.
        """
        if window_s <= 0:
            raise ServingError(
                f"window_s must be positive, got {window_s}"
            )
        end_s = self.t_start_s + self.core.makespan_s
        n_windows = max(
            1, -int(-(end_s - self.t_start_s) // window_s)
        )
        buckets: list[list[float]] = [[] for _ in range(n_windows)]
        for request in self.core.completed:
            assert request.complete_s is not None
            idx = int((request.complete_s - self.t_start_s) // window_s)
            buckets[min(max(idx, 0), n_windows - 1)].append(
                request.latency_s
            )
        return [
            (
                self.t_start_s + (i + 1) * window_s,
                percentile(lat, 99) if lat else 0.0,
            )
            for i, lat in enumerate(buckets)
        ]

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """The core report table extended with the fleet sections."""
        lines = [self.core.describe()]
        lines.append(
            f"  fleet          : {self.n_boards} boards / "
            f"{self.n_racks} racks; {self.drains} drains, "
            f"{self.readmits} re-admits, {self.cold_starts} cold starts "
            f"({self.cold_start_s * 1e3:.3f} ms each)"
        )
        if self.autoscale_ticks:
            lines.append(
                f"  autoscale      : {self.autoscale_ticks} ticks, "
                f"{self.scale_ups} up / {self.scale_downs} down"
            )
        if self.hedged_dispatches:
            lines.append(
                f"  hedging        : {self.hedged_dispatches} dispatches "
                f"steered off a failed board"
            )
        for tenant in sorted(self.per_tenant):
            stats = self.per_tenant[tenant]
            flag = "" if stats.conserved else "  [ACCOUNTING VIOLATION]"
            lines.append(f"  tenant {stats.describe()}{flag}")
        if self.rack_utilization:
            worst = min(self.rack_utilization.items(),
                        key=lambda kv: (kv[1], kv[0]))
            best = max(self.rack_utilization.items(),
                       key=lambda kv: (kv[1], kv[0]))
            lines.append(
                f"  rack util      : min {worst[0]} {worst[1]:.1%} | "
                f"max {best[0]} {best[1]:.1%}"
            )
        return "\n".join(lines)
