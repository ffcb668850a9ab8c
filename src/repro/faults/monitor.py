"""Board health reports: downtime accounting, MTTR, availability.

The cluster router records every board's up/down transitions on the
virtual clock (:class:`~repro.cluster.router.BoardState`); at the end of
a run :meth:`~repro.cluster.router.ClusterRouter.health_report`
snapshots that ledger into an immutable :class:`HealthReport` that rides
inside the serving metrics.  MTTR is the mean of *completed*
down→up intervals; replica-level availability is uptime over
replica-seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DomainHealth:
    """Health roll-up for one failure domain (a rack or a board group).

    A domain's downtime is the sum of its members' crashed
    replica-seconds, its MTTR the mean over its members' *completed*
    repair intervals, and its availability the healthy share of its
    member-seconds — so a rack that lost power shows up as one domain
    with every member's outage attributed to it, while the fleet-wide
    numbers stay exactly what the per-replica accounting says.
    Uncorrectable-DRAM exposure likewise rolls up to the owning domain.
    """

    domain: str
    n_members: int
    crashes: int
    recoveries: int
    mttr_s: float
    downtime_s: float
    span_s: float
    dram_uncorrectable: int = 0

    @property
    def availability(self) -> float:
        """Healthy share of the domain's member-seconds."""
        total = self.n_members * self.span_s
        if total <= 0:
            return 1.0
        return 1.0 - min(1.0, self.downtime_s / total)

    def describe(self) -> str:
        text = (
            f"{self.domain}: {self.availability:.2%} avail over "
            f"{self.n_members} member(s), {self.crashes} crashes, "
            f"MTTR {self.mttr_s * 1e3:.2f} ms"
        )
        if self.dram_uncorrectable:
            text += f", {self.dram_uncorrectable} SDC exposures"
        return text


@dataclass(frozen=True)
class HealthReport:
    """Immutable end-of-run health summary.

    Attributes:
        n_replicas: Replicas monitored.
        crashes: Crash transitions observed.
        slowdowns: Slowdown transitions observed.
        recoveries: Recovery transitions observed.
        mttr_s: Mean time to recovery over completed crash→recovery
            intervals (0 when no crash recovered).
        downtime_s: Total crashed replica-seconds (unrecovered crashes
            count up to the end of the run).
        span_s: Monitored horizon, seconds.
        per_replica_downtime_s: Crashed seconds per replica.
        dram_uncorrectable: DRAM upsets that escaped ECC — the silent-
            data-corruption exposure, surfaced separately from the
            crash/slowdown counts because the replica *stays up* through
            one; only an integrity policy (ABFT checksums) catches the
            corrupted results.  Reconciles with the engine's
            ``integrity.sdc_detected`` instants: every detected-SDC
            instant with a DRAM cause traces back to one of these.
    """

    n_replicas: int
    crashes: int
    slowdowns: int
    recoveries: int
    mttr_s: float
    downtime_s: float
    span_s: float
    per_replica_downtime_s: dict[str, float] = field(default_factory=dict)
    dram_uncorrectable: int = 0
    per_domain: dict[str, DomainHealth] = field(default_factory=dict)

    @property
    def uptime_fraction(self) -> float:
        """Healthy share of replica-seconds over the monitored span."""
        total = self.n_replicas * self.span_s
        if total <= 0:
            return 1.0
        return 1.0 - min(1.0, self.downtime_s / total)

    def describe(self) -> str:
        text = (
            f"{self.crashes} crashes / {self.slowdowns} slowdowns / "
            f"{self.recoveries} recoveries; MTTR {self.mttr_s * 1e3:.2f} ms; "
            f"uptime {self.uptime_fraction:.2%} over "
            f"{self.n_replicas} replica(s)"
        )
        if self.dram_uncorrectable:
            text += (
                f"; {self.dram_uncorrectable} uncorrectable DRAM upsets "
                f"(SDC exposure)"
            )
        if self.per_domain:
            worst = min(
                self.per_domain.values(),
                key=lambda d: (d.availability, d.domain),
            )
            text += (
                f"; {len(self.per_domain)} domains, worst "
                f"{worst.describe()}"
            )
        return text
