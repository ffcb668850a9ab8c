"""The self-healing global router: health-gated board placement.

The router places every batch the serving loop launches, for a
one-board deployment and a fleet alike.  A board is **routable** —
eligible for new work — only when every gate is open:

* ``healthy``   — not crashed (board-level fault);
* ``powered``   — its rack has power;
* ``reachable`` — its rack's uplink is up (no partition);
* ``active``    — the autoscaler has it in the serving set;
* warm         — past its ``warm_at_s`` cold-start gate (weights
  loaded after power restore or autoscale activation).

The four gates are written only by the router's gate methods, which
keep each board's stored ``routable`` flag current, so placement reads
plain fields: ``free_board`` and ``next_free_s`` cost one pass over
the fleet's flags and free/warm instants per call, with no per-board
method calls.

Any gate closing *drains* the board (new work stops instantly; a
power/partition/crash closure also aborts in-flight batches into the
retry path); the gate re-opening re-admits it automatically.  Placement
is lowest-index-first over routable boards, with an optional ``avoid``
set for hedged retry placement — a retried request steers away from the
board that just failed it when any alternative is free.

The boards' states are also the run's only record of board health.  A
board is *down* while any of its ``healthy``/``powered``/``reachable``
gates is closed; the gate methods open a downtime interval when a board
goes down and close it (a *repair*) when the last gate reopens, and
:meth:`ClusterRouter.health_report` snapshots that ledger at run end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.topology import FleetTopology
from repro.errors import FaultError, ServingError
from repro.faults.monitor import DomainHealth, HealthReport
from repro.serving.batcher import Batch


@dataclass(frozen=True)
class Dispatch:
    """Outcome of placing one batch."""

    batch: Batch
    replica: str
    start_s: float
    complete_s: float


@dataclass
class BoardState:
    """Dispatch, gate and health-ledger bookkeeping for one board.

    Ledger fields: ``down_since`` is the instant the board went down
    (``None`` while it is up); ``downtime_s`` sums its repaired
    intervals; ``crashes`` and ``recoveries`` count down transitions and
    recoveries that left it up (a recovery of a board that never went
    down still counts); ``slowdowns`` and ``dram_uncorrectable`` count
    the slowdowns it took while healthy and the DRAM upsets that escaped
    ECC on it (those corrupt results but never take a board down).

    ``routable`` is stored: it holds :meth:`gates_open` as of the last
    gate write.  Write ``healthy``/``powered``/``reachable``/``active``
    only through the :class:`ClusterRouter` gate methods, which refresh
    it.
    """

    name: str
    rack: str
    free_at_s: float = 0.0
    busy_s: float = 0.0
    healthy: bool = True
    powered: bool = True
    reachable: bool = True
    active: bool = True
    warm_at_s: float = 0.0
    slow_factor: float = 1.0
    degrade_factor: float = 1.0
    down_since: float | None = None
    downtime_s: float = 0.0
    crashes: int = 0
    recoveries: int = 0
    slowdowns: int = 0
    dram_uncorrectable: int = 0
    routable: bool = True

    def gates_open(self) -> bool:
        """Whether the router may place new work here (gates only —
        the warm-up and busy checks are time-dependent)."""
        return (self.healthy and self.powered and self.reachable
                and self.active)

    @property
    def up(self) -> bool:
        """Whether the board can *finish* work (power + health +
        network; an inactive board still completes its last batch)."""
        return self.healthy and self.powered and self.reachable

    @property
    def service_factor(self) -> float:
        """Combined service-time inflation for new dispatches."""
        return self.slow_factor * self.degrade_factor

    def effective_free_s(self) -> float:
        """Earliest instant this board could start a new batch."""
        return max(self.free_at_s, self.warm_at_s)


class ClusterRouter:
    """Earliest-index placement of batches onto routable boards."""

    def __init__(self, topology: FleetTopology):
        self.topology = topology
        self.boards = [
            BoardState(name=board.name, rack=board.rack)
            for board in topology.boards
        ]
        self._by_name = {b.name: b for b in self.boards}
        self._by_rack: dict[str, list[BoardState]] = {}
        for board in self.boards:
            self._by_rack.setdefault(board.rack, []).append(board)
        #: Every repair as (board, repair seconds), in the order they
        #: happened: the fleet MTTR averages them in this order.
        self.repairs: list[tuple[BoardState, float]] = []

    def by_name(self, name: str) -> BoardState:
        """Look up one board's state.

        Raises:
            FaultError: for an unknown board name.
        """
        try:
            return self._by_name[name]
        except KeyError:
            raise FaultError("unknown board", replica=name) from None

    def rack_boards(self, rack: str) -> list[BoardState]:
        """Member boards of one rack, in fleet order.

        Raises:
            FaultError: for an unknown rack name.
        """
        try:
            return self._by_rack[rack]
        except KeyError:
            raise FaultError("unknown rack", replica=rack) from None

    @property
    def n_routable(self) -> int:
        return sum(1 for b in self.boards if b.routable)

    @property
    def n_active(self) -> int:
        return sum(1 for b in self.boards if b.active)

    def free_board(
        self, now_s: float, avoid: frozenset[str] = frozenset()
    ) -> BoardState | None:
        """The lowest-index routable board free at ``now_s``.

        Boards named in ``avoid`` (hedged placement after a failure)
        are skipped when any other candidate is free, and used as a
        last resort otherwise.
        """
        fallback = None
        for board in self.boards:
            if (board.routable and board.free_at_s <= now_s
                    and board.warm_at_s <= now_s):
                if board.name not in avoid:
                    return board
                if fallback is None:
                    fallback = board
        return fallback

    def next_free_s(self) -> float:
        """Earliest instant a routable board frees (inf if none)."""
        earliest = math.inf
        for board in self.boards:
            if (board.routable and board.free_at_s < earliest
                    and board.warm_at_s < earliest):
                earliest = max(board.free_at_s, board.warm_at_s)
        return earliest

    def standby_boards(self) -> list[BoardState]:
        """Inactive boards the autoscaler could activate, fleet order."""
        return [b for b in self.boards if not b.active and b.up]

    # ------------------------------------------------------------- gates
    def _closed(self, board: BoardState, now_s: float) -> bool:
        """A gate just closed on ``board``: roll back its unfinished busy
        time and, if it was up until now, open a downtime interval.
        Returns whether the board went down."""
        if board.free_at_s > now_s:
            board.busy_s -= board.free_at_s - now_s
            board.free_at_s = now_s
        if board.down_since is not None:
            return False
        board.down_since = now_s
        board.crashes += 1
        return True

    def _reopened(self, board: BoardState, now_s: float) -> float | None:
        """A recovery or reopened gate landed on ``board``: if the board
        is up, count the recovery and close its downtime interval.
        Returns the repair seconds, or ``None`` when no interval closed."""
        if not board.up:
            return None
        board.recoveries += 1
        if board.down_since is None:
            return None
        repair_s = now_s - board.down_since
        board.down_since = None
        board.downtime_s += repair_s
        self.repairs.append((board, repair_s))
        return repair_s

    def crash(self, name: str, now_s: float) -> bool:
        """Close the health gate; returns whether the board went down."""
        board = self.by_name(name)
        if not board.healthy:
            return False
        _set_gate(board, "healthy", False)
        return self._closed(board, now_s)

    def recover(self, name: str, now_s: float) -> float | None:
        """Reopen the health gate and clear any slowdown; returns the
        repair seconds when this brought the board back up."""
        board = self.by_name(name)
        if not board.healthy:
            _set_gate(board, "healthy", True)
            board.free_at_s = max(board.free_at_s, now_s)
        board.slow_factor = 1.0
        return self._reopened(board, now_s)

    def power_down_rack(
        self, rack: str, now_s: float
    ) -> list[tuple[BoardState, bool]]:
        """Close the power gate on every member (DRAM is lost); returns
        each struck board with whether it went down."""
        struck = []
        for board in self.rack_boards(rack):
            if board.powered:
                _set_gate(board, "powered", False)
                struck.append((board, self._closed(board, now_s)))
        return struck

    def power_up_rack(
        self, rack: str, now_s: float, cold_start_s: float
    ) -> list[tuple[BoardState, float | None]]:
        """Reopen the power gate; members warm up for ``cold_start_s``.
        Returns each restored board with its repair seconds (``None``
        while another gate keeps it down)."""
        restored = []
        for board in self.rack_boards(rack):
            if not board.powered:
                _set_gate(board, "powered", True)
                board.free_at_s = max(board.free_at_s, now_s)
                board.warm_at_s = now_s + cold_start_s
                restored.append((board, self._reopened(board, now_s)))
        return restored

    def partition_rack(
        self, rack: str, now_s: float
    ) -> list[tuple[BoardState, bool]]:
        """Close the network gate on every member; returns each struck
        board with whether it went down."""
        struck = []
        for board in self.rack_boards(rack):
            if board.reachable:
                _set_gate(board, "reachable", False)
                struck.append((board, self._closed(board, now_s)))
        return struck

    def heal_rack(
        self, rack: str, now_s: float
    ) -> list[tuple[BoardState, float | None]]:
        """Reopen the network gate (DRAM survived, no warm-up); returns
        each healed board with its repair seconds, as ``power_up_rack``."""
        healed = []
        for board in self.rack_boards(rack):
            if not board.reachable:
                _set_gate(board, "reachable", True)
                board.free_at_s = max(board.free_at_s, now_s)
                healed.append((board, self._reopened(board, now_s)))
        return healed

    def activate(
        self, name: str, now_s: float, cold_start_s: float
    ) -> BoardState:
        """Autoscale a standby board in (pays the cold start)."""
        board = self.by_name(name)
        if not board.active:
            _set_gate(board, "active", True)
            board.free_at_s = max(board.free_at_s, now_s)
            board.warm_at_s = now_s + cold_start_s
        return board

    def deactivate(self, name: str) -> BoardState:
        """Autoscale a board out: no new work, in-flight completes."""
        board = self.by_name(name)
        _set_gate(board, "active", False)
        return board

    # ---------------------------------------------------------- dispatch
    def dispatch(
        self,
        board: BoardState,
        batch: Batch,
        now_s: float,
        occupancy_s: float,
        latency_s: float,
    ) -> Dispatch:
        """Place ``batch`` on ``board`` starting at ``now_s``.

        Raises:
            ServingError: if the board is not routable or still busy.
        """
        if not board.routable:
            raise ServingError(f"board {board.name} is not routable")
        if board.effective_free_s() > now_s:
            raise ServingError(
                f"board {board.name} busy or warming until "
                f"{board.effective_free_s():.6f}"
            )
        board.free_at_s = now_s + occupancy_s
        board.busy_s += occupancy_s
        return Dispatch(
            batch=batch,
            replica=board.name,
            start_s=now_s,
            complete_s=now_s + latency_s,
        )

    def utilization(self, makespan_s: float) -> dict[str, float]:
        """Busy fraction per board over the run's makespan."""
        if makespan_s <= 0:
            return {b.name: 0.0 for b in self.boards}
        return {b.name: b.busy_s / makespan_s for b in self.boards}

    def rack_utilization(self, makespan_s: float) -> dict[str, float]:
        """Mean member busy fraction per rack over the makespan."""
        util = self.utilization(makespan_s)
        return {
            rack: sum(util[b.name] for b in boards) / len(boards)
            for rack, boards in self._by_rack.items()
        }

    def health_report(self, end_s: float, start_s: float) -> HealthReport:
        """Snapshot the health ledger over ``[start_s, end_s]``.

        A board still down at ``end_s`` counts its open interval up to
        then.  A fleet of two or more racks also gets a per-rack
        :class:`DomainHealth` rollup; one rack would only repeat the
        fleet totals.
        """
        downtime = {}
        for board in self.boards:
            down_s = board.downtime_s
            if board.down_since is not None and end_s > board.down_since:
                down_s += end_s - board.down_since
            downtime[board.name] = down_s
        span_s = max(end_s - start_s, 0.0)
        per_domain = {}
        if len(self._by_rack) > 1:
            for rack in sorted(self._by_rack):
                members = self._by_rack[rack]
                per_domain[rack] = DomainHealth(
                    domain=rack,
                    n_members=len(members),
                    crashes=sum(b.crashes for b in members),
                    recoveries=sum(b.recoveries for b in members),
                    mttr_s=_mean([
                        r for b in members
                        for owner, r in self.repairs if owner is b
                    ]),
                    downtime_s=sum(downtime[b.name] for b in members),
                    span_s=span_s,
                    dram_uncorrectable=sum(
                        b.dram_uncorrectable for b in members
                    ),
                )
        return HealthReport(
            n_replicas=len(self.boards),
            crashes=sum(b.crashes for b in self.boards),
            slowdowns=sum(b.slowdowns for b in self.boards),
            recoveries=sum(b.recoveries for b in self.boards),
            mttr_s=_mean([r for _, r in self.repairs]),
            downtime_s=sum(downtime.values()),
            span_s=span_s,
            per_replica_downtime_s=downtime,
            dram_uncorrectable=sum(b.dram_uncorrectable for b in self.boards),
            per_domain=per_domain,
        )


def _set_gate(board: BoardState, gate: str, is_open: bool) -> None:
    """Write one of ``board``'s four gates and refresh its stored
    ``routable`` flag: the only way the router changes a gate."""
    setattr(board, gate, is_open)
    board.routable = board.gates_open()


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0
