"""Deterministic, seeded fault schedules.

A :class:`FaultSchedule` is the chaos-engineering analogue of an arrival
trace: a time-sorted tuple of fault events that the serving engine
replays against the virtual clock.  :func:`generate_fault_schedule`
draws one from independent per-replica Poisson processes (one per fault
type) using a single explicit seed, so an identical seed always yields a
bit-identical schedule — which is what makes chaos runs diffable against
golden reports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import FaultError
from repro.faults.events import (
    DramBitFlip,
    FaultEvent,
    LinkFault,
    ReplicaCrash,
    ReplicaRecovery,
    ReplicaSlowdown,
    TPEFault,
    TpeCoord,
)
from repro.overlay.config import OverlayConfig
from repro.trace.metrics import MetricsRegistry, as_metrics


@dataclass(frozen=True)
class FaultSchedule:
    """A time-sorted, immutable sequence of fault events."""

    events: tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        if any(b.at_s < a.at_s
               for a, b in zip(self.events, self.events[1:])):
            raise FaultError("fault schedule is not sorted by timestamp")

    def __len__(self) -> int:
        return len(self.events)

    @classmethod
    def from_events(
        cls,
        events: Iterable[FaultEvent],
        *,
        grid: "OverlayConfig | tuple[int, int, int] | None" = None,
        dram_words: int | None = None,
    ) -> "FaultSchedule":
        """Build a schedule, sorting events by (time, replica, kind).

        ``grid`` (an :class:`OverlayConfig` or ``(d1, d2, d3)`` tuple)
        and ``dram_words`` optionally pin the overlay the schedule will
        strike: TPE fault coordinates outside the active grid and DRAM
        word addresses past the operand address space are rejected at
        construction instead of silently targeting hardware that does
        not exist.

        Raises:
            FaultError: for an out-of-grid TPE coordinate or an
                out-of-range DRAM word address.
        """
        ordered = sorted(events, key=lambda e: (e.at_s, e.replica, e.kind))
        schedule = cls(events=tuple(ordered))
        if grid is not None or dram_words is not None:
            schedule.validate_against(grid=grid, dram_words=dram_words)
        return schedule

    def validate_against(
        self,
        *,
        grid: "OverlayConfig | tuple[int, int, int] | None" = None,
        dram_words: int | None = None,
    ) -> "FaultSchedule":
        """Check every event's target exists on the given overlay.

        Returns self so the call chains; raises :class:`FaultError` with
        the offending event's replica/timestamp context otherwise.
        """
        dims: tuple[int, int, int] | None = None
        if isinstance(grid, OverlayConfig):
            dims = grid.grid
        elif grid is not None:
            dims = (int(grid[0]), int(grid[1]), int(grid[2]))
        if dram_words is not None and dram_words < 1:
            raise FaultError(
                f"dram_words must be >= 1, got {dram_words}"
            )
        for event in self.events:
            if isinstance(event, TPEFault) and dims is not None:
                d1, d2, d3 = dims
                if (event.sb_row >= d3 or event.sb_col >= d2
                        or event.chain_pos >= d1):
                    raise FaultError(
                        f"TPE fault coordinate {event.coord} outside the "
                        f"active {d1}x{d2}x{d3} grid (sb_row < {d3}, "
                        f"sb_col < {d2}, chain_pos < {d1})",
                        replica=event.replica, at_s=event.at_s,
                    )
            elif (isinstance(event, DramBitFlip)
                    and dram_words is not None
                    and event.word_addr is not None
                    and event.word_addr >= dram_words):
                raise FaultError(
                    f"DRAM word address {event.word_addr} outside the "
                    f"{dram_words}-word operand space",
                    replica=event.replica, at_s=event.at_s,
                )
        return self

    @classmethod
    def merge(cls, *schedules: "FaultSchedule") -> "FaultSchedule":
        """Compose schedules into one, with deterministic event order.

        Events are ordered by ``(at_s, replica, kind)`` — the same key
        :meth:`from_events` sorts by — with ties broken *stably* by the
        position of the source schedule in the argument list and the
        event's position within it.  Merging is therefore associative
        for distinct keys and reproducible for identical ones, so
        per-rack and per-board schedules compose into one fleet
        schedule without perturbing either input's internal order.

        Merging never draws from an RNG: the inputs' seeded streams
        (e.g. :func:`generate_fault_schedule` output) pass through
        byte-for-byte.
        """
        if not schedules:
            return cls(events=())
        combined = [
            event for schedule in schedules for event in schedule.events
        ]
        combined.sort(key=lambda e: (e.at_s, e.replica, e.kind))
        return cls(events=tuple(combined))

    def counts(self) -> dict[str, int]:
        """Event count per fault kind, sorted by kind."""
        out: dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return dict(sorted(out.items()))

    def describe(self) -> str:
        counts = ", ".join(f"{k}={v}" for k, v in self.counts().items())
        return f"{len(self.events)} fault events ({counts or 'none'})"


def _poisson_times(rng: random.Random, rate_hz: float,
                   duration_s: float) -> list[float]:
    """Event instants of one Poisson process over [0, duration)."""
    times = []
    t = rng.expovariate(rate_hz) if rate_hz > 0 else math.inf
    while t < duration_s:
        times.append(t)
        t += rng.expovariate(rate_hz)
    return times


def _check_rate(name: str, value: float) -> None:
    if not math.isfinite(value) or value < 0:
        raise FaultError(f"{name} must be finite and >= 0, got {value}")


def generate_fault_schedule(
    *,
    seed: int,
    duration_s: float,
    replicas: Sequence[str],
    grid: OverlayConfig | tuple[int, int, int] | None = None,
    crash_rate_hz: float = 0.0,
    mean_repair_s: float = 0.05,
    slowdown_rate_hz: float = 0.0,
    slowdown_factor: float = 2.0,
    mean_slowdown_s: float = 0.02,
    tpe_fault_rate_hz: float = 0.0,
    stuck_fraction: float = 0.5,
    bitflip_rate_hz: float = 0.0,
    correctable_fraction: float = 0.9,
    dram_words: int | None = None,
    link_fault_rate_hz: float = 0.0,
    metrics: MetricsRegistry | None = None,
) -> FaultSchedule:
    """Draw a deterministic fault schedule from seeded Poisson processes.

    Args:
        seed: RNG seed; identical inputs reproduce the schedule exactly.
        duration_s: Horizon over which primary faults are drawn (paired
            recovery events may land past it).
        replicas: Replica names the faults are distributed over.
        grid: Overlay shape for TPE faults — an :class:`OverlayConfig`
            or a ``(d1, d2, d3)`` tuple.  Required when
            ``tpe_fault_rate_hz > 0``.
        crash_rate_hz: Per-replica crash rate; each crash is paired with
            a recovery after an Exp(``mean_repair_s``) repair.
        slowdown_rate_hz: Per-replica throttling rate; each slowdown of
            ``slowdown_factor`` is cleared by a recovery after an
            Exp(``mean_slowdown_s``) interval.
        tpe_fault_rate_hz: Per-replica DSP/BRAM tile fault rate;
            ``stuck_fraction`` of them are permanent stuck-at faults,
            the rest transient upsets.
        bitflip_rate_hz: Per-replica DRAM upset rate;
            ``correctable_fraction`` are absorbed by ECC.
        dram_words: Size of the per-replica operand address space, in
            16-bit words.  When given, each bit-flip draws a word
            address uniformly over it (and the schedule is validated
            against the range); when ``None`` (default) addresses stay
            unset and the draw sequence is identical to earlier
            releases, so existing seeded schedules reproduce exactly.
        link_fault_rate_hz: Per-replica transient bus/link glitch rate.
        metrics: Optional registry; receives per-kind
            ``faults_generated`` counters for the drawn schedule.

    Raises:
        FaultError: for invalid rates/fractions, an empty replica list,
            a non-positive duration, or a missing grid.
    """
    if not replicas:
        raise FaultError("fault schedule needs at least one replica")
    if len(set(replicas)) != len(replicas):
        raise FaultError(f"replica names must be unique, got {replicas}")
    if not math.isfinite(duration_s) or duration_s <= 0:
        raise FaultError(
            f"duration_s must be finite and positive, got {duration_s}"
        )
    for name, value in (
        ("crash_rate_hz", crash_rate_hz),
        ("slowdown_rate_hz", slowdown_rate_hz),
        ("tpe_fault_rate_hz", tpe_fault_rate_hz),
        ("bitflip_rate_hz", bitflip_rate_hz),
        ("link_fault_rate_hz", link_fault_rate_hz),
        ("mean_repair_s", mean_repair_s),
        ("mean_slowdown_s", mean_slowdown_s),
    ):
        _check_rate(name, value)
    for name, value in (
        ("stuck_fraction", stuck_fraction),
        ("correctable_fraction", correctable_fraction),
    ):
        if not 0.0 <= value <= 1.0:
            raise FaultError(f"{name} must be in [0, 1], got {value}")
    dims: tuple[int, int, int] | None = None
    if isinstance(grid, OverlayConfig):
        dims = (grid.d1, grid.d2, grid.d3)
    elif grid is not None:
        dims = tuple(grid)  # type: ignore[assignment]
    if tpe_fault_rate_hz > 0 and dims is None:
        raise FaultError("tpe_fault_rate_hz > 0 requires a grid")
    if dram_words is not None and dram_words < 1:
        raise FaultError(f"dram_words must be >= 1, got {dram_words}")

    rng = random.Random(seed)
    events: list[FaultEvent] = []
    # Fixed iteration order (replica list order, then fault type) keeps
    # the draw sequence — and therefore the schedule — deterministic.
    for replica in replicas:
        for t in _poisson_times(rng, crash_rate_hz, duration_s):
            events.append(ReplicaCrash(at_s=t, replica=replica))
            repair = rng.expovariate(1.0 / mean_repair_s) \
                if mean_repair_s > 0 else 0.0
            events.append(ReplicaRecovery(at_s=t + repair, replica=replica))
        for t in _poisson_times(rng, slowdown_rate_hz, duration_s):
            events.append(ReplicaSlowdown(
                at_s=t, replica=replica, factor=slowdown_factor))
            length = rng.expovariate(1.0 / mean_slowdown_s) \
                if mean_slowdown_s > 0 else 0.0
            events.append(ReplicaRecovery(at_s=t + length, replica=replica))
        for t in _poisson_times(rng, tpe_fault_rate_hz, duration_s):
            assert dims is not None
            d1, d2, d3 = dims
            events.append(TPEFault(
                at_s=t, replica=replica,
                sb_row=rng.randrange(d3),
                sb_col=rng.randrange(d2),
                chain_pos=rng.randrange(d1),
                stuck=rng.random() < stuck_fraction,
            ))
        for t in _poisson_times(rng, bitflip_rate_hz, duration_s):
            events.append(DramBitFlip(
                at_s=t, replica=replica,
                correctable=rng.random() < correctable_fraction,
                word_addr=(
                    rng.randrange(dram_words)
                    if dram_words is not None else None
                ),
            ))
        for t in _poisson_times(rng, link_fault_rate_hz, duration_s):
            events.append(LinkFault(at_s=t, replica=replica))
    schedule = FaultSchedule.from_events(
        events, grid=dims, dram_words=dram_words
    )
    registry = as_metrics(metrics)
    if registry.enabled:
        counter = registry.counter(
            "faults_generated", "fault events drawn into the schedule"
        )
        for kind, count in schedule.counts().items():
            counter.inc(count, kind=kind)
    return schedule


def random_tpe_mask(
    config: OverlayConfig, fraction: float, *, seed: int
) -> frozenset[TpeCoord]:
    """A seeded random mask covering ``fraction`` of the grid's TPEs.

    Used by the chaos degradation curve: scatter ``fraction * n_tpe``
    distinct stuck-at tile faults uniformly over the ``D1×D2×D3`` grid.

    Raises:
        FaultError: if ``fraction`` is outside [0, 1).
    """
    if not 0.0 <= fraction < 1.0:
        raise FaultError(f"mask fraction must be in [0, 1), got {fraction}")
    n_masked = round(fraction * config.n_tpe)
    rng = random.Random(seed)
    flat = rng.sample(range(config.n_tpe), n_masked)
    coords = []
    for index in flat:
        sb_row, rest = divmod(index, config.d2 * config.d1)
        sb_col, chain_pos = divmod(rest, config.d1)
        coords.append((sb_row, sb_col, chain_pos))
    return frozenset(coords)
