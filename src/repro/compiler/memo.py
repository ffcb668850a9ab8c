"""Cross-invocation temporal-combo memoization for the mapping search.

The search's temporal stage enumerates (T, L, forced-X) splits of a
*remainder vector* — the per-loop iterations left after the spatial
levels.  Within one :class:`~repro.compiler.search.ScheduleSearch` run
those combos are memoized per remainder vector; this module lifts that
memo across searches: a batch-size sweep re-schedules the same MM layer
with only the ``P`` loop perturbed, and a fault-mask recompile shrinks
the spatial grid while every buffer capacity stays put — in both cases
most remainder vectors (and therefore their temporal enumerations)
recur verbatim.

The memo key is the *temporal context*: everything the temporal stage
reads apart from the remainder vector itself — layer kind and footprint
parameters, reduction/weight tags, the adjacency-allowed T/L loops, the
buffer capacities, double-pump, and the temporal beam.  Two searches
with equal contexts produce identical combos for equal remainders, so
reuse is result-transparent by construction.

Reuse is also **virtual-clock transparent**: every entry records the
step and capacity-prune counts its original enumeration charged, and a
shared hit replays those charges.  A search's step clock (and therefore
its trace spans and mirrored metrics) is identical whether the memo was
cold or warm — cache warmth never perturbs the virtual timeline.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ScheduleError

if TYPE_CHECKING:  # pragma: no cover - import cycle with search.py
    from repro.compiler.search import _ComboTable


@dataclass(frozen=True)
class MemoEntry:
    """One memoized temporal enumeration plus its replay accounting.

    Attributes:
        combos: The (T, L, X) combos as one column table, in enumeration
            order.
        steps: Step-clock charge of the original enumeration.
        pruned: Capacity prunes the original enumeration counted.
    """

    combos: "_ComboTable"
    steps: int
    pruned: int


class TemporalMemo:
    """Bounded LRU store of temporal enumerations, shared across searches.

    Args:
        max_entries: Bound on stored (context, remainder) entries;
            least-recently-used entries are evicted past it.  ``None``
            keeps everything.
    """

    def __init__(self, max_entries: int | None = 100_000):
        if max_entries is not None and max_entries < 1:
            raise ScheduleError(
                f"max_entries must be >= 1 or None, got {max_entries}"
            )
        self.max_entries = max_entries
        self._entries: OrderedDict[tuple, MemoEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def lookup(self, context: tuple, rem: tuple[int, ...]) -> MemoEntry | None:
        """Return the entry for ``(context, rem)``, or None on a miss."""
        key = (context, rem)
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return entry

    def store(
        self,
        context: tuple,
        rem: tuple[int, ...],
        combos: "_ComboTable",
        steps: int,
        pruned: int,
    ) -> None:
        """Record one enumeration with its replay accounting."""
        self._entries[(context, rem)] = MemoEntry(
            combos=combos, steps=steps, pruned=pruned
        )
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def describe(self) -> str:
        return (
            f"{len(self._entries)} entries: {self.hits} hits / "
            f"{self.misses} misses ({self.hit_rate:.1%}), "
            f"{self.evictions} evictions"
        )
