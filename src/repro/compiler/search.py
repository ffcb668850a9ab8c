"""Mapping-vector search (paper §IV-D4).

The paper's searching scheme, reproduced: generate candidates under the
guidance of the adjacency matrix, exclude infeasible ones against the
constraints, evaluate the rest with the analytical model, and keep the
top-k under the requested objective.

Enumeration strategy (kept exhaustive over the *structured* space):

1. **Spatial** — per level (D1, D2, D3), enumerate per-loop tile sizes
   from the ceiling-divisor lattice of each loop's trip count, bounded by
   the level's resource cap (Eqn 10).  Each level's positional tiles are
   built once as an ``(n, K)`` matrix; the ``n1·n2·n3`` joint choices are
   ranked by TPE utilization and padding over broadcast
   ``(n1,1,1)×(1,n2,1)×(1,1,n3)`` arrays with a stable lexsort, and only
   the beam's tile rows are gathered.  The beam keeps the search
   tractable without losing the high-performance region.
2. **Temporal** — for each spatial choice's per-loop remainders, enumerate
   LoopT tiles under the ActBUF capacity, then LoopL tiles (adjacency-
   restricted) under the PSumBUF/WBUF capacities.  LoopX is then *forced*:
   the minimal cover of each loop's remainder (Eqn 11), which is always
   optimal because X is unconstrained and outermost.  The lattices are
   expanded level by level, in the lexicographic order of a depth-first
   search that tries the largest tiles first.  Each distinct remainder
   vector gets one set of combos (spatial twins share it), and the
   combos of all of them are built together, one lattice pass per loop,
   into a single column table (:class:`_ComboTable`).

Candidates are priced in one pass over every spatial choice:
:meth:`ScheduleSearch._price` applies the integer ceil-divisions and
float operations of :func:`repro.compiler.model.evaluate_mapping` to
int64 columns, so every price is bit-identical to the scalar model.

Ranking: every candidate ranks by ``(objective key, evaluation index)``,
largest first, where the key is ``(-c_exe, e_wbuf)`` for Objective 1 and
``(score, -c_exe)`` for Objective 2, and the evaluation index counts
candidates in spatial-choice order, then combo order.  A later-evaluated
candidate therefore wins an exact tie, and the top-k list is the sorted
prefix of that one total order: ``run()[:j]`` of a top-k search is the
top-j search's result.  The winners are re-materialized as full
:class:`MappingVectors` and re-priced by the authoritative model, which
also re-checks every constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Callable

import numpy as np

from repro.compiler.adjacency import adjacency_matrix
from repro.compiler.constraints import check_constraints
from repro.compiler.mapping import MappingVectors
from repro.compiler.model import PerformanceEstimate, evaluate_mapping
from repro.errors import ScheduleError
from repro.overlay.config import OverlayConfig
from repro.trace.metrics import MetricsRegistry, as_metrics
from repro.trace.span import Tracer, as_tracer
from repro.units import ceil_div
from repro.workloads.layers import ConvLayer, MatMulLayer

AcceleratedLayer = ConvLayer | MatMulLayer

#: Valid objective names.
OBJECTIVES = ("performance", "balance")

#: T tiles whose L lattices are expanded together in the first block of a
#: beamed temporal enumeration; later blocks double.
_FIRST_T_BLOCK = 32

#: Lattice extensions built per pass before the capacity filter runs.
_EXTEND_ROWS = 1 << 13

#: T tiles (counted before capacity pruning) whose remainders' combo
#: tables are built together; bounds the T and L lattices held at once.
_TABLE_T_TILES = 1 << 15

#: Candidates priced per pass.
_PRICE_ROWS = 1 << 13


@dataclass(frozen=True)
class Schedule:
    """One feasible schedule: mapping vectors plus their price."""

    layer: AcceleratedLayer
    config: OverlayConfig
    mapping: MappingVectors
    estimate: PerformanceEstimate
    objective: str

    @property
    def cycles(self) -> int:
        return self.estimate.c_exe

    @property
    def hardware_efficiency(self) -> float:
        return self.estimate.hardware_efficiency

    def describe(self) -> str:
        est = self.estimate
        return (
            f"{self.layer.name}: {est.c_exe} cycles, "
            f"eff {est.hardware_efficiency:.1%}, E_WBUF {est.e_wbuf:.2f}, "
            f"bound by {est.bottleneck} | {self.mapping.describe()}"
        )


@lru_cache(maxsize=65536)
def _ceil_tile_lattice(size: int, cap: int) -> tuple[int, ...]:
    """The memoized lattice behind :func:`ceil_tile_candidates`."""
    if size <= 0:
        raise ScheduleError(f"loop size must be positive, got {size}")
    cap = min(cap, size)
    if cap < 1:
        return (1,)
    values = set()
    m = 1
    while m <= size:
        tile = ceil_div(size, m)
        if tile <= cap:
            values.add(tile)
        # Jump to the next m that can change ceil(size / m).
        m = max(m + 1, size // tile + 1) if tile > 1 else size + 1
    values.add(1)
    return tuple(sorted(values))


def ceil_tile_candidates(size: int, cap: int) -> list[int]:
    """Tile sizes worth considering for a loop of ``size``, at most ``cap``.

    The ceiling-divisor lattice ``{ceil(size / m)}`` contains, for every
    possible split count ``m``, the smallest tile covering the loop — any
    other tile only adds padding.  O(sqrt(size)) distinct values.

    The lattice itself is process-wide memoized (it is a pure function of
    its arguments and the search calls it once per loop per level per
    candidate); callers get a fresh list each time.
    """
    return list(_ceil_tile_lattice(size, cap))


def _extend(
    rows: np.ndarray,
    col: int,
    sizes: np.ndarray,
    fits: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extend every row at ``col`` by each tile of its loop's lattice.

    Row ``r`` takes every tile of the full lattice of ``sizes[r]``,
    largest first, and its extensions stay contiguous — the order in
    which a depth-first search visits them.  ``fits(extended, parent)``
    accepts or rejects each extension (``parent`` indexes ``rows``).
    Extensions are built at most about :data:`_EXTEND_ROWS` at a time, so
    the rejected ones never pile up in memory.

    Returns the accepted rows, the parent index of each, and the parent
    index of each rejected extension.
    """
    values, inverse = np.unique(sizes, return_inverse=True)
    lattices = [_ceil_tile_lattice(v, v)[::-1] for v in values.tolist()]
    lengths = np.array([len(lattice) for lattice in lattices])
    flat = np.concatenate(lattices)
    # Per row: where its lattice sits in ``flat``, how many extensions it
    # gets, and where they start in the output.
    first = (np.cumsum(lengths) - lengths)[inverse]
    counts = lengths[inverse]
    starts = np.cumsum(counts) - counts
    kept, kept_parent, rejected_parent = [], [], []
    lo = 0
    while lo < len(rows):
        hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + _EXTEND_ROWS)))
        parent = np.repeat(np.arange(lo, hi), counts[lo:hi])
        position = np.arange(len(parent)) + starts[lo] - starts[parent]
        extended = rows[parent]
        extended[:, col] = flat[first[parent] + position]
        ok = fits(extended, parent)
        kept.append(extended[ok])
        kept_parent.append(parent[ok])
        rejected_parent.append(parent[~ok])
        lo = hi
    return (
        np.concatenate(kept),
        np.concatenate(kept_parent),
        np.concatenate(rejected_parent),
    )


@dataclass(frozen=True)
class _ComboTable:
    """The (T, L, forced-X) splits of several remainder vectors, as columns.

    Remainder ``u`` owns rows ``offsets[u]:offsets[u + 1]``; its ``j``-th
    row is the ``j``-th combo of a depth-first search over the T
    lattices and then, per T tile, the L lattices, largest tiles first —
    the order that breaks exact ties downstream.
    """

    #: Start row of each remainder's combos, then the total row count.
    offsets: np.ndarray
    #: LoopT / LoopL tiles, one ``(n, K)`` row per combo.
    t_tile: np.ndarray
    l_tile: np.ndarray
    #: Trip products of the T, L and forced X tiles.
    t: np.ndarray
    l: np.ndarray
    x: np.ndarray
    #: PSumBUF footprint of the T*L tile (words per SuperBlock).
    psum_fp: np.ndarray
    #: Weight words per TPE over X*L*T (the streamed slice).
    wbuf_stream: np.ndarray
    #: 2 where the T tile has no 2-cycle weight reuse (double-pump stall).
    stall: np.ndarray
    #: 2 where a LoopX trip splits a reduction loop (multipass), else 1.
    round_trips: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def rows(self, owners: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The rows of each remainder in ``owners``, one after another.

        Returns the row indices and, for each, its position in ``owners``.
        """
        lengths = np.diff(self.offsets)[owners]
        slot = np.repeat(np.arange(len(owners)), lengths)
        shift = self.offsets[owners] - (np.cumsum(lengths) - lengths)
        return np.arange(len(slot)) + shift[slot], slot


class ScheduleSearch:
    """Top-k mapping-vector search for one layer on one overlay config.

    Args:
        layer: CONV or MM layer to schedule.
        config: Overlay hardware configuration.
        objective: ``"performance"`` (Objective 1: min execution time) or
            ``"balance"`` (Objective 2: max corrected Eqn-13 score).
        top_k: Number of schedules to return, best first; an integer
            >= 1.
        spatial_beam: Max joint spatial choices explored (ranked by TPE
            utilization, then padding); ``None`` explores all, otherwise
            an integer >= 1.
        temporal_beam: Max (T, L) combos per remainder vector; ``None``
            explores all, otherwise an integer >= 1.
        tracer: Optional :class:`~repro.trace.span.Tracer`; the search
            opens per-phase spans stamped with a monotonic step counter
            (``step_base`` + work units done) — never wall clock.
        metrics: Optional :class:`~repro.trace.metrics.MetricsRegistry`;
            candidate / pruning / memo counters are mirrored into it at
            the end of each :meth:`run`.
        step_base: Offset added to this search's step clock so several
            searches sharing one tracer stay on one monotonic timeline.

    Raises:
        ScheduleError: on an unknown objective, a ``top_k`` that is not
            an integer >= 1, or a beam width that is neither None nor an
            integer >= 1.
    """

    def __init__(
        self,
        layer: AcceleratedLayer,
        config: OverlayConfig,
        objective: str = "performance",
        top_k: int = 1,
        spatial_beam: int | None = 160,
        temporal_beam: int | None = 240,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        step_base: int = 0,
    ):
        if objective not in OBJECTIVES:
            raise ScheduleError(
                f"unknown objective {objective!r}; expected one of {OBJECTIVES}"
            )
        check_count("top_k", top_k)
        check_count("spatial_beam", spatial_beam, optional=True)
        check_count("temporal_beam", temporal_beam, optional=True)
        self.layer = layer
        self.config = config
        self.objective = objective
        self.top_k = top_k
        self.spatial_beam = spatial_beam
        self.temporal_beam = temporal_beam
        self._adjacency = adjacency_matrix(layer)
        dims = layer.loop_dims()
        self._loop_names = tuple(d.name for d in dims)
        self._sizes = tuple(d.size for d in dims)
        self._reduction = tuple(d.reduction for d in dims)
        self._in_weights = tuple(d.in_weights for d in dims)
        self._k = len(dims)
        self._weight_words = layer.weight_words
        self._t_loops = self._allowed_indices("T")
        self._l_loops = self._allowed_indices("L")
        self._reduction_cols = [i for i, red in enumerate(self._reduction) if red]
        self._nonweight_cols = [
            i for i, in_w in enumerate(self._in_weights) if not in_w
        ]
        self._c_min = max(1, ceil_div(layer.maccs, config.n_tpe))
        self.candidates_evaluated = 0
        self.tracer = as_tracer(tracer)
        self.metrics = as_metrics(metrics)
        self.step_base = step_base
        #: Monotonic work counter (spatial choices ranked + temporal
        #: combos built + candidates priced) — the search's trace clock.
        self.steps = 0
        self.spatial_enumerated = 0
        self.spatial_beam_dropped = 0
        self.pruned_by_capacity = 0
        self.temporal_memo_hits = 0
        #: Loops with iterations that the adjacency matrix (Fig. 5) bars
        #: from some hardware level — the search space it never visits.
        self.adjacency_excluded_loops = sum(
            1
            for level in ("D1", "D2", "D3", "T", "L")
            for name, size in zip(self._loop_names, self._sizes)
            if size > 1 and not self._adjacency[level][name]
        )

    def _now(self) -> int:
        """Current step-clock timestamp for trace spans."""
        return self.step_base + self.steps

    # ------------------------------------------------------------------ #
    # footprints of (n, K) positional tile matrices, one value per row
    # ------------------------------------------------------------------ #
    def _act_fp(self, tile: np.ndarray) -> np.ndarray:
        layer = self.layer
        if isinstance(layer, ConvLayer):
            m, n, h, w, r, s = tile.T
            rows = (h - 1) * layer.stride + r
            cols = (w - 1) * layer.stride + s
            words = n * rows * cols
            if layer.groups > 1:
                groups_touched = np.minimum(
                    layer.groups, -(-m // layer.group_out_channels)
                )
                words = groups_touched * words
            return words
        m, _, p = tile.T
        return m * p

    def _out_fp(self, tile: np.ndarray) -> np.ndarray:
        if isinstance(self.layer, ConvLayer):
            return tile[:, 0] * tile[:, 2] * tile[:, 3]
        return tile[:, 1] * tile[:, 2]

    def _weight_fp(self, tile: np.ndarray) -> np.ndarray:
        if isinstance(self.layer, ConvLayer):
            return tile[:, 0] * tile[:, 1] * tile[:, 4] * tile[:, 5]
        return tile[:, 0] * tile[:, 1]

    def _fits_lt(self, tile: np.ndarray) -> np.ndarray:
        """Rows whose PSumBUF and WBUF footprints fit (the L-level caps)."""
        return (
            (self._out_fp(tile) <= self.config.psumbuf_usable_words)
            & (self._weight_fp(tile) <= self.config.s_wbuf_words)
        )

    # ------------------------------------------------------------------ #
    # spatial stage
    # ------------------------------------------------------------------ #
    def _allowed_loops(self, level: str) -> list[str]:
        return [
            name for name, size in zip(self._loop_names, self._sizes)
            if self._adjacency[level][name] and size > 1
        ]

    def _allowed_indices(self, level: str) -> list[int]:
        allowed = set(self._allowed_loops(level))
        return [i for i, name in enumerate(self._loop_names) if name in allowed]

    def _level_tiles(self, level: str, cap: int) -> np.ndarray:
        """Positional tiles of one spatial level with product <= ``cap``.

        One ``(n, K)`` row per tile, in depth-first enumeration order
        (each loop's lattice ascending, bounded by the budget left).
        """
        allowed = self._allowed_indices(level)
        rows: list[tuple[int, ...]] = []
        current = [1] * self._k

        def recurse(pos: int, budget: int) -> None:
            if pos == len(allowed):
                rows.append(tuple(current))
                return
            i = allowed[pos]
            for tile in _ceil_tile_lattice(self._sizes[i], budget):
                current[i] = tile
                recurse(pos + 1, budget // tile)
            current[i] = 1

        recurse(0, cap)
        return np.array(rows, dtype=np.int64)

    def _spatial_choices(self) -> np.ndarray:
        """Joint (D1, D2, D3) positional tiles, beam-ranked.

        Returns an ``(n, 3, K)`` array: choice, level, loop.  The joint
        choices are ranked by TPE utilization (descending), then padding
        (ascending), ties kept in ``itertools.product`` order.
        """
        t1, t2, t3 = (
            self._level_tiles(level, cap)
            for level, cap in (
                ("D1", self.config.d1),
                ("D2", self.config.d2),
                ("D3", self.config.d3),
            )
        )
        used = (
            t1.prod(axis=1)[:, None, None]
            * t2.prod(axis=1)[None, :, None]
            * t3.prod(axis=1)[None, None, :]
        )
        # Per-loop ratios multiply in loop order: a float product depends
        # on its order, and ties in the ranking must be exact.
        pad = np.ones(used.shape)
        for i, size in enumerate(self._sizes):
            if max(t1[:, i].max(), t2[:, i].max(), t3[:, i].max()) == 1:
                continue
            split = (
                t1[:, i, None, None] * t2[None, :, i, None]
                * t3[None, None, :, i]
            )
            covered = -(-size // split) * split
            pad *= np.where(covered > size, covered / size, 1.0)
        order = np.lexsort((pad.ravel(), -used.ravel()))
        self.spatial_enumerated += order.size
        self.steps += order.size
        if self.spatial_beam is not None and order.size > self.spatial_beam:
            self.spatial_beam_dropped += order.size - self.spatial_beam
            order = order[: self.spatial_beam]
        i1, i2, i3 = np.unravel_index(order, used.shape)
        return np.stack((t1[i1], t2[i2], t3[i3]), axis=1)

    # ------------------------------------------------------------------ #
    # temporal stage (one table per distinct remainder vector)
    # ------------------------------------------------------------------ #
    def _t_stage(self, rems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """LoopT tiles of every remainder vector that fit all three buffers.

        Returns ``(tiles, owner)``: the tile rows, grouped by remainder
        (``owner`` indexes ``rems``), each group in DFS order.  Every
        prefix a buffer rejects counts once in ``pruned_by_capacity`` and
        is not extended.  The all-ones tile fits every buffer and tile 1
        leaves the footprints of an accepted prefix unchanged, so each
        remainder keeps at least one tile, and a loop a remainder does
        not iterate changes none of its rows.
        """
        act_cap = self.config.actbuf_usable_words
        rows = np.ones(rems.shape, dtype=np.int64)
        owner = np.arange(len(rems))
        for i in self._t_loops:
            sizes = rems[owner, i]
            if sizes.max() <= 1:
                continue
            rows, parent, rejected = _extend(
                rows, i, sizes,
                lambda tile, _: (
                    (self._act_fp(tile) <= act_cap) & self._fits_lt(tile)
                ),
            )
            self.pruned_by_capacity += len(rejected)
            owner = owner[parent]
        return rows, owner

    def _l_stage(
        self, rems: np.ndarray, t_tiles: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """LoopL tiles for each T tile, T-major then DFS order.

        ``rems[j]`` is the remainder vector of T tile ``j``.  Returns
        ``(l_tiles, group, pruned)``: the L tile rows, the index of each
        row's T tile, and the capacity prunes per T tile.  As in
        :meth:`_t_stage`, tile 1 always fits, so every T tile keeps at
        least one L tile.
        """
        n_t = len(t_tiles)
        rows = np.ones((n_t, self._k), dtype=np.int64)
        group = np.arange(n_t)
        pruned = np.zeros(n_t, dtype=np.int64)
        for i in self._l_loops:
            # A loop the T tile already covers expands by tile 1 only,
            # which leaves every row as it was.
            remaining = -(-rems[group, i] // t_tiles[group, i])
            if remaining.max() <= 1:
                continue
            t_rows = t_tiles[group]
            rows, parent, rejected = _extend(
                rows, i, remaining,
                lambda tile, parent: self._fits_lt(t_rows[parent] * tile),
            )
            pruned += np.bincount(group[rejected], minlength=n_t)
            group = group[parent]
        return rows, group, pruned

    def _chunk_columns(self, rems: np.ndarray) -> dict[str, np.ndarray]:
        """The :class:`_ComboTable` columns of a few remainder vectors.

        Holds ``counts``, the number of combos of each remainder, in
        place of ``offsets``.  A T tile's L lattice is expanded (and its
        prunes counted) only if the combos of the T tiles before it
        leave its remainder's beam unfilled.  Round ``r`` expands block
        ``r`` (``32 * 2**r`` T tiles) of every remainder still short of
        its beam; the part of a remainder's last block past the beam is
        discarded.
        """
        t_all, t_owner = self._t_stage(rems)
        per_rem = np.bincount(t_owner, minlength=len(rems))
        rank = np.arange(len(t_all)) - (np.cumsum(per_rem) - per_rem)[t_owner]
        count = np.zeros(len(rems), dtype=np.int64)
        t_index, l_parts = [], []
        start = 0
        if self.temporal_beam is None:
            beam, block = np.iinfo(np.int64).max, int(per_rem.max())
        else:
            beam, block = self.temporal_beam, _FIRST_T_BLOCK
        while True:
            live = (rank >= start) & (rank < start + block)
            live = np.flatnonzero(live & (count[t_owner] < beam))
            if not len(live):
                break
            t_block, owner = t_all[live], t_owner[live]
            l_tiles, group, pruned = self._l_stage(rems[owner], t_block)
            # Combos of the T tiles before each one in its remainder.
            per_t = np.bincount(group, minlength=len(live))
            before = np.cumsum(per_t) - per_t
            new_rem = np.r_[True, owner[1:] != owner[:-1]]
            before -= np.maximum.accumulate(np.where(new_rem, before, 0))
            taken = count[owner] + before < beam
            self.pruned_by_capacity += int(pruned[taken].sum())
            kept = taken[group]
            t_index.append(live[group[kept]])
            l_parts.append(l_tiles[kept])
            count += np.bincount(t_owner[t_index[-1]], minlength=len(rems))
            start += block
            block *= 2
        counts = np.minimum(count, beam)
        t_index, l_tile = np.concatenate(t_index), np.concatenate(l_parts)
        if len(l_parts) > 1 or (counts < count).any():
            # Regroup the rounds' rows by remainder and cut each at the beam.
            order = np.argsort(t_owner[t_index], kind="stable")
            first = np.repeat(np.cumsum(count) - count, count)
            order = order[np.arange(len(order)) - first < np.repeat(counts, count)]
            t_index, l_tile = t_index[order], l_tile[order]
        t_tile = t_all[t_index]
        lt_tile = t_tile * l_tile
        x_tile = -(-rems[t_owner[t_index]] // lt_tile)
        stalled = self.config.double_pump & (
            t_tile[:, self._nonweight_cols].prod(axis=1) < 2
        )
        return {
            "counts": counts,
            "t_tile": t_tile,
            "l_tile": l_tile,
            "t": t_tile.prod(axis=1),
            "l": l_tile.prod(axis=1),
            "x": x_tile.prod(axis=1),
            "psum_fp": self._out_fp(lt_tile),
            "wbuf_stream": self._weight_fp(lt_tile * x_tile),
            "stall": np.where(stalled, 2, 1),
            "round_trips": np.where(
                (x_tile[:, self._reduction_cols] > 1).any(axis=1), 2, 1
            ),
        }

    def _combo_tables(self, rems: np.ndarray) -> _ComboTable:
        """All (T, L, forced-X) combos of every row of ``rems``, cut at
        the beam, as one table.

        Remainders are taken a chunk at a time, each chunk holding about
        :data:`_TABLE_T_TILES` T tiles (a remainder's T lattice product
        bounds its count), or one remainder at a time without a temporal
        beam, where nothing bounds a remainder's combos.  Chunks are
        independent, so this only bounds memory.
        """
        if self.temporal_beam is None:
            size = np.full(len(rems), _TABLE_T_TILES)
        else:
            size = np.array([
                prod(len(_ceil_tile_lattice(v, v)) for v in row)
                for row in rems[:, self._t_loops].tolist()
            ])
        ends = np.cumsum(size)
        columns: dict[str, np.ndarray] = {}
        counts = []
        lo = 0
        while lo < len(rems):
            cap = ends[lo] - size[lo] + _TABLE_T_TILES
            hi = max(lo + 1, int(np.searchsorted(ends, cap, side="right")))
            chunk = self._chunk_columns(rems[lo:hi])
            lo = hi
            counts.append(chunk.pop("counts"))
            # Grow each column in place (a realloc, which moves large
            # blocks without copying), so the table is never held twice.
            for name, part in chunk.items():
                column = columns.setdefault(
                    name, np.empty((0, *part.shape[1:]), dtype=part.dtype)
                )
                n = len(column)
                column.resize((n + len(part), *part.shape[1:]), refcheck=False)
                column[n:] = part
        counts = np.concatenate(counts)
        self.steps += int(counts.sum())
        return _ComboTable(offsets=np.r_[0, np.cumsum(counts)], **columns)

    # ------------------------------------------------------------------ #
    # pricing (evaluate_mapping over the columns of the combo table)
    # ------------------------------------------------------------------ #
    def _price(
        self,
        spatials: np.ndarray,
        table: _ComboTable,
        rows: np.ndarray | slice,
        choice: np.ndarray | int,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(c_exe, e_wbuf, score)`` of table ``rows``, each priced
        against spatial choice ``choice[j]`` of ``spatials``.

        ``rows`` may also be a slice, priced against the one spatial
        choice ``choice``.  ``spatials`` is the ``(n, 3, K)`` D1/D2/D3
        tile array.  Each value is computed with the integer and float
        operations of :func:`~repro.compiler.model.evaluate_mapping`, in
        the same order, so it equals the scalar model's bit for bit.
        """
        config = self.config
        d1_tile, d3_tile = spatials[choice, 0], spatials[choice, 2]
        used = spatials.prod(axis=2)
        used_d2, used_d3 = used[choice, 1], used[choice, 2]
        used_tpes = (used[:, 0] * used[:, 1] * used[:, 2])[choice]
        x, l, t_tile = table.x[rows], table.l[rows], table.t_tile[rows]
        psum_fp = table.psum_fp[rows]
        round_trips = table.round_trips[rows]

        c_comp = x * (l * table.t[rows] * table.stall[rows]
                      + config.pipeline_latency)

        td1 = t_tile * d1_tile
        xl = x * l
        c_actbus = -(-xl * self._act_fp(td1) // config.actbus_wpc)

        c_psumbus = -(
            -x * used_d3 * psum_fp * round_trips
            // config.psumbus_words_per_cycle
        )

        act_read = xl * self._act_fp(td1 * d3_tile)
        psum_total = x * used_d2 * used_d3 * psum_fp
        # Every tile is at least 1, so stored >= 1 and e_wbuf needs no
        # zero guard.
        stored = used_tpes * table.wbuf_stream[rows]
        read_words = act_read + psum_total * (round_trips - 1)
        if not config.weights_resident:
            read_words = read_words + stored
        c_dram_rd = -(-read_words // config.dram_rd_words_per_cycle())
        c_dram_wr = -(-psum_total // config.dram_wr_words_per_cycle())

        terms = [
            term.astype(np.int64, copy=False)
            for term in (c_comp, c_actbus, c_psumbus, c_dram_rd, c_dram_wr)
        ]
        c_exe = (
            np.maximum.reduce(terms) if config.double_buffer else sum(terms)
        )
        e_wbuf = np.minimum(self._weight_words / stored, 1.0)
        score = self._c_min / c_exe + e_wbuf
        return c_exe, e_wbuf, score

    def _evaluate(
        self,
        spatials: np.ndarray,
        table: _ComboTable,
        which: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Price every spatial choice's combos and keep the best ``top_k``.

        Choice ``s`` is priced against the combos of remainder
        ``which[s]``, and its candidates take the evaluation indices
        right after those of choice ``s - 1``.  Candidates rank by
        ``(objective key, evaluation index)``, largest first.  Up to
        about :data:`_PRICE_ROWS` candidates are priced per pass and
        join the kept ones; one lexsort over those that reach the
        ``top_k``-th largest major key keeps the best ``top_k``.  A
        choice with more combos than that is priced alone, on a view of
        its slice of the table.

        Returns the spatial choice and table row of each kept
        candidate, best first.
        """
        lengths = np.diff(table.offsets)[which]
        starts = np.cumsum(lengths) - lengths
        firsts = table.offsets[which].tolist()
        # (major key, minor key, evaluation index) of the kept
        # candidates, best first.
        kept = None
        lo = 0
        while lo < len(which):
            cap = starts[lo] + _PRICE_ROWS
            hi = max(lo + 1, int(np.searchsorted(starts, cap)))
            if hi == lo + 1:
                end = firsts[lo] + int(lengths[lo])
                rows, choice = slice(firsts[lo], end), lo
            else:
                rows, slot = table.rows(which[lo:hi])
                choice = lo + slot
            c_exe, e_wbuf, score = self._price(spatials, table, rows, choice)
            if self.objective == "performance":
                major, minor = -c_exe, e_wbuf
            else:
                major, minor = score, -c_exe
            ranked = (major, minor, starts[lo] + np.arange(len(c_exe)))
            if kept is not None:
                ranked = tuple(map(np.concatenate, zip(kept, ranked)))
            if len(ranked[0]) > self.top_k:
                # At least top_k rows reach the top_k-th largest major
                # key, so no row below it can rank in the top k.
                kth = np.partition(ranked[0], -self.top_k)[-self.top_k]
                ranked = tuple(column[ranked[0] >= kth] for column in ranked)
            order = np.lexsort(ranked[::-1])[::-1][: self.top_k]
            kept = tuple(column[order] for column in ranked)
            lo = hi
        evaluated = int(lengths.sum())
        self.candidates_evaluated += evaluated
        self.steps += evaluated
        # Every choice has at least one combo, so evaluation index e
        # belongs to the last choice whose first index is <= e.
        index = kept[2]
        choices = np.searchsorted(starts, index, side="right") - 1
        return choices, table.offsets[which[choices]] + index - starts[choices]

    # ------------------------------------------------------------------ #
    def run(self) -> list[Schedule]:
        """Execute the search; returns top-k schedules, best first.

        Raises:
            ScheduleError: if the winner fails the constraint re-check,
                i.e. no feasible mapping exists.
        """
        tracer = self.tracer
        depth0 = tracer.open_depth
        snapshot = (
            self.candidates_evaluated, self.steps, self.spatial_enumerated,
            self.spatial_beam_dropped, self.pruned_by_capacity,
            self.temporal_memo_hits,
        )
        tracer.begin(
            f"search:{self.layer.name}", at=self._now(), track="search",
            objective=self.objective,
            grid=f"{self.config.d1}x{self.config.d2}x{self.config.d3}",
        )
        try:
            return self._run_traced(tracer)
        finally:
            # Error paths may leave phase spans open; close everything
            # this call opened (root included) at the final step clock.
            while tracer.open_depth > depth0:
                tracer.end(self._now())
            self._mirror_metrics(snapshot)

    def _run_traced(self, tracer: Tracer) -> list[Schedule]:
        span = tracer.begin("spatial", at=self._now(), track="search")
        spatials = self._spatial_choices()
        tracer.end(self._now(), span)

        span = tracer.begin("evaluate", at=self._now(), track="search")
        sizes = np.array(self._sizes, dtype=np.int64)
        rems = -(-sizes // spatials.prod(axis=1))
        # Spatial twins share a remainder vector, and so its combos.
        distinct, which = np.unique(rems, axis=0, return_inverse=True)
        which = which.reshape(-1)
        self.temporal_memo_hits += len(rems) - len(distinct)
        table = self._combo_tables(distinct)
        choices, rows = self._evaluate(spatials, table, which)
        tracer.end(self._now(), span)

        span = tracer.begin("materialize", at=self._now(), track="search")
        schedules = [
            self._materialize(
                spatials[choice], distinct[which[choice]], table, row
            )
            for choice, row in zip(choices.tolist(), rows.tolist())
        ]
        tracer.end(self._now(), span)

        violations = check_constraints(self.layer, self.config, schedules[0].mapping)
        if violations:
            raise ScheduleError(
                f"search produced an infeasible winner for {self.layer.name!r}: "
                f"{violations}"
            )
        return schedules

    def _mirror_metrics(self, snapshot: tuple[int, ...]) -> None:
        """Publish this run's counter deltas into the metrics registry."""
        metrics = self.metrics
        if not metrics.enabled:
            return
        deltas = {
            "search_candidates_evaluated": self.candidates_evaluated,
            "search_steps": self.steps,
            "search_spatial_choices": self.spatial_enumerated,
            "search_spatial_beam_dropped": self.spatial_beam_dropped,
            "search_pruned_by_capacity": self.pruned_by_capacity,
            "search_temporal_memo_hits": self.temporal_memo_hits,
        }
        helps = {
            "search_candidates_evaluated": "mapping candidates priced",
            "search_steps": "search work units (the trace step clock)",
            "search_spatial_choices": "joint spatial choices enumerated",
            "search_spatial_beam_dropped": "spatial choices cut by the beam",
            "search_pruned_by_capacity": "tiles rejected by buffer capacity",
            "search_temporal_memo_hits": "remainder vectors reused from memo",
        }
        for (name, total), base in zip(deltas.items(), snapshot):
            metrics.counter(name, helps[name]).inc(
                total - base, objective=self.objective
            )
        metrics.counter(
            "search_adjacency_excluded_loops",
            "loop/level pairs the adjacency matrix excludes",
        ).inc(self.adjacency_excluded_loops, objective=self.objective)

    def _materialize(
        self,
        spatial: np.ndarray,
        rem: np.ndarray,
        table: _ComboTable,
        row: int,
    ) -> Schedule:
        """Build the full mapping of one table row and re-price it
        authoritatively."""
        names = self._loop_names
        rem = rem.tolist()
        t_tile = table.t_tile[row].tolist()
        l_tile = table.l_tile[row].tolist()
        x_tile = [ceil_div(r, t * l) for r, t, l in zip(rem, t_tile, l_tile)]
        d1_tile, d2_tile, d3_tile = spatial.tolist()
        partial = {
            "D1": dict(zip(names, d1_tile)),
            "D2": dict(zip(names, d2_tile)),
            "D3": dict(zip(names, d3_tile)),
            "X": dict(zip(names, x_tile)),
            "L": dict(zip(names, l_tile)),
            "T": dict(zip(names, t_tile)),
        }
        mapping = MappingVectors.from_partial(names, partial)
        estimate = evaluate_mapping(self.layer, self.config, mapping)
        return Schedule(
            layer=self.layer,
            config=self.config,
            mapping=mapping,
            estimate=estimate,
            objective=self.objective,
        )


def check_count(name: str, value: object, optional: bool = False) -> None:
    """Raise :class:`ScheduleError` unless ``value`` is an integer >= 1
    (or None, when ``optional``).

    A count of 0 would search or keep nothing and a negative beam would
    silently slice choices off the end of the ranking.  Only integers
    count: a bool is not a count, a float such as 2.5 would reach a
    slice index, and ``nan`` compares false with everything, so it would
    pass ``< 1`` and silently lift the bound.
    """
    if value is None and optional:
        return
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, np.integer))
        or value < 1
    ):
        expected = "None or an integer >= 1" if optional else "an integer >= 1"
        raise ScheduleError(f"{name} must be {expected}, got {value!r}")


def schedule_layer(
    layer: AcceleratedLayer,
    config: OverlayConfig,
    objective: str = "performance",
) -> Schedule:
    """Convenience wrapper: best schedule for ``layer`` on ``config``."""
    return ScheduleSearch(layer, config, objective=objective, top_k=1).run()[0]


def schedule_network(
    network,
    config: OverlayConfig,
    objective: str = "performance",
    cache=None,
) -> list[Schedule]:
    """Best schedule per accelerated layer of ``network``, in layer order.

    The whole-network entry point behind network evaluation, the serving
    batch model, and fault-aware degraded compilation: shape twins are
    deduplicated through one :class:`~repro.compiler.cache.ScheduleCache`
    (a fresh unbounded one when ``cache`` is None).

    Raises:
        ScheduleError: if any layer has no feasible mapping on ``config``.
    """
    # Local import: cache.py imports this module at load time.
    from repro.compiler.cache import ScheduleCache

    if cache is None:
        cache = ScheduleCache(config, objective=objective)
    return [cache.schedule(layer) for layer in network.accelerated_layers()]
