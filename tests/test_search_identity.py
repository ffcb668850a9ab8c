"""Search identity: winners, top-k order and counters pinned by a golden.

The array search must return exactly what a one-candidate-at-a-time
search returns.  Two kinds of check hold it there: a golden recorded
from the scalar search, and scalar reference enumerations (below) that
the spatial ranking and the temporal combo tables are compared with.
The top-k sets and counters are the scalar search's; the ordered
digests were re-recorded when exact ties took the one ranking order
``(objective key, evaluation index)``, largest first.

Each golden line is one (layer, objective, top_k) search on the paper's
12x5x20 example overlay, at the default beams unless the case id names
others (``unbeamed-T``: no temporal beam; ``budget``: the conformance
harness's budget beams; both recorded from the per-remainder array
search): a sha256 over the ordered ``(mapping, estimate)`` list the
search returns, a sha256 over the same records sorted (the top-k *set*,
blind to the order of exact ties), then the six ``search_*`` counters it
mirrors.  Any change to the search that alters a winner, reorders an
exact tie, or moves a counter (and with it the trace step clock) shows
up as a diff; a change that only reorders ties leaves ``set_sha256``
and the counters as they were.

Regenerate only for an intended change of search results::

    PYTHONPATH=src python tests/test_search_identity.py > tests/golden/search_identity.txt
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from math import prod
from pathlib import Path

import numpy as np
import pytest

from repro.compiler import search as search_module
from repro.compiler.cache import ScheduleCache
from repro.compiler.mapping import HW_LEVELS
from repro.compiler.search import (
    OBJECTIVES,
    ScheduleSearch,
    ceil_tile_candidates,
)
from repro.conformance import DEFAULT_BUDGET
from repro.overlay.config import PAPER_EXAMPLE_CONFIG, OverlayConfig
from repro.workloads.layers import ConvLayer, MatMulLayer
from repro.workloads.models.mobilenet import build_mobilenet_v1
from repro.workloads.registry import build_workload

GOLDEN = Path(__file__).parent / "golden" / "search_identity.txt"

#: Beam widths of the conformance harness's budget mode.
BUDGET_BEAMS = {
    "spatial_beam": DEFAULT_BUDGET.spatial_beam,
    "temporal_beam": DEFAULT_BUDGET.temporal_beam,
}

#: (case id, network builder, layer name, top_k, beam overrides).
CASES = (
    ("AlphaGoZero/stem", lambda: build_workload("AlphaGoZero"), "stem", 5,
     {}),
    ("Transformer-base/b0.h0.score",
     lambda: build_workload("Transformer-base"), "b0.h0.score", 5, {}),
    ("Sentimental-seqLSTM/t0.l0.gates",
     lambda: build_workload("Sentimental-seqLSTM"), "t0.l0.gates", 5, {}),
    ("MobileNetV1/block1.dw", build_mobilenet_v1, "block1.dw", 5, {}),
    ("GoogLeNet/3a.b2.3x3", lambda: build_workload("GoogLeNet"),
     "3a.b2.3x3", 200, {}),
    ("Sentimental-seqLSTM/t0.l0.gates/unbeamed-T",
     lambda: build_workload("Sentimental-seqLSTM"), "t0.l0.gates", 5,
     {"temporal_beam": None}),
    ("AlphaGoZero/stem/budget", lambda: build_workload("AlphaGoZero"),
     "stem", 5, BUDGET_BEAMS),
)


def _layer(builder, name: str):
    for layer in builder().accelerated_layers():
        if layer.name == name:
            return layer
    raise KeyError(name)


def _digest(records: list[str]) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.encode())
    return digest.hexdigest()[:32]


def identity_line(
    case: str, layer, objective: str, top_k: int, beams: dict
) -> str:
    """One golden line: result digest plus the six search counters."""
    search = ScheduleSearch(
        layer, PAPER_EXAMPLE_CONFIG, objective=objective, top_k=top_k,
        **beams,
    )
    schedules = search.run()
    records = []
    for schedule in schedules:
        mapping = schedule.mapping
        trips = tuple(
            tuple(mapping.trips[level][name] for name in mapping.loop_names)
            for level in HW_LEVELS
        )
        records.append(repr((trips, dataclasses.astuple(schedule.estimate))))
    return (
        f"{case} {objective} top_k={top_k} n={len(schedules)} "
        f"sha256={_digest(records)} set_sha256={_digest(sorted(records))} "
        f"candidates={search.candidates_evaluated} steps={search.steps} "
        f"spatial={search.spatial_enumerated} "
        f"beam_dropped={search.spatial_beam_dropped} "
        f"pruned={search.pruned_by_capacity} "
        f"memo_hits={search.temporal_memo_hits}"
    )


def identity_lines() -> list[str]:
    lines = []
    for case, builder, name, top_k, beams in CASES:
        layer = _layer(builder, name)
        for objective in OBJECTIVES:
            lines.append(identity_line(case, layer, objective, top_k, beams))
    return lines


def _golden() -> dict[tuple[str, str], str]:
    return {
        tuple(line.split()[:2]): line
        for line in GOLDEN.read_text().splitlines()
    }


@pytest.mark.parametrize("case,builder,name,top_k,beams", CASES,
                         ids=[c[0] for c in CASES])
def test_search_matches_golden(case, builder, name, top_k, beams):
    golden = _golden()
    layer = _layer(builder, name)
    for objective in OBJECTIVES:
        line = identity_line(case, layer, objective, top_k, beams)
        assert line == golden[(case, objective)]


@pytest.mark.parametrize("t_tiles,price_rows",
                         [(1, 1), (300, 700), (10**12, 10**9)],
                         ids=["one-by-one", "small", "unchunked"])
def test_chunk_and_pass_sizes_do_not_change_results(
    monkeypatch, t_tiles, price_rows
):
    """Combo tables are built in chunks of remainders and candidates are
    priced in passes only to bound memory: any sizes give the golden
    lines (one-row passes price each choice on a view of the table)."""
    monkeypatch.setattr(search_module, "_TABLE_T_TILES", t_tiles)
    monkeypatch.setattr(search_module, "_PRICE_ROWS", price_rows)
    golden = _golden()
    for case, builder, name, top_k, beams in (CASES[1], CASES[6]):
        line = identity_line(
            case, _layer(builder, name), "balance", top_k, beams
        )
        assert line == golden[(case, "balance")]


#: Registry layers whose top-20 lists on a 3x2x2 grid hold exact ties,
#: for the prefix check beyond the identity cases.
PREFIX_LAYERS = (
    ("Sentimental-seqCNN", "block0.conv"),
    ("TinyAttention", "score"),
    ("Transformer-MLP", "fc1"),
    ("ResNet50", "layer1.0.conv2"),
)


def _prefix_cases():
    for case, builder, name, top_k, beams in CASES:
        # The unbeamed case prices 305 k candidates per search, eight
        # times the beamed ones; it stays out to keep this test quick.
        if "unbeamed" not in case:
            yield pytest.param(builder, name, PAPER_EXAMPLE_CONFIG, top_k,
                               beams, id=case)
    for workload, name in PREFIX_LAYERS:
        yield pytest.param(
            lambda workload=workload: build_workload(workload), name,
            OverlayConfig(3, 2, 2), 20, {}, id=f"{workload}/{name}/3x2x2",
        )


def _records(schedules) -> list:
    return [(s.mapping, s.estimate) for s in schedules]


@pytest.mark.parametrize("builder,name,config,top_k,beams", _prefix_cases())
def test_topk_is_a_prefix_of_one_ranking(builder, name, config, top_k, beams):
    """Every top-k list is the sorted prefix of one total order: a
    shorter search returns the head of a longer one, and that head is
    the schedule the cache deploys."""
    layer = _layer(builder, name)
    for objective in OBJECTIVES:
        ranked = ScheduleSearch(
            layer, config, objective=objective, top_k=top_k, **beams
        ).run()
        for j in (1, top_k // 2):
            shorter = ScheduleSearch(
                layer, config, objective=objective, top_k=j, **beams
            ).run()
            assert _records(shorter) == _records(ranked[:j]), (objective, j)
        cached = ScheduleCache(config, objective=objective, **beams)
        assert _records([cached.schedule(layer)]) == _records(ranked[:1])


# --------------------------------------------------------------------- #
# scalar references for the spatial ranking and the temporal combo tables
# --------------------------------------------------------------------- #
def reference_spatial(search: ScheduleSearch) -> tuple[list, int]:
    """Beam-ranked joint spatial tiles, ranked one Python tuple at a time.

    Returns the kept ``(D1, D2, D3)`` tile tuples and the number of joint
    choices enumerated.
    """
    names, sizes = search._loop_names, search._sizes
    per_level = []
    for level, cap in (("D1", search.config.d1), ("D2", search.config.d2),
                       ("D3", search.config.d3)):
        allowed = search._allowed_loops(level)
        lattices = [ceil_tile_candidates(sizes[names.index(n)], cap)
                    for n in allowed]
        tiles = []
        for combo in itertools.product(*lattices):
            if prod(combo) <= cap:
                assignment = dict(zip(allowed, combo))
                tiles.append(tuple(assignment.get(n, 1) for n in names))
        per_level.append(tiles)
    joint = []
    for t1, t2, t3 in itertools.product(*per_level):
        pad = 1.0
        for i, size in enumerate(sizes):
            split = t1[i] * t2[i] * t3[i]
            covered = -(-size // split) * split
            if covered > size:
                pad *= covered / size
        joint.append((-(prod(t1) * prod(t2) * prod(t3)), pad, (t1, t2, t3)))
    joint.sort(key=lambda item: item[:2])
    kept = [spatial for _, _, spatial in joint]
    if search.spatial_beam is not None:
        kept = kept[: search.spatial_beam]
    return kept, len(joint)


def reference_combos(search: ScheduleSearch, rem: tuple[int, ...]):
    """(T, L) tiles of ``rem`` by depth-first search, plus capacity prunes.

    Footprints come from the layer's own dict-based accounting.
    """
    layer, config = search.layer, search.config
    names, k = search._loop_names, search._k

    def fits(tile, with_act: bool) -> bool:
        named = dict(zip(names, tile))
        return (
            (not with_act
             or layer.act_footprint(named) <= config.actbuf_usable_words)
            and layer.out_footprint(named) <= config.psumbuf_usable_words
            and layer.weight_footprint(named) <= config.s_wbuf_words
        )

    def lattice(size: int) -> list[int]:
        return ceil_tile_candidates(size, size)[::-1]

    pruned = 0
    t_tiles = []
    active = [names.index(n) for n in search._allowed_loops("T")
              if rem[names.index(n)] > 1]

    def dfs(pos: int, current: list[int]) -> None:
        nonlocal pruned
        if pos == len(active):
            t_tiles.append(tuple(current))
            return
        i = active[pos]
        for tile in lattice(rem[i]):
            candidate = current[:i] + [tile] + current[i + 1:]
            if fits(candidate, with_act=True):
                dfs(pos + 1, candidate)
            else:
                pruned += 1

    dfs(0, [1] * k)
    beam = search.temporal_beam
    combos = []
    for t_tile in t_tiles:
        if beam is not None and len(combos) >= beam:
            break
        l_choices = [(1,) * k]
        for name in search._allowed_loops("L"):
            i = names.index(name)
            remaining = -(-rem[i] // t_tile[i])
            if remaining <= 1:
                continue
            extended = []
            for base in l_choices:
                for tile in lattice(remaining):
                    candidate = base[:i] + (tile,) + base[i + 1:]
                    combined = [a * b for a, b in zip(t_tile, candidate)]
                    if fits(combined, with_act=False):
                        extended.append(candidate)
                    else:
                        pruned += 1
            if extended:
                l_choices = extended
        for l_tile in l_choices:
            if beam is not None and len(combos) >= beam:
                break
            combos.append((t_tile, l_tile))
    return combos, pruned


def _random_layer(rng: random.Random, index: int):
    if rng.random() < 0.6:
        groups = rng.choice([1, 1, 2, 3])
        kernel = rng.choice([1, 3, 5])
        return ConvLayer(
            f"c{index}", groups * rng.randint(1, 6), groups * rng.randint(1, 8),
            in_h=rng.randint(kernel, 14), in_w=rng.randint(kernel, 14),
            kernel_h=kernel, kernel_w=rng.choice([1, kernel]),
            stride=rng.choice([1, 1, 2]), padding=kernel // 2, groups=groups,
        )
    return MatMulLayer(f"m{index}", rng.randint(1, 160), rng.randint(1, 90),
                       batch=rng.choice([1, 1, 3, 16]))


REFERENCE_CONFIGS = (
    OverlayConfig(d1=3, d2=2, d3=2, s_actbuf_words=64, s_wbuf_words=256,
                  s_psumbuf_words=512),
    OverlayConfig(d1=5, d2=3, d3=7, s_actbuf_words=96, s_wbuf_words=700,
                  s_psumbuf_words=1500, double_pump=False),
)


@pytest.mark.parametrize("seed", range(4))
def test_array_stages_match_scalar_references(seed):
    """Ranking, tile order, columns and counters equal the scalar search.

    The combo tables of every distinct remainder of a search are built
    in one call; each remainder's slice must equal its own depth-first
    enumeration.  Beams 33 and 100 cut inside the second and third
    T-tile blocks.
    """
    rng = random.Random(seed)
    for index in range(6):
        layer = _random_layer(rng, index)
        config = rng.choice(REFERENCE_CONFIGS)
        spatial_beam = rng.choice([None, 1, 9, 40])
        # With both beams open a draw can reach a million combos, too
        # many for the scalar reference.
        temporal_beam = rng.choice(
            [1, 7, 33, 100, 240] if spatial_beam is None
            else [None, 1, 7, 33, 100, 240]
        )
        search = ScheduleSearch(
            layer, config,
            spatial_beam=spatial_beam, temporal_beam=temporal_beam,
        )
        spatials = search._spatial_choices()
        kept, enumerated = reference_spatial(search)
        assert [tuple(map(tuple, s)) for s in spatials.tolist()] == kept
        assert search.spatial_enumerated == enumerated
        assert search.spatial_beam_dropped == enumerated - len(kept)

        rems = sorted({
            tuple(-(-size // prod(level[i] for level in spatial))
                  for i, size in enumerate(search._sizes))
            for spatial in kept
        })
        pruned0, steps0 = search.pruned_by_capacity, search.steps
        table = search._combo_tables(np.array(rems, dtype=np.int64))
        pruned = steps = 0
        for u, rem in enumerate(rems):
            combos, rem_pruned = reference_combos(search, rem)
            pruned += rem_pruned
            steps += len(combos)
            lo, hi = table.offsets[u], table.offsets[u + 1]
            assert list(zip(map(tuple, table.t_tile[lo:hi].tolist()),
                            map(tuple, table.l_tile[lo:hi].tolist()))) == combos
            for row, (t_tile, l_tile) in enumerate(combos, start=lo):
                lt = [t * l for t, l in zip(t_tile, l_tile)]
                x_tile = [-(-r // c) for r, c in zip(rem, lt)]
                named = dict(zip(search._loop_names, lt))
                streamed = {n: v * x for (n, v), x in
                            zip(named.items(), x_tile)}
                non_weight = prod(t for t, d in zip(t_tile, layer.loop_dims())
                                  if not d.in_weights)
                multipass = any(x > 1 for x, d in
                                zip(x_tile, layer.loop_dims()) if d.reduction)
                assert (
                    table.t[row], table.l[row], table.x[row],
                    table.psum_fp[row], table.wbuf_stream[row],
                    table.stall[row], table.round_trips[row],
                ) == (
                    prod(t_tile), prod(l_tile), prod(x_tile),
                    layer.out_footprint(named),
                    layer.weight_footprint(streamed),
                    2 if config.double_pump and non_weight < 2 else 1,
                    2 if multipass else 1,
                )
        assert table.offsets[-1] == len(table) == steps
        assert search.pruned_by_capacity - pruned0 == pruned
        assert search.steps - steps0 == steps


if __name__ == "__main__":
    print("\n".join(identity_lines()))
