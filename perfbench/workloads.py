"""The benchmark's four workloads: compile, simulate, serve and cluster.

Each workload loads one layer of the program for one long timed region
and reaches it only through public functions.  A workload function
builds its inputs from the seed (set-up), calls
:meth:`Probe.start_timing`, repeats the timed region until a fixed
amount of host time has gone into it, checks the outputs, and returns
a :class:`Result`.

README.md in this directory says why each workload exists and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from probe import Probe
from repro.cluster import (
    AutoscalePolicy,
    ClusterEngine,
    FleetService,
    TenantPolicy,
    build_fleet,
)
from repro.cluster.events import (
    CorrelatedDramFault,
    NetworkHeal,
    NetworkPartition,
    RackPowerLoss,
    RackPowerRestore,
)
from repro.compiler.cache import ScheduleCache, layer_signature
from repro.compiler.codegen import compile_schedule
from repro.compiler.constraints import check_constraints
from repro.compiler.model import evaluate_mapping
from repro.compiler.persist import PersistentScheduleStore
from repro.conformance import CONFORMANCE_CONFIG, DEFAULT_BUDGET
from repro.faults import FaultSchedule
from repro.overlay.config import PAPER_EXAMPLE_CONFIG, OverlayConfig
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    BatchServiceModel,
    ReplicaService,
    RetryPolicy,
    ServingEngine,
    make_requests,
    poisson_arrivals,
)
from repro.serving.engine import (
    DROP_DEADLINE,
    DROP_NO_REPLICA,
    DROP_RETRY_EXHAUSTED,
    DROP_SDC,
)
from repro.sim.cycle import CycleSimulator
from repro.sim.functional import golden_layer_output, random_layer_operands
from repro.sim.pipeline import NetworkSimulator
from repro.tools.cluster import assign_tenants
from repro.trace.metrics import MetricsRegistry
from repro.workloads.layers import ConvLayer, MatMulLayer
from repro.workloads.models import build_smallcnn
from repro.workloads.registry import WORKLOADS as REGISTRY

#: The conformance harness's budget beams: set-up compiles of the
#: simulate, serve and cluster workloads use them so that set-up stays
#: short and the timed region does almost all of the work.
BUDGET_BEAMS = {
    "spatial_beam": DEFAULT_BUDGET.spatial_beam,
    "temporal_beam": DEFAULT_BUDGET.temporal_beam,
}

#: Largest batch the serving workloads form.
MAX_BATCH = 8

#: Warm starts after the compile workload's cold compile.
WARM_STARTS = 200

#: Host seconds each sample spends repeating its timed region.
TIMED_BUDGET_S = 6.0


@dataclass
class Result:
    """What one sample of one workload measured.

    Attributes:
        calls: Each timed call → its host seconds in each repeat, at
            the reference host speed.  The run's ``run_s`` is the sum
            over calls of the median repeat.
        warm_starts: Host seconds of each warm start: a fresh
            :class:`ScheduleCache` over the workload's filled store
            returning every schedule the workload compiled.
        schedule_cycles: Σ modelled cycles of the chosen schedules.
        exact: Per-layer counts and virtual-clock values; they repeat
            exactly for a seed.
        timed: Per-layer host times from the spans of a traced run
            (empty when untraced).
    """

    calls: dict[str, list[float]]
    warm_starts: list[float]
    schedule_cycles: int
    exact: dict[str, float] = field(default_factory=dict)
    timed: dict[str, float] = field(default_factory=dict)


def _build(probe: Probe, name: str):
    """Build one network fresh (no memo), timed as ``workloads.build``."""
    builder = build_smallcnn if name == "SmallCNN" else REGISTRY[name].builder
    network, _, _ = probe.call("workloads.build", builder, network=name)
    return network


def _distinct(network) -> list:
    """First layer of each distinct shape, in network order."""
    seen: set[tuple] = set()
    out = []
    for layer in network.accelerated_layers():
        signature = layer_signature(layer)
        if signature not in seen:
            seen.add(signature)
            out.append(layer)
    return out


def _schedule_timed(probe: Probe, cache: ScheduleCache, network: str,
                    layer):
    """``cache.schedule(layer)``, with the span tagged when it searched."""
    searches = cache.misses - cache.persistent_hits
    schedule, seconds, span = probe.timed_call(
        "compiler.schedule", cache.schedule, layer,
        network=network, layer=layer.name, repeat=0,
    )
    if span is not None:
        span.args["search"] = cache.misses - cache.persistent_hits > searches
    return schedule, seconds


def _store_cache(config: OverlayConfig, store_root: Path,
                 registry: MetricsRegistry | None = None,
                 beams: dict | None = None) -> ScheduleCache:
    return ScheduleCache(
        config, store=PersistentScheduleStore(store_root),
        metrics=registry, **(beams or {}),
    )


def _search_counts(registry: MetricsRegistry) -> dict[str, float]:
    """The ``search_*`` counters the compiler mirrors into ``registry``."""
    names = {
        "compiler.search.steps": "search_steps",
        "compiler.search.candidates": "search_candidates_evaluated",
        "compiler.search.spatial_enumerated": "search_spatial_choices",
        "compiler.search.beam_dropped": "search_spatial_beam_dropped",
        "compiler.search.pruned_by_capacity": "search_pruned_by_capacity",
        "compiler.search.memo_hits": "search_temporal_memo_hits",
    }
    return {
        metric: float(sum(registry.counter(counter).series().values()))
        for metric, counter in names.items()
    }


def _warm_starts(
    probe: Probe,
    count: int,
    fill: Callable[[ScheduleCache], dict[str, object]],
    new_cache: Callable[[], ScheduleCache],
    starts: list[float],
) -> tuple[dict[str, object], ScheduleCache]:
    """Time ``count`` warm starts over the filled store into ``starts``.

    ``fill`` takes a fresh cache and returns every schedule the
    workload compiled, keyed by network; each network's part is timed
    as its own child span.  Returns the last start's schedules and
    cache.
    """
    def start():
        cache = new_cache()
        return cache, fill(cache)

    probe.start_timing()
    for _ in range(count):
        (cache, schedules), seconds, _ = probe.timed_call(
            "compiler.warm_start", start,
        )
        starts.append(seconds)
    probe.check(cache.stats().compiles == 0, "a warm start searched")
    probe.check(cache.stats().persistent_corrupt == 0,
                "corrupt schedule-store entries")
    return schedules, cache


def _persist_counts(cache: ScheduleCache) -> dict[str, float]:
    stats = cache.stats()
    return {
        "compiler.persist.hits": stats.persistent_hits,
        "compiler.persist.corrupt": stats.persistent_corrupt,
    }


def _warm_times(probe: Probe, networks) -> dict[str, float]:
    """Median warm-start share of each network, in ms."""
    out = {}
    for name in networks:
        out[f"compiler.persist.warm_ms.{name}"] = 1e3 * statistics.median(
            self_s for span, self_s in probe.self_times()
            if span.name == "compiler.persist.warm"
            and span.args.get("network") == name
        )
    return out


def _timed_repeats(probe: Probe, budget_s: float, min_repeats: int,
                   run_once: Callable[[int], object],
                   after: Callable[[], object]) -> int:
    """Repeat the timed region and ``after`` until ``budget_s`` passed.

    ``run_once(repeat)`` runs one repeat; ``after`` runs the warm starts
    that follow each repeat.  Returns the number of repeats.
    """
    start, repeat = probe.now(), 0
    while repeat < min_repeats or probe.now() - start < budget_s:
        probe.start_timing()
        with probe.phase("timed", repeat=repeat):
            run_once(repeat)
        after()
        repeat += 1
    return repeat


def _per_repeat(probe: Probe, repeats: int, name: str, **match) -> float:
    """Median over the repeats of the Σ self time of the matching spans."""
    return statistics.median(
        probe.span_seconds(name, repeat=r, **match) for r in range(repeats)
    )


def _mean_us(probe: Probe, name: str) -> float:
    values = [s for span, s in probe.self_times() if span.name == name]
    return sum(values) / len(values) * 1e6


def _common_times(probe: Probe, exact: dict[str, float],
                  search_s: float) -> dict[str, float]:
    candidates = exact["compiler.search.candidates"]
    return {
        "workloads.build_s": probe.span_seconds("workloads.build"),
        "compiler.search.s": search_s,
        "compiler.search.candidates_per_s":
            candidates / search_s if search_s > 0 else 0.0,
    }


# ---------------------------------------------------------------------- #
# compile
# ---------------------------------------------------------------------- #
COMPILE_NETWORKS = ("AlphaGoZero", "Transformer-base", "Sentimental-seqLSTM")


def compile_workload(seed: int, probe: Probe, work: Path,
                     small: bool = False) -> Result:
    """Cold then warm compile of three networks on the paper's grid.

    The cold compile cannot repeat inside a process (its second pass
    would be warm), so each sample times it once.  The inputs are the
    three networks themselves; the seed does not change them.
    """
    config = PAPER_EXAMPLE_CONFIG
    order = ("Sentimental-seqLSTM",) if small else COMPILE_NETWORKS
    beams = BUDGET_BEAMS if small else {}
    store_root = work / "store"

    with probe.phase("setup"):
        networks = {name: _build(probe, name) for name in order}

    registry = MetricsRegistry()
    cold: dict[tuple[str, str], object] = {}
    calls: dict[str, list[float]] = {}
    probe.start_timing()
    with probe.phase("timed"):
        cache = _store_cache(config, store_root, registry, beams)
        for name in order:
            for layer in networks[name].accelerated_layers():
                schedule, seconds = _schedule_timed(probe, cache, name, layer)
                cold[(name, layer.name)] = schedule
                calls[f"{name}/{layer.name}"] = [seconds]

    with probe.phase("check"):
        for name in order:
            for layer in _distinct(networks[name]):
                schedule = cold[(name, layer.name)]
                violations, _, _ = probe.call(
                    "compiler.constraints", check_constraints,
                    layer, config, schedule.mapping,
                )
                probe.check(not violations,
                            f"{name}.{layer.name}: {violations}")
                estimate, _, _ = probe.call(
                    "compiler.model", evaluate_mapping,
                    layer, config, schedule.mapping,
                )
                probe.check(estimate == schedule.estimate,
                            f"{name}.{layer.name}: re-priced estimate differs")

    def fill(warm_cache: ScheduleCache) -> dict[str, object]:
        return {
            name: probe.call(
                "compiler.persist.warm",
                lambda net=networks[name]: [
                    warm_cache.schedule(l) for l in net.accelerated_layers()
                ],
                network=name,
            )[0]
            for name in order
        }

    stats = cache.stats()
    # A warm start is what a fresh process pays: drop the cold cache
    # (and its temporal memo) so the warm starts run on a small heap.
    del cache
    starts: list[float] = []
    with probe.phase("warm"):
        warm, warm_cache = _warm_starts(
            probe, 3 if small else WARM_STARTS, fill,
            lambda: _store_cache(config, store_root, beams=beams), starts,
        )
    for name in order:
        for layer, schedule in zip(networks[name].accelerated_layers(),
                                   warm[name]):
            expected = cold[(name, layer.name)]
            probe.check(
                schedule.mapping == expected.mapping
                and schedule.estimate == expected.estimate,
                f"{name}.{layer.name}: warm schedule differs from cold",
            )

    exact = {
        **_search_counts(registry),
        "compiler.cache.hits": stats.hits,
        "compiler.cache.misses": stats.misses,
        **_persist_counts(warm_cache),
    }
    timed = {}
    if probe.tracer is not None:
        timed = {
            **_common_times(
                probe, exact,
                probe.span_seconds("compiler.schedule", search=True),
            ),
            "compiler.model.price_us": _mean_us(probe, "compiler.model"),
            "compiler.constraints.check_us":
                _mean_us(probe, "compiler.constraints"),
            **_warm_times(probe, order),
        }
        for name in order:
            for layer in _distinct(networks[name]):
                timed[f"compiler.search.s.{name}.{layer.name}"] = (
                    probe.span_seconds(
                        "compiler.schedule", network=name,
                        layer=layer.name, search=True,
                    )
                )
    return Result(
        calls=calls,
        warm_starts=starts,
        schedule_cycles=sum(s.cycles for s in cold.values()),
        exact=exact,
        timed=timed,
    )


# ---------------------------------------------------------------------- #
# simulate
# ---------------------------------------------------------------------- #
SIM_LAYER_NETWORKS = ("Sentimental-seqCNN", "SmallCNN")
SIM_CHAINS = ("Transformer-MLP", "TinyAttention")


def _chain_input(network, rng: np.random.Generator) -> np.ndarray:
    first = network.layers[0]
    if isinstance(first, ConvLayer):
        shape = (first.in_channels, first.in_h, first.in_w)
    elif isinstance(first, MatMulLayer):
        shape = (first.in_features, first.batch)
    else:
        shape = (first.n_features, first.batch)
    return rng.integers(-127, 128, size=shape).astype(np.int16)


def simulate_workload(seed: int, probe: Probe, work: Path,
                      small: bool = False) -> Result:
    """Bit-true simulation of every distinct layer, plus two chains."""
    config = CONFORMANCE_CONFIG
    layer_nets = ("SmallCNN",) if small else SIM_LAYER_NETWORKS
    chain_nets = ("TinyAttention",) if small else SIM_CHAINS
    store_root = work / "store"
    rng = np.random.default_rng(seed)
    registry = MetricsRegistry()

    with probe.phase("setup"):
        networks = {name: _build(probe, name)
                    for name in (*layer_nets, *chain_nets)}
        layers = [(name, layer) for name in layer_nets
                  for layer in _distinct(networks[name])]
        operands = [random_layer_operands(layer, rng) for _, layer in layers]
        cache = _store_cache(config, store_root, registry, BUDGET_BEAMS)
        schedules = [_schedule_timed(probe, cache, name, layer)[0]
                     for name, layer in layers]
        chains = []
        for name in chain_nets:
            network = networks[name]
            weights = {
                layer.name: random_layer_operands(layer, rng)[0]
                for layer in network.accelerated_layers()
                if getattr(layer, "weight_source", None) is None
            }
            inputs = _chain_input(network, rng)
            simulator = NetworkSimulator(config)
            # The first run compiles the chain; the timed runs reuse it.
            probe.call("sim.pipeline.warmup", simulator.run,
                       network, inputs, weights, network=name)
            chains.append((name, network, simulator, inputs, weights))
        simulator = CycleSimulator(config)

    def fill(warm_cache: ScheduleCache) -> dict[str, object]:
        return {
            name: probe.call(
                "compiler.persist.warm",
                lambda name=name: [
                    warm_cache.schedule(layer)
                    for net, layer in layers if net == name
                ],
                network=name,
            )[0]
            for name in layer_nets
        }

    calls: dict[str, list[float]] = {}
    starts: list[float] = []
    passes: list[dict[str, float]] = []

    def run_once(r: int) -> None:
        """One pass over every layer and chain."""
        exact: dict[str, float] = {}
        useful = issued = sim_cycles = abs_err = instructions = 0
        for (name, layer), schedule, (weights, acts) in zip(
            layers, schedules, operands
        ):
            key = f"{name}.{layer.name}"
            compiled, t_code, _ = probe.timed_call(
                "compiler.codegen", compile_schedule, schedule,
                layer=key, repeat=r,
            )
            run, t_sim, _ = probe.timed_call(
                "sim.cycle", simulator.run_layer, compiled, weights,
                acts, False, layer=key, repeat=r,
            )
            golden, t_gold, _ = probe.timed_call(
                "sim.functional.golden", golden_layer_output,
                layer, weights, acts, layer=key, repeat=r,
            )
            for part, seconds in (("codegen", t_code), ("sim", t_sim),
                                  ("golden", t_gold)):
                calls.setdefault(f"{part}:{key}", []).append(seconds)
            probe.check(np.array_equal(run.output, golden),
                        f"{key}: output differs from the golden kernel")
            probe.check(run.useful_maccs == layer.maccs,
                        f"{key}: useful MACCs not conserved")
            useful += run.useful_maccs
            issued += run.issued_maccs
            sim_cycles += run.cycles
            abs_err += abs(run.cycles - schedule.cycles)
            instructions += sum(len(p) for p in compiled.row_programs)
            exact[f"sim.cycle.cycles.{key}"] = run.cycles
            exact[f"sim.model_err.{key}"] = (
                abs(run.cycles - schedule.cycles) / schedule.cycles
            )
        overlay_cycles = host_cycles = 0
        for name, network, chain_sim, inputs, weights in chains:
            pipeline, seconds, _ = probe.timed_call(
                "sim.pipeline", chain_sim.run, network, inputs, weights,
                network=name, repeat=r,
            )
            calls.setdefault(f"chain:{name}", []).append(seconds)
            probe.check(len(pipeline.stages) == len(network.layers),
                        f"{name}: not every layer ran")
            overlay_cycles += pipeline.overlay_cycles
            host_cycles += pipeline.host_cycles
        model_cycles = sum(s.cycles for s in schedules)
        exact.update({
            "compiler.codegen.instructions": instructions,
            "sim.cycle.useful_maccs": useful,
            "sim.cycle.issued_maccs": issued,
            "sim.pipeline.overlay_cycles": overlay_cycles,
            "sim.pipeline.host_cycles": host_cycles,
            "sim_cycles": sim_cycles + overlay_cycles,
            "model_sim_err": abs_err / model_cycles,
        })
        passes.append(exact)

    warm: list[ScheduleCache] = []

    def warm_starts() -> None:
        with probe.phase("warm"):
            warm[:] = [_warm_starts(
                probe, 2 if small else 30, fill,
                lambda: _store_cache(config, store_root, beams=BUDGET_BEAMS),
                starts,
            )[1]]

    repeats = _timed_repeats(
        probe, 0.0 if small else 3 * TIMED_BUDGET_S, 2, run_once,
        warm_starts,
    )
    warm_cache = warm[0]
    probe.check(all(p == passes[0] for p in passes),
                "repeated simulations disagree")

    stats = cache.stats()
    exact = {
        **passes[0],
        **_search_counts(registry),
        "compiler.cache.hits": stats.hits,
        "compiler.cache.misses": stats.misses,
        **_persist_counts(warm_cache),
    }
    timed = {}
    if probe.tracer is not None:
        t_sim = _per_repeat(probe, repeats, "sim.cycle")
        t_gold = _per_repeat(probe, repeats, "sim.functional.golden")
        t_chain = _per_repeat(probe, repeats, "sim.pipeline")
        chain_maccs = sum(networks[n].accelerated_maccs for n in chain_nets)
        useful = exact["sim.cycle.useful_maccs"]
        timed = {
            **_common_times(
                probe, exact,
                probe.span_seconds("compiler.schedule", search=True),
            ),
            "compiler.codegen.s":
                _per_repeat(probe, repeats, "compiler.codegen"),
            "sim.cycle.maccs_per_s": useful / t_sim,
            "sim.functional.golden_s": t_gold,
            "sim_maccs_per_s": (useful + chain_maccs)
            / (t_sim + t_gold + t_chain),
            **_warm_times(probe, layer_nets),
        }
        for name, layer in layers:
            key = f"{name}.{layer.name}"
            timed[f"sim.cycle.s.{key}"] = _per_repeat(
                probe, repeats, "sim.cycle", layer=key,
            )
        for name in chain_nets:
            timed[f"sim.pipeline.s.{name}"] = _per_repeat(
                probe, repeats, "sim.pipeline", network=name,
            )
    return Result(
        calls=calls,
        warm_starts=starts,
        schedule_cycles=sum(s.cycles for s in schedules),
        exact=exact,
        timed=timed,
    )


# ---------------------------------------------------------------------- #
# serve and cluster
# ---------------------------------------------------------------------- #
def _cost_table(model: BatchServiceModel) -> list:
    return [model.cost(batch) for batch in range(1, MAX_BATCH + 1)]


def _serving_outputs(report, n_offered: int, probe: Probe,
                     label: str) -> dict[str, float]:
    """Conservation check plus the virtual-clock serving outputs."""
    probe.check(
        n_offered == report.n_completed + report.n_rejected
        + report.n_dropped,
        f"{label}: offered != completed + rejected + dropped",
    )
    probe.check(report.n_completed >= 1000,
                f"{label}: too few completions for a p99")
    late = sum(1 for lat in report.latencies_s if lat > report.slo_s)
    return {
        "p50_ms": report.p50_s * 1e3,
        "p99_ms": report.p99_s * 1e3,
        "latency_samples": report.n_completed,
        "availability": report.n_completed / n_offered,
        "slo_goodput": (report.n_completed - late) / n_offered,
    }


def _serve_repeats(
    probe: Probe,
    small: bool,
    name: str,
    run_once: Callable[[int], tuple[float, dict[str, float]]],
    network,
    config: OverlayConfig,
    store_root: Path,
) -> tuple[int, list[float], list[float], dict[str, float], ScheduleCache,
           list]:
    """Repeat the engine run, with warm starts after each repeat.

    ``run_once(repeat)`` serves fresh request objects and returns the
    run's host seconds and exact outputs, which must agree across
    repeats.  Returns the repeat count, the engine and warm-start
    times, the outputs, and the last warm start's cache and cost table.
    """
    def fill(warm_cache: ScheduleCache) -> dict[str, object]:
        model = BatchServiceModel(network, config, cache=warm_cache)
        return {name: probe.call("compiler.persist.warm", _cost_table,
                                 model, network=name)[0]}

    times: list[float] = []
    starts: list[float] = []
    outputs = []
    warm: list = []

    def timed(r: int) -> None:
        seconds, exact = run_once(r)
        times.append(seconds)
        outputs.append(exact)

    def warm_starts() -> None:
        with probe.phase("warm"):
            schedules, cache = _warm_starts(
                probe, 2 if small else 3, fill,
                lambda: _store_cache(config, store_root, beams=BUDGET_BEAMS),
                starts,
            )
            warm[:] = [cache, schedules[name]]

    repeats = _timed_repeats(probe, 0.0 if small else TIMED_BUDGET_S, 2,
                             timed, warm_starts)
    probe.check(all(o == outputs[0] for o in outputs),
                f"{name}: repeated runs disagree")
    return repeats, times, starts, outputs[0], warm[0], warm[1]


def serve_workload(seed: int, probe: Probe, work: Path,
                   small: bool = False) -> Result:
    """A 4-replica ServingEngine driven past saturation."""
    config = PAPER_EXAMPLE_CONFIG
    name = "Sentimental-seqLSTM"
    n_requests = 1_500 if small else 5_000
    replicas = 4
    store_root = work / "store"
    registry = MetricsRegistry()

    with probe.phase("setup"):
        network = _build(probe, name)
        cache = _store_cache(config, store_root, registry, BUDGET_BEAMS)
        model = BatchServiceModel(network, config, cache=cache)
        costs, _, _ = probe.call("serving.batcher.cost", _cost_table, model)
        full_s = costs[-1].service_s
        rate = 1.3 * replicas * max(c.batch_size / c.service_s for c in costs)
        arrivals = poisson_arrivals(rate, n_requests, seed=seed)

        def requests(times: list[float]) -> list:
            return make_requests(times, network.name, deadline_s=12 * full_s)

        def engine() -> ServingEngine:
            return ServingEngine(
                ReplicaService(model, n_replicas=replicas),
                batch_policy=BatchPolicy(max_batch=MAX_BATCH,
                                         max_wait_s=costs[0].service_s),
                admission_policy=AdmissionPolicy(capacity=1024),
                slo_s=10 * full_s,
            )

        # A short warm-up run on its own arrivals exercises the loop.
        probe.call(
            "serving.engine.warmup", engine().run,
            requests(poisson_arrivals(rate, n_requests // 10, seed=seed + 1)),
        )

    def run_once(r: int) -> tuple[float, dict[str, float]]:
        offered = requests(arrivals)
        report, seconds, _ = probe.timed_call(
            "serving.engine", engine().run, offered, repeat=r,
        )
        batches = {(q.replica, q.dispatch_s) for q in report.completed}
        drops = report.drop_reasons
        return seconds, {
            **_serving_outputs(report, len(offered), probe, name),
            "serving.batcher.batches": len(batches),
            "serving.batcher.mean_batch": report.mean_batch_size,
            "serving.batcher.degraded_dispatches":
                report.degraded_dispatches,
            "serving.batcher.queue_depth_mean": report.queue_depth_time_avg,
            "serving.batcher.queue_depth_max": report.queue_depth_max,
            "serving.admission.rejected": report.n_rejected,
            **{
                f"serving.engine.drops.{reason}": drops.get(reason, 0)
                for reason in (DROP_DEADLINE, DROP_RETRY_EXHAUSTED,
                               DROP_NO_REPLICA, DROP_SDC)
            },
        }

    repeats, times, starts, outputs, warm_cache, warm = _serve_repeats(
        probe, small, name, run_once, network, config, store_root,
    )
    probe.check(warm == costs, "warm cost table differs from cold")
    stats = cache.stats()
    exact = {
        **outputs,
        **_search_counts(registry),
        "compiler.cache.hits": stats.hits,
        "compiler.cache.misses": stats.misses,
        **_persist_counts(warm_cache),
    }
    timed = {}
    if probe.tracer is not None:
        engine_s = _per_repeat(probe, repeats, "serving.engine")
        timed = {
            **_common_times(probe, exact, 0.0),
            "serving.batcher.cost_s":
                probe.span_seconds("serving.batcher.cost"),
            "serving.engine.s": engine_s,
            "serving.engine.us_per_request": engine_s / n_requests * 1e6,
            "req_per_s": n_requests / engine_s,
            **_warm_times(probe, (name,)),
        }
    return Result(
        calls={"engine": times},
        warm_starts=starts,
        schedule_cycles=sum(c.compute_cycles for c in costs),
        exact=exact,
        timed=timed,
    )


TENANTS = {"alpha": 2.0, "beta": 1.0}


def _fleet_faults(rng: np.random.Generator, racks: tuple[str, ...],
                  start_s: float, duration_s: float) -> FaultSchedule:
    """A fixed number of outages of fixed length at seeded instants.

    Every rack loses power twice, one rack is partitioned twice, and
    eight correlated DRAM upsets strike; only when and where they land
    depends on the seed.  Poisson-drawn outage counts and repair times
    would make the host cost of a run depend on the seed.
    """
    windows = 2 * len(racks)
    window = duration_s / windows
    order = [racks[i] for i in rng.permutation(len(racks))]
    events = []
    for k in range(windows):
        rack = order[k % len(racks)]
        at = start_s + (k + rng.uniform(0.05, 0.35)) * window
        events.append(RackPowerLoss(at_s=at, replica=rack))
        events.append(RackPowerRestore(at_s=at + 0.6 * window, replica=rack))
    for k in (1, windows - 2):
        rack = order[int(rng.integers(len(racks)))]
        at = start_s + (k + rng.uniform(0.5, 0.8)) * window
        events.append(NetworkPartition(at_s=at, replica=rack))
        events.append(NetworkHeal(at_s=at + 0.15 * window, replica=rack))
    for k in range(8):
        at = start_s + (k + rng.uniform(0.1, 0.9)) * duration_s / 8
        events.append(CorrelatedDramFault(
            at_s=at, replica=order[k % len(racks)], n_flips=4,
            correctable=bool(k % 2), seed=int(rng.integers(2 ** 31)),
        ))
    return FaultSchedule.from_events(events)


def cluster_workload(seed: int, probe: Probe, work: Path,
                     small: bool = False) -> Result:
    """A 4x4 fleet under rack outages, partitions and DRAM upsets."""
    config = CONFORMANCE_CONFIG
    name = "SmallCNN"
    n_requests = 2_000 if small else 5_000
    store_root = work / "store"
    registry = MetricsRegistry()
    rng = np.random.default_rng(seed)

    with probe.phase("setup"):
        network = _build(probe, name)
        topology = build_fleet(4, 4)
        cache = _store_cache(config, store_root, registry, BUDGET_BEAMS)
        model = BatchServiceModel(network, config, cache=cache)
        costs, _, _ = probe.call("serving.batcher.cost", _cost_table, model)
        one_s, full_s = costs[0].service_s, costs[-1].service_s
        rate = 0.85 * topology.n_boards * max(
            c.batch_size / c.service_s for c in costs
        )
        arrivals = poisson_arrivals(rate, n_requests, seed=seed)

        def requests(times: list[float]) -> list:
            offered = make_requests(times, network.name,
                                    deadline_s=6 * full_s)
            assign_tenants(offered, TENANTS)
            return offered

        faults, _, _ = probe.call(
            "faults.schedule", _fleet_faults, rng, topology.rack_names,
            arrivals[0], arrivals[-1] - arrivals[0],
        )

        def engine(schedule: FaultSchedule) -> ClusterEngine:
            return ClusterEngine(
                FleetService(model, topology),
                batch_policy=BatchPolicy(max_batch=MAX_BATCH,
                                         max_wait_s=one_s / 2),
                admission_policy=AdmissionPolicy(capacity=1024),
                slo_s=5 * full_s,
                fault_schedule=schedule,
                retry_policy=RetryPolicy(max_attempts=4),
                integrity_policy="detect-correct",
                tenant_policy=TenantPolicy(weights=TENANTS),
                autoscale_policy=AutoscalePolicy(interval_s=20 * one_s,
                                                 min_active=4),
                hedge_retries=True,
            )

        probe.call(
            "cluster.engine.warmup", engine(FaultSchedule(events=())).run,
            requests(poisson_arrivals(rate, n_requests // 10, seed=seed + 1)),
        )

    def run_once(r: int) -> tuple[float, dict[str, float]]:
        offered = requests(arrivals)
        report, seconds, _ = probe.timed_call(
            "cluster.engine", engine(faults).run, offered, repeat=r,
        )
        core = report.core
        probe.check(report.conserved, "a tenant's ledger is not conserved")
        probe.check(
            sum(t.n_offered for t in report.per_tenant.values())
            == len(offered),
            "tenant ledgers do not cover every request",
        )
        integrity = core.integrity_counts
        exact = {
            **_serving_outputs(core, len(offered), probe, name),
            "cluster.router.hedged_dispatches": report.hedged_dispatches,
            "cluster.router.drains": report.drains,
            "cluster.router.readmits": report.readmits,
            "cluster.autoscale.ticks": report.autoscale_ticks,
            "cluster.autoscale.scale_ups": report.scale_ups,
            "cluster.autoscale.scale_downs": report.scale_downs,
            "faults.events": len(faults),
            "faults.retries": core.n_retries,
            "faults.mttr_ms": core.health.mttr_s * 1e3,
            "integrity.sdc_detected": integrity.get("sdc_detected", 0),
            "integrity.corrected": integrity.get("corrected", 0),
            "integrity.reexecuted": integrity.get("reexecuted", 0),
        }
        for tenant in TENANTS:
            stats = report.per_tenant[tenant]
            exact[f"cluster.tenancy.completed.{tenant}"] = stats.n_completed
            exact[f"cluster.tenancy.rejected.{tenant}"] = stats.n_rejected
            exact[f"cluster.tenancy.dropped.{tenant}"] = stats.n_dropped
        return seconds, exact

    repeats, times, starts, outputs, warm_cache, warm = _serve_repeats(
        probe, small, name, run_once, network, config, store_root,
    )
    probe.check(warm == costs, "warm cost table differs from cold")
    stats = cache.stats()
    exact = {
        **outputs,
        **_search_counts(registry),
        "compiler.cache.hits": stats.hits,
        "compiler.cache.misses": stats.misses,
        **_persist_counts(warm_cache),
    }
    timed = {}
    if probe.tracer is not None:
        engine_s = _per_repeat(probe, repeats, "cluster.engine")
        timed = {
            **_common_times(probe, exact, 0.0),
            "faults.schedule_s": probe.span_seconds("faults.schedule"),
            "cluster.engine.s": engine_s,
            "cluster.engine.us_per_request": engine_s / n_requests * 1e6,
            "req_per_s": n_requests / engine_s,
            **_warm_times(probe, (name,)),
        }
    return Result(
        calls={"engine": times},
        warm_starts=starts,
        schedule_cycles=sum(c.compute_cycles for c in costs),
        exact=exact,
        timed=timed,
    )


WORKLOADS: dict[str, Callable[..., Result]] = {
    "compile": compile_workload,
    "simulate": simulate_workload,
    "serve": serve_workload,
    "cluster": cluster_workload,
}
