"""Full-stack workload conformance: every registered network, every layer.

One function — :func:`run_workload_conformance` — pushes a registered
workload through the whole stack and reports what held:

1. **Search**: every accelerated layer schedules on the target overlay
   (one shared :class:`~repro.compiler.cache.ScheduleCache`, beam widths
   from the budget).
2. **Simulation**: sampled layers run on the cycle simulator, which
   proves the mapping's Eqn-11 coverage and returns the golden kernel's
   output.  The smallest layers run with ``check_golden``, so the
   per-MACC datapath walk must also reproduce that output and the MACC
   counts bit-for-bit; any simulator error (including a useful-MACC
   count that does not conserve) is reported.  Measured cycles must
   agree with the schedule model within the established tolerance.
3. **Serving**: one batch is served end to end by
   :class:`~repro.serving.engine.ServingEngine` on one replica.
4. **Faults**: a TPE mask shrinks the grid and the network recompiles on
   the largest healthy sub-grid.
5. **Integrity**: ABFT checksums detect an injected weight flip and
   correct an injected partial-sum flip on a GEMM layer.
6. **Host layers**: eltwise/softmax/norm kernels re-execute
   deterministically.
7. **Precision**: workloads with a mixed-precision spec additionally
   evaluate int8/bf16 error and compression.

The harness is budgeted, not exhaustive: beams are narrowed and sim
layers sampled so the whole registry fits in a test run.  Anything
skipped is visible in the report (``simmed`` counts, caps in the
:class:`ConformanceBudget`), not silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compiler.cache import ScheduleCache, layer_signature
from repro.compiler.codegen import compile_schedule
from repro.errors import FTDLError
from repro.faults.mask import FaultMask, largest_healthy_subgrid
from repro.integrity.abft import abft_layer_output
from repro.overlay.config import OverlayConfig
from repro.analysis.quantization import mixed_precision_report
from repro.serving.batcher import BatchPolicy, BatchServiceModel
from repro.serving.engine import ServingEngine
from repro.serving.request import make_requests
from repro.serving.scheduler import ReplicaService
from repro.sim.cycle import CycleSimulator
from repro.sim.functional import random_layer_operands
from repro.sim.host import HostCpu
from repro.sim.pipeline import NetworkSimulator
from repro.workloads.layers import ConvLayer, LayerKind, MatMulLayer
from repro.workloads.registry import WorkloadSpec

#: Default conformance overlay: small enough that the datapath walk and
#: per-layer search stay affordable across the whole registry.
CONFORMANCE_CONFIG = OverlayConfig(d1=3, d2=2, d3=2)


@dataclass(frozen=True)
class ConformanceBudget:
    """Caps bounding one workload's conformance run.

    The beams trade schedule quality for compile time; the sim caps
    bound how many layers are simulated, and how many (and how large)
    also run the per-MACC datapath walk.  A simulation without the walk
    costs one golden-kernel call per layer, so it has no size cap.
    """

    spatial_beam: int = 16
    temporal_beam: int = 24
    #: Max distinct-signature layers simulated.
    max_sim_layers: int = 3
    #: Max layers also checked by the per-MACC datapath walk.
    max_reference_layers: int = 2
    #: Largest layer (in MACCs) the datapath walk takes on.
    max_reference_maccs: int = 60_000
    #: Requests in the serve-one-batch stage.
    batch_size: int = 2
    #: Host layers re-executed for determinism.
    max_host_layers: int = 3


#: The default harness budget.
DEFAULT_BUDGET = ConformanceBudget()


@dataclass(frozen=True)
class LayerSimCheck:
    """One sampled layer's simulation outcome."""

    name: str
    signature: str
    maccs: int
    model_cycles: int
    measured_cycles: int
    #: Which Eqn-12 term binds in the analytical estimate.
    bottleneck: str
    #: Whether the per-MACC datapath walk checked this layer.
    reference_checked: bool

    @property
    def rel_cycle_error(self) -> float:
        if not self.model_cycles:
            return 0.0
        return abs(self.measured_cycles - self.model_cycles) / self.model_cycles

    @property
    def cycles_agree(self) -> bool:
        """Model-vs-measured tolerance, derived from the integration
        tests' band (30 % plus a ±128-cycle head/tail allowance).

        Compute-bound layers get 35 % relative on top of that band: the
        steady-state Eqn-12 model amortizes per-temporal-tile pipeline
        fill/drain, which the simulator charges in full — batch-1 skinny
        GEMMs (GoogLeNet/ResNet ``fc``) measure up to ~33 % over the
        model on small grids.  Bandwidth-bound layers get 50 % relative,
        since the model only approximates bus and DRAM contention.
        """
        if self.bottleneck != "compute":
            return self.rel_cycle_error <= 0.5
        lo = self.model_cycles * 0.7 - 128
        hi = self.model_cycles * 1.3 + 128
        return self.rel_cycle_error <= 0.35 or lo <= self.measured_cycles <= hi


@dataclass
class WorkloadReport:
    """Everything one workload's conformance run established."""

    name: str
    suite: str
    network_name: str
    n_layers: int
    n_accelerated: int
    n_host: int
    maccs: int
    distinct_signatures: int
    #: Σ scheduled cycles across accelerated layers (model, batch 1).
    model_cycles: int
    sim_checks: tuple[LayerSimCheck, ...] = ()
    serve_batch: int = 0
    serve_s: float = 0.0
    degraded_grid: tuple[int, int, int] = (0, 0, 0)
    degraded_cycles: int = 0
    abft_layer: str = ""
    abft_psum_corrected: bool = False
    abft_weight_detected: bool = False
    host_checked: int = 0
    #: Whether the whole network chained bit-true through the sequential
    #: pipeline simulator (only for ``sequential`` workloads).
    chained: bool = False
    chain_cycles: int = 0
    precision_model_bytes: int = 0
    precision_int16_bytes: int = 0
    precision_min_sqnr_db: float = float("inf")
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def max_rel_cycle_error(self) -> float:
        return max((c.rel_cycle_error for c in self.sim_checks), default=0.0)

    @property
    def precision_compression(self) -> float:
        if not self.precision_model_bytes:
            return 0.0
        return self.precision_int16_bytes / self.precision_model_bytes


def _signature_str(layer) -> str:
    return "x".join(str(v) for v in layer_signature(layer)[1:])


def _distinct_accelerated(network) -> list:
    """One representative layer per schedule signature, smallest first."""
    by_sig: dict[tuple, object] = {}
    for layer in network.accelerated_layers():
        by_sig.setdefault(layer_signature(layer), layer)
    return sorted(by_sig.values(), key=lambda l: (l.maccs, l.name))


def _check_layer_sim(
    layer, cache: ScheduleCache, config: OverlayConfig,
    rng: np.random.Generator, run_reference: bool,
) -> LayerSimCheck:
    schedule = cache.schedule(layer)
    compiled = compile_schedule(schedule)
    weights, acts = random_layer_operands(layer, rng)
    run = CycleSimulator(config).run_layer(
        compiled, weights, acts, check_golden=run_reference,
    )
    return LayerSimCheck(
        name=layer.name,
        signature=_signature_str(layer),
        maccs=layer.maccs,
        model_cycles=schedule.cycles,
        measured_cycles=run.cycles,
        bottleneck=schedule.estimate.bottleneck,
        reference_checked=run_reference,
    )


def _check_host_layers(network, budget: ConformanceBudget,
                       rng: np.random.Generator) -> int:
    """Re-execute new-kind host layers twice; count the ones that are
    deterministic (identical reruns) — raises through errors otherwise."""
    checked = 0
    cpu = HostCpu()
    for layer in network.host_layers():
        if layer.kind == LayerKind.EWOP:
            continue
        if checked >= budget.max_host_layers:
            break
        shape = (layer.n_features, layer.batch)
        x = rng.integers(-32768, 32768, size=shape).astype(np.int16)
        skip = None
        if layer.kind == LayerKind.ELTWISE:
            skip = rng.integers(-32768, 32768, size=shape).astype(np.int16)
        first = cpu.execute(layer, x, skip=skip)
        again = cpu.execute(layer, x, skip=skip)
        if not np.array_equal(first, again):
            raise FTDLError(
                f"host layer {layer.name!r} is not deterministic"
            )
        if first.shape != shape:
            raise FTDLError(
                f"host layer {layer.name!r} returned shape {first.shape}, "
                f"expected {shape}"
            )
        checked += 1
    return checked


def _check_abft(network, rng: np.random.Generator) -> tuple[str, bool, bool]:
    """Inject one psum flip (expect correction) and one weight flip
    (expect detection) on the smallest suitable GEMM layer."""
    candidates = [
        layer for layer in network.accelerated_layers()
        if isinstance(layer, MatMulLayer) and layer.maccs <= 4_000_000
    ]
    if not candidates:
        candidates = [
            layer for layer in network.accelerated_layers()
            if layer.maccs <= 250_000
        ]
    if not candidates:
        return "", False, False
    layer = min(candidates, key=lambda l: (l.maccs, l.name))
    weights, acts = random_layer_operands(layer, rng)
    psum = abft_layer_output(layer, weights, acts, psum_flips=((0, 30),))
    flip_word = int(rng.integers(0, weights.size))
    weight = abft_layer_output(
        layer, weights, acts, weight_flips=((flip_word, 7),)
    )
    return (
        layer.name,
        bool(psum.detected and psum.corrected),
        bool(weight.detected),
    )


def run_workload_conformance(
    spec: WorkloadSpec,
    config: OverlayConfig = CONFORMANCE_CONFIG,
    budget: ConformanceBudget = DEFAULT_BUDGET,
    seed: int = 0,
) -> WorkloadReport:
    """Run one registered workload through the full stack."""
    network = spec.builder()
    rng = np.random.default_rng(seed)
    cache = ScheduleCache(
        config, objective="performance",
        spatial_beam=budget.spatial_beam,
        temporal_beam=budget.temporal_beam,
    )
    distinct = _distinct_accelerated(network)
    report = WorkloadReport(
        name=spec.name,
        suite=spec.suite,
        network_name=network.name,
        n_layers=len(network.layers),
        n_accelerated=len(network.accelerated_layers()),
        n_host=len(network.host_layers()),
        maccs=network.accelerated_maccs,
        distinct_signatures=len(distinct),
        model_cycles=0,
    )

    # 1. Search: every accelerated layer schedules.
    try:
        report.model_cycles = sum(
            cache.schedule(layer).cycles
            for layer in network.accelerated_layers()
        )
    except FTDLError as error:
        report.errors.append(f"search: {error}")
        return report

    # 2. Simulation on sampled distinct signatures, smallest first.
    checks = []
    reference_runs = 0
    for layer in distinct:
        if len(checks) >= budget.max_sim_layers:
            break
        run_reference = (
            reference_runs < budget.max_reference_layers
            and layer.maccs <= budget.max_reference_maccs
        )
        try:
            check = _check_layer_sim(layer, cache, config, rng, run_reference)
        except FTDLError as error:
            report.errors.append(f"sim {layer.name!r}: {error}")
            continue
        reference_runs += int(run_reference)
        checks.append(check)
        if not check.cycles_agree:
            report.errors.append(
                f"sim {layer.name!r}: model vs measured cycles disagree"
            )
    report.sim_checks = tuple(checks)

    # 2b. Sequential workloads chain end to end through the bit-true
    # pipeline simulator (coverage-proven per layer, host layers and
    # weight-source matmuls included).
    if spec.sequential:
        try:
            sim = NetworkSimulator(config)
            weights = {}
            for layer in network.accelerated_layers():
                if getattr(layer, "weight_source", None) is not None:
                    continue
                w, _ = random_layer_operands(layer, rng)
                weights[layer.name] = w
            first = network.layers[0]
            if isinstance(first, ConvLayer):
                in_shape = (first.in_channels, first.in_h, first.in_w)
            elif isinstance(first, MatMulLayer):
                in_shape = (first.in_features, first.batch)
            else:
                in_shape = (first.n_features, first.batch)
            inputs = rng.integers(-127, 128, size=in_shape).astype(np.int16)
            chain = sim.run(network, inputs, weights)
            report.chained = True
            report.chain_cycles = chain.pipelined_cycles
            if len(chain.stages) != len(network.layers):
                report.errors.append("chain: not every layer executed")
        except FTDLError as error:
            report.errors.append(f"chain: {error}")

    # 3. Serve one batch end to end: every request arrives at t = 0 and
    #    max_batch is the batch size, so the batch launches at once.
    try:
        engine = ServingEngine(
            ReplicaService(BatchServiceModel(network, config, cache=cache)),
            batch_policy=BatchPolicy(max_batch=budget.batch_size),
        )
        served = engine.run(
            make_requests([0.0] * budget.batch_size, spec.name)
        )
        report.serve_batch = min(
            (r.batch_size for r in served.completed), default=0
        )
        report.serve_s = served.makespan_s
        if served.n_completed != budget.batch_size:
            report.errors.append("serve: not every request completed")
        if served.makespan_s <= 0.0:
            report.errors.append("serve: non-positive completion time")
    except FTDLError as error:
        report.errors.append(f"serve: {error}")

    # 4. Fault-masked recompile on the largest healthy sub-grid.
    try:
        mask = FaultMask.from_coords([(0, 0, 0)])
        degraded_config = largest_healthy_subgrid(config, mask)
        report.degraded_grid = degraded_config.grid
        degraded_cache = ScheduleCache(
            degraded_config, objective="performance",
            spatial_beam=budget.spatial_beam,
            temporal_beam=budget.temporal_beam,
        )
        probe = distinct[: max(1, budget.max_sim_layers)]
        report.degraded_cycles = sum(
            degraded_cache.schedule(layer).cycles for layer in probe
        )
        healthy = sum(cache.schedule(layer).cycles for layer in probe)
        if report.degraded_cycles < healthy:
            report.errors.append(
                "faults: degraded grid is faster than healthy grid"
            )
    except FTDLError as error:
        report.errors.append(f"faults: {error}")

    # 5. ABFT detect/correct on a GEMM layer.
    try:
        name, psum_ok, weight_ok = _check_abft(network, rng)
        report.abft_layer = name
        report.abft_psum_corrected = psum_ok
        report.abft_weight_detected = weight_ok
        if name and not (psum_ok and weight_ok):
            report.errors.append("abft: flip not detected/corrected")
    except FTDLError as error:
        report.errors.append(f"abft: {error}")

    # 6. Host-layer determinism.
    try:
        report.host_checked = _check_host_layers(network, budget, rng)
    except FTDLError as error:
        report.errors.append(f"host: {error}")

    # 7. Mixed precision, when the workload declares a spec.
    if spec.precision is not None:
        try:
            mp = mixed_precision_report(network, spec.precision(network), rng)
            report.precision_model_bytes = mp.model_bytes
            report.precision_int16_bytes = mp.int16_bytes
            report.precision_min_sqnr_db = mp.min_sqnr_db
            if mp.min_sqnr_db < 20.0:
                report.errors.append(
                    f"precision: min SQNR {mp.min_sqnr_db:.1f} dB below floor"
                )
        except FTDLError as error:
            report.errors.append(f"precision: {error}")

    return report


def conformance_summary(reports: list[WorkloadReport]) -> str:
    """Deterministic fixed-width table over a set of reports.

    Every quantity is either an integer or derived from integers, so the
    rendered text is byte-stable across platforms — CI diffs it against
    a golden file.
    """
    lines = [
        f"{'workload':22s} {'suite':12s} {'lyr':>4s} {'acc':>4s} "
        f"{'host':>4s} {'sig':>4s} {'Mmacc':>7s} {'cycles':>10s} "
        f"{'sim':>4s} {'err%':>6s} {'grid':>6s} {'abft':>5s} {'chn':>4s} "
        f"{'mp':>5s} {'ok':>3s}"
    ]
    for r in reports:
        abft = (
            ("C" if r.abft_psum_corrected else "-")
            + ("D" if r.abft_weight_detected else "-")
        ) if r.abft_layer else "--"
        mp = f"{r.precision_compression:.1f}x" if r.precision_model_bytes else "-"
        grid = "x".join(str(v) for v in r.degraded_grid)
        lines.append(
            f"{r.name:22s} {r.suite:12s} {r.n_layers:4d} "
            f"{r.n_accelerated:4d} {r.n_host:4d} {r.distinct_signatures:4d} "
            f"{r.maccs / 1e6:7.2f} {r.model_cycles:10d} "
            f"{len(r.sim_checks):4d} {100 * r.max_rel_cycle_error:6.1f} "
            f"{grid:>6s} {abft:>5s} {'yes' if r.chained else '-':>4s} "
            f"{mp:>5s} {'yes' if r.ok else 'NO':>3s}"
        )
        for error in r.errors:
            lines.append(f"  ! {error}")
    return "\n".join(lines)
