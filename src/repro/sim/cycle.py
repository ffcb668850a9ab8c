"""Cycle-level simulation of compiled layers on the overlay.

Plays the role of the paper's RTL simulation: runs the mapping vectors of
a :class:`repro.compiler.codegen.CompiledLayer` (not its instruction
streams) on an architectural model of the ``D1 x D2 x D3`` grid and reports

* **functional output** — bit-true (48-bit wrap, zero padding), proven
  equal to the golden NumPy model;
* **cycle count** — a double-buffered pipeline timeline per SuperBlock
  row with explicit ActBUS / PSumBUS / DRAM contention, from which the
  measured *hardware efficiency* follows;
* **DRAM trace** — the access stream handed to :mod:`repro.dram`.

The output is proven, not replayed.  The mapping's index math is a
per-loop mixed-radix bijection onto the padded extents, so checking
Eqn 11 per loop is enough to know every in-range MACC is issued exactly
once; the output is then the golden kernel's and the MACC counts are
closed-form products.  The proof does not re-derive the operand gather,
so ``run_layer(..., check_golden=True)`` also walks every MACC through
the TPE/SuperBlock datapath objects (slow, but it exercises the buffer
addressing and cascade structure directly) and raises unless the walk's
output and MACC counts equal the proof's.  The test suite runs that
check on fixed and fuzzed layers and grids (``tests/test_integration.py``,
``tests/test_fullstack_fuzz.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from repro.compiler.codegen import CompiledLayer
from repro.compiler.constraints import coverage_violations
from repro.compiler.mapping import HW_LEVELS
from repro.errors import SimulationError
from repro.overlay.buses import BusModel
from repro.overlay.config import OverlayConfig
from repro.overlay.superblock import SuperBlock
from repro.fixedpoint import to_int16, wrap48
from repro.sim.functional import check_layer_operands, golden_layer_output
from repro.sim.trace import DramTrace
from repro.workloads.layers import ConvLayer, MatMulLayer

AcceleratedLayer = ConvLayer | MatMulLayer


@dataclass
class LayerRun:
    """Result of simulating one compiled layer.

    Attributes:
        cycles: End-to-end CLK_h cycles (last drain or compute).
        useful_maccs: MACCs that contributed to in-range outputs.
        issued_maccs: MACC slots issued (includes padding waste).
        output: Accumulated output tensor in the layer's logical shape.
        trace: The DRAM access trace.
        n_tpe: TPEs of the simulated configuration.
        bus_busy: Busy cycles per bus name.
    """

    cycles: int
    useful_maccs: int
    issued_maccs: int
    output: np.ndarray
    trace: DramTrace
    n_tpe: int
    bus_busy: dict[str, int] = field(default_factory=dict)

    @property
    def hardware_efficiency(self) -> float:
        """Useful MACCs over the offered MACC slots."""
        if self.cycles <= 0:
            return 0.0
        return self.useful_maccs / (self.n_tpe * self.cycles)


class CycleSimulator:
    """Simulates compiled layers' schedules on an overlay configuration.

    Args:
        config: The overlay to simulate.
    """

    def __init__(self, config: OverlayConfig):
        self.config = config

    # ------------------------------------------------------------------ #
    # functional execution
    # ------------------------------------------------------------------ #
    def _functional_reference(
        self,
        compiled: CompiledLayer,
        weights: np.ndarray,
        acts: np.ndarray,
    ) -> tuple[np.ndarray, int, int]:
        """Route every MACC through the datapath objects: the oracle
        ``run_layer(..., check_golden=True)`` checks the proof against.

        Returns (output, useful_maccs, issued_maccs).
        """
        layer: AcceleratedLayer = compiled.schedule.layer
        mapping = compiled.schedule.mapping
        config = self.config
        weights = to_int16(weights)
        acts = to_int16(acts)
        sizes = layer.loop_sizes
        names = mapping.loop_names

        used_d1 = mapping.level_product("D1")
        used_d2 = mapping.level_product("D2")
        used_d3 = mapping.level_product("D3")
        x_total, l_total, t_total = mapping.x, mapping.l, mapping.t

        blocks = {
            (d3, d2): SuperBlock(
                used_d1,
                config.s_wbuf_words,
                config.s_actbuf_words,
                config.s_psumbuf_words,
                double_buffer=config.double_buffer,
            )
            for d3 in range(used_d3)
            for d2 in range(used_d2)
        }

        output = np.zeros(layer.out_shape(), dtype=np.int64)
        useful = 0
        issued = 0

        def value_at(idx: dict[str, int]) -> tuple[int, int, bool]:
            """(weight, activation, in_range) for one workload index."""
            if any(idx[n] >= sizes[n] for n in names):
                return 0, 0, False
            w = int(weights[layer.weight_coord(idx)])
            a_coord = layer.act_coord(idx)
            a = int(acts[a_coord]) if layer.act_in_range(a_coord) else 0
            return w, a, True

        for x in range(x_total):
            # Fresh accumulation tile per LoopX pass; per-block address map.
            psum_addr: dict[tuple, dict[tuple, int]] = {key: {} for key in blocks}
            for block in blocks.values():
                block.clear_psums()

            for (d3, d2), block in blocks.items():
                addr_map = psum_addr[(d3, d2)]
                for l in range(l_total):
                    # Build the (x, l) tile: each TPE's buffer slices and
                    # the T cascade steps addressing them.
                    w_slices: list[dict[tuple, int]] = [{} for _ in range(used_d1)]
                    a_slices: list[dict[tuple, int]] = [{} for _ in range(used_d1)]
                    w_values: list[dict[int, int]] = [{} for _ in range(used_d1)]
                    a_values: list[dict[int, int]] = [{} for _ in range(used_d1)]
                    steps = []
                    for t in range(t_total):
                        w_addrs, a_addrs = [], []
                        out_key = None
                        in_range_count = 0
                        for d1 in range(used_d1):
                            idx = dict(zip(
                                names,
                                mapping.workload_indices(d3, d2, d1, x, l, t),
                            ))
                            w, a, in_range = value_at(idx)
                            w_addr = w_slices[d1].setdefault(
                                layer.weight_coord(idx), len(w_slices[d1])
                            )
                            a_addr = a_slices[d1].setdefault(
                                layer.act_coord(idx), len(a_slices[d1])
                            )
                            if in_range:
                                # Padded iterations must not clobber real
                                # buffer contents: a padded (H, R) pair can
                                # alias a real input row through the affine
                                # h*stride + r address map.  A padded step's
                                # contribution is already zero — padded
                                # reduction indices hit a distinct zero
                                # weight word, and padded output indices
                                # discard the whole cascade step.
                                w_values[d1][w_addr] = w
                                a_values[d1][a_addr] = a
                            w_addrs.append(w_addr)
                            a_addrs.append(a_addr)
                            if in_range:
                                in_range_count += 1
                                if out_key is None:
                                    out_key = layer.out_coord(idx)
                        steps.append((w_addrs, a_addrs, out_key, in_range_count))

                    # Load the slices through the TPE objects.
                    for d1, tpe in enumerate(block.tpes):
                        w_vals = np.zeros(max(1, len(w_slices[d1])), dtype=np.int16)
                        a_vals = np.zeros(max(1, len(a_slices[d1])), dtype=np.int16)
                        for addr, value in w_values[d1].items():
                            w_vals[addr] = value
                        for addr, value in a_values[d1].items():
                            a_vals[addr] = value
                        tpe.load_weights(0, w_vals)
                        tpe.load_activations(a_vals)
                        tpe.swap_actbuf()

                    for w_addrs, a_addrs, out_key, in_range_count in steps:
                        issued += used_d1
                        useful += in_range_count
                        result = block.cascade_macc(w_addrs, a_addrs)
                        if out_key is not None:
                            addr = addr_map.setdefault(out_key, len(addr_map))
                            block.accumulate_psum(addr, result)

            # Drain every block's tile into the host-side output (the
            # PSumBUS path; cross-row reduction lands here as EWOP adds).
            for key, block in blocks.items():
                addr_map = psum_addr[key]
                if not addr_map:
                    continue
                drained = block.read_psums(len(addr_map))
                for out_key, addr in addr_map.items():
                    output[out_key] = wrap48(
                        int(output[out_key]) + int(drained[addr])
                    )

        return output, useful, issued

    def _functional_vectorized(
        self,
        compiled: CompiledLayer,
        weights: np.ndarray,
        acts: np.ndarray,
    ) -> tuple[np.ndarray, int, int]:
        """Prove the mapping covers the layer, then return the golden output.

        Each loop's workload index is a mixed-radix number over the six
        levels' trips (Eqn 1), so once the mapping names exactly the
        layer's loops, the hardware iteration space maps bijectively onto
        ``[0, loop_product(name))`` per loop.  The one condition that can
        then fail is Eqn 11 — every padded extent must reach its loop's
        size.  When both hold, each in-range MACC is issued exactly once
        and padded iterations contribute nothing, so the cascade's wrap-48
        output equals the golden kernel's.

        Returns (output, useful_maccs, issued_maccs).

        Raises:
            SimulationError: naming the mismatched loops or every loop the
                mapping under-covers (a compiler bug; there is no fallback).
        """
        layer: AcceleratedLayer = compiled.schedule.layer
        mapping = compiled.schedule.mapping
        violations = coverage_violations(layer, mapping)
        if violations:
            raise SimulationError(
                f"layer {layer.name!r}: " + "; ".join(violations)
            )
        useful = prod(layer.loop_sizes.values())
        issued = prod(mapping.level_product(level) for level in HW_LEVELS)
        return golden_layer_output(layer, weights, acts), useful, issued

    # ------------------------------------------------------------------ #
    # timing
    # ------------------------------------------------------------------ #
    def _timeline(
        self, compiled: CompiledLayer
    ) -> tuple[int, DramTrace, dict[str, int]]:
        """Double-buffered pipeline timeline with bus contention.

        Per row, tiles run back to back; each tile's activation load
        overlaps the previous tile's computation when double-buffering is
        on, and serializes otherwise.  Partial sums drain at every LoopX
        boundary over the column PSumBUS and the shared DRAM write port.
        """
        schedule = compiled.schedule
        mapping = schedule.mapping
        estimate = schedule.estimate
        config = self.config
        layer = schedule.layer

        used_d2 = mapping.level_product("D2")
        used_d3 = mapping.level_product("D3")
        x_total, l_total, t_total = mapping.x, mapping.l, mapping.t
        compute_cycles = t_total * (2 if estimate.weight_stalled else 1)

        trace = DramTrace()
        dram_rd = BusModel("dram_rd", config.dram_rd_words_per_cycle())
        dram_wr = BusModel("dram_wr", config.dram_wr_words_per_cycle())
        actbuses = [
            BusModel(f"actbus.row{r}", config.actbus_wpc)
            for r in range(used_d3)
        ]
        psumbuses = [
            BusModel(f"psumbus.col{c}", config.psumbus_words_per_cycle)
            for c in range(used_d2)
        ]

        # Weight streaming for the whole layer, issued at cycle 0.  With
        # double-buffering the stream hides under the surrounding network
        # execution (layer-granularity prefetch); without it, the first
        # compute waits for it.
        if config.weights_resident:
            stream_words = 0  # preloaded at initialization (§III-A1)
        else:
            stream_words = mapping.used_tpes() * layer.weight_footprint(
                mapping.tile(("X", "L", "T"))
            )
        weights_done = dram_rd.transfer(0, stream_words)
        trace.record(0, "RD", stream_words, "weight")

        act_words_row = layer.act_footprint(mapping.tile(("T", "D1")))
        act_words_dram = layer.act_footprint(mapping.tile(("T", "D1", "D3")))
        dram_share = -(-act_words_dram // used_d3)
        psum_words = estimate.psumbuf_words

        reduction_names = {d.name for d in layer.loop_dims() if d.reduction}
        multipass = any(mapping.trips["X"][n] > 1 for n in reduction_names)

        compute_start = [0] * used_d3
        compute_end = [0] * used_d3
        if not config.double_buffer:
            compute_end = [weights_done] * used_d3
        last_drain_end = 0
        first_tile = True

        for _x in range(x_total):
            for _l in range(l_total):
                for r in range(used_d3):
                    if config.double_buffer:
                        # Load overlaps the previous compute: it may begin
                        # once the previous tile's shadow half freed up.
                        load_issue = compute_start[r]
                    else:
                        load_issue = compute_end[r]
                    # DRAM and the row bus stream cut-through: the tile is
                    # ready when the slower of the two finishes.
                    rd_end = dram_rd.transfer(load_issue, dram_share)
                    trace.record(load_issue, "RD", dram_share, "act")
                    bus_end = actbuses[r].transfer(load_issue, act_words_row)
                    load_end = max(rd_end, bus_end)
                    start = max(compute_end[r], load_end)
                    if first_tile and not config.double_buffer:
                        start = max(start, weights_done)
                    compute_start[r] = start
                    compute_end[r] = start + compute_cycles
                first_tile = False

            # LoopX boundary: drain (and refetch when accumulating across
            # passes) every column's tile.
            round_trips = 2 if multipass else 1
            pass_end = max(compute_end)
            for c in range(used_d2):
                bus_end = psumbuses[c].transfer(
                    pass_end, psum_words * used_d3 * round_trips
                )
                wr_end = dram_wr.transfer(bus_end, psum_words * used_d3)
                trace.record(bus_end, "WR", psum_words * used_d3, "psum")
                if multipass:
                    rf_end = dram_rd.transfer(bus_end, psum_words * used_d3)
                    trace.record(bus_end, "RD", psum_words * used_d3, "psum")
                    wr_end = max(wr_end, rf_end)
                last_drain_end = max(last_drain_end, wr_end)
            if not config.double_buffer:
                compute_end = [max(e, last_drain_end) for e in compute_end]

        pipeline_fill = x_total * config.pipeline_latency
        finish = max(max(compute_end) + pipeline_fill, last_drain_end)
        busy = {
            bus.name: bus.busy_cycles
            for bus in (dram_rd, dram_wr, *actbuses, *psumbuses)
        }
        return int(finish), trace, busy

    # ------------------------------------------------------------------ #
    def run_layer(
        self,
        compiled: CompiledLayer,
        weights: np.ndarray,
        acts: np.ndarray,
        check_golden: bool = False,
    ) -> LayerRun:
        """Simulate ``compiled`` end to end.

        Always proves the mapping's coverage and returns the golden
        kernel's output with the closed-form MACC counts.  With
        ``check_golden`` it also walks every MACC through the datapath
        objects and compares the walk with the proof; the golden kernel
        still runs once.

        Raises:
            SimulationError: if the operands are mis-shaped for the
                layer, the mapping under-covers a loop, the useful-MACC
                count does not equal the layer's MACC count, or (with
                ``check_golden``) the datapath walk's output, useful or
                issued MACC count differs from the proof's.
        """
        layer = compiled.schedule.layer
        check_layer_operands(layer, weights, acts)
        output, useful, issued = self._functional_vectorized(
            compiled, weights, acts
        )
        cycles, trace, busy = self._timeline(compiled)

        if check_golden:
            walked, walked_useful, walked_issued = self._functional_reference(
                compiled, weights, acts
            )
            if not np.array_equal(walked, output):
                mismatches = int(np.count_nonzero(walked != output))
                raise SimulationError(
                    f"layer {layer.name!r}: simulated output disagrees with "
                    f"golden model at {mismatches} positions"
                )
            if (walked_useful, walked_issued) != (useful, issued):
                raise SimulationError(
                    f"layer {layer.name!r}: datapath walk issued "
                    f"{walked_issued} MACCs ({walked_useful} useful), "
                    f"coverage proof {issued} ({useful} useful)"
                )
        if useful != layer.maccs:
            raise SimulationError(
                f"layer {layer.name!r}: simulated {useful} useful MACCs, "
                f"expected {layer.maccs}"
            )

        return LayerRun(
            cycles=cycles,
            useful_maccs=useful,
            issued_maccs=issued,
            output=output,
            trace=trace,
            n_tpe=self.config.n_tpe,
            bus_busy=busy,
        )
