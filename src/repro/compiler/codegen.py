"""Instruction generation: lower schedules to controller instructions.

One :class:`CompiledLayer` carries the per-row instruction streams the
paper's compiler "dumps for all Controllers": a weight-load prologue and
the COMPUTE instruction encoding the X/L/T loop nest and buffer tiles.
The encoded bytes round-trip through :mod:`repro.overlay.isa` so the
InstBUS format is exercised; the cycle simulator does not execute them,
it reads only ``CompiledLayer.schedule`` (the layer and mapping vectors).

:func:`compile_network` lowers a whole network against a
:class:`repro.compiler.residency.ResidencyPlan`: resident layers get
non-overlapping per-TPE WBUF base addresses (packed at initialization,
no run-time LOAD_WEIGHT), streamed layers reload a shared scratch region
at WBUF address 0 per execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.search import Schedule
from repro.errors import IsaError, ScheduleError
from repro.overlay.isa import (
    FLAG_DOUBLE_BUFFER,
    FLAG_EWOP_ACCUMULATE,
    FLAG_LAST,
    Instruction,
    OpKind,
    encode_instruction,
)


@dataclass(frozen=True)
class CompiledLayer:
    """Instruction streams for one scheduled layer.

    Attributes:
        schedule: The schedule this code implements.
        row_programs: One instruction list per SuperBlock row (D3 rows;
            the SIMD columns of a row share the stream).
    """

    schedule: Schedule
    row_programs: tuple[tuple[Instruction, ...], ...]

    @property
    def n_rows(self) -> int:
        return len(self.row_programs)

    def encoded(self) -> list[bytes]:
        """The byte stream sent over each row's InstBUS, concatenated."""
        return [
            b"".join(encode_instruction(inst) for inst in program)
            for program in self.row_programs
        ]


def compile_schedule(schedule: Schedule, wbuf_base: int = 0,
                     load_weights: bool = True) -> CompiledLayer:
    """Lower ``schedule`` to per-row controller instructions.

    Raises:
        IsaError: if a trip count or tile overflows its instruction field
            (the encoding supports the full hardware range; overflow means
            the schedule itself is out of spec).
    """
    mapping = schedule.mapping
    estimate = schedule.estimate
    config = schedule.config

    flags = 0
    if config.double_buffer:
        flags |= FLAG_DOUBLE_BUFFER
    if estimate.ewop_accumulate:
        flags |= FLAG_EWOP_ACCUMULATE

    compute = Instruction(
        op=OpKind.COMPUTE,
        x=mapping.x,
        l=mapping.l,
        t=mapping.t,
        act_tile_words=estimate.actbuf_words,
        psum_tile_words=estimate.psumbuf_words,
        wbuf_base=wbuf_base,
        psum_base=0,
        flags=flags | FLAG_LAST,
    )
    instructions: tuple[Instruction, ...]
    if load_weights:
        load = Instruction(
            op=OpKind.LOAD_WEIGHT,
            x=1,
            l=1,
            t=max(1, estimate.wbuf_words),
            act_tile_words=0,
            psum_tile_words=0,
            wbuf_base=wbuf_base,
            psum_base=0,
            flags=flags,
        )
        instructions = (load, compute)
    else:
        instructions = (compute,)
    for inst in instructions:
        inst.validate()

    used_d3 = mapping.level_product("D3")
    row_programs = tuple(instructions for _ in range(used_d3))
    return CompiledLayer(schedule=schedule, row_programs=row_programs)


@dataclass(frozen=True)
class NetworkProgram:
    """A whole network lowered against a WBUF residency plan.

    Attributes:
        layers: Per accelerated layer, its :class:`CompiledLayer` (resident
            layers carry no LOAD_WEIGHT — their weights preload at
            initialization; streamed layers reload the scratch region).
        wbuf_bases: Per-TPE WBUF base address of each *resident* layer.
        scratch_base: Start of the streaming scratch region (above every
            resident allocation).
        spilled: Names the residency plan marked resident but that did not
            fit the per-TPE packing and were demoted to streaming.
    """

    layers: tuple[CompiledLayer, ...]
    wbuf_bases: dict[str, int] = field(default_factory=dict)
    scratch_base: int = 0
    spilled: tuple[str, ...] = ()

    @property
    def n_instructions(self) -> int:
        return sum(
            len(program)
            for layer in self.layers
            for program in layer.row_programs
        )


def compile_network(plan) -> NetworkProgram:
    """Lower every layer of a :class:`ResidencyPlan` into one program.

    Resident layers get packed, non-overlapping per-TPE WBUF allocations;
    layers whose per-TPE slice no longer fits (the plan packs aggregate
    words, the WBUF is a per-TPE memory) are demoted to streaming through
    the shared scratch region above the resident allocations.

    Raises:
        ScheduleError: if even an empty residency set cannot host some
            streamed layer's pass slice (cannot happen for schedules that
            passed the WBUF constraint, but checked for safety).
    """
    config = plan.config
    base = 0
    wbuf_bases: dict[str, int] = {}
    spilled: list[str] = []
    group_bases: dict[str, int] = {}

    # First pass: allocate per-TPE space for resident layers.
    for entry in plan.layers:
        if not entry.resident:
            continue
        layer = entry.schedule.layer
        group = getattr(layer, "weight_group", None)
        if group and group in group_bases:
            wbuf_bases[entry.name] = group_bases[group]
            continue
        per_tpe = entry.schedule.estimate.wbuf_words
        if base + per_tpe > config.s_wbuf_words:
            spilled.append(entry.name)
            continue
        wbuf_bases[entry.name] = base
        if group:
            group_bases[group] = base
        base += per_tpe

    scratch_base = base
    compiled = []
    for entry in plan.layers:
        resident = entry.name in wbuf_bases
        if resident:
            layer_base = wbuf_bases[entry.name]
        else:
            layer_base = scratch_base
            per_tpe = entry.schedule.estimate.wbuf_words
            if layer_base + per_tpe > config.s_wbuf_words:
                # Fall back to the whole WBUF as scratch: legal because a
                # streamed layer's pass slice passed the WBUF constraint.
                layer_base = 0
                if per_tpe > config.s_wbuf_words:
                    raise ScheduleError(
                        f"layer {entry.name!r} pass slice {per_tpe} exceeds "
                        f"the WBUF ({config.s_wbuf_words} words)"
                    )
        compiled.append(
            compile_schedule(
                entry.schedule,
                wbuf_base=layer_base,
                load_weights=not resident,
            )
        )
    return NetworkProgram(
        layers=tuple(compiled),
        wbuf_bases=wbuf_bases,
        scratch_base=scratch_base,
        spilled=tuple(spilled),
    )
