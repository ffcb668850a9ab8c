"""Architectural model of the FTDL overlay (paper §III).

The overlay is a ``D1 x D2 x D3`` grid: ``D1`` TPEs chained by the DSP
cascade form a SuperBlock; ``D2`` SuperBlock columns share a row's control
and activation broadcast (SIMD); ``D3`` independent SuperBlock rows share a
column-wise partial-sum bus.
"""

from repro.overlay.config import OverlayConfig, PAPER_EXAMPLE_CONFIG
from repro.overlay.isa import Instruction, OpKind, encode_instruction, decode_instruction
from repro.overlay.resources import ResourceReport, resource_report
from repro.overlay.tpe import TPE
from repro.overlay.superblock import SuperBlock
from repro.overlay.buses import BusModel

__all__ = [
    "OverlayConfig",
    "PAPER_EXAMPLE_CONFIG",
    "Instruction",
    "OpKind",
    "encode_instruction",
    "decode_instruction",
    "ResourceReport",
    "resource_report",
    "TPE",
    "SuperBlock",
    "BusModel",
]
