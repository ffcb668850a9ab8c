"""Simulation substrate: bit-true functional models and the cycle simulator.

This subpackage replaces the paper's Synopsys VCS RTL simulation.  The
functional layer (:mod:`repro.sim.functional`, :mod:`repro.fixedpoint`)
gives bit-true 16-bit reference results; the cycle layer
(:mod:`repro.sim.cycle`) runs compiled schedules (mapping vectors, not
instruction streams) on the overlay model and counts useful versus idle
MACC cycles — the quantity behind the paper's *hardware efficiency* numbers.
"""

from repro.fixedpoint import to_int16, wrap48, quantize_symmetric
from repro.sim.functional import conv2d_int16, matmul_int16, golden_layer_output
from repro.sim.cycle import CycleSimulator, LayerRun
from repro.sim.trace import DramTrace, TraceEvent
from repro.sim.host import HostCpu, requantize, choose_shift
from repro.sim.pipeline import NetworkSimulator, PipelineRun

__all__ = [
    "to_int16",
    "wrap48",
    "quantize_symmetric",
    "conv2d_int16",
    "matmul_int16",
    "golden_layer_output",
    "CycleSimulator",
    "LayerRun",
    "DramTrace",
    "TraceEvent",
    "HostCpu",
    "requantize",
    "choose_shift",
    "NetworkSimulator",
    "PipelineRun",
]
