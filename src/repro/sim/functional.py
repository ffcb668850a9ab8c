"""Bit-true reference (golden) implementations of the accelerated layers.

These are the oracles the cycle simulator is checked against: 16-bit
operands, exact integer products, 48-bit wrapping accumulation — the same
arithmetic a DSP48 cascade performs.  They are written for clarity and
small test shapes, not speed.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimulationError
from repro.fixedpoint import flip_int16_bit, flip_wrap48_bit, to_int16, wrap48
from repro.workloads.layers import ConvLayer, MatMulLayer


def matmul_int16(weights: np.ndarray, acts: np.ndarray) -> np.ndarray:
    """Golden MM: ``out[N, P] = W[N, M] @ act[M, P]`` with 48-bit wrap.

    Args:
        weights: int16 array of shape (N, M).
        acts: int16 array of shape (M, P).

    Returns:
        int64 array of shape (N, P) holding the wrapped accumulators.
    """
    weights = np.asarray(weights)
    acts = np.asarray(acts)
    if weights.ndim != 2 or acts.ndim != 2:
        raise SimulationError("matmul operands must be 2-D")
    if weights.shape[1] != acts.shape[0]:
        raise SimulationError(
            f"shape mismatch: W{weights.shape} @ act{acts.shape}"
        )
    out = weights.astype(np.int64) @ acts.astype(np.int64)
    return wrap48(out)


def conv2d_int16(
    weights: np.ndarray,
    acts: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Golden CONV: NCHW direct convolution with 48-bit wrap.

    Args:
        weights: int16 array of shape (M, N/groups, R, S).
        acts: int16 array of shape (N, IH, IW).
        stride: Spatial stride.
        padding: Zero padding on each side.
        groups: Channel groups (depthwise when groups == N == M).

    Returns:
        int64 array of shape (M, OH, OW).
    """
    weights = np.asarray(weights)
    acts = np.asarray(acts)
    if weights.ndim != 4 or acts.ndim != 3:
        raise SimulationError("conv expects W(M,N/g,R,S) and act(N,IH,IW)")
    if groups > 1:
        m, n_g, _, _ = weights.shape
        n_a = acts.shape[0]
        if m % groups or n_a % groups or n_g != n_a // groups:
            raise SimulationError(
                f"group mismatch: W{weights.shape}, act{acts.shape}, "
                f"groups={groups}"
            )
        m_g = m // groups
        slices = [
            conv2d_int16(
                weights[g * m_g:(g + 1) * m_g],
                acts[g * n_g:(g + 1) * n_g],
                stride=stride, padding=padding,
            )
            for g in range(groups)
        ]
        return np.concatenate(slices, axis=0)
    m, n, r, s = weights.shape
    n_a, ih, iw = acts.shape
    if n != n_a:
        raise SimulationError(f"channel mismatch: weights {n} vs acts {n_a}")
    padded = np.zeros((n, ih + 2 * padding, iw + 2 * padding), dtype=np.int64)
    padded[:, padding:padding + ih, padding:padding + iw] = acts.astype(np.int64)
    oh = (ih + 2 * padding - r) // stride + 1
    ow = (iw + 2 * padding - s) // stride + 1
    if oh < 1 or ow < 1:
        raise SimulationError("convolution output is empty")
    # (N, OH, OW, R, S) strided view over the padded input; einsum on
    # int64 accumulates exactly (mod 2^64), which the final 48-bit wrap
    # reduces to the cascade's value.
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (r, s), axis=(1, 2)
    )[:, ::stride, ::stride]
    out = np.einsum("mnrs,nhwrs->mhw", weights.astype(np.int64), windows)
    return wrap48(out)


def _operand_shapes(
    layer: ConvLayer | MatMulLayer,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(weight shape, activation shape) that ``layer`` consumes."""
    if isinstance(layer, ConvLayer):
        return (
            (layer.out_channels, layer.group_in_channels,
             layer.kernel_h, layer.kernel_w),
            (layer.in_channels, layer.in_h, layer.in_w),
        )
    if isinstance(layer, MatMulLayer):
        return (
            (layer.out_features, layer.in_features),
            (layer.in_features, layer.batch),
        )
    raise SimulationError(f"no operands for layer kind {layer.kind}")


def check_layer_operands(
    layer: ConvLayer | MatMulLayer,
    weights: np.ndarray,
    acts: np.ndarray,
) -> None:
    """Raise :class:`SimulationError` unless ``weights``/``acts`` have the
    exact shapes ``layer`` consumes."""
    expected_w, expected_a = _operand_shapes(layer)
    got_w, got_a = np.shape(weights), np.shape(acts)
    if got_w != expected_w or got_a != expected_a:
        raise SimulationError(
            f"layer {layer.name!r} expects W{expected_w}/act{expected_a}, "
            f"got W{got_w}/act{got_a}"
        )


def golden_layer_output(
    layer: ConvLayer | MatMulLayer,
    weights: np.ndarray,
    acts: np.ndarray,
) -> np.ndarray:
    """Dispatch to the golden model matching ``layer``'s kind and shape."""
    check_layer_operands(layer, weights, acts)
    weights = to_int16(weights)
    acts = to_int16(acts)
    if isinstance(layer, ConvLayer):
        return conv2d_int16(
            weights, acts, layer.stride, layer.padding, layer.groups
        )
    return matmul_int16(weights, acts)


def corrupted_layer_output(
    layer: ConvLayer | MatMulLayer,
    weights: np.ndarray,
    acts: np.ndarray,
    *,
    weight_flips: tuple[tuple[int, int], ...] = (),
    act_flips: tuple[tuple[int, int], ...] = (),
    psum_flips: tuple[tuple[int, int], ...] = (),
) -> np.ndarray:
    """Golden output under injected bit-flips — what the overlay would
    actually produce when an SDC event strikes during execution.

    Each flip is a ``(flat_index, bit)`` pair: ``weight_flips`` and
    ``act_flips`` strike the stored int16 operand words (a DRAM upset
    that slipped past ECC), ``psum_flips`` strike the wrapped 48-bit
    output accumulators (a transient SEU in a TPE's DSP cascade).  With
    no flips this is exactly :func:`golden_layer_output`.
    """
    weights = to_int16(weights)
    acts = to_int16(acts)
    for index, bit in weight_flips:
        weights = flip_int16_bit(weights, index, bit)
    for index, bit in act_flips:
        acts = flip_int16_bit(acts, index, bit)
    out = golden_layer_output(layer, weights, acts)
    for index, bit in psum_flips:
        out = flip_wrap48_bit(out, index, bit)
    return out


def random_layer_operands(
    layer: ConvLayer | MatMulLayer,
    rng: np.random.Generator,
    magnitude: int = 127,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw random int16 weights and activations shaped for ``layer``.

    ``magnitude`` bounds the operand range so small test layers stay far
    from accumulator wrap unless a test asks otherwise.
    """
    w_shape, a_shape = _operand_shapes(layer)
    weights = rng.integers(-magnitude, magnitude + 1, size=w_shape)
    acts = rng.integers(-magnitude, magnitude + 1, size=a_shape)
    return to_int16(weights), to_int16(acts)
