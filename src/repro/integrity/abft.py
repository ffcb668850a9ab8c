"""ABFT-protected golden kernels: checksum GEMM under wrap48.

Algorithm-based fault tolerance (Huang & Abraham) fits the FTDL overlay
exactly because every accelerated layer is a tiled GEMM: augment the
weight matrix with one checksum row (column sums) and the activation
matrix with one checksum column (row sums), run the *same* int16 MACC /
48-bit-wrap datapath over the encoded operands, and every output
inherits two independent parities.  Because ``wrap48`` is congruence
mod 2**48 and the checksum identities are linear, they hold **exactly**
under the overlay's wrapping arithmetic — there is no floating-point
tolerance to tune, a syndrome is either zero or a real corruption.

Encode-then-corrupt ordering defines the threat model: checksums are
computed from the clean operands (the host encodes weights at deploy
time and activations before the DRAM round-trip), then faults strike
the stored words or the accumulators.  The syndrome algebra then
separates the three corruption classes:

==================  =======================  ==========================
corruption          syndrome signature       recovery
==================  =======================  ==========================
psum (one element)  one row + one col, with  correct in place
                    equal deltas             (delta is the syndrome)
weight word         columns fire, rows       detect; re-execute
                    silent                   (whole row corrupted)
activation word     rows fire, columns       detect; re-execute
                    silent                   (whole column corrupted)
==================  =======================  ==========================

Only the unambiguous single-element signature is ever corrected; every
other non-clean signature is reported uncorrectable so an operand
corruption that happens to collapse onto few syndromes (e.g. a weight
flip whose row of activations is mostly zero) can never be
mis-corrected.  CONV layers reduce to the same machinery through an
exact im2col per channel group, so the data region matches
:func:`repro.sim.functional.conv2d_int16` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import IntegrityError, SimulationError
from repro.fixedpoint import flip_int16_bit, flip_wrap48_bit, to_int16, wrap48
from repro.sim.functional import check_layer_operands
from repro.workloads.layers import ConvLayer, MatMulLayer

#: ``(flat_index, bit)`` pairs, matching repro.sim.functional's injection.
FlipSpec = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class AbftResult:
    """Outcome of one ABFT-protected layer execution.

    Attributes:
        output: Data output (checksums stripped), in the layer's output
            shape, *after* any in-place correction.
        detected: At least one checksum syndrome was non-zero.
        corrected: Every non-zero syndrome was localized to a single
            output element and repaired; the output equals the
            fault-free golden result.
        n_row_syndromes / n_col_syndromes: Non-zero row/column syndrome
            counts summed over channel groups — the signature the
            corruption class is read from.
        corrected_at: Output coordinates repaired, in the layer's
            output indexing (``(n, p)`` for MM, ``(m, oh, ow)`` for
            CONV).
        data_maccs: MACCs spent on the data region (the unprotected
            kernel's work).
        checksum_maccs: Extra MACCs spent computing checksum rows,
            columns, and cross-checks — the measured ABFT overhead that
            must agree with the compiler model's checksum-work term.
    """

    output: np.ndarray
    detected: bool
    corrected: bool
    n_row_syndromes: int
    n_col_syndromes: int
    corrected_at: tuple[tuple[int, ...], ...]
    data_maccs: int
    checksum_maccs: int

    @property
    def clean(self) -> bool:
        return not self.detected

    @property
    def overhead_fraction(self) -> float:
        """Measured checksum work as a fraction of the data work."""
        return self.checksum_maccs / self.data_maccs

    def output_or_raise(self) -> np.ndarray:
        """The verified output, or :class:`IntegrityError` when the
        corruption was detected but not correctable (the caller must
        re-execute on a healthy replica)."""
        if self.detected and not self.corrected:
            raise IntegrityError(
                f"ABFT checksum mismatch: {self.n_row_syndromes} row / "
                f"{self.n_col_syndromes} column syndromes, not localizable "
                f"to a single element",
                detected=self.n_row_syndromes + self.n_col_syndromes,
            )
        return self.output


@dataclass
class _GemmCheck:
    """Syndrome outcome of one encoded GEMM (one channel group)."""

    data: np.ndarray                      # wrapped (rows, cols), corrected
    rows: list[int]                       # non-zero row-syndrome indices
    cols: list[int]                       # non-zero col-syndrome indices
    total_bad: bool                       # cross-check syndrome non-zero
    corrected_at: list[tuple[int, int]]   # repaired (row, col) cells

    @property
    def detected(self) -> bool:
        return bool(
            self.rows or self.cols or self.total_bad or self.corrected_at
        )

    @property
    def corrected(self) -> bool:
        return self.detected and not self.rows and not self.cols \
            and not self.total_bad


def _checked_gemm(
    w16: np.ndarray,
    a16: np.ndarray,
    col_check: np.ndarray,
    row_check: np.ndarray,
    psum_flips: list[tuple[int, int, int]],
) -> _GemmCheck:
    """Run one encoded GEMM and resolve its syndromes.

    ``w16``/``a16`` are the (possibly corrupted) stored operands;
    ``col_check``/``row_check`` the clean-encoded checksum vectors.
    ``psum_flips`` are ``(row, col, bit)`` strikes on the wrapped data
    accumulators.  int64 overflow anywhere is harmless: every quantity
    is only ever compared mod 2**48, and int64 wraps mod 2**64, a
    multiple of it.
    """
    w64 = w16.astype(np.int64)
    a64 = a16.astype(np.int64)
    data = wrap48(w64 @ a64)                    # (rows, cols)
    check_row = wrap48(col_check @ a64)         # column parities (cols,)
    check_col = wrap48(w64 @ row_check)         # row parities (rows,)
    check_total = wrap48(int(col_check @ row_check))
    for row, col, bit in psum_flips:
        data = flip_wrap48_bit(data, row * data.shape[1] + col, bit)

    row_syn = wrap48(data.sum(axis=1) - check_col)
    col_syn = wrap48(data.sum(axis=0) - check_row)
    total_syn = wrap48(int(check_col.sum()) - int(check_total))
    rows = [int(i) for i in np.nonzero(row_syn)[0]]
    cols = [int(i) for i in np.nonzero(col_syn)[0]]

    corrected_at: list[tuple[int, int]] = []
    if len(rows) == 1 and len(cols) == 1 and total_syn == 0:
        r, c = rows[0], cols[0]
        delta = int(row_syn[r])
        if wrap48(delta - int(col_syn[c])) == 0:
            # Unambiguous single-element signature: only a psum strike
            # at (r, c) produces equal row/column deltas — operand
            # corruption leaves one syndrome family silent.
            data[r, c] = wrap48(int(data[r, c]) - delta)
            corrected_at.append((r, c))
            rows, cols = [], []
    return _GemmCheck(
        data=data, rows=rows, cols=cols,
        total_bad=bool(total_syn != 0), corrected_at=corrected_at,
    )


def _check_flips(name: str, flips, size: int, bits: int) -> None:
    for index, bit in flips:
        if not 0 <= index < size:
            raise IntegrityError(
                f"{name} flip index {index} out of range for {size} words"
            )
        if not 0 <= bit < bits:
            raise IntegrityError(
                f"{name} flip bit {bit} out of range [0, {bits})"
            )


def abft_matmul_int16(
    weights: np.ndarray,
    acts: np.ndarray,
    *,
    weight_flips: FlipSpec = (),
    act_flips: FlipSpec = (),
    psum_flips: FlipSpec = (),
) -> AbftResult:
    """ABFT-protected MM: :func:`~repro.sim.functional.matmul_int16`
    with one checksum row/column and syndrome-based recovery.

    The flip arguments inject SDC after encoding: ``weight_flips`` /
    ``act_flips`` strike stored int16 words, ``psum_flips`` strike the
    wrapped 48-bit data accumulators (flat over the ``(N, P)`` output).
    With no flips the data output equals the golden kernel bit for bit.
    """
    weights = np.asarray(weights)
    acts = np.asarray(acts)
    if weights.ndim != 2 or acts.ndim != 2:
        raise SimulationError("matmul operands must be 2-D")
    if weights.shape[1] != acts.shape[0]:
        raise SimulationError(
            f"shape mismatch: W{weights.shape} @ act{acts.shape}"
        )
    n, m = weights.shape
    p = acts.shape[1]
    w16 = to_int16(weights)
    a16 = to_int16(acts)
    _check_flips("weight", weight_flips, w16.size, 16)
    _check_flips("act", act_flips, a16.size, 16)
    _check_flips("psum", psum_flips, n * p, 48)

    # Encode from the clean operands, then corrupt the stored words.
    col_check = w16.sum(axis=0, dtype=np.int64)
    row_check = a16.sum(axis=1, dtype=np.int64)
    for index, bit in weight_flips:
        w16 = flip_int16_bit(w16, index, bit)
    for index, bit in act_flips:
        a16 = flip_int16_bit(a16, index, bit)

    check = _checked_gemm(
        w16, a16, col_check, row_check,
        [(index // p, index % p, bit) for index, bit in psum_flips],
    )
    return AbftResult(
        output=check.data,
        detected=check.detected,
        corrected=check.corrected,
        n_row_syndromes=len(check.rows),
        n_col_syndromes=len(check.cols),
        corrected_at=tuple(check.corrected_at),
        data_maccs=n * m * p,
        # One checksum-row pass (m*p), one checksum-column pass (n*m),
        # and the cross-check (m) — the compiler model's m*(n + p + 1).
        checksum_maccs=m * p + n * m + m,
    )


def _im2col(
    acts64: np.ndarray, r: int, s: int, stride: int, padding: int,
    oh: int, ow: int,
) -> np.ndarray:
    """Exact im2col: rows ordered (channel, dr, ds) to match the C-order
    flattening of a ``(M, N, R, S)`` weight tensor."""
    n_ch, ih, iw = acts64.shape
    padded = np.zeros(
        (n_ch, ih + 2 * padding, iw + 2 * padding), dtype=np.int64
    )
    padded[:, padding:padding + ih, padding:padding + iw] = acts64
    mat = np.empty((n_ch * r * s, oh * ow), dtype=np.int64)
    for dr in range(r):
        for ds in range(s):
            window = padded[
                :, dr:dr + stride * oh:stride, ds:ds + stride * ow:stride,
            ].reshape(n_ch, -1)
            mat[dr * s + ds::r * s] = window
    return mat


def abft_conv2d_int16(
    weights: np.ndarray,
    acts: np.ndarray,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
    *,
    weight_flips: FlipSpec = (),
    act_flips: FlipSpec = (),
    psum_flips: FlipSpec = (),
) -> AbftResult:
    """ABFT-protected CONV via exact per-group im2col GEMMs.

    Flip indices address the *stored* tensors — flat over the
    ``(M, N/g, R, S)`` weights, the ``(N, IH, IW)`` activations, and the
    ``(M, OH, OW)`` output accumulators — so one DRAM activation word
    that feeds several sliding windows corrupts several GEMM columns,
    exactly as it would on hardware (detected, never mis-corrected).
    """
    weights = np.asarray(weights)
    acts = np.asarray(acts)
    if weights.ndim != 4 or acts.ndim != 3:
        raise SimulationError("conv expects W(M,N/g,R,S) and act(N,IH,IW)")
    m, n_g, r, s = weights.shape
    n_a, ih, iw = acts.shape
    if m % groups or n_a % groups or n_g != n_a // groups:
        raise SimulationError(
            f"group mismatch: W{weights.shape}, act{acts.shape}, "
            f"groups={groups}"
        )
    oh = (ih + 2 * padding - r) // stride + 1
    ow = (iw + 2 * padding - s) // stride + 1
    if oh < 1 or ow < 1:
        raise SimulationError("convolution output is empty")
    w16 = to_int16(weights)
    a16 = to_int16(acts)
    _check_flips("weight", weight_flips, w16.size, 16)
    _check_flips("act", act_flips, a16.size, 16)
    _check_flips("psum", psum_flips, m * oh * ow, 48)

    m_g = m // groups
    k = n_g * r * s
    cols = oh * ow
    # Encode every group from the clean operands first.
    w_mats = [
        w16[g * m_g:(g + 1) * m_g].reshape(m_g, k).astype(np.int64)
        for g in range(groups)
    ]
    col_checks = [wm.sum(axis=0) for wm in w_mats]
    row_checks = [
        _im2col(
            a16[g * n_g:(g + 1) * n_g].astype(np.int64),
            r, s, stride, padding, oh, ow,
        ).sum(axis=1)
        for g in range(groups)
    ]
    # Corrupt the stored words, then rebuild what the hardware reads.
    for index, bit in weight_flips:
        w16 = flip_int16_bit(w16, index, bit)
    for index, bit in act_flips:
        a16 = flip_int16_bit(a16, index, bit)

    group_psums: list[list[tuple[int, int, int]]] = [[] for _ in range(groups)]
    for index, bit in psum_flips:
        ch, rest = divmod(index, cols)
        group_psums[ch // m_g].append((ch % m_g, rest, bit))

    out = np.empty((m, oh, ow), dtype=np.int64)
    detected = False
    uncorrected = False
    n_rows = n_cols = 0
    corrected_at: list[tuple[int, ...]] = []
    data_maccs = 0
    checksum_maccs = 0
    for g in range(groups):
        wm = w16[g * m_g:(g + 1) * m_g].reshape(m_g, k)
        am = _im2col(
            a16[g * n_g:(g + 1) * n_g].astype(np.int64),
            r, s, stride, padding, oh, ow,
        ).astype(np.int16, copy=False)
        check = _checked_gemm(
            wm, am.astype(np.int64), col_checks[g], row_checks[g],
            group_psums[g],
        )
        out[g * m_g:(g + 1) * m_g] = check.data.reshape(m_g, oh, ow)
        detected = detected or check.detected
        uncorrected = uncorrected or (check.detected and not check.corrected)
        n_rows += len(check.rows)
        n_cols += len(check.cols)
        corrected_at += [
            (g * m_g + row, col // ow, col % ow)
            for row, col in check.corrected_at
        ]
        data_maccs += m_g * k * cols
        checksum_maccs += k * cols + m_g * k + k
    return AbftResult(
        output=out,
        detected=detected,
        corrected=detected and not uncorrected,
        n_row_syndromes=n_rows,
        n_col_syndromes=n_cols,
        corrected_at=tuple(corrected_at),
        data_maccs=data_maccs,
        checksum_maccs=checksum_maccs,
    )


def abft_layer_output(
    layer: ConvLayer | MatMulLayer,
    weights: np.ndarray,
    acts: np.ndarray,
    *,
    weight_flips: FlipSpec = (),
    act_flips: FlipSpec = (),
    psum_flips: FlipSpec = (),
) -> AbftResult:
    """ABFT dispatch matching :func:`~repro.sim.functional
    .golden_layer_output`, with the same shape validation."""
    check_layer_operands(layer, weights, acts)
    weights = to_int16(weights)
    acts = to_int16(acts)
    if isinstance(layer, ConvLayer):
        return abft_conv2d_int16(
            weights, acts, layer.stride, layer.padding, layer.groups,
            weight_flips=weight_flips, act_flips=act_flips,
            psum_flips=psum_flips,
        )
    return abft_matmul_int16(
        weights, acts,
        weight_flips=weight_flips, act_flips=act_flips,
        psum_flips=psum_flips,
    )
