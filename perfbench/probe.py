"""Host-clock probe: times the benchmark's calls into the program.

Every call goes through :meth:`Probe.call`, which reads the host clock
before and after it.  In a traced run the same two readings also become
one :class:`repro.trace.span.Tracer` span (explicit ``at=`` stamps,
seconds since the probe was created), nested under whatever phase span is
open, and tagged with the run id shared by every span of the run.
Untraced runs record nothing but the two clock readings, so the
difference between a traced and an untraced run is the tracing cost.

Calls whose time is reported go through :meth:`Probe.timed_call`,
which runs :func:`calibrate.calibrate` before and after the call and
reports the call's time at the reference host speed (see
``calibrate.py``).
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import Any, Callable

from calibrate import calibrate, scale
from repro.trace.export import chrome_trace_json
from repro.trace.span import Span, Tracer


class Probe:
    """Clock, optional tracer and operation ledger for one sample.

    Span stamps count host seconds from the probe's creation, which is
    also where set-up starts.

    Args:
        run_id: Identifier stamped on every span of this run.
        trace: Record spans (the traced run) or only time calls.
    """

    def __init__(self, run_id: str, trace: bool):
        self.t0 = time.perf_counter()
        self.run_id = run_id
        self.tracer = Tracer(unit="s") if trace else None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_s: float | None = None
        self._setup_calibration = calibrate()
        self._setup_start = self.now()

    def now(self) -> float:
        return time.perf_counter() - self.t0

    # ------------------------------------------------------------------ #
    @contextmanager
    def phase(self, name: str, **args: Any):
        """An untimed grouping span (``setup``, ``timed``, ...)."""
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(name, at=self.now(), track="bench",
                                run_id=self.run_id, **args)
        try:
            yield span
        finally:
            if tracer is not None:
                tracer.end(self.now(), span)

    def start_timing(self) -> None:
        """Collect garbage; the first call marks the end of set-up.

        Set-up runs from this probe's creation to that first call.  Its
        time is scaled to the reference speed by the mean of the
        calibrations at its start and at its end.
        """
        if self.setup_s is None:
            setup_s = self.now() - self._setup_start
            calibration = (self._setup_calibration + calibrate()) / 2
            self.setup_s = scale(setup_s, calibration)
        gc.collect()

    def call(self, name: str, fn: Callable, *fn_args: Any,
             **span_args: Any) -> tuple[Any, float, Span | None]:
        """Run ``fn(*fn_args)`` and return ``(result, seconds, span)``.

        The call counts as one attempted operation; one that raises
        counts as failed, and the exception propagates.
        """
        tracer = self.tracer
        self.attempted += 1
        start = self.now()
        span = None
        if tracer is not None:
            span = tracer.begin(name, at=start, track="bench",
                                run_id=self.run_id, **span_args)
        try:
            result = fn(*fn_args)
        except Exception:
            self.failed += 1
            raise
        finally:
            end = self.now()
            if tracer is not None:
                tracer.end(end, span)
        return result, end - start, span

    def timed_call(self, name: str, fn: Callable, *fn_args: Any,
                   **span_args: Any) -> tuple[Any, float, Span | None]:
        """:meth:`call` between two calibrations; seconds at reference speed.

        The call's time is scaled by the mean of the calibrations just
        before and just after it.  The span records that mean as
        ``cal_s``, so per-layer times read from the trace are scaled the
        same way.
        """
        before = calibrate()
        result, seconds, span = self.call(name, fn, *fn_args, **span_args)
        calibration = (before + calibrate()) / 2
        if span is not None:
            span.args["cal_s"] = calibration
        return result, scale(seconds, calibration), span

    def check(self, ok: bool, what: str) -> bool:
        """Record a correctness check; a failed one marks the run wrong."""
        if not ok:
            self.errors.append(what)
        return ok

    # ------------------------------------------------------------------ #
    def self_times(self) -> list[tuple[Span, float]]:
        """Each span with its self time: duration minus child coverage.

        Benchmark spans nest strictly and never overlap their siblings, so
        the time children cover is the sum of their durations.  A span
        inside a :meth:`timed_call` is scaled by that call's
        calibration.  Spans still open (the enclosing phases) are left
        out.
        """
        if self.tracer is None:
            return []
        spans = [span for span in self.tracer.spans if span.closed]
        by_id = {span.span_id: span for span in spans}
        covered = {span.span_id: 0.0 for span in spans}
        for span in spans:
            if span.parent_id in covered:
                covered[span.parent_id] += span.duration

        def calibration(span: Span) -> float | None:
            while span is not None:
                if "cal_s" in span.args:
                    return span.args["cal_s"]
                span = by_id.get(span.parent_id)
            return None

        out = []
        for span in spans:
            self_s = span.duration - covered[span.span_id]
            cal = calibration(span)
            out.append((span, self_s if cal is None else scale(self_s, cal)))
        return out

    def span_seconds(self, name: str, **match: Any) -> float:
        """Σ self time of the spans called ``name`` whose args match."""
        return sum(
            self_s for span, self_s in self.self_times()
            if span.name == name
            and all(span.args.get(k) == v for k, v in match.items())
        )

    def chrome_json(self, process: str) -> str:
        return chrome_trace_json({process: self.tracer})
