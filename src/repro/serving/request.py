"""Inference requests and deterministic arrival processes.

The serving runtime is driven entirely by virtual time, so a workload is
just a sorted list of arrival instants.  Three generators cover the
usual experiments: a seeded Poisson process (open-loop traffic at a
target offered load), a uniform process (the deterministic control), and
a replayed trace.  Every stochastic path takes an explicit ``seed`` —
there is no module-level RNG anywhere in this package, so identical
inputs always reproduce identical metrics.

Every numeric knob is validated as *finite*: a NaN rate or wait silently
poisons every downstream comparison (NaN compares false against
everything), so the generators and policies reject non-finite inputs
loudly instead.  Count knobs (batch sizes, queue bounds, attempt
budgets) must be integers: a fractional ``max_batch`` would form batches
one larger than asked, and a NaN one fails only mid-run.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ServingError


def require_finite(name: str, value: float) -> float:
    """Reject NaN/inf knobs with a clear message.

    Raises:
        ServingError: if ``value`` is not a finite number.
    """
    if not math.isfinite(value):
        raise ServingError(f"{name} must be finite, got {value}")
    return value


def require_count(name: str, value: int, minimum: int = 1) -> None:
    """Reject a count knob that is not an integer ``>= minimum``.

    Raises:
        ServingError: for a bool, a non-integer (including NaN and
            integral floats such as ``8.0``) or a value below
            ``minimum``.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < minimum):
        raise ServingError(
            f"{name} must be an integer >= {minimum}, got {value!r}"
        )


#: Drop reasons the serving loop stamps on ``InferenceRequest.drop_reason``.
DROP_DEADLINE = "deadline"
DROP_RETRY_EXHAUSTED = "retry_exhausted"
DROP_NO_REPLICA = "no_healthy_replica"
DROP_SDC = "sdc_detected"

#: Rejection reasons: the global queue bound, or the tenant's own quota.
REJECT_CAPACITY = "capacity"
REJECT_QUOTA = "tenant_quota"


@dataclass
class InferenceRequest:
    """One inference request travelling through the serving runtime.

    Attributes:
        request_id: Dense index, unique within one run.
        model: Workload name (informational; one engine serves one model).
        arrival_s: Virtual-clock arrival instant, seconds.
        deadline_s: Optional end-to-end deadline *relative to arrival*;
            a request that cannot dispatch (or retry) before
            ``arrival_s + deadline_s`` is dropped and counted.
        dispatch_s: Set by the engine when the request's batch launches.
        complete_s: Set by the engine when the batch finishes.
        batch_size: Size of the batch the request rode in.
        replica: Name of the overlay replica that served it.
        attempts: Dispatch attempts consumed (> 1 means the request was
            retried after a fault).
        drop_reason: Why the request was dropped (``None`` if it was
            not): one of the ``DROP_*`` reasons above.
        tenant: Owning tenant for fleet-scale fair-share admission
            (:mod:`repro.cluster`); :class:`ServingEngine` runs leave the
            default.
        reject_reason: Why admission refused the request (``None`` if
            it did not): one of the ``REJECT_*`` reasons above.
    """

    request_id: int
    model: str
    arrival_s: float
    deadline_s: float | None = field(default=None, compare=False)
    dispatch_s: float | None = field(default=None, compare=False)
    complete_s: float | None = field(default=None, compare=False)
    batch_size: int = field(default=0, compare=False)
    replica: str = field(default="", compare=False)
    attempts: int = field(default=0, compare=False)
    drop_reason: str | None = field(default=None, compare=False)
    tenant: str = field(default="default", compare=False)
    reject_reason: str | None = field(default=None, compare=False, init=False)

    def __post_init__(self) -> None:
        require_finite("arrival_s", self.arrival_s)
        if self.deadline_s is not None:
            require_finite("deadline_s", self.deadline_s)
            if self.deadline_s <= 0:
                raise ServingError(
                    f"deadline_s must be positive, got {self.deadline_s}"
                )

    @property
    def deadline_at_s(self) -> float:
        """Absolute drop-dead instant (inf when no deadline is set)."""
        if self.deadline_s is None:
            return math.inf
        return self.arrival_s + self.deadline_s

    def expired(self, now_s: float) -> bool:
        """Whether the deadline has passed at ``now_s``."""
        return now_s >= self.deadline_at_s

    @property
    def latency_s(self) -> float:
        """End-to-end latency: queue wait + batch formation + service."""
        if self.complete_s is None:
            raise ServingError(f"request {self.request_id} not complete")
        return self.complete_s - self.arrival_s

    @property
    def queue_wait_s(self) -> float:
        """Time from arrival to batch dispatch."""
        if self.dispatch_s is None:
            raise ServingError(f"request {self.request_id} not dispatched")
        return self.dispatch_s - self.arrival_s


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline-aware retry with capped exponential backoff.

    When a fault kills a dispatched batch, each of its requests is
    retried after ``backoff_s(attempts)`` — unless its attempt budget is
    exhausted or the backoff would land past its deadline, in which case
    it is dropped with a structured reason.

    Attributes:
        max_attempts: Total dispatch attempts per request (1 = never
            retry).
        backoff_base_s: Backoff after the first failed attempt; doubles
            per subsequent failure.
        backoff_cap_s: Upper bound on any single backoff.
    """

    max_attempts: int = 3
    backoff_base_s: float = 1e-3
    backoff_cap_s: float = 16e-3

    def __post_init__(self) -> None:
        require_count("max_attempts", self.max_attempts)
        require_finite("backoff_base_s", self.backoff_base_s)
        require_finite("backoff_cap_s", self.backoff_cap_s)
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ServingError(
                f"backoff must be >= 0, got base {self.backoff_base_s}, "
                f"cap {self.backoff_cap_s}"
            )

    def backoff_s(self, failed_attempts: int) -> float:
        """Backoff before retry number ``failed_attempts`` (1-based)."""
        if failed_attempts < 1:
            raise ServingError(
                f"failed_attempts must be >= 1, got {failed_attempts}"
            )
        return min(
            self.backoff_base_s * 2 ** (failed_attempts - 1),
            self.backoff_cap_s,
        )


def poisson_arrivals(
    rate_rps: float, n_requests: int, *, seed: int, start_s: float = 0.0
) -> list[float]:
    """Arrival instants of a Poisson process at ``rate_rps`` requests/s.

    Args:
        rate_rps: Mean offered load (1/rate is the mean inter-arrival gap).
        n_requests: Number of arrivals to draw.
        seed: RNG seed; required so every run is reproducible.
        start_s: Virtual time of the process origin.

    Raises:
        ServingError: for a non-positive or non-finite rate, request
            count, or start instant.
    """
    require_finite("rate_rps", rate_rps)
    require_finite("start_s", start_s)
    if rate_rps <= 0:
        raise ServingError(f"arrival rate must be positive, got {rate_rps}")
    if n_requests < 1:
        raise ServingError(f"need >= 1 request, got {n_requests}")
    rng = random.Random(seed)
    t = start_s
    times = []
    for _ in range(n_requests):
        t += rng.expovariate(rate_rps)
        times.append(t)
    return times


def uniform_arrivals(
    rate_rps: float, n_requests: int, *, start_s: float = 0.0
) -> list[float]:
    """Evenly spaced arrivals at ``rate_rps`` — the deterministic control.

    Raises:
        ServingError: for a non-positive or non-finite rate, request
            count, or start instant.
    """
    require_finite("rate_rps", rate_rps)
    require_finite("start_s", start_s)
    if rate_rps <= 0:
        raise ServingError(f"arrival rate must be positive, got {rate_rps}")
    if n_requests < 1:
        raise ServingError(f"need >= 1 request, got {n_requests}")
    gap = 1.0 / rate_rps
    return [start_s + (i + 1) * gap for i in range(n_requests)]


def trace_arrivals(times: Iterable[float]) -> list[float]:
    """Validate and normalize a replayed arrival trace.

    Raises:
        ServingError: if the trace is empty, unsorted, or has negative
            or non-finite instants.
    """
    out = list(times)
    if not out:
        raise ServingError("arrival trace is empty")
    if any(not math.isfinite(t) for t in out):
        raise ServingError("arrival trace has non-finite instants")
    if any(t < 0 for t in out):
        raise ServingError("arrival trace has negative instants")
    if any(b < a for a, b in zip(out, out[1:])):
        raise ServingError("arrival trace is not sorted")
    return out


def make_requests(
    times: Sequence[float],
    model: str,
    deadline_s: float | None = None,
) -> list[InferenceRequest]:
    """Wrap sorted arrival instants into :class:`InferenceRequest` objects.

    ``deadline_s`` (relative to each arrival) applies to every request.
    """
    validated = trace_arrivals(times)
    return [
        InferenceRequest(
            request_id=i, model=model, arrival_s=t, deadline_s=deadline_s
        )
        for i, t in enumerate(validated)
    ]
