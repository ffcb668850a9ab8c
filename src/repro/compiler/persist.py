"""Versioned, content-addressed on-disk schedule store.

A compiled schedule is a pure function of ``(layer shape, overlay
config, objective, beam widths)`` — everything else (batch size folded
into the MM ``P`` loop, a fault mask shrinking the grid) is already
encoded in the shape and the config.  The store keys each entry by the
SHA-256 of the canonical JSON of the schema version and those four, so a
budget-beam search's entry never reaches a default-beam cache, and
persists only the *mapping vectors*: on load the mapping is re-priced by
the authoritative analytical model and re-checked against every
constraint, so a loaded schedule is byte-for-byte the schedule a fresh
search would return — or it is rejected.

Failure containment: a corrupt file (truncated JSON, wrong schema
version, key mismatch after a hash collision or a hand-moved file, a
mapping that no longer validates or violates constraints) is *detected*,
reported as ``CORRUPT``, and treated as a miss — the caller falls back
to a fresh search and the fresh result overwrites the bad entry.  Each
:class:`~repro.compiler.cache.ScheduleCache` counts its own loads,
misses, corrupt entries and writes.  Writes are atomic
(temp file + ``os.replace``) so a crashed writer can at worst leave a
stale temp file, never a half-written entry.

Entries carry the originating search's step-clock charge; a cache load
replays it, so the compiler's virtual step timeline is identical whether
the store was cold or warm.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import fields

from repro.compiler.cache import layer_signature
from repro.compiler.constraints import check_constraints
from repro.compiler.mapping import HW_LEVELS, MappingVectors
from repro.compiler.model import evaluate_mapping
from repro.compiler.search import (
    DEFAULT_SPATIAL_BEAM,
    DEFAULT_TEMPORAL_BEAM,
    Schedule,
)
from repro.errors import FTDLError, MappingError, ScheduleError
from repro.overlay.config import OverlayConfig
from repro.workloads.layers import ConvLayer, MatMulLayer

AcceleratedLayer = ConvLayer | MatMulLayer
#: ``(spatial_beam, temporal_beam)`` of the search an entry came from.
Beams = tuple[int | None, int | None]
DEFAULT_BEAMS: Beams = (DEFAULT_SPATIAL_BEAM, DEFAULT_TEMPORAL_BEAM)

#: Bump on any change to the key derivation, the payload layout, or the
#: search/model arithmetic that could alter what a key should map to.
SCHEMA_VERSION = 2


def _canonical(value) -> str:
    """Canonical JSON — tuples and lists collapse to the same text."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _key_fields(layer: AcceleratedLayer, config: OverlayConfig,
                objective: str, beams: Beams) -> dict:
    """What an entry is keyed by, as it is written in the entry: every
    config field, as the in-memory cache key hashes every field."""
    return {
        "layer": list(layer_signature(layer)),
        "config": [getattr(config, f.name) for f in fields(config)],
        "objective": objective,
        "beams": list(beams),
    }


def store_key(
    layer: AcceleratedLayer,
    config: OverlayConfig,
    objective: str,
    beams: Beams = DEFAULT_BEAMS,
) -> str:
    """Content address of one (layer, config, objective, beams) entry."""
    material = [SCHEMA_VERSION, _key_fields(layer, config, objective, beams)]
    return hashlib.sha256(_canonical(material).encode()).hexdigest()


class PersistentScheduleStore:
    """One directory of ``<sha256>.json`` schedule entries.

    The store keeps no counters: several caches may share it, and each
    counts its own lookups and writes.

    Args:
        root: Directory holding the entries (created if absent).
    """

    #: What :meth:`load` returns for an entry that exists but fails
    #: validation; an absent entry reads as None.
    CORRUPT = "corrupt"

    def __init__(self, root: str | os.PathLike):
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    # ------------------------------------------------------------------ #
    def load(
        self,
        layer: AcceleratedLayer,
        config: OverlayConfig,
        objective: str,
        beams: Beams = DEFAULT_BEAMS,
    ) -> tuple[Schedule, int] | str | None:
        """Return ``(schedule, steps)`` for the entry, None when it is
        absent, or :attr:`CORRUPT` when it fails validation.

        ``steps`` is the original search's step-clock charge, replayed by
        the caller so warm and cold runs share one virtual timeline.
        Either miss sends the caller to a fresh search, whose save
        overwrites a corrupt or stale entry.
        """
        key = store_key(layer, config, objective, beams)
        path = self.root / f"{key}.json"
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            return self._decode(text, layer, config, objective, beams)
        except (ValueError, KeyError, TypeError, FTDLError):
            return self.CORRUPT

    def _decode(
        self,
        text: str,
        layer: AcceleratedLayer,
        config: OverlayConfig,
        objective: str,
        beams: Beams,
    ) -> tuple[Schedule, int]:
        payload = json.loads(text)
        if payload.get("version") != SCHEMA_VERSION:
            raise ValueError(f"schema version {payload.get('version')!r}")
        if payload.get("key") != _key_fields(layer, config, objective, beams):
            raise ValueError("key mismatch (stale or relocated entry)")
        loop_names = tuple(payload["loop_names"])
        if loop_names != tuple(d.name for d in layer.loop_dims()):
            raise ValueError("loop names do not match the layer")
        trips = {
            level: {str(k): int(v) for k, v in payload["trips"][level].items()}
            for level in HW_LEVELS
        }
        mapping = MappingVectors.from_partial(loop_names, trips)
        violations = check_constraints(layer, config, mapping)
        if violations:
            raise MappingError(f"stored mapping violates constraints: {violations}")
        estimate = evaluate_mapping(layer, config, mapping)
        steps = int(payload.get("steps", 0))
        if steps < 0:
            raise ValueError(f"negative step charge {steps}")
        return (
            Schedule(
                layer=layer, config=config, mapping=mapping,
                estimate=estimate, objective=objective,
            ),
            steps,
        )

    # ------------------------------------------------------------------ #
    def save(
        self,
        schedule: Schedule,
        steps: int = 0,
        beams: Beams = DEFAULT_BEAMS,
    ) -> None:
        """Persist one schedule, found by a search with ``beams``,
        atomically under its content address."""
        if not isinstance(schedule, Schedule):
            raise ScheduleError(f"cannot persist {type(schedule).__name__}")
        layer = schedule.layer
        config = schedule.config
        key = store_key(layer, config, schedule.objective, beams)
        payload = {
            "version": SCHEMA_VERSION,
            "key": _key_fields(layer, config, schedule.objective, beams),
            "loop_names": list(schedule.mapping.loop_names),
            "trips": {
                level: dict(schedule.mapping.trips[level])
                for level in HW_LEVELS
            },
            "steps": int(steps),
        }
        path = self.root / f"{key}.json"
        tmp = self.root / f".{key}.{os.getpid()}.tmp"
        tmp.write_text(_canonical(payload))
        os.replace(tmp, path)
