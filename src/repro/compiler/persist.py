"""Versioned, content-addressed on-disk schedule store.

A compiled schedule is a pure function of ``(layer shape, overlay
config, objective)`` — everything else (batch size folded into the MM
``P`` loop, a fault mask shrinking the grid) is already encoded in those
two signatures.  The store keys each entry by the SHA-256 of the
canonical JSON of ``(schema version, layer signature, config signature,
objective)`` and persists only the *mapping vectors*: on load the
mapping is re-priced by the authoritative analytical model and re-checked
against every constraint, so a loaded schedule is byte-for-byte the
schedule a fresh search would return — or it is rejected.

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

from repro.compiler.cache import layer_signature
from repro.compiler.constraints import check_constraints
from repro.compiler.mapping import HW_LEVELS, MappingVectors
from repro.compiler.model import evaluate_mapping
from repro.compiler.search import Schedule
from repro.errors import FTDLError, MappingError, ScheduleError
from repro.overlay.config import OverlayConfig
from repro.workloads.layers import ConvLayer, MatMulLayer

AcceleratedLayer = ConvLayer | MatMulLayer

#: Bump on any change to the key derivation, the payload layout, or the
#: search/model arithmetic that could alter what a key should map to.
SCHEMA_VERSION = 1


def config_signature(config: OverlayConfig) -> tuple:
    """Everything about an overlay config that affects scheduling."""
    return (
        config.d1, config.d2, config.d3,
        config.s_actbuf_words, config.s_wbuf_words, config.s_psumbuf_words,
        config.actbus_words_per_cycle, config.psumbus_words_per_cycle,
        config.dram_rd_gbps, config.dram_wr_gbps, config.clk_h_mhz,
        config.double_pump, config.double_buffer, config.weights_resident,
    )


def _canonical(value) -> str:
    """Canonical JSON — tuples and lists collapse to the same text."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def store_key(
    layer: AcceleratedLayer,
    config: OverlayConfig,
    objective: str,
) -> str:
    """Content address of one (layer, config, objective) entry."""
    material = _canonical([
        SCHEMA_VERSION,
        list(layer_signature(layer)),
        list(config_signature(config)),
        objective,
    ])
    return hashlib.sha256(material.encode()).hexdigest()


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
    ) -> tuple[Schedule, int] | str | None:
        """Return ``(schedule, steps)`` for the entry, None when it is
        absent, or :attr:`CORRUPT` when it fails validation.

        ``steps`` is the original search's step-clock charge, replayed by
        the caller so warm and cold runs share one virtual timeline.
        Either miss sends the caller to a fresh search, whose save
        overwrites a corrupt or stale entry.
        """
        key = store_key(layer, config, objective)
        path = self.root / f"{key}.json"
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            return self._decode(text, key, layer, config, objective)
        except (ValueError, KeyError, TypeError, FTDLError):
            return self.CORRUPT

    def _decode(
        self,
        text: str,
        key: str,
        layer: AcceleratedLayer,
        config: OverlayConfig,
        objective: str,
    ) -> tuple[Schedule, int]:
        payload = json.loads(text)
        if payload.get("version") != SCHEMA_VERSION:
            raise ValueError(f"schema version {payload.get('version')!r}")
        expected_key = {
            "layer": json.loads(_canonical(list(layer_signature(layer)))),
            "config": json.loads(_canonical(list(config_signature(config)))),
            "objective": objective,
        }
        if payload.get("key") != expected_key:
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
    ) -> None:
        """Persist one schedule atomically under its content address."""
        if not isinstance(schedule, Schedule):
            raise ScheduleError(f"cannot persist {type(schedule).__name__}")
        layer = schedule.layer
        config = schedule.config
        key = store_key(layer, config, schedule.objective)
        payload = {
            "version": SCHEMA_VERSION,
            "key": {
                "layer": list(layer_signature(layer)),
                "config": list(config_signature(config)),
                "objective": schedule.objective,
            },
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
