"""Mapping vectors: the tiled-loop abstraction of paper §IV-A.

A *mapping vector* for hardware level ``ℓ`` assigns each of the K workload
loops a sub-loop trip count ``Tℓ_k`` (Fig. 4).  The six vectors together
fix both the spatial partition (which TPE computes what) and the temporal
order (when), making the workload↔hardware relation of Eqn. 1 unique.

Index math: the hardware iterates the tuple ``(d3, d2, d1, x, l, t)``;
decomposing each hardware index into its per-loop sub-indices (mixed radix
over the ``Tℓ_k``) and recombining per loop across levels — outer levels
most significant — yields the workload indices ``(i_1 … i_K)``.  This is
the constructive form of the paper's ``[T·H]`` product (Eqns 2-5), and it
is what both the WBUF layout and the cycle simulator use, so a schedule's
functional correctness is checkable against the golden models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

from repro.errors import MappingError

#: Hardware loop levels, outermost-significance first (paper Fig. 4).
HW_LEVELS = ("D3", "D2", "D1", "X", "L", "T")
SPATIAL_LEVELS = ("D3", "D2", "D1")
TEMPORAL_LEVELS = ("X", "L", "T")


@dataclass(frozen=True)
class MappingVectors:
    """The six mapping vectors for one (layer, hardware) pair.

    Attributes:
        loop_names: Workload loop names in nest order (the K loops).
        trips: ``trips[level][loop]`` is the sub-loop trip count ``Tℓ_k``;
            every level maps every loop (1 where a loop is absent).
    """

    loop_names: tuple[str, ...]
    trips: dict[str, dict[str, int]]

    # ------------------------------------------------------------------ #
    # construction / validation
    # ------------------------------------------------------------------ #
    @classmethod
    def from_partial(
        cls,
        loop_names: tuple[str, ...],
        partial: dict[str, dict[str, int]],
    ) -> "MappingVectors":
        """Build vectors from a sparse spec; unspecified trips default to 1."""
        trips = {
            level: {name: 1 for name in loop_names} for level in HW_LEVELS
        }
        for level, loops in partial.items():
            if level not in trips:
                raise MappingError(f"unknown hardware level {level!r}")
            for name, trip in loops.items():
                if name not in trips[level]:
                    raise MappingError(f"unknown workload loop {name!r}")
                trips[level][name] = int(trip)
        mapping = cls(loop_names=loop_names, trips=trips)
        mapping.validate()
        return mapping

    def validate(self) -> None:
        """Raise :class:`MappingError` on structural problems."""
        if not self.loop_names:
            raise MappingError("mapping has no workload loops")
        if set(self.trips) != set(HW_LEVELS):
            raise MappingError(
                f"mapping must cover levels {HW_LEVELS}, got {tuple(self.trips)}"
            )
        for level, loops in self.trips.items():
            if set(loops) != set(self.loop_names):
                raise MappingError(
                    f"level {level} must map loops {self.loop_names}"
                )
            for name, trip in loops.items():
                if trip < 1:
                    raise MappingError(
                        f"trip count T{level}_{name} must be >= 1, got {trip}"
                    )

    # ------------------------------------------------------------------ #
    # derived products
    # ------------------------------------------------------------------ #
    def level_product(self, level: str) -> int:
        """Total trips of one hardware level (``X``, ``L``, ``T`` of Eqn 6;
        spatial usage for ``D1``/``D2``/``D3``)."""
        return prod(self.trips[level].values())

    def loop_product(self, loop: str, levels: tuple[str, ...] = HW_LEVELS) -> int:
        """Padded size ``P_k`` of one workload loop over ``levels``."""
        return prod(self.trips[level][loop] for level in levels)

    def tile(self, levels: tuple[str, ...]) -> dict[str, int]:
        """Combined per-loop tile sizes across ``levels`` (for footprints)."""
        return {
            name: prod(self.trips[level][name] for level in levels)
            for name in self.loop_names
        }

    @property
    def x(self) -> int:
        return self.level_product("X")

    @property
    def l(self) -> int:
        return self.level_product("L")

    @property
    def t(self) -> int:
        return self.level_product("T")

    def padded_sizes(self) -> dict[str, int]:
        """Padded workload size per loop (left side of Eqn 11)."""
        return {name: self.loop_product(name) for name in self.loop_names}

    def used_tpes(self) -> int:
        """TPEs actually occupied: the product of all spatial trips."""
        return prod(self.level_product(level) for level in SPATIAL_LEVELS)

    # ------------------------------------------------------------------ #
    # index math (Eqns 1-5)
    # ------------------------------------------------------------------ #
    def decompose_level_index(self, level: str, index):
        """Split a flat hardware index into per-loop sub-indices.

        Mixed-radix decomposition in ``loop_names`` order, first loop most
        significant.  ``index`` is an int or a NumPy integer array (each
        sub-index then has its shape).
        """
        size = self.level_product(level)
        inside = (0 <= index) & (index < size)
        if not (inside.all() if isinstance(inside, np.ndarray) else inside):
            raise MappingError(
                f"index {index} out of range for level {level} (size {size})"
            )
        sub = {}
        for name in reversed(self.loop_names):
            radix = self.trips[level][name]
            sub[name] = index % radix
            index = index // radix
        return sub

    def workload_indices(self, d3, d2, d1, x, l, t) -> tuple:
        """Map one hardware iteration to its workload indices (Eqn 1).

        Returns one index per workload loop, in ``loop_names`` order.
        Indices may land in the padded region (>= the true trip count);
        the caller treats those as invalid computation.  The six indices
        may be ints or NumPy integer arrays that broadcast together; the
        workload indices then have the broadcast shape.
        """
        hw_index = dict(zip(HW_LEVELS, (d3, d2, d1, x, l, t)))
        subs = {
            level: self.decompose_level_index(level, hw_index[level])
            for level in HW_LEVELS
        }
        indices = []
        for name in self.loop_names:
            value = 0
            for level in HW_LEVELS:  # outermost significance first
                value = value * self.trips[level][name] + subs[level][name]
            indices.append(value)
        return tuple(indices)

    def t_matrix(self) -> list[list[int]]:
        """The paper's ``T`` matrix (Eqn 4): rows are loops, columns are
        the six mapping vectors in ``(TD1, TD2, TD3, TX, TL, TT)`` order."""
        order = ("D1", "D2", "D3", "X", "L", "T")
        return [
            [self.trips[level][name] for level in order]
            for name in self.loop_names
        ]

    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        """Compact human-readable rendering used in reports and logs."""
        parts = []
        for level in HW_LEVELS:
            inner = ",".join(
                f"{name}:{trip}"
                for name, trip in self.trips[level].items()
                if trip > 1
            )
            parts.append(f"{level}[{inner or '-'}]")
        return " ".join(parts)
