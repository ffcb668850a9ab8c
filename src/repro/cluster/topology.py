"""Fleet topology: racks of overlay boards with shared failure domains.

A fleet is a tree — racks at the top, FPGA boards inside them, one
serving replica per board.  The tree is what gives *correlated* faults
their blast radius: a rack losing power takes down every member board
at the same virtual instant, a ToR partition makes a whole rack
unreachable, a failing DRAM module sprays bit-flips across one domain.
The topology is immutable and fully ordered (rack-major board order),
so any fan-out over it is deterministic by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import ServingError


@dataclass(frozen=True)
class Board:
    """One FPGA board: a single serving replica inside a rack."""

    name: str
    rack: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ServingError("board needs a non-empty name")
        if not self.rack:
            raise ServingError(f"board {self.name!r} names no rack")


@dataclass(frozen=True)
class Rack:
    """One rack: a power + network failure domain of boards."""

    name: str
    boards: tuple[Board, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise ServingError("rack needs a non-empty name")
        if not self.boards:
            raise ServingError(f"rack {self.name!r} has no boards")
        for board in self.boards:
            if board.rack != self.name:
                raise ServingError(
                    f"board {board.name!r} claims rack {board.rack!r} "
                    f"but lives in rack {self.name!r}"
                )

    @property
    def board_names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.boards)


@dataclass(frozen=True)
class FleetTopology:
    """Racks → boards, the placement universe of the cluster router."""

    racks: tuple[Rack, ...]

    def __post_init__(self) -> None:
        if not self.racks:
            raise ServingError("fleet topology needs at least one rack")
        rack_names = [r.name for r in self.racks]
        if len(set(rack_names)) != len(rack_names):
            raise ServingError(
                f"rack names must be unique, got {rack_names}"
            )
        board_names = [b.name for r in self.racks for b in r.boards]
        if len(set(board_names)) != len(board_names):
            raise ServingError("board names must be unique fleet-wide")
        if set(rack_names) & set(board_names):
            raise ServingError("rack and board names must not collide")

    @property
    def boards(self) -> tuple[Board, ...]:
        """Every board, rack-major (deterministic fan-out order)."""
        return tuple(b for rack in self.racks for b in rack.boards)

    @property
    def board_names(self) -> tuple[str, ...]:
        return tuple(b.name for b in self.boards)

    @property
    def rack_names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.racks)

    @property
    def n_racks(self) -> int:
        return len(self.racks)

    @property
    def n_boards(self) -> int:
        return sum(len(r.boards) for r in self.racks)

    def rack_of(self, board_name: str) -> str:
        """The rack owning ``board_name``.

        Raises:
            ServingError: for an unknown board.
        """
        for rack in self.racks:
            for board in rack.boards:
                if board.name == board_name:
                    return rack.name
        raise ServingError(f"unknown board {board_name!r}")

    def members(self, rack_name: str) -> tuple[str, ...]:
        """Member board names of one rack, in fleet order.

        Raises:
            ServingError: for an unknown rack.
        """
        for rack in self.racks:
            if rack.name == rack_name:
                return rack.board_names
        raise ServingError(f"unknown rack {rack_name!r}")

    def describe(self) -> str:
        per_rack = ", ".join(
            f"{r.name}({len(r.boards)})" for r in self.racks
        )
        return (
            f"{self.n_boards} boards across {self.n_racks} rack(s): "
            f"{per_rack}"
        )


def build_fleet(
    n_racks: int,
    boards_per_rack: int,
    *,
    rack_prefix: str = "rack",
    board_names: Sequence[str] | None = None,
) -> FleetTopology:
    """A regular fleet of ``n_racks`` × ``boards_per_rack`` boards.

    Default board names are ``{rack}/b{i}`` (e.g. ``rack0/b3``);
    ``board_names`` overrides them with a flat rack-major list, which is
    how a fleet is given the exact replica names an existing
    :class:`~repro.faults.schedule.FaultSchedule` targets.

    Raises:
        ServingError: for non-positive dimensions or a ``board_names``
            list of the wrong length.
    """
    if n_racks < 1 or boards_per_rack < 1:
        raise ServingError(
            f"fleet needs >= 1 rack and >= 1 board per rack, got "
            f"{n_racks} x {boards_per_rack}"
        )
    if board_names is not None \
            and len(board_names) != n_racks * boards_per_rack:
        raise ServingError(
            f"board_names has {len(board_names)} entries for a "
            f"{n_racks} x {boards_per_rack} fleet"
        )
    racks = []
    for r in range(n_racks):
        rack_name = f"{rack_prefix}{r}"
        boards = tuple(
            Board(
                name=(
                    board_names[r * boards_per_rack + b]
                    if board_names is not None
                    else f"{rack_name}/b{b}"
                ),
                rack=rack_name,
            )
            for b in range(boards_per_rack)
        )
        racks.append(Rack(name=rack_name, boards=boards))
    return FleetTopology(racks=tuple(racks))
