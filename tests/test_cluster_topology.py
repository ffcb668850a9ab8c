"""Fleet topology: racks, boards, and deterministic fan-out order."""

import pytest

from repro.cluster import Board, FleetTopology, Rack, build_fleet
from repro.errors import ServingError


class TestBoardAndRack:
    def test_board_requires_name_and_rack(self):
        with pytest.raises(ServingError):
            Board(name="", rack="rack0")
        with pytest.raises(ServingError):
            Board(name="b0", rack="")

    def test_rack_requires_boards(self):
        with pytest.raises(ServingError):
            Rack(name="rack0", boards=())

    def test_rack_rejects_foreign_board(self):
        with pytest.raises(ServingError):
            Rack(name="rack0", boards=(Board(name="b0", rack="rack1"),))

    def test_rack_board_names(self):
        rack = Rack(name="r", boards=(
            Board(name="a", rack="r"), Board(name="b", rack="r"),
        ))
        assert rack.board_names == ("a", "b")


class TestFleetTopology:
    def test_needs_a_rack(self):
        with pytest.raises(ServingError):
            FleetTopology(racks=())

    def test_duplicate_rack_names_rejected(self):
        rack = Rack(name="r", boards=(Board(name="a", rack="r"),))
        rack2 = Rack(name="r", boards=(Board(name="b", rack="r"),))
        with pytest.raises(ServingError):
            FleetTopology(racks=(rack, rack2))

    def test_duplicate_board_names_rejected(self):
        r0 = Rack(name="r0", boards=(Board(name="a", rack="r0"),))
        r1 = Rack(name="r1", boards=(Board(name="a", rack="r1"),))
        with pytest.raises(ServingError):
            FleetTopology(racks=(r0, r1))

    def test_rack_board_name_collision_rejected(self):
        r0 = Rack(name="r0", boards=(Board(name="r1", rack="r0"),))
        r1 = Rack(name="r1", boards=(Board(name="b", rack="r1"),))
        with pytest.raises(ServingError):
            FleetTopology(racks=(r0, r1))

    def test_boards_are_rack_major(self):
        fleet = build_fleet(2, 3)
        assert fleet.board_names == (
            "rack0/b0", "rack0/b1", "rack0/b2",
            "rack1/b0", "rack1/b1", "rack1/b2",
        )

    def test_counts(self):
        fleet = build_fleet(3, 4)
        assert fleet.n_racks == 3
        assert fleet.n_boards == 12
        assert fleet.rack_names == ("rack0", "rack1", "rack2")

    def test_rack_of_and_members(self):
        fleet = build_fleet(2, 2)
        assert fleet.rack_of("rack1/b0") == "rack1"
        assert fleet.members("rack0") == ("rack0/b0", "rack0/b1")

    def test_rack_of_unknown_board(self):
        with pytest.raises(ServingError):
            build_fleet(1, 1).rack_of("nope")

    def test_members_unknown_rack(self):
        with pytest.raises(ServingError):
            build_fleet(1, 1).members("nope")

    def test_describe(self):
        text = build_fleet(2, 3).describe()
        assert "6 boards" in text
        assert "rack0(3)" in text


class TestBuildFleet:
    @pytest.mark.parametrize("racks,boards", [(0, 1), (1, 0), (-1, 2)])
    def test_nonpositive_dimensions_rejected(self, racks, boards):
        with pytest.raises(ServingError):
            build_fleet(racks, boards)

    def test_rack_prefix(self):
        fleet = build_fleet(1, 1, rack_prefix="pod")
        assert fleet.rack_names == ("pod0",)
        assert fleet.board_names == ("pod0/b0",)

    def test_board_names_override(self):
        # The override is how a fleet adopts the replica names an
        # existing fault schedule (or a plain ServingEngine) targets.
        fleet = build_fleet(
            1, 3, board_names=["overlay0", "overlay1", "overlay2"]
        )
        assert fleet.board_names == ("overlay0", "overlay1", "overlay2")
        assert fleet.rack_of("overlay2") == "rack0"

    def test_board_names_wrong_length_rejected(self):
        with pytest.raises(ServingError):
            build_fleet(2, 2, board_names=["a", "b", "c"])

    def test_topology_is_immutable(self):
        fleet = build_fleet(1, 1)
        with pytest.raises(Exception):
            fleet.racks = ()  # type: ignore[misc]
