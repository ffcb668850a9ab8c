"""Mapping vectors: structure, products, and the Eqn 1-5 index math."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.compiler.mapping import HW_LEVELS, MappingVectors
from repro.errors import MappingError


def _mm_mapping() -> MappingVectors:
    """A small MM mapping used across tests: loops (M, N, P)."""
    return MappingVectors.from_partial(
        ("M", "N", "P"),
        {
            "D1": {"M": 3},
            "D2": {"N": 2},
            "D3": {"P": 2},
            "X": {"N": 2},
            "L": {"M": 2},
            "T": {"M": 2, "P": 2},
        },
    )


class TestConstruction:
    def test_defaults_fill_ones(self):
        mapping = _mm_mapping()
        assert mapping.trips["D1"]["N"] == 1
        assert mapping.trips["T"]["N"] == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(MappingError, match="unknown hardware level"):
            MappingVectors.from_partial(("M",), {"D9": {"M": 2}})

    def test_unknown_loop_rejected(self):
        with pytest.raises(MappingError, match="unknown workload loop"):
            MappingVectors.from_partial(("M",), {"D1": {"Q": 2}})

    def test_zero_trip_rejected(self):
        with pytest.raises(MappingError, match=">= 1"):
            MappingVectors.from_partial(("M",), {"D1": {"M": 0}})

    def test_empty_loops_rejected(self):
        with pytest.raises(MappingError, match="no workload loops"):
            MappingVectors.from_partial((), {})


class TestProducts:
    def test_level_products(self):
        mapping = _mm_mapping()
        assert mapping.level_product("D1") == 3
        assert mapping.t == 4
        assert mapping.l == 2
        assert mapping.x == 2

    def test_loop_products_eqn11(self):
        mapping = _mm_mapping()
        padded = mapping.padded_sizes()
        # M: 3 (D1) * 2 (L) * 2 (T) = 12; N: 2 * 2 = 4; P: 2 * 2 = 4.
        assert padded == {"M": 12, "N": 4, "P": 4}

    def test_used_tpes(self):
        assert _mm_mapping().used_tpes() == 3 * 2 * 2

    def test_tile_combines_levels(self):
        mapping = _mm_mapping()
        assert mapping.tile(("T", "L")) == {"M": 4, "N": 1, "P": 2}

    def test_t_matrix_shape(self):
        matrix = _mm_mapping().t_matrix()
        assert len(matrix) == 3  # K rows
        assert all(len(row) == 6 for row in matrix)

    def test_describe_mentions_nontrivial_trips(self):
        text = _mm_mapping().describe()
        assert "D1[M:3]" in text


class TestIndexMath:
    """Eqn 1: the hardware iteration space maps bijectively onto the
    padded workload iteration space."""

    def test_decompose_out_of_range(self):
        with pytest.raises(MappingError, match="out of range"):
            _mm_mapping().decompose_level_index("D1", 3)

    def test_bijection_small(self):
        mapping = _mm_mapping()
        seen = set()
        ranges = [
            range(mapping.level_product(level)) for level in HW_LEVELS
        ]
        for hw_tuple in itertools.product(*ranges):
            idx = mapping.workload_indices(*hw_tuple)
            assert idx not in seen, f"duplicate workload index {idx}"
            seen.add(idx)
        padded = mapping.padded_sizes()
        assert len(seen) == padded["M"] * padded["N"] * padded["P"]

    def test_indices_within_padded_bounds(self):
        mapping = _mm_mapping()
        padded = mapping.padded_sizes()
        ranges = [range(mapping.level_product(level)) for level in HW_LEVELS]
        for hw_tuple in itertools.product(*ranges):
            for name, value in zip(mapping.loop_names, mapping.workload_indices(*hw_tuple)):
                assert 0 <= value < padded[name]

    def test_outer_levels_most_significant(self):
        """Incrementing d3 moves the index by the whole inner block."""
        mapping = MappingVectors.from_partial(
            ("M",), {"D3": {"M": 2}, "T": {"M": 4}}
        )
        base = mapping.workload_indices(0, 0, 0, 0, 0, 3)
        bumped = mapping.workload_indices(1, 0, 0, 0, 0, 3)
        assert bumped[0] - base[0] == 4


#: The seed ``derandomize=True`` derived from this property's source
#: when it collected index tuples in a set.  Pinning it keeps those same
#: 30 draws (7.6 M hardware tuples, 4.25 M in the largest) whatever the
#: body says, since a derandomized seed changes with every source edit.
BIJECTION_SEED = int(
    "1223283676096877650390029543473137381650069390954479127047400779788"
    "3702508915030460425365690292326353283765308618229"
)


@seed(BIJECTION_SEED)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    trips=st.lists(
        st.tuples(
            st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
            st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_bijection_property(trips):
    """For arbitrary trip assignments, hardware -> workload indexing is a
    bijection onto the padded index space."""
    names = tuple(f"L{i}" for i in range(len(trips)))
    partial = {
        level: {names[k]: trips[k][j] for k in range(len(names))}
        for j, level in enumerate(HW_LEVELS)
    }
    mapping = MappingVectors.from_partial(names, partial)
    padded = mapping.padded_sizes()
    sizes = [padded[name] for name in mapping.loop_names]
    n_slots = math.prod(sizes)
    # As many hardware tuples as padded slots, so hitting every slot
    # means hitting each exactly once.
    assert math.prod(map(mapping.level_product, HW_LEVELS)) == n_slots
    # Index arrays over the five inner levels that broadcast to their
    # whole space; one chunk per D3 index bounds the arrays held at once.
    inner = np.ix_(*(
        np.arange(mapping.level_product(level)) for level in HW_LEVELS[1:]
    ))
    seen = np.zeros(n_slots, dtype=bool)
    for d3 in range(mapping.level_product("D3")):
        flat = 0
        for value, size in zip(mapping.workload_indices(d3, *inner), sizes):
            assert ((0 <= value) & (value < size)).all()
            flat = flat * size + value
        assert not seen[flat].any(), f"duplicate workload index at d3={d3}"
        seen[flat] = True
    assert seen.all()
