import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voxelflight import (
    Block,
    BlockKind,
    BlockPlacement,
    Box,
    Orientation,
    OutOfBoundsError,
    OverlapError,
    WorldState,
    FitnessConfig,
    center_of_mass,
    count_blocks,
    format_shape,
    parse_shape,
    place_shape,
)
from voxelflight.blocks import SPAWN_BOX_SIZE

from helpers import translated

Q = BlockKind.QUARTZ_BLOCK
N = Orientation.NORTH


def world_with(*positions):
    from voxelflight import Block

    w = WorldState()
    for p in positions:
        w.blocks[p] = Block(Q, N)
    return w


class TestOrientation:
    def test_exactly_six(self):
        assert len(Orientation) == 6

    def test_axis_mapping(self):
        assert Orientation.NORTH.vector == (0, 0, -1)
        assert Orientation.SOUTH.vector == (0, 0, 1)
        assert Orientation.EAST.vector == (1, 0, 0)
        assert Orientation.WEST.vector == (-1, 0, 0)
        assert Orientation.UP.vector == (0, 1, 0)
        assert Orientation.DOWN.vector == (0, -1, 0)

    @given(st.sampled_from(list(Orientation)))
    def test_opposite_is_fixed_point_free_involution(self, o):
        assert o.opposite.opposite is o
        assert o.opposite is not o


class TestBlockSets:
    def test_member_counts_and_order(self):
        from voxelflight import BlockSet

        assert len(BlockSet.ORIGINAL.members) == 5
        assert len(BlockSet.OBSERVER.members) == 6
        assert BlockSet.OBSERVER.members[:5] == BlockSet.ORIGINAL.members
        assert BlockSet.OBSERVER.members[5] is BlockKind.OBSERVER


class TestPlaceShape:
    def test_empty_shape_is_identity(self):
        w = WorldState()
        assert place_shape(w, [], (7, 7, 7)).blocks == {}

    def test_origin_offset(self):
        w = place_shape(WorldState(), [BlockPlacement((1, 1, 1), BlockKind.REDSTONE_BLOCK, N)], (10, 10, 10))
        assert (11, 11, 11) in w.blocks
        assert w.tick == 0

    def test_placed_blocks_are_unextended_blocks(self):
        # place_shape builds each Block with tuple.__new__, which bypasses the constructor.
        shape = [BlockPlacement((0, 0, 0), Q, N), BlockPlacement((1, 0, 0), BlockKind.PISTON, Orientation.UP)]
        w = place_shape(WorldState(), shape, (4, 5, 6))
        assert len(w.blocks) == 2
        for p, b in zip(shape, w.blocks.values()):
            assert type(b) is Block
            assert (b.kind, b.orient) == (p.kind, p.orient) and b.extended is False

    def test_overlap_rejected(self):
        shape = [BlockPlacement((0, 0, 0), Q, N), BlockPlacement((0, 0, 0), Q, N)]
        with pytest.raises(OverlapError):
            place_shape(WorldState(), shape, (0, 0, 0))

    def test_occupied_target_rejected(self):
        w = world_with((5, 5, 5))
        with pytest.raises(OverlapError):
            place_shape(w, [BlockPlacement((0, 0, 0), Q, N)], (5, 5, 5))

    def test_out_of_bounds_rejected(self):
        with pytest.raises(OutOfBoundsError):
            place_shape(WorldState(), [BlockPlacement((3, 0, 0), Q, N)], (0, 0, 0))

    @pytest.mark.parametrize("pos", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (3, 0, 0), (0, 3, 0), (0, 0, 3)])
    def test_out_of_bounds_on_every_side(self, pos):
        place_shape(WorldState(), [BlockPlacement((2, 2, 2), Q, N), BlockPlacement((0, 0, 0), Q, N)], (0, 0, 0))  # corners fit
        with pytest.raises(OutOfBoundsError):
            place_shape(WorldState(), [BlockPlacement(pos, Q, N)], (0, 0, 0))

    def test_air_rejected(self):
        with pytest.raises(ValueError):
            place_shape(WorldState(), [BlockPlacement((0, 0, 0), BlockKind.AIR, N)], (0, 0, 0))

    def test_count_matches_placements(self):
        w = world_with((0, 0, 0), (1, 2, 0), (2, 2, 2))
        assert count_blocks(w, Box((0, 0, 0), (3, 3, 3))) == 3


class TestCenterOfMass:
    def test_symmetric_pair(self):
        w = world_with((0, 0, 0), (2, 0, 0))
        assert center_of_mass(w, Box((-5, -5, -5), (11, 11, 11))) == (1.0, 0.0, 0.0)

    def test_single_block(self):
        w = WorldState()
        w = place_shape(w, [BlockPlacement((2, 2, 2), Q, N)], (3, 3, 3))
        assert center_of_mass(w, Box((0, 0, 0), (10, 10, 10))) == (5.0, 5.0, 5.0)

    def test_empty_region_absent(self):
        assert center_of_mass(WorldState(), Box((0, 0, 0), (3, 3, 3))) is None

    @given(st.tuples(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20)))
    def test_translation_equivariance(self, offset):
        w = world_with((0, 0, 0), (1, 2, 0), (2, 1, 2))
        region = Box((0, 0, 0), (3, 3, 3))
        base = center_of_mass(w, region)
        shifted_region = Box((offset[0], offset[1], offset[2]), (3, 3, 3))
        shifted = center_of_mass(translated(w, offset), shifted_region)
        # equivariance is exact over the rationals; floats may differ by 1 ulp
        assert shifted == pytest.approx(tuple(base[i] + offset[i] for i in range(3)), abs=1e-12)


class TestCountBlocks:
    def test_empty_world(self):
        assert count_blocks(WorldState(), Box((0, 0, 0), (9, 9, 9))) == 0

    def test_solid_cube_of_eight(self):
        cells = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
        assert count_blocks(world_with(*cells), Box((-1, -1, -1), (5, 5, 5))) == 8

    def test_region_excludes_outside_blocks(self):
        cells = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        w = world_with(*cells)
        region = Box((0, 0, 0), (3, 3, 3))
        clipped = Box((0, 0, 0), (3, 3, 2))  # drops the z=2 plane: 9 blocks
        assert count_blocks(w, region) == 27
        assert count_blocks(w, clipped) == 18


def face_cells(region: Box) -> list[tuple[int, ...]]:
    """Per axis: one cell outside, on and inside each face of `region`, the
    middle, and a far cell on each side."""
    per_axis = []
    for lo, d in zip(region.min, region.dims):
        hi = lo + d  # first cell past the upper face
        per_axis.append(sorted({lo - 9, lo - 1, lo, lo + 1, lo + d // 2, hi - 2, hi - 1, hi, hi + 9}))
    return per_axis


class TestRegionScansMatchContains:
    REGIONS = [FitnessConfig.watch_box, Box((0, 0, 0), (SPAWN_BOX_SIZE,) * 3), Box((-2, 5, 0), (1, 4, 7))]

    @pytest.mark.parametrize("region", REGIONS, ids=["watch", "spawn", "uneven"])
    def test_contains_is_the_half_open_box(self, region):
        for cell in itertools.product(*face_cells(region)):
            inside = all(lo <= c < lo + d for c, lo, d in zip(cell, region.min, region.dims))
            assert region.contains(cell) == inside

    @pytest.mark.parametrize("region", REGIONS, ids=["watch", "spawn", "uneven"])
    def test_scans_equal_a_contains_reference(self, region):
        rng = np.random.default_rng(3)
        cells = list(itertools.product(*face_cells(region)))
        seen_in = seen_out = 0
        for _ in range(300):
            picks = rng.choice(len(cells), size=int(rng.integers(0, 40)), replace=False)
            w = world_with(*(cells[i] for i in picks))
            inside = [pos for pos in w.blocks if region.contains(pos)]
            expected_com = tuple(sum(p[a] for p in inside) / len(inside) for a in range(3)) if inside else None
            assert count_blocks(w, region) == len(inside)
            assert center_of_mass(w, region) == expected_com
            seen_in += len(inside)
            seen_out += len(w.blocks) - len(inside)
        assert seen_in > 0 and seen_out > 0


class TestShapeText:
    def test_round_trip(self, reference_flyer):
        assert parse_shape(format_shape(reference_flyer)) == reference_flyer

    def test_format_is_bit_exact(self):
        shape = [BlockPlacement((0, 1, 2), BlockKind.STICKY_PISTON, Orientation.WEST)]
        assert format_shape(shape) == "0 1 2 STICKY_PISTON WEST\n"

    def test_comments_ignored(self):
        text = "# a comment\n0 0 0 QUARTZ_BLOCK NORTH\n\n# another\n"
        assert parse_shape(text) == [BlockPlacement((0, 0, 0), Q, N)]

    def test_bad_line_raises(self):
        from voxelflight.blocks import ShapeFormatError

        with pytest.raises(ShapeFormatError):
            parse_shape("0 0 QUARTZ_BLOCK NORTH\n")
