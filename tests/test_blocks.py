import itertools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from voxelflight import (
    Block,
    BlockKind,
    BlockPlacement,
    BlockSet,
    Box,
    DecodeConfig,
    Orientation,
    WorldState,
    FitnessConfig,
    apply_observer_bug,
    center_of_mass,
    count_blocks,
    format_shape,
    parse_shape,
    place_shape,
    decode,
    random_genome,
)
from voxelflight.blocks import SPAWN_BOX_SIZE

from helpers import absolute_times, translated

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

    def test_declared_in_axis_pairs(self):
        # `piston_orientation_bc` reads a facing's axis as `ordinal // 2`.
        for orient in Orientation:
            assert Orientation(tuple(-c for c in orient.vector)).ordinal == orient.ordinal ^ 1


class TestBlockKinds:
    def test_flags_name_the_piston_bases_and_heads(self):
        bases = {BlockKind.PISTON, BlockKind.STICKY_PISTON}
        heads = {BlockKind.PISTON_HEAD_NORMAL, BlockKind.PISTON_HEAD_STICKY}
        for kind in BlockKind:
            assert (kind.piston, kind.head) == (kind in bases, kind in heads)


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
        assert place_shape(w, []).blocks == {}

    def test_blocks_land_at_their_own_positions(self):
        w = place_shape(WorldState(), [BlockPlacement((1, 2, 0), BlockKind.REDSTONE_BLOCK, N)])
        assert list(w.blocks) == [(1, 2, 0)]
        assert w.tick == 0

    def test_placed_blocks_are_unextended_blocks(self):
        # place_shape takes each Block from a table built at import.
        shape = [BlockPlacement((0, 0, 0), Q, N), BlockPlacement((1, 0, 0), BlockKind.PISTON, Orientation.UP)]
        w = place_shape(WorldState(), shape)
        assert len(w.blocks) == 2
        for p, b in zip(shape, w.blocks.values()):
            assert type(b) is Block
            assert (b.kind, b.orient) == (p.kind, p.orient) and b.extended is False

    def test_overlap_rejected(self):
        shape = [BlockPlacement((0, 0, 0), Q, N), BlockPlacement((0, 0, 0), Q, N)]
        with pytest.raises(ValueError, match=r"^target cell \(0, 0, 0\) already occupied$"):
            place_shape(WorldState(), shape)

    def test_occupied_target_rejected(self):
        w = world_with((1, 2, 1))
        with pytest.raises(ValueError, match=r"^target cell \(1, 2, 1\) already occupied$"):
            place_shape(w, [BlockPlacement((1, 2, 1), Q, N)])

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError, match=r"^local position \(3, 0, 0\) outside \[0,3\)\^3$"):
            place_shape(WorldState(), [BlockPlacement((3, 0, 0), Q, N)])

    @pytest.mark.parametrize("pos", [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (3, 0, 0), (0, 3, 0), (0, 0, 3)])
    def test_out_of_bounds_on_every_side(self, pos):
        place_shape(WorldState(), [BlockPlacement((2, 2, 2), Q, N), BlockPlacement((0, 0, 0), Q, N)])  # corners fit
        with pytest.raises(ValueError, match=f"^{re.escape(f'local position {pos} outside [0,3)^3')}$"):
            place_shape(WorldState(), [BlockPlacement(pos, Q, N)])

    def test_air_rejected(self):
        # Air is the absence of a block: no kind names it, so no shape holds it.
        assert "AIR" not in BlockKind.__members__
        with pytest.raises(ValueError, match=r"^line 1: '0 0 0 AIR NORTH'$"):
            parse_shape("0 0 0 AIR NORTH\n")

    def test_count_matches_placements(self):
        w = world_with((0, 0, 0), (1, 2, 0), (2, 2, 2))
        assert count_blocks(w, Box((0, 0, 0), (3, 3, 3))) == 3


def single_block_shapes():
    """One shape per (kind, facing) pair a shape may hold: 36 in all."""
    return [
        [BlockPlacement((1, 1, 1), kind, orient)]
        for kind in BlockSet.OBSERVER.members
        for orient in Orientation
    ]


def random_decoded_shapes(count, seed):
    rng = np.random.default_rng(seed)
    cfg = DecodeConfig(block_set=BlockSet.OBSERVER, emulate_observer_bug=False)
    return [decode(random_genome(rng, cfg.genome_length), cfg) for _ in range(count)]


class TestPlacementTable:
    """`place_shape` takes its blocks from a shared table. Placing must equal
    writing `Block(kind, facing, False)` at each placement's position, in
    shape order, for a shape as given and as `apply_observer_bug` rewrites it."""

    def assert_places(self, shapes):
        rewritten = 0
        for shape in shapes:
            fixed = apply_observer_bug(shape)
            for placed in (shape, fixed):
                world = place_shape(WorldState(), placed)
                expected = [(p.pos, Block(p.kind, p.orient, False)) for p in placed]
                assert list(world.blocks.items()) == expected
                assert all(type(b) is Block for b in world.blocks.values())
                assert world.tick == 0 and absolute_times(world) == ([], [])
            rewritten += fixed != shape
        assert rewritten > 0  # some shapes hold an Up or Down observer

    def test_every_kind_and_facing(self):
        shapes = single_block_shapes()
        assert len({(s[0].kind, s[0].orient) for s in shapes}) == 36
        self.assert_places(shapes)

    def test_random_decoded_shapes(self):
        self.assert_places(random_decoded_shapes(500, seed=21))

    @pytest.mark.parametrize("kind", [BlockKind.PISTON_HEAD_NORMAL, BlockKind.PISTON_HEAD_STICKY])
    def test_heads_are_not_shape_blocks(self, kind):
        with pytest.raises(ValueError):
            place_shape(WorldState(), [BlockPlacement((0, 0, 0), kind, N)])


class TestCenterOfMass:
    def test_symmetric_pair(self):
        w = world_with((0, 0, 0), (2, 0, 0))
        assert center_of_mass(w, Box((-5, -5, -5), (11, 11, 11))) == (1.0, 0.0, 0.0)

    def test_single_block(self):
        w = WorldState()
        w = place_shape(w, [BlockPlacement((2, 1, 0), Q, N)])
        assert center_of_mass(w, Box((0, 0, 0), (10, 10, 10))) == (2.0, 1.0, 0.0)

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
        with pytest.raises(ValueError, match="^line 1: expected 5 fields, got 4$"):
            parse_shape("0 0 QUARTZ_BLOCK NORTH\n")
