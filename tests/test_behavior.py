import numpy as np
import pytest

from voxelflight import (
    ArchiveLayout,
    BlockKind,
    BlockPlacement,
    BlockSet,
    Characterization,
    DecodeConfig,
    FitnessConfig,
    Orientation,
    TickConfig,
    block_count_bc,
    decode,
    evaluate,
    negative_space,
    piston_orientation_bc,
)

from helpers import genome_for_shape

K = BlockKind
O = Orientation


def quartz_at(*positions):
    return [BlockPlacement(p, K.QUARTZ_BLOCK, O.NORTH) for p in positions]


def brute_force_negative_space(shape):
    """Independent oracle: enumerate every bounding-cuboid cell explicitly."""
    if not shape:
        return 0
    occupied = {p.pos for p in shape}
    los = [min(p[i] for p in occupied) for i in range(3)]
    his = [max(p[i] for p in occupied) for i in range(3)]
    air = 0
    for x in range(los[0], his[0] + 1):
        for y in range(los[1], his[1] + 1):
            for z in range(los[2], his[2] + 1):
                if (x, y, z) not in occupied:
                    air += 1
    return air


class TestBlockCount:
    def test_empty(self):
        assert block_count_bc([]) == (0,)

    def test_solid_two_cube(self):
        cells = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
        assert block_count_bc(quartz_at(*cells)) == (8,)

    def test_full_cube(self):
        cells = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        assert block_count_bc(quartz_at(*cells)) == (27,)


class TestNegativeSpace:
    def test_solid_two_cube_is_zero(self):
        cells = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
        assert negative_space(quartz_at(*cells)) == 0

    def test_opposite_corners_of_two_cube(self):
        assert negative_space(quartz_at((0, 0, 0), (1, 1, 1))) == 6

    def test_twenty_six_blocks_leave_one(self):
        cells = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        cells.remove((1, 1, 1))
        assert negative_space(quartz_at(*cells)) == 1

    def test_empty_shape_convention(self):
        assert negative_space([]) == 0

    def test_matches_brute_force_oracle_on_random_shapes(self):
        rng = np.random.default_rng(777)
        cells = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        for _ in range(1000):
            n = int(rng.integers(1, 28))
            picks = rng.choice(27, size=n, replace=False)
            shape = quartz_at(*(cells[i] for i in picks))
            assert negative_space(shape) == brute_force_negative_space(shape)

    def test_count_plus_negative_space_bounded_by_cuboid(self):
        rng = np.random.default_rng(778)
        cells = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        for _ in range(200):
            n = int(rng.integers(1, 28))
            picks = rng.choice(27, size=n, replace=False)
            shape = quartz_at(*(cells[i] for i in picks))
            assert len(shape) + negative_space(shape) <= 27


class TestPistonOrientation:
    def test_no_pistons(self):
        assert piston_orientation_bc(quartz_at((0, 0, 0))) == (0, 0, 0)

    def test_axis_grouping(self):
        shape = [
            BlockPlacement((0, 0, 0), K.PISTON, O.NORTH),
            BlockPlacement((1, 0, 0), K.PISTON, O.NORTH),
            BlockPlacement((2, 0, 0), K.STICKY_PISTON, O.SOUTH),
            BlockPlacement((0, 1, 0), K.PISTON, O.EAST),
        ]
        assert piston_orientation_bc(shape) == (3, 1, 0)

    def test_clamp_at_five(self):
        shape = [BlockPlacement((i % 3, i // 3, 0), K.PISTON, O.UP) for i in range(7)]
        assert piston_orientation_bc(shape) == (0, 0, 5)

    def test_invariant_to_non_piston_changes(self):
        pistons = [BlockPlacement((0, 0, 0), K.PISTON, O.WEST)]
        decorated = pistons + quartz_at((1, 1, 1), (2, 2, 2)) + [
            BlockPlacement((0, 2, 0), K.OBSERVER, O.NORTH),
        ]
        assert piston_orientation_bc(pistons) == piston_orientation_bc(decorated)

    def test_matches_a_count_by_explicit_axis_sets(self):
        # The descriptor reads a facing's axis from its ordinal; the oracle names each axis's facings.
        axes = ({O.NORTH, O.SOUTH}, {O.EAST, O.WEST}, {O.UP, O.DOWN})
        pistons = {K.PISTON, K.STICKY_PISTON}
        kinds, orients = BlockSet.OBSERVER.members, tuple(O)
        cells = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        rng = np.random.default_rng(779)
        seen = set()
        for _ in range(1000):
            picks = rng.choice(27, size=int(rng.integers(0, 28)), replace=False)
            shape = [BlockPlacement(cells[i], kinds[rng.integers(len(kinds))], orients[rng.integers(6)]) for i in picks]
            expected = tuple(min(sum(p.kind in pistons and p.orient in axis for p in shape), 5) for axis in axes)
            assert piston_orientation_bc(shape) == expected
            seen.update(expected)
        assert seen == set(range(6))  # every bin value occurs, the cap among them


class TestLayouts:
    def test_dims_and_totals(self):
        assert ArchiveLayout(Characterization.BLOCK_COUNT).dims == (28,)
        assert ArchiveLayout(Characterization.BLOCK_COUNT).total_bins == 28
        assert ArchiveLayout(Characterization.COUNT_NEGATIVE_SPACE).dims == (28, 27)
        assert ArchiveLayout(Characterization.COUNT_NEGATIVE_SPACE).total_bins == 756
        assert ArchiveLayout(Characterization.PISTON_ORIENTATION).dims == (6, 6, 6)
        assert ArchiveLayout(Characterization.PISTON_ORIENTATION).total_bins == 216

    def test_bin_index_block_count(self):
        layout = ArchiveLayout(Characterization.BLOCK_COUNT)
        assert layout.bin_index((0,)) == 0
        assert layout.bin_index((27,)) == 27

    def test_bin_index_row_major(self):
        layout = ArchiveLayout(Characterization.PISTON_ORIENTATION)
        assert layout.bin_index((1, 2, 3)) == 1 * 36 + 2 * 6 + 3

    def test_bin_index_injective(self):
        layout = ArchiveLayout(Characterization.PISTON_ORIENTATION)
        seen = {layout.bin_index((a, b, c)) for a in range(6) for b in range(6) for c in range(6)}
        assert len(seen) == 216

    def test_bounds_errors(self):
        layout = ArchiveLayout(Characterization.BLOCK_COUNT)
        with pytest.raises(ValueError, match=r"^descriptor \(28,\) outside dims \(28,\)$"):
            layout.bin_index((28,))
        with pytest.raises(ValueError, match="^descriptor arity 2 != layout arity 1$"):
            layout.bin_index((1, 1))

    def test_descriptor_dispatch(self):
        shape = quartz_at((0, 0, 0), (1, 1, 1))
        assert ArchiveLayout(Characterization.BLOCK_COUNT).descriptor(shape) == (2,)
        assert ArchiveLayout(Characterization.COUNT_NEGATIVE_SPACE).descriptor(shape) == (2, 6)
        assert ArchiveLayout(Characterization.PISTON_ORIENTATION).descriptor(shape) == (0, 0, 0)


class TestReferenceFlyerCalibration:
    """The reference flyer as a genome under the observer block set: what it
    decodes to, how it scores, and the bin each method files it in. A change
    to the encoding, the simulator or a layout moves one of these numbers."""

    def test_genome_decodes_flies_and_bins(self, reference_flyer):
        decode_cfg = DecodeConfig(block_set=BlockSet.OBSERVER)
        genome = genome_for_shape(reference_flyer, decode_cfg)
        shape = decode(genome, decode_cfg)
        assert set(shape) == set(reference_flyer) and len(shape) == len(reference_flyer)
        result = evaluate(genome, decode_cfg, TickConfig(), FitnessConfig())
        assert (result.fitness, result.flew, result.direction, result.leftover_count, result.ticks_used) == (
            54.9, True, O.EAST, 1, 60,
        )
        placements = {}
        for characterization in Characterization:
            layout = ArchiveLayout(characterization)
            descriptor = layout.descriptor(shape)
            placements[characterization] = (descriptor, layout.bin_index(descriptor))
        assert placements == {
            Characterization.PISTON_ORIENTATION: ((0, 2, 0), 12),
            Characterization.BLOCK_COUNT: ((13,), 13),
            Characterization.COUNT_NEGATIVE_SPACE: ((13, 14), 365),
        }
