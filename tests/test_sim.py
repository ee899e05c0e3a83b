"""Simulator tests around hand-traced fixtures.

Expected worlds below were derived by hand from the documented rules (power
adjacency, two-tick piston delays, FIFO event order, slime closures, observer
pulses) and are frozen here; the simulator must reproduce them exactly.
"""

import pytest

from voxelflight import (
    Block,
    BlockKind,
    BlockPlacement,
    Orientation,
    TickConfig,
    WorldState,
    compute_push_set,
    place_shape,
    run_until,
    step,
)

from helpers import translated

K = BlockKind
O = Orientation
CFG = TickConfig()


def make_world(entries):
    """entries: {pos: (kind, orient[, extended])}"""
    w = WorldState()
    for pos, spec in entries.items():
        w.blocks[pos] = Block(spec[0], spec[1], spec[2] if len(spec) > 2 else False)
    return w


def run_ticks(world, n, cfg=CFG):
    for _ in range(n):
        world, moved = step(world, cfg)
    return world


def occupancy(world):
    return {pos: (b.kind, b.extended) for pos, b in world.blocks.items()}


class TestPushSet:
    def test_empty_front_is_empty_set(self):
        w = make_world({(0, 0, 0): (K.PISTON, O.EAST)})
        assert compute_push_set(w, (0, 0, 0), O.EAST) == set()

    def test_single_block(self):
        w = make_world({(0, 0, 0): (K.PISTON, O.EAST), (1, 0, 0): (K.QUARTZ_BLOCK, O.NORTH)})
        assert compute_push_set(w, (0, 0, 0), O.EAST) == {(1, 0, 0)}

    def test_slime_recruits_block_above(self):
        w = make_world({
            (0, 0, 0): (K.PISTON, O.EAST),
            (1, 0, 0): (K.SLIME_BLOCK, O.NORTH),
            (1, 1, 0): (K.QUARTZ_BLOCK, O.NORTH),
        })
        # slime directly in front loops back onto the pusher: blocked
        assert compute_push_set(w, (0, 0, 0), O.EAST) is None

    def test_slime_one_step_out_recruits_sideways(self):
        w = make_world({
            (0, 0, 0): (K.PISTON, O.EAST),
            (1, 0, 0): (K.QUARTZ_BLOCK, O.NORTH),
            (2, 0, 0): (K.SLIME_BLOCK, O.NORTH),
            (2, 1, 0): (K.QUARTZ_BLOCK, O.NORTH),
        })
        assert compute_push_set(w, (0, 0, 0), O.EAST) == {(1, 0, 0), (2, 0, 0), (2, 1, 0)}

    def test_column_of_twelve_moves_thirteen_blocks(self):
        cells = {(x, 0, 0): (K.QUARTZ_BLOCK, O.NORTH) for x in range(1, 13)}
        cells[(0, 0, 0)] = (K.PISTON, O.EAST)
        w = make_world(cells)
        assert len(compute_push_set(w, (0, 0, 0), O.EAST)) == 12
        w.blocks[(13, 0, 0)] = Block(K.QUARTZ_BLOCK, O.NORTH)
        assert compute_push_set(w, (0, 0, 0), O.EAST) is None

    def test_head_in_path_blocks(self):
        w = make_world({
            (0, 0, 0): (K.PISTON, O.EAST),
            (1, 0, 0): (K.QUARTZ_BLOCK, O.NORTH),
            (2, 0, 0): (K.PISTON_HEAD_NORMAL, O.WEST),
        })
        assert compute_push_set(w, (0, 0, 0), O.EAST) is None

    def test_extended_piston_in_path_blocks(self):
        w = make_world({
            (0, 0, 0): (K.PISTON, O.EAST),
            (1, 0, 0): (K.STICKY_PISTON, O.NORTH, True),
        })
        assert compute_push_set(w, (0, 0, 0), O.EAST) is None


class TestExtensionFixture:
    """Redstone at x=0 powers an east piston at x=1 with quartz at x=2."""

    def setup_method(self):
        self.world = place_shape(WorldState(), [
            BlockPlacement((0, 0, 0), K.REDSTONE_BLOCK, O.NORTH),
            BlockPlacement((1, 0, 0), K.PISTON, O.EAST),
            BlockPlacement((2, 0, 0), K.QUARTZ_BLOCK, O.NORTH),
        ], (0, 0, 0))

    def test_extends_after_delay(self):
        w, moved = step(self.world, CFG)
        assert occupancy(w) == occupancy(self.world) and moved == set()
        w, moved = step(w, CFG)
        assert moved == set()
        w, moved = step(w, CFG)  # extension event due at tick 2 fires here
        assert moved == {(2, 0, 0), (3, 0, 0)}
        assert occupancy(w) == {
            (0, 0, 0): (K.REDSTONE_BLOCK, False),
            (1, 0, 0): (K.PISTON, True),
            (2, 0, 0): (K.PISTON_HEAD_NORMAL, False),
            (3, 0, 0): (K.QUARTZ_BLOCK, False),
        }

    def test_stays_extended_under_steady_power(self):
        w = run_ticks(self.world, 3)
        later = run_ticks(w, 7)
        assert occupancy(later) == occupancy(w)


class TestPushLimitFixture:
    def _world(self, column):
        shape = {(0, 1, 0): (K.REDSTONE_BLOCK, O.NORTH), (0, 0, 0): (K.PISTON, O.EAST)}
        shape.update({(x, 0, 0): (K.QUARTZ_BLOCK, O.NORTH) for x in range(1, column + 1)})
        return make_world(shape)

    def test_thirteen_blocks_never_extend(self):
        w = self._world(13)
        before = occupancy(w)
        assert occupancy(run_ticks(w, 10)) == before

    def test_twelve_blocks_extend(self):
        w = run_ticks(self._world(12), 3)
        assert w.blocks[(0, 0, 0)].extended
        assert w.blocks[(13, 0, 0)].kind is K.QUARTZ_BLOCK


class TestStickyRetraction:
    def test_pull_with_slime_closure(self):
        # Extended sticky piston, unpowered: retracts and drags the slime
        # against its head plus the quartz riding on that slime.
        w = make_world({
            (0, 0, 0): (K.STICKY_PISTON, O.EAST, True),
            (1, 0, 0): (K.PISTON_HEAD_STICKY, O.EAST),
            (2, 0, 0): (K.SLIME_BLOCK, O.NORTH),
            (2, 1, 0): (K.QUARTZ_BLOCK, O.NORTH),
        })
        w = run_ticks(w, 3)
        assert occupancy(w) == {
            (0, 0, 0): (K.STICKY_PISTON, False),
            (1, 0, 0): (K.SLIME_BLOCK, False),
            (1, 1, 0): (K.QUARTZ_BLOCK, False),
        }

    def test_normal_piston_leaves_block_behind(self):
        w = make_world({
            (0, 0, 0): (K.PISTON, O.EAST, True),
            (1, 0, 0): (K.PISTON_HEAD_NORMAL, O.EAST),
            (2, 0, 0): (K.QUARTZ_BLOCK, O.NORTH),
        })
        w = run_ticks(w, 3)
        assert occupancy(w) == {
            (0, 0, 0): (K.PISTON, False),
            (2, 0, 0): (K.QUARTZ_BLOCK, False),
        }

    def test_pull_fails_when_destination_occupied(self):
        # The slime closure drags a quartz whose destination is occupied by a
        # non-member, so the whole pull is cancelled (head still retracts).
        w = make_world({
            (0, 0, 0): (K.STICKY_PISTON, O.EAST, True),
            (1, 0, 0): (K.PISTON_HEAD_STICKY, O.EAST),
            (2, 0, 0): (K.SLIME_BLOCK, O.NORTH),
            (3, 1, 0): (K.QUARTZ_BLOCK, O.NORTH),
            (2, 1, 0): (K.QUARTZ_BLOCK, O.NORTH),
            (1, 1, 0): (K.REDSTONE_BLOCK, O.NORTH),
        })
        # redstone at (1,1,0) powers (1,0,0)=head and (0,1,0), not the piston
        w = run_ticks(w, 3)
        assert w.blocks[(0, 0, 0)].extended is False
        assert (1, 0, 0) not in w.blocks
        assert w.blocks[(2, 0, 0)].kind is K.SLIME_BLOCK  # stayed put


class TestOscillatorFixture:
    """Piston, redstone baton, west-facing sticky piston: a period-7 shuttle.

    The pusher throws the redstone east; the sticky piston pushes it back and
    then pulls it east again, yielding a persistent oscillation with no net
    translation. Tick-by-tick expectations follow the hand trace.
    """

    def setup_method(self):
        self.world = place_shape(WorldState(), [
            BlockPlacement((0, 0, 0), K.PISTON, O.EAST),
            BlockPlacement((1, 0, 0), K.REDSTONE_BLOCK, O.NORTH),
            BlockPlacement((2, 0, 0), K.STICKY_PISTON, O.WEST),
        ], (0, 0, 0))

    def test_cycle_states(self):
        w = run_ticks(self.world, 3)  # pusher fired at tick 2
        assert occupancy(w) == {
            (0, 0, 0): (K.PISTON, True),
            (1, 0, 0): (K.PISTON_HEAD_NORMAL, False),
            (2, 0, 0): (K.REDSTONE_BLOCK, False),
            (3, 0, 0): (K.STICKY_PISTON, False),
        }
        w = run_ticks(w, 3)  # tick 5: pusher retracted, sticky pushed baton back
        assert occupancy(w) == {
            (0, 0, 0): (K.PISTON, False),
            (1, 0, 0): (K.REDSTONE_BLOCK, False),
            (2, 0, 0): (K.PISTON_HEAD_STICKY, False),
            (3, 0, 0): (K.STICKY_PISTON, True),
        }
        w = run_ticks(w, 3)  # tick 8: sticky retracted and pulled the baton east
        assert occupancy(w) == {
            (0, 0, 0): (K.PISTON, False),
            (2, 0, 0): (K.REDSTONE_BLOCK, False),
            (3, 0, 0): (K.STICKY_PISTON, False),
        }

    def test_period_seven_steady_state(self):
        w = run_ticks(self.world, 10)
        reference = occupancy(w)
        w2 = run_ticks(w, 7)
        assert occupancy(w2) == reference
        assert occupancy(run_ticks(w2, 7)) == reference

    def test_block_conservation(self):
        w = self.world
        baseline = sorted(b.kind.value for b in w.blocks.values() if b.kind not in (K.PISTON_HEAD_NORMAL, K.PISTON_HEAD_STICKY))
        for _ in range(20):
            w, _ = step(w, CFG)
            kinds = sorted(b.kind.value for b in w.blocks.values() if b.kind not in (K.PISTON_HEAD_NORMAL, K.PISTON_HEAD_STICKY))
            assert kinds == baseline
            heads = {pos for pos, b in w.blocks.items() if b.kind in (K.PISTON_HEAD_NORMAL, K.PISTON_HEAD_STICKY)}
            expected_heads = set()
            for pos, b in w.blocks.items():
                if b.extended:
                    v = b.orient.vector
                    expected_heads.add((pos[0] + v[0], pos[1] + v[1], pos[2] + v[2]))
            assert heads == expected_heads

    def test_translation_equivariance(self):
        offset = (7, -3, 11)
        w1 = self.world
        w2 = translated(self.world, offset)
        for _ in range(15):
            w1, m1 = step(w1, CFG)
            w2, m2 = step(w2, CFG)
            assert w2.blocks == translated(w1, offset).blocks
            assert m2 == {(p[0] + offset[0], p[1] + offset[1], p[2] + offset[2]) for p in m1}

    def test_determinism(self):
        a = run_ticks(self.world, 25)
        b = run_ticks(self.world, 25)
        assert a == b


class TestObserverFixture:
    """A pushed quartz block triggers an observer, whose pulse fires a second
    piston: movement -> pulse -> movement."""

    def setup_method(self):
        self.world = place_shape(WorldState(), [
            BlockPlacement((0, 0, 0), K.REDSTONE_BLOCK, O.NORTH),
            BlockPlacement((1, 0, 0), K.PISTON, O.EAST),
            BlockPlacement((2, 0, 0), K.QUARTZ_BLOCK, O.NORTH),
            BlockPlacement((2, 0, 1), K.OBSERVER, O.NORTH),  # senses (2,0,0), outputs (2,0,2)
            BlockPlacement((2, 0, 2), K.PISTON, O.EAST),
        ], (0, 0, 0))

    def test_pulse_chain(self):
        w = run_ticks(self.world, 3)
        assert w.pulses == [((2, 0, 2), 4, 6)]
        assert not w.blocks[(2, 0, 2)].extended
        w = run_ticks(w, 4)  # tick 7: the pulsed piston has extended
        assert w.blocks[(2, 0, 2)].extended
        assert w.blocks[(3, 0, 2)].kind is K.PISTON_HEAD_NORMAL
        w = run_ticks(w, 3)  # tick 10: pulse long gone, piston retracted
        assert not w.blocks[(2, 0, 2)].extended
        assert (3, 0, 2) not in w.blocks

    def test_stable_after_chain(self):
        w = run_ticks(self.world, 10)
        assert occupancy(run_ticks(w, 10)) == occupancy(w)

    def test_up_down_observer_bug_rewrite(self):
        from voxelflight import apply_observer_bug

        shape = [
            BlockPlacement((0, 0, 0), K.OBSERVER, O.UP),
            BlockPlacement((1, 0, 0), K.OBSERVER, O.DOWN),
            BlockPlacement((2, 0, 0), K.OBSERVER, O.EAST),
            BlockPlacement((0, 1, 0), K.PISTON, O.UP),
        ]
        rewritten = apply_observer_bug(shape)
        assert rewritten[0].orient is O.NORTH
        assert rewritten[1].orient is O.NORTH
        assert rewritten[2].orient is O.EAST  # horizontal observers untouched
        assert rewritten[3].orient is O.UP  # pistons untouched


class TestOpposedPistons:
    def test_no_overlapping_writes(self):
        # Two pistons face each other around one quartz; the later-firing one
        # sees the earlier one's head and blocks instead of overwriting.
        w = make_world({
            (0, 1, 0): (K.REDSTONE_BLOCK, O.NORTH),
            (0, 0, 0): (K.PISTON, O.EAST),
            (1, 0, 0): (K.QUARTZ_BLOCK, O.NORTH),
            (3, 0, 0): (K.PISTON, O.WEST),
            (3, 1, 0): (K.REDSTONE_BLOCK, O.NORTH),
        })
        w = run_ticks(w, 3)
        assert w.blocks[(0, 0, 0)].extended
        assert not w.blocks[(3, 0, 0)].extended
        assert w.blocks[(2, 0, 0)].kind is K.QUARTZ_BLOCK
        assert w.blocks[(1, 0, 0)].kind is K.PISTON_HEAD_NORMAL


class TestFixedPoint:
    def test_static_world_unchanged(self):
        w = make_world({
            (0, 0, 0): (K.QUARTZ_BLOCK, O.NORTH),
            (1, 0, 0): (K.REDSTONE_BLOCK, O.NORTH),
            (0, 1, 0): (K.SLIME_BLOCK, O.NORTH),
        })
        stepped, moved = step(w, CFG)
        assert stepped.blocks == w.blocks
        assert moved == set()


class TestRunUntil:
    def test_polls_every_second_and_stops_early(self):
        seconds = []

        def cb(world, second):
            seconds.append((second, world.tick))
            return second < 2

        w = make_world({(0, 0, 0): (K.QUARTZ_BLOCK, O.NORTH)})
        run_until(w, CFG, 200, cb)
        assert seconds == [(0, 0), (1, 20), (2, 40)]

    def test_immediate_termination(self):
        w = make_world({(0, 0, 0): (K.QUARTZ_BLOCK, O.NORTH)})
        out = run_until(w, CFG, 100, lambda world, second: False)
        assert out.tick == 0

    def test_max_ticks_cap(self):
        calls = []
        w = WorldState()
        out = run_until(w, CFG, 30, lambda world, second: calls.append(second) or True)
        assert out.tick == 30
        assert calls == [0, 1]  # the trailing partial second is not polled

    def test_invalid_max_ticks(self):
        with pytest.raises(ValueError):
            run_until(WorldState(), CFG, 0, lambda w, s: True)


class TestReferenceFlyer:
    def test_advances_one_cell_per_ten_ticks(self, reference_flyer):
        w = place_shape(WorldState(), reference_flyer, (0, 0, 0))
        w = run_ticks(w, 13)
        snapshot = occupancy(w)
        w2 = run_ticks(w, 10)
        shifted = {(p[0] + 1, p[1], p[2]): v for p, v in snapshot.items() if p != (0, 2, 2)}
        shifted[(0, 2, 2)] = snapshot[(0, 2, 2)]  # the stranded quartz stays
        assert occupancy(w2) == shifted

    def test_leaves_watch_region_quickly(self, reference_flyer):
        from voxelflight import Box, count_blocks

        watch = Box.cube((1, 1, 1), 9)
        w = place_shape(WorldState(), reference_flyer, (0, 0, 0))
        placed = len(reference_flyer)
        for _ in range(200):
            w, _ = step(w, CFG)
            if placed - count_blocks(w, watch) > 6:
                break
        assert w.tick < 200
        assert placed - count_blocks(w, watch) > 6
