"""Simulator tests around hand-traced fixtures.

Expected worlds below were derived by hand from the documented rules (power
adjacency, the two-tick piston delay, FIFO event order, slime closures,
observer pulses) and are frozen here; the simulator must reproduce them
exactly.
"""

import copy
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxelflight import (
    Block,
    BlockKind,
    BlockPlacement,
    BlockSet,
    DecodeConfig,
    Orientation,
    TickConfig,
    WorldState,
    apply_observer_bug,
    compute_power,
    compute_push_set,
    decode,
    parse_shape,
    place_shape,
    random_genome,
    run_until,
    step,
)
from voxelflight.sim import _find_cycle, _immovable, _moved_forward, _repeats, _scan

from helpers import (
    Pulse,
    TickEvent,
    absolute_times,
    absolute_world,
    add,
    reference_immovable,
    reference_power,
    reference_run_until,
    reference_step,
    settled,
    translated,
    turned,
    turned_cell,
    TURNS_AND_MIRRORS,
    with_absolute_times,
)

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
        ])

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
        # step builds the base and the head with tuple.__new__, which bypasses the constructor.
        assert all(type(b) is Block for b in w.blocks.values())
        assert w.blocks[(1, 0, 0)].extended is True and w.blocks[(2, 0, 0)].extended is False

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
        ])

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
        ])

    def test_pulse_chain(self):
        w = run_ticks(self.world, 3)
        assert absolute_times(w)[1] == [((2, 0, 2), 4, 6)]
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
        run_until(w, CFG, 10, cb)
        assert seconds == [(0, 0), (1, 20), (2, 40)]

    def test_immediate_termination(self):
        w = make_world({(0, 0, 0): (K.QUARTZ_BLOCK, O.NORTH)})
        out = run_until(w, CFG, 5, lambda world, second: False)
        assert out.tick == 0

    def test_runs_whole_seconds(self):
        calls = []
        w = WorldState()
        out = run_until(w, CFG, 2, lambda world, second: calls.append(second) or True)
        assert out.tick == 40
        assert calls == [0, 1, 2]

    def test_invalid_seconds(self):
        with pytest.raises(ValueError):
            run_until(WorldState(), CFG, 0, lambda w, s: True)


class TestReferenceFlyer:
    def test_advances_one_cell_per_ten_ticks(self, reference_flyer):
        w = place_shape(WorldState(), reference_flyer)
        w = run_ticks(w, 13)
        snapshot = occupancy(w)
        w2 = run_ticks(w, 10)
        shifted = {(p[0] + 1, p[1], p[2]): v for p, v in snapshot.items() if p != (0, 2, 2)}
        shifted[(0, 2, 2)] = snapshot[(0, 2, 2)]  # the stranded quartz stays
        assert occupancy(w2) == shifted

    def test_leaves_watch_region_quickly(self, reference_flyer):
        from voxelflight import Box, count_blocks

        watch = Box.cube((1, 1, 1), 9)
        w = place_shape(WorldState(), reference_flyer)
        placed = len(reference_flyer)
        for _ in range(200):
            w, _ = step(w, CFG)
            if placed - count_blocks(w, watch) > 6:
                break
        assert w.tick < 200
        assert placed - count_blocks(w, watch) > 6


def random_worlds(count, seed):
    """Freshly placed worlds from uniform random genomes: `count` per block
    set and observer-bug setting, each decoded under it, with the
    `TickConfig` they run under."""
    rng = np.random.default_rng(seed)
    worlds = []
    for block_set in BlockSet:
        for bug in (True, False):
            cfg = DecodeConfig(block_set, bug)
            for _ in range(count):
                shape = decode(random_genome(rng, cfg.genome_length), cfg)
                worlds.append((place_shape(WorldState(), shape), TickConfig()))
    return worlds


RANDOM_WORLDS = random_worlds(75, seed=2024)


def polls_of(run, world, cfg, seconds):
    """Run `run` (a run_until) recording every poll; returns (polls, final world)."""
    polls = []

    def record(w, second):
        polls.append((second, w.tick, dict(w.blocks)))
        return True

    return polls, run(world, cfg, seconds, record)


def unsettled_after_pulse():
    """An extended piston at tick 6 whose observer pulse ended at tick 6: no
    events, no pulses, but unpowered, so it retracts."""
    w = make_world({(0, 0, 0): (K.PISTON, O.EAST, True), (1, 0, 0): (K.PISTON_HEAD_NORMAL, O.EAST)})
    w.tick = 5
    w = with_absolute_times(w, pulses=[Pulse((0, 0, 0), 4, 6)])  # active now, ended at tick 6
    w, _ = step(w, CFG)
    return w


class TestFastForward:
    """`run_until` skips ticks once the world has settled; it must give
    exactly the polls and the final world of stepping every tick."""

    def test_matches_stepping_every_tick_on_random_genomes(self):
        for world, cfg in RANDOM_WORLDS:
            fast_polls, fast = polls_of(run_until, world, cfg, 10)
            naive_polls, naive = polls_of(reference_run_until, world, cfg, 10)
            assert fast_polls == naive_polls
            assert fast == naive  # blocks, tick, events, pulses

    def test_matches_on_fixtures(self, reference_flyer):
        observer_fixture = TestObserverFixture()
        observer_fixture.setup_method()
        for world in (place_shape(WorldState(), reference_flyer), observer_fixture.world, unsettled_after_pulse()):
            fast_polls, fast = polls_of(run_until, world, CFG, 10)
            naive_polls, naive = polls_of(reference_run_until, world, CFG, 10)
            assert fast_polls == naive_polls
            assert fast == naive

    def test_random_genomes_reach_fixed_points(self):
        # Guards the equivalence test above against a vacuous pass.
        count = sum(settled(run_ticks(world, 40, cfg)) for world, cfg in RANDOM_WORLDS)
        assert 0 < count < len(RANDOM_WORLDS)


class TestFixedPointSoundness:
    def test_fixed_point_stays_fixed(self):
        checked = 0
        for world, cfg in RANDOM_WORLDS:
            for _ in range(100):
                if settled(world):
                    later = world
                    for _ in range(25):
                        later, moved = step(later, cfg)
                        assert moved == set()
                        assert (later.blocks, later.events, later.pulses) == (world.blocks, world.events, world.pulses)
                    assert settled(later)
                    checked += 1
                    break
                world, _ = step(world, cfg)
        assert checked > len(RANDOM_WORLDS) // 2

    def test_extended_piston_after_pulse_is_not_fixed(self):
        w = unsettled_after_pulse()
        assert (w.tick, *absolute_times(w)) == (6, [], [])
        assert w.blocks[(0, 0, 0)].extended
        assert not settled(w)
        w = run_ticks(w, 3)
        assert not w.blocks[(0, 0, 0)].extended
        assert (1, 0, 0) not in w.blocks


class TestPurity:
    """Neither `step` nor `run_until` modifies the world it is given."""

    def worlds(self, reference_flyer):
        oscillator = TestOscillatorFixture()
        oscillator.setup_method()
        observer_fixture = TestObserverFixture()
        observer_fixture.setup_method()
        quiet = make_world({(0, 0, 0): (K.QUARTZ_BLOCK, O.NORTH), (1, 0, 0): (K.REDSTONE_BLOCK, O.NORTH)})
        assert settled(quiet)
        return [
            quiet,
            oscillator.world,
            observer_fixture.world,
            run_ticks(observer_fixture.world, 3),  # pending events and a pulse
            unsettled_after_pulse(),
            place_shape(WorldState(), reference_flyer),
        ]

    def test_step_leaves_input_unchanged(self, reference_flyer):
        for w in self.worlds(reference_flyer):
            before = copy.deepcopy(w)
            step(w, CFG)
            assert w == before

    def test_run_until_leaves_input_unchanged(self, reference_flyer):
        for w in self.worlds(reference_flyer):
            before = copy.deepcopy(w)
            out = run_until(w, CFG, 10, lambda world, second: True)
            assert w == before
            assert out.tick == before.tick + 200


def relative_state(world):
    """The world's state relative to its tick: its blocks and its queues,
    whose slots count ticks from the tick."""
    return frozenset(world.blocks.items()), world.events, world.pulses


def first_repeat(world, cfg, ticks=200):
    """(start, period) of the first repeated relative state within `ticks`
    steps, found by stepping every tick; None when no state repeats."""
    seen = {}
    for i in range(ticks + 1):
        key = relative_state(world)
        if key in seen:
            return seen[key], i - seen[key]
        seen[key] = i
        world, _ = step(world, cfg)
    return None


def blocked_powered_piston():
    """A powered piston facing 13 blocks, over the push limit: it never fires
    but schedules an extension every tick, so events are always pending."""
    return TestPushLimitFixture()._world(13)


def shuttle():
    """A sticky piston facing its own redstone block: it pushes the block
    away, loses power, pulls it back and extends again, period 6."""
    return make_world({(0, 0, 0): (K.STICKY_PISTON, O.SOUTH), (0, 0, 1): (K.REDSTONE_BLOCK, O.UP)})


def oscillator():
    """The period-7 shuttle of `TestOscillatorFixture`."""
    fixture = TestOscillatorFixture()
    fixture.setup_method()
    return fixture.world


def periodic_fixtures():
    return [
        blocked_powered_piston(),
        run_ticks(blocked_powered_piston(), 5),  # already cycling at the start
        shuttle(),
        run_ticks(shuttle(), 4),
        oscillator(),
    ]


@pytest.fixture(scope="module")
def pf_harvest():
    """Worlds of the busy shapes a fixed-seed 1,000-evaluation PF run
    evaluated: the last 60 distinct shapes that ran 80 ticks or more, as
    placed (observer rewrite applied)."""
    from voxelflight import FitnessConfig, SearchBudget, search

    decode_cfg, tick_cfg = DecodeConfig(block_set=BlockSet.OBSERVER), TickConfig()
    evaluated = []
    real_evaluate = search.evaluate

    def recording_evaluate(genome, *args):
        result = real_evaluate(genome, *args)
        evaluated.append((genome, result.ticks_used))
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "evaluate", recording_evaluate)
        search.mu_plus_lambda_run(SearchBudget(mu=20, lam=20, generations=49), decode_cfg, tick_cfg, FitnessConfig(), 2024)
    shapes = {}
    for genome, ticks in reversed(evaluated):
        if ticks >= 80:
            shapes.setdefault(tuple(apply_observer_bug(decode(genome, decode_cfg))), None)
    return [(place_shape(WorldState(), list(shape)), tick_cfg) for shape in list(shapes)[:60]]


def whole_polls_of(run, world, cfg, seconds):
    """Like `polls_of`, but records every polled world whole: (second, world)."""
    polls = []  # a copy is a snapshot: blocks, events and pulses hold immutable values
    final = run(world, cfg, seconds, lambda w, second: polls.append((second, w.copy())) or True)
    return polls, final


def assert_same_run(world, cfg, seconds):
    """`run_until` and stepping every tick give equal whole worlds at every
    poll and at the end."""
    fast_polls, fast = whole_polls_of(run_until, world, cfg, seconds)
    naive_polls, naive = whole_polls_of(reference_run_until, world, cfg, seconds)
    assert fast_polls == naive_polls
    assert fast == naive  # blocks, tick, events, pulses


class TestCycleFastForward:
    """`run_until` stops stepping at the first repeat of the world's state
    relative to its tick and jumps whole periods; polls and final worlds must
    equal stepping every tick."""

    def test_matches_stepping_every_tick_on_pf_harvest(self, pf_harvest):
        for world, cfg in pf_harvest:
            assert_same_run(world, cfg, 10)

    # One second; 20 laps of the period-7 oscillator; one evaluation; four.
    @pytest.mark.parametrize("seconds", [1, 7, 10, 40])
    def test_matches_on_periodic_fixtures(self, seconds):
        for world in periodic_fixtures():
            assert_same_run(world, CFG, seconds)

    def test_fixture_periods(self):
        # Period 1 with pending events: not settled, yet it cycles.
        blocked = run_ticks(blocked_powered_piston(), 5)
        assert any(blocked.events) and not settled(blocked)
        assert first_repeat(blocked, CFG) == (0, 1)
        assert first_repeat(shuttle(), CFG) == (2, 6)
        assert first_repeat(run_ticks(shuttle(), 4), CFG) == (0, 6)
        assert first_repeat(oscillator(), CFG)[1] == 7

    def test_steps_stop_at_the_first_repeat(self, monkeypatch):
        # A detector that never fires keeps every equivalence test above
        # green while stepping all 200 ticks; only the step count shows it.
        quiet = make_world({(0, 0, 0): (K.QUARTZ_BLOCK, O.NORTH), (1, 0, 0): (K.REDSTONE_BLOCK, O.NORTH)})
        start, period = first_repeat(oscillator(), CFG)
        calls = []

        def counting_step(world, cfg):
            calls.append(world.tick)
            return step(world, cfg)

        monkeypatch.setattr("voxelflight.sim.step", counting_step)
        assert run_until(quiet, CFG, 10, lambda world, second: True).tick == 200
        assert len(calls) == 1  # settled: a cycle of period 1, closed by one step
        calls.clear()
        assert run_until(oscillator(), CFG, 10, lambda world, second: True).tick == 200
        assert 0 < len(calls) <= start + 2 * period

    def test_steps_stop_exactly_at_the_first_repeat(self, monkeypatch, pf_harvest):
        # A detector that finds the repeat a period late, or never, steps
        # more often than the brute first repeat allows.
        worlds = pf_harvest + [(world, CFG) for world in periodic_fixtures()] + random_observer_worlds(200, seed=18)
        expected = []
        for world, cfg in worlds:
            repeat = first_repeat(world, cfg)
            expected.append(200 if repeat is None else sum(repeat))
        calls = []

        def counting_step(world, cfg):
            calls.append(world.tick)
            return step(world, cfg)

        monkeypatch.setattr("voxelflight.sim.step", counting_step)
        counts = []
        for world, cfg in worlds:
            calls.clear()
            run_until(world, cfg, 10, lambda w, second: True)
            counts.append(len(calls))
        assert counts == expected
        assert 1 in expected and max(expected) > 40  # settled worlds and late, long cycles both occur

    def test_pf_harvest_cycles_above_period_one(self, pf_harvest):
        # Guards the harvest equivalence test against a vacuous pass.
        repeats = [first_repeat(world, cfg) for world, cfg in pf_harvest]
        assert sum(1 for r in repeats if r is not None and r[1] > 1) > len(pf_harvest) // 2


def stepped_history(world, cfg, ticks):
    """`world` and the worlds after each of the next `ticks` steps."""
    history = [world]
    for _ in range(ticks):
        world, _moved = step(world, cfg)
        history.append(world)
    return history


def repeats_by_projection(earlier, later):
    """The definition `_repeats` must agree with: `later` equals `earlier`
    moved forward to its tick."""
    return _moved_forward(earlier, later.tick - earlier.tick) == later


def repeat_base():
    """A world with pending events (one due now, two next tick), an active
    pulse and an extended piston."""
    w = make_world({
        (0, 0, 0): (K.PISTON, O.EAST, True),
        (1, 0, 0): (K.PISTON_HEAD_NORMAL, O.EAST),
        (0, 0, 2): (K.STICKY_PISTON, O.UP),
    })
    w.tick = 10
    return with_absolute_times(
        w,
        [
            TickEvent(10, "retract", (0, 0, 0), O.EAST),
            TickEvent(11, "extend", (0, 0, 2), O.UP),
            TickEvent(11, "retract", (0, 0, 0), O.EAST),
        ],
        [Pulse((0, 0, 2), 9, 11)],
    )


def observer_clock():
    """A dense shape (a uniform random genome's) whose cycle carries observer
    pulses: period 6, repeating from tick 3 with a pulse pending."""
    return make_world({
        (0, 0, 0): (K.SLIME_BLOCK, O.UP),
        (0, 0, 1): (K.REDSTONE_BLOCK, O.WEST),
        (0, 0, 2): (K.OBSERVER, O.NORTH),
        (0, 1, 0): (K.SLIME_BLOCK, O.UP),
        (0, 1, 2): (K.QUARTZ_BLOCK, O.DOWN),
        (0, 2, 1): (K.PISTON, O.NORTH),
        (1, 0, 1): (K.STICKY_PISTON, O.WEST),
        (1, 1, 0): (K.SLIME_BLOCK, O.UP),
        (1, 2, 1): (K.STICKY_PISTON, O.WEST),
        (2, 0, 0): (K.OBSERVER, O.SOUTH),
        (2, 0, 2): (K.REDSTONE_BLOCK, O.SOUTH),
        (2, 1, 1): (K.STICKY_PISTON, O.DOWN),
        (2, 2, 2): (K.REDSTONE_BLOCK, O.UP),
    })


def near_misses(world):
    """Copies of `world` (a `repeat_base` moved in time) that differ from it
    in one field of one block or event, in the slot of one event or pulse,
    in a pulse's cell, or in the order or length of a batch; each keeps the
    world's tick."""
    def changed(**parts):
        w = world.copy()
        for name, value in parts.items():
            setattr(w, name, value)
        return w

    (e0,), (e1, e2) = world.events
    (pulse,), (), () = world.pulses
    sticky = world.blocks[(0, 0, 2)]
    return {
        "event-due-a-tick-later": changed(events=((), (e0, e1, e2))),
        "event-orient": changed(events=((e0,), (e1._replace(orient=O.DOWN), e2))),
        "event-action": changed(events=((e0._replace(action="extend"),), (e1, e2))),
        "event-pos": changed(events=((e0,), (e1._replace(pos=(0, 0, 3)), e2))),
        "events-reordered": changed(events=((e0,), (e2, e1))),
        "event-missing": changed(events=((e0,), (e1,))),
        "pulse-a-tick-later": changed(pulses=((), (pulse,), ())),
        "pulse-doubled": changed(pulses=((pulse, pulse), (), ())),
        "pulse-cell": changed(pulses=(((0, 0, 0),), (), ())),
        "pulse-missing": changed(pulses=((), (), ())),
        "extended-flag": changed(blocks={**world.blocks, (0, 0, 2): sticky._replace(extended=True)}),
    }


class TestRepeatCheck:
    """`_repeats` confirms cycles by comparing the two worlds' events, pulses
    and blocks; it must agree with `_moved_forward` followed by `==` on every
    pair of worlds, or `run_until` could jump over a false cycle."""

    def test_agrees_with_projection_on_stepped_histories(self, pf_harvest):
        repeated = with_events = with_pulses = 0
        histories = [stepped_history(world, cfg, 30) for world, cfg in pf_harvest]
        histories += [stepped_history(world, cfg, 20) for world, cfg in RANDOM_WORLDS]
        histories.append(stepped_history(observer_clock(), CFG, 30))
        for history in histories:
            for a in history:
                for b in history:
                    expected = repeats_by_projection(a, b)
                    assert _repeats(a, b) == expected
                    if expected and a is not b:
                        repeated += 1
                        with_events += any(a.events)
                        with_pulses += any(a.pulses)
        # Guards against a vacuous pass: true repeats across different
        # ticks, some of them with pending events and some with pulses.
        assert repeated > 1000 and with_events > 0 and with_pulses > 0

    def test_agrees_with_projection_on_near_misses(self):
        earlier = repeat_base()
        later = _moved_forward(earlier, 7)
        assert _repeats(earlier, later) and _repeats(later, earlier)
        for name, miss in near_misses(later).items():
            assert not repeats_by_projection(earlier, miss), name
            assert not _repeats(earlier, miss), name
            assert not _repeats(miss, earlier), name

    def test_same_content_one_tick_later_repeats(self):
        # Times count from the tick, so the same events and pulses one tick
        # later are the same state, every absolute time one tick later.
        earlier = repeat_base()
        later = earlier.copy()
        later.tick += 1
        events, pulses = absolute_times(earlier)
        assert absolute_times(later) == (
            [e._replace(due=e.due + 1) for e in events],
            [p._replace(start=p.start + 1, end=p.end + 1) for p in pulses],
        )
        assert repeats_by_projection(earlier, later)
        assert _repeats(earlier, later)


class TestComputePower:
    """`compute_power` gives the power of redstone alone; `step` adds the
    cells of the active pulses."""

    def test_matches_reference_on_random_worlds(self):
        checked = 0
        for world, cfg in RANDOM_WORLDS:
            for w in stepped_history(world, cfg, 20):
                powered = compute_power(w.blocks)
                assert powered == reference_power(absolute_world(WorldState(w.blocks)))  # no pulses: redstone only
                checked += bool(powered)
        assert checked > 0

    def test_pulse_window_is_start_inclusive_end_exclusive(self):
        # The queues hold no pulse that has ended (its last slot is dropped
        # as it ends), so this world holds the three pulses that have not.
        cells = [(0, 0, 0), (0, 0, 2), (0, 0, 4)]
        w = make_world({cell: (K.PISTON, O.UP) for cell in cells})
        w.tick = 10
        w = with_absolute_times(w, pulses=[
            Pulse(cells[1], 9, 11),  # ends next tick: powered
            Pulse(cells[0], 10, 12),  # starts now: powered
            Pulse(cells[2], 11, 13),  # starts next tick: not powered
        ])
        after, moved = step(w, CFG)
        assert not moved
        assert [(e.action, e.pos) for e in after.events[-1]] == [("extend", cells[0]), ("extend", cells[1])]
        # The pulse that ends at tick 11 has left the queue at tick 11.
        assert absolute_times(after)[1] == [Pulse(cells[0], 10, 12), Pulse(cells[2], 11, 13)]
        expected = reference_step(absolute_world(w), CFG)[0]
        assert (after.blocks, after.tick, *absolute_times(after)) == (
            expected.blocks, expected.tick, expected.events, expected.pulses
        )


class TestAliasing:
    """No world `run_until` hands out shares the caller's blocks."""

    def test_mutating_handed_out_worlds_leaves_caller_intact(self):
        quiet = make_world({(0, 0, 0): (K.QUARTZ_BLOCK, O.NORTH), (1, 0, 0): (K.REDSTONE_BLOCK, O.NORTH)})
        assert settled(quiet)
        for w in (quiet, run_ticks(blocked_powered_piston(), 5), run_ticks(shuttle(), 4)):
            before = copy.deepcopy(w)
            polled = []
            out = run_until(w, CFG, 10, lambda world, second: polled.append(world) or True)
            out.blocks.clear()
            for p in polled:
                p.blocks[(9, 9, 9)] = Block(K.QUARTZ_BLOCK, O.NORTH)
            run_until(w, CFG, 10, lambda world, second: False).blocks.clear()  # stopped at second 0
            assert w == before


def sticky_pull():
    """An extended sticky piston, unpowered, whose retraction drags a slime
    block and the quartz riding on it."""
    return make_world({
        (0, 0, 0): (K.STICKY_PISTON, O.EAST, True),
        (1, 0, 0): (K.PISTON_HEAD_STICKY, O.EAST),
        (2, 0, 0): (K.SLIME_BLOCK, O.NORTH),
        (2, 1, 0): (K.QUARTZ_BLOCK, O.NORTH),
    })


def sim_fixtures(reference_flyer):
    """The hand-built worlds of this module, each as it starts."""
    extension = TestExtensionFixture()
    extension.setup_method()
    observer_fixture = TestObserverFixture()
    observer_fixture.setup_method()
    return [
        extension.world,
        TestPushLimitFixture()._world(12),
        blocked_powered_piston(),
        sticky_pull(),
        oscillator(),
        observer_fixture.world,
        shuttle(),
        unsettled_after_pulse(),
        observer_clock(),
        repeat_base(),
        place_shape(WorldState(), reference_flyer),
    ]


def random_observer_worlds(count, seed):
    """Freshly placed worlds of `count` uniform random observer-set genomes
    (observer rewrite applied), with the setting they run under."""
    rng = np.random.default_rng(seed)
    cfg = DecodeConfig(block_set=BlockSet.OBSERVER)
    shapes = [apply_observer_bug(decode(random_genome(rng, cfg.genome_length), cfg)) for _ in range(count)]
    return [(place_shape(WorldState(), shape), TickConfig()) for shape in shapes]


class TestReferenceStep:
    """`step` carries its scan across ticks where nothing moved, rebuilds it
    at the end of a tick that moved blocks, copies the blocks only when a
    piston fires and shifts its fixed-slot queues; at every tick it must give
    the world and the moved set of `reference_step`, which does none of that
    and holds absolute times in flat lists (compared through
    `absolute_times`), and every world it returns must carry the scan a
    fresh rebuild from its blocks gives. With `drop_scan`, every step gets
    a `copy()` of the world, which carries no scan, so the scan is also
    built at the start of every tick."""

    def assert_matches(self, worlds, ticks, drop_scan):
        carried = rebuilt = 0
        for world, cfg in worlds:
            fast, slow = world, absolute_world(world)
            for _ in range(ticks):
                before = fast.copy() if drop_scan else fast
                fast, moved = step(before, cfg)
                slow, expected = reference_step(slow, cfg)
                assert moved == expected
                assert (fast.blocks, fast.tick, *absolute_times(fast)) == (slow.blocks, slow.tick, slow.events, slow.pulses)
                assert fast.scan == _scan(fast.blocks)
                assert (fast.blocks is before.blocks) == (not moved)
                carried += not moved
                rebuilt += bool(moved)
        # Guards against a vacuous pass: some ticks share the blocks and hand
        # the scan on, and some move blocks and rebuild it at the end.
        assert carried > 0 and rebuilt > 0

    @pytest.mark.parametrize("drop_scan", [False, True])
    def test_pf_harvest(self, pf_harvest, drop_scan):
        self.assert_matches(pf_harvest, 200, drop_scan)

    @pytest.mark.parametrize("drop_scan", [False, True])
    def test_random_observer_genomes(self, drop_scan):
        self.assert_matches(random_observer_worlds(200, seed=18), 200, drop_scan)

    @pytest.mark.parametrize("drop_scan", [False, True])
    def test_sim_fixtures(self, reference_flyer, drop_scan):
        self.assert_matches([(world, CFG) for world in sim_fixtures(reference_flyer)], 200, drop_scan)


EVENT_SLOTS = TickConfig.piston_delay
PULSE_SLOTS = TickConfig.observer_pulse_delay + TickConfig.observer_pulse_length - 1


class TestQueues:
    """`step` holds pending events in `piston_delay` batches and observer
    pulses in `observer_pulse_delay + observer_pulse_length - 1` batches,
    and shifts each queue by one slot per tick: it hands every carried batch
    on as it is and changes none of the batches it was handed."""

    def test_every_stepped_world_has_the_fixed_queue_lengths(self, pf_harvest, reference_flyer):
        worlds = pf_harvest + random_observer_worlds(200, seed=18) + [(w, CFG) for w in sim_fixtures(reference_flyer)]
        busy = 0
        for world, cfg in worlds:
            for w in stepped_history(world, cfg, 200):
                assert (len(w.events), len(w.pulses)) == (EVENT_SLOTS, PULSE_SLOTS)
                assert with_absolute_times(w, *absolute_times(w)) == w
                busy += any(w.events) and any(w.pulses)
        # Guards against a vacuous pass: worlds holding events and pulses.
        assert busy > 0

    def test_fresh_queues_equal_a_quiet_ticks(self):
        fresh = WorldState()
        quiet, moved = step(fresh, CFG)
        assert not moved
        assert (quiet.events, quiet.pulses) == (fresh.events, fresh.pulses)
        assert (len(fresh.events), len(fresh.pulses)) == (EVENT_SLOTS, PULSE_SLOTS)

    def test_placed_static_shape_settles_after_one_step(self):
        shape = [
            BlockPlacement((0, 0, 0), K.QUARTZ_BLOCK, O.NORTH),
            BlockPlacement((1, 0, 0), K.REDSTONE_BLOCK, O.NORTH),
            BlockPlacement((0, 1, 0), K.SLIME_BLOCK, O.UP),
        ]
        history = [with_scan(place_shape(WorldState(), shape))]
        seen = {}
        assert _find_cycle(history, seen) is None
        history.append(step(history[0], CFG)[0])
        assert _find_cycle(history, seen) == (0, 1)  # the placed world itself repeats

    def test_step_shifts_batches_and_leaves_its_input_as_it_was(self, pf_harvest):
        shifted = 0
        for world, cfg in pf_harvest:
            for _ in range(200):
                batches = world.events + world.pulses
                contents = copy.deepcopy(batches)
                after, _moved = step(world, cfg)
                assert world.events + world.pulses == contents
                assert all(a is b for a, b in zip(world.events + world.pulses, batches))
                carried = after.events[:-1] + after.pulses[:-1]
                assert all(a is b for a, b in zip(carried, world.events[1:] + world.pulses[1:]))
                shifted += any(carried)
                world = after
        # Guards against a vacuous pass: steps that carried non-empty batches.
        assert shifted > 0


class TestCarriedScan:
    """The scan `step` hands on is not part of a world's value, and a world
    that shares its input's blocks leaves the input unchanged."""

    def quiet_with_pending_event(self):
        """The extension fixture at tick 1: its extension is pending and due
        next tick, so this tick moves nothing."""
        fixture = TestExtensionFixture()
        fixture.setup_method()
        w, moved = step(fixture.world, CFG)
        assert not moved and any(w.events) and w.scan is not None
        return w

    def test_copy_drops_the_scan(self):
        w = self.quiet_with_pending_event()
        assert w.copy().scan is None

    def test_eq_and_repr_ignore_the_scan(self):
        w = self.quiet_with_pending_event()
        bare = w.copy()
        assert w == bare
        assert repr(w) == repr(bare) and "scan" not in repr(w)

    def test_quiet_tick_with_pending_events_leaves_input_unchanged(self):
        w = self.quiet_with_pending_event()
        before = copy.deepcopy(w)
        quiet, moved = step(w, CFG)
        assert not moved and quiet.blocks is w.blocks  # no event due: blocks shared
        fired, moved = step(quiet, CFG)  # the extension fires into a copy
        assert moved and fired.blocks is not quiet.blocks
        assert w == before and quiet.blocks == before.blocks

    def test_blocked_powered_piston_leaves_input_unchanged(self):
        w = run_ticks(blocked_powered_piston(), 5)
        assert [e.action for e in w.events[0]] == ["extend"]  # due now, but over the push limit
        before = copy.deepcopy(w)
        out, moved = step(w, CFG)
        assert moved == set() and out.scan is not None
        assert w == before and out.blocks == before.blocks


class TestCopyRule:
    """`step` copies the block dict only when a piston fires. A tick whose
    due events are all stale or blocked writes nothing, so, like a tick with
    no event due, it shares its input's blocks and hands its scan on."""

    def assert_shares_and_carries(self, w):
        assert w.events[0]  # an event is due this tick
        before = copy.deepcopy(w)
        out, moved = step(w, CFG)
        assert moved == set()
        assert out.blocks is w.blocks and out.scan is not None
        assert w == before and out.blocks == before.blocks

    def test_stale_reschedule_shares_blocks(self):
        # The powered piston scheduled an extension on each of its first two
        # ticks; the first fired at tick 2, so the second, due now, is stale.
        fixture = TestExtensionFixture()
        fixture.setup_method()
        w = run_ticks(fixture.world, 3)
        assert w.blocks[(1, 0, 0)].extended and [e.action for e in w.events[0]] == ["extend"]
        self.assert_shares_and_carries(w)

    def test_blocked_powered_piston_shares_blocks(self):
        self.assert_shares_and_carries(run_ticks(blocked_powered_piston(), 5))

    def test_copies_exactly_when_blocks_move_on_pf_harvest(self, pf_harvest):
        copied = stale = 0
        for world, cfg in pf_harvest:
            for _ in range(200):
                due = bool(world.events[0])
                after, moved = step(world, cfg)
                assert (after.blocks is not world.blocks) == bool(moved)
                copied += bool(moved)
                stale += due and not moved
                world = after
        # Guards against a vacuous pass: some steps copy, and some share
        # although an event was due.
        assert copied > 0 and stale > 0


def with_scan(world):
    """A copy of `world` carrying its scan, as `run_until` makes on entry."""
    w = world.copy()
    w.scan = _scan(w.blocks)
    return w


class TestCycleKey:
    """`_find_cycle` files each stepped world under the occupied cells of
    its own scan alone, which a world carries on from its input after a
    tick where nothing moved; `_repeats` then confirms a candidate by its
    queues, then its blocks. Every index in `seen` must be filed under its
    own world's cells."""

    def test_each_index_is_filed_under_its_own_worlds_cells(self, pf_harvest, reference_flyer):
        histories = [stepped_history(with_scan(world), cfg, 40) for world, cfg in pf_harvest]
        histories += [stepped_history(with_scan(world), CFG, 40) for world in sim_fixtures(reference_flyer)]
        shared = changed = 0
        for history in histories:
            seen = {}
            for i in range(len(history)):
                _find_cycle(history[: i + 1], seen)
            for key, indices in seen.items():
                for j in indices:
                    world = history[j]
                    assert key == frozenset(world.blocks)
                    if j > 0:
                        shared += world.blocks is history[j - 1].blocks
                        changed += world.blocks is not history[j - 1].blocks
        # Guards against a vacuous pass: filed worlds that share their
        # predecessor's blocks and scan, and filed worlds whose blocks moved.
        assert shared > 0 and changed > 0


@pytest.fixture(scope="module")
def translation_worlds(pf_harvest):
    """The PF harvest, random observer-set worlds and the sim fixtures, the
    reference flyer among them, each with the `TickConfig` it runs under."""
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "reference_flyer.shape")) as fh:
        flyer = parse_shape(fh.read())
    return pf_harvest + random_observer_worlds(100, seed=19) + [(w, CFG) for w in sim_fixtures(flyer)]


class TestTranslationEquivariance:
    """The pinned rules name no position, and same-tick events fire in an
    order a shift keeps (scheduling order, pistons by position): a world
    shifted by any offset steps as the shifted world, tick by tick."""

    def test_shifted_world_has_the_shifted_history(self, translation_worlds):
        # The worlds are not an argument of the hypothesis test, so a
        # failure reports the offset alone, not a repr of every world.
        ticks = {"moved": 0, "events": 0, "pulses": 0}

        @settings(max_examples=4, deadline=None)
        @given(offset=st.tuples(*[st.integers(-10**6, 10**6)] * 3))
        def shifted_histories(offset):
            for world, cfg in translation_worlds:
                near, far = world, translated(world, offset)
                for _ in range(200):
                    near, near_moved = step(near, cfg)
                    far, far_moved = step(far, cfg)
                    shifted = translated(near, offset)
                    assert far_moved == {add(cell, offset) for cell in near_moved}
                    assert (far.tick, far.blocks, far.events, far.pulses) == (shifted.tick, shifted.blocks, shifted.events, shifted.pulses)
                    ticks["moved"] += bool(near_moved)
                    ticks["events"] += any(near.events)
                    ticks["pulses"] += any(near.pulses)

        shifted_histories()
        # Guards against a vacuous pass: ticks that moved blocks, with pending events and with pulses.
        assert min(ticks.values()) > 0


@pytest.fixture(scope="module")
def symmetry_histories(pf_harvest):
    """The PF harvest, random observer-set worlds decoded without the
    observer quirk (so their observers face Up and Down too) and the sim
    fixtures, the reference flyer among them: how many there are, and the
    200-tick history, as (world, moved cells) after each step, of each
    whose history never has two or more events due on one tick."""
    with open(os.path.join(os.path.dirname(__file__), "fixtures", "reference_flyer.shape")) as fh:
        reference_flyer = parse_shape(fh.read())
    rng = np.random.default_rng(20)
    cfg = DecodeConfig(BlockSet.OBSERVER, emulate_observer_bug=False)
    shapes = [decode(random_genome(rng, cfg.genome_length), cfg) for _ in range(100)]
    worlds = pf_harvest + [(place_shape(WorldState(), shape), CFG) for shape in shapes]
    worlds += [(w, CFG) for w in sim_fixtures(reference_flyer)]
    histories = []
    for world, tick_cfg in worlds:
        history = [(world, set())]
        while len(history) <= 200 and len(history[-1][0].events[0]) < 2:
            history.append(step(history[-1][0], tick_cfg))
        if len(history[-1][0].events[0]) < 2:
            histories.append((tick_cfg, history))
    return len(worlds), histories


def queues_as_sets(world):
    """A world's queues with each batch as a set: `_scan` orders the entries
    of one batch by position, which a turn or mirror reorders."""
    return [frozenset(batch) for batch in world.events], [frozenset(batch) for batch in world.pulses]


class TestTurnAndMirrorEquivariance:
    """The pinned rules name no axis, but events due on the same tick fire in
    scheduling order, pistons by position, which a turn or mirror reorders.
    So whenever a history never has two or more events due on one tick, a
    world turned or mirrored about the vertical axis through the spawn box's
    centre steps as the turned or mirrored world, tick by tick, blocks
    exactly and each queue batch as a set; then that history has no such
    tick either."""

    @pytest.mark.parametrize("name", TURNS_AND_MIRRORS)
    def test_turned_world_has_the_turned_history(self, symmetry_histories, name):
        matrix = TURNS_AND_MIRRORS[name]
        inputs, histories = symmetry_histories
        ticks = {"moved": 0, "events": 0, "pulses": 0}
        up_or_down = 0
        for cfg, history in histories:
            world = history[0][0]
            far = turned(world, matrix)
            for near, near_moved in history[1:]:
                far, far_moved = step(far, cfg)
                expected = turned(near, matrix)
                assert far_moved == {turned_cell(cell, matrix) for cell in near_moved}
                assert (far.tick, far.blocks) == (expected.tick, expected.blocks)
                assert queues_as_sets(far) == queues_as_sets(expected)
                ticks["moved"] += bool(near_moved)
                ticks["events"] += any(near.events)
                ticks["pulses"] += any(near.pulses)
            up_or_down += any(b.kind is K.OBSERVER and b.orient in (O.UP, O.DOWN) for b in world.blocks.values())
        # Guards against a vacuous pass: a fixed share of the inputs qualify,
        # their histories move blocks and hold events and pulses, and some
        # start with observers facing Up or Down.
        assert len(histories) >= inputs // 3
        assert min(ticks.values()) > 0 and up_or_down > 0


class TestTickIndependence:
    """The simulator never reads the clock: a world moved 10**6 ticks
    forward steps exactly like the world itself, and `run_until` polls it
    the same, only 10**6 ticks later."""

    def test_stepping_commutes_with_moving_forward(self, pf_harvest, reference_flyer):
        offset = 10**6
        worlds = pf_harvest + random_observer_worlds(200, seed=18) + [(w, CFG) for w in sim_fixtures(reference_flyer)]
        with_events = with_pulses = 0
        for world, cfg in worlds:
            near, far = world, _moved_forward(world, offset)
            for _ in range(200):
                near, near_moved = step(near, cfg)
                far, far_moved = step(far, cfg)
                assert far_moved == near_moved
                assert (far.blocks, far.events, far.pulses) == (near.blocks, near.events, near.pulses)
                assert far.tick - near.tick == offset
                with_events += any(near.events)
                with_pulses += any(near.pulses)
            near_polls, _ = whole_polls_of(run_until, world, cfg, 10)
            far_polls, _ = whole_polls_of(run_until, _moved_forward(world, offset), cfg, 10)
            assert [(second, w.tick + offset, w.blocks, w.events, w.pulses) for second, w in near_polls] == [
                (second, w.tick, w.blocks, w.events, w.pulses) for second, w in far_polls
            ]
        # Guards against a vacuous pass: ticks with pending events and with pulses.
        assert with_events > 0 and with_pulses > 0


class TestExtendedFlag:
    """`_immovable` is `kind.head or block.extended`, which equals the
    reference test (a head, or an extended piston base) only while `step`
    sets `extended` on piston bases alone."""

    def test_only_piston_bases_are_extended(self, pf_harvest, reference_flyer):
        worlds = pf_harvest + random_observer_worlds(200, seed=18) + [(w, CFG) for w in sim_fixtures(reference_flyer)]
        extended = 0
        for world, cfg in worlds:
            for w in stepped_history(world, cfg, 200):
                for block in w.blocks.values():
                    if block.extended:
                        assert block.kind in (K.PISTON, K.STICKY_PISTON)
                        extended += 1
                    assert _immovable(block) == reference_immovable(block)
        # Guards against a vacuous pass: stepped worlds hold extended pistons.
        assert extended > 0
