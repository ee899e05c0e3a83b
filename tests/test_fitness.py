import enum
import math
import os

import numpy as np
import pytest

import voxelflight as vf
import voxelflight.fitness
from voxelflight import (
    Block,
    BlockKind,
    BlockPlacement,
    BlockSet,
    DecodeConfig,
    EvaluationResult,
    FitnessConfig,
    Orientation,
    TickConfig,
    WorldState,
    classify_direction,
    decode,
    evaluate,
    evaluate_shape,
    oscillation_fitness,
    random_genome,
)
from voxelflight.blocks import SPAWN_BOX_SIZE

K = BlockKind
O = Orientation
TICK = TickConfig()
FIT = FitnessConfig()
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


class TestConfig:
    def test_default_config_valid(self):
        FitnessConfig()

    def test_watch_box_centers_on_spawn(self):
        box = FIT.watch_box
        assert box.min == (-3, -3, -3)
        assert box.dims == (9, 9, 9)
        assert box.center == (1.0, 1.0, 1.0)

    def test_reward_must_dominate_oscillation(self):
        # The worst flying score (every block but the threshold left behind)
        # beats the oscillation bound: eval_seconds * watch-region radius.
        min_fly = FIT.fly_reward - FIT.leftover_penalty * (SPAWN_BOX_SIZE**3 - FIT.fly_threshold)
        assert min_fly > FIT.eval_seconds * (FIT.watch_size // 2)


class TestOscillationFitness:
    def test_unit_steps(self):
        path = [(float(t), 0.0, 0.0) for t in range(11)]
        assert oscillation_fitness(path) == pytest.approx(10.0, abs=1e-9)

    def test_empty_and_single(self):
        assert oscillation_fitness([]) == 0.0
        assert oscillation_fitness([(1.0, 2.0, 3.0)]) == 0.0

    def test_euclidean(self):
        path = [(0.0, 0.0, 0.0), (3.0, 4.0, 0.0)]
        assert oscillation_fitness(path) == pytest.approx(5.0)


class TestClassifyDirection:
    def test_all_exits_east(self):
        log = [((6, 1, 1), 40), ((7, 1, 1), 60)]
        assert classify_direction(log, (1.0, 1.0, 1.0)) is O.EAST

    def test_majority_axis_wins(self):
        log = [((6, 1, 1), 20)] * 5 + [((1, 6, 1), 20)]
        assert classify_direction(log, (1.0, 1.0, 1.0)) is O.EAST

    def test_tie_uses_fixed_order(self):
        # +x and -x displacements cancel: every score ties at zero and the
        # fixed order North, South, East, West, Up, Down picks North.
        log = [((6, 1, 1), 20), ((-4, 1, 1), 20)]
        assert classify_direction(log, (1.0, 1.0, 1.0)) is O.NORTH

    def test_east_beats_west_on_equal_magnitude(self):
        # scores +v for East and -v for West: East is picked, not West
        log = [((6, 1, 1), 20)]
        assert classify_direction(log, (1.0, 1.0, 1.0)) is O.EAST

    def test_empty_log_raises(self):
        with pytest.raises(ValueError, match="^no exit records to classify$"):
            classify_direction([], (0.0, 0.0, 0.0))


class TestEvaluate:
    def test_empty_shape(self):
        result = evaluate_shape([], TICK, FIT)
        assert result.fitness == 0.0
        assert result.flew is False
        assert result.ticks_used == TICK.ticks_per_second  # stopped at the second poll
        assert result.com_trajectory == []

    def test_static_shape_terminates_early(self):
        shape = [BlockPlacement((1, 1, 1), K.QUARTZ_BLOCK, O.NORTH)]
        result = evaluate_shape(shape, TICK, FIT)
        assert result.fitness == 0.0
        assert result.flew is False
        assert result.ticks_used == TICK.ticks_per_second
        assert len(result.com_trajectory) == 2  # identical polls at 0s and 1s

    def test_quartz_only_never_flies(self):
        rng = np.random.default_rng(31)
        cells = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        for _ in range(25):
            n = int(rng.integers(1, 28))
            picks = rng.choice(27, size=n, replace=False)
            shape = [BlockPlacement(cells[i], K.QUARTZ_BLOCK, O.NORTH) for i in picks]
            result = evaluate_shape(shape, TICK, FIT)
            assert result.flew is False
            assert result.fitness == 0.0

    def test_oscillator_accrues_fitness_without_flying(self):
        shape = [
            BlockPlacement((0, 1, 1), K.PISTON, O.EAST),
            BlockPlacement((1, 1, 1), K.REDSTONE_BLOCK, O.NORTH),
            BlockPlacement((2, 1, 1), K.STICKY_PISTON, O.WEST),
        ]
        result = evaluate_shape(shape, TICK, FIT)
        assert result.flew is False
        assert 0.0 < result.fitness < 10.0
        assert result.leftover_count == 0

    def test_reference_flyer(self, reference_flyer):
        result = evaluate_shape(reference_flyer, TICK, FIT)
        assert result.flew is True
        assert result.direction is O.EAST
        assert result.leftover_count == 1
        assert result.fitness == FIT.fly_reward - FIT.leftover_penalty * 1
        assert result.ticks_used < 200

    def test_fly_beats_every_oscillator(self, reference_flyer):
        flyer = evaluate_shape(reference_flyer, TICK, FIT)
        assert flyer.fitness >= FIT.fly_reward - FIT.leftover_penalty * 27

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        cfg = DecodeConfig(block_set=BlockSet.OBSERVER)
        g = random_genome(rng, cfg.genome_length)
        a = evaluate(g, cfg, TICK, FIT)
        b = evaluate(g, cfg, TICK, FIT)
        assert a == b

    def test_trajectory_bounded(self):
        rng = np.random.default_rng(13)
        cfg = DecodeConfig(block_set=BlockSet.OBSERVER)
        for _ in range(20):
            g = random_genome(rng, cfg.genome_length)
            result = evaluate(g, cfg, TICK, FIT)
            assert len(result.com_trajectory) <= FIT.eval_seconds + 1
            assert result.fitness >= 0.0

    def test_observer_bug_applies_at_placement(self):
        # An up-facing observer handed to evaluate_shape is placed as given:
        # the quirk applies when a genome is decoded.
        shape = [BlockPlacement((1, 1, 1), K.OBSERVER, O.UP)]
        result = evaluate_shape(shape, TICK, FIT)
        assert result.flew is False  # total evaluation, no crash

    def test_exit_log_when_blocks_leave(self, reference_flyer):
        result = evaluate_shape(reference_flyer, TICK, FIT)
        # Logged over two polls; the second skips the three cells logged at tick 40.
        assert result.exit_log == [
            ((6, 0, 0), 40), ((6, 1, 0), 40), ((6, 1, 1), 40),
            ((7, 0, 0), 60), ((7, 0, 1), 60), ((7, 0, 2), 60), ((7, 1, 0), 60), ((7, 1, 1), 60),
            ((7, 1, 2), 60), ((8, 0, 0), 60), ((8, 1, 0), 60), ((8, 1, 1), 60),
        ]

    def test_exit_log_when_every_block_stays_inside(self):
        shape = [
            BlockPlacement((0, 1, 1), K.PISTON, O.EAST),
            BlockPlacement((1, 1, 1), K.REDSTONE_BLOCK, O.NORTH),
            BlockPlacement((2, 1, 1), K.STICKY_PISTON, O.WEST),
        ]
        result = evaluate_shape(shape, TICK, FIT)
        assert result.ticks_used > TICK.ticks_per_second  # polled while moving
        assert result.exit_log == []

    def test_exit_log_records_each_cell_once_as_it_leaves(self, monkeypatch):
        # The poll sees these worlds, one per second: one block leaves (x = 6 is
        # past the watch box's upper face), a second leaves through the lower
        # y face, then both come back and a block leaves again from a logged cell.
        worlds = [
            [(0, 0, 0), (1, 0, 0), (2, 0, 0)],
            [(0, 0, 0), (1, 0, 0), (6, 0, 0)],
            [(0, -4, 0), (1, 0, 0), (6, 0, 0)],
            [(0, 0, 0), (1, 0, 0), (5, 0, 0)],
            [(0, 0, 0), (1, 1, 0), (6, 0, 0)],
            [(0, 0, 0), (1, 1, 0), (2, 0, -4)],
        ]

        def scripted_run_until(world, cfg, seconds, observer):
            for second, cells in enumerate(worlds):
                world = WorldState({c: Block(K.QUARTZ_BLOCK, O.NORTH) for c in cells}, second * cfg.ticks_per_second)
                if not observer(world, second):
                    break
            return world

        monkeypatch.setattr(voxelflight.fitness, "run_until", scripted_run_until)
        shape = [BlockPlacement((x, 0, 0), K.QUARTZ_BLOCK, O.NORTH) for x in range(3)]
        result = evaluate_shape(shape, TICK, FIT)
        assert result.ticks_used == 100
        assert result.exit_log == [((6, 0, 0), 20), ((0, -4, 0), 40), ((2, 0, -4), 100)]

    def test_evaluation_hashes_no_enum(self, monkeypatch):
        # Membership tests in the simulator and the poll key on int tuples;
        # an Enum hash there is a Python-level call per block per tick.
        calls = []
        original = enum.Enum.__hash__

        def counting_hash(member):
            calls.append(member)
            return original(member)

        monkeypatch.setattr(enum.Enum, "__hash__", counting_hash)
        hash(K.QUARTZ_BLOCK)
        assert calls == [K.QUARTZ_BLOCK]  # the counter sees hashes of this package's Enums
        calls.clear()
        rng = np.random.default_rng(29)
        for block_set in BlockSet:
            cfg = DecodeConfig(block_set=block_set)
            for _ in range(100):
                evaluate(random_genome(rng, cfg.genome_length), cfg, TICK, FIT)
        assert calls == []

    def test_csv_row(self):
        result = EvaluationResult(54.9, True, O.EAST, [], 1, 60)
        assert result.csv_row() == "54.9,true,EAST,1,60"


@pytest.fixture(scope="module")
def poll_cases():
    """(genome, decode config, tick config): the benchmark corpus's reference
    flyer with its rotations and its PF harvest of busy oscillators, then 300
    random genomes for each block set and observer-bug setting."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(BENCH)
        import corpus
    with open(os.path.join(BENCH, "corpus.txt")) as fh:
        _seed, sections = corpus.parse_corpus(vf, fh.read())
    observer = DecodeConfig(block_set=BlockSet.OBSERVER)
    cases = [(genome, observer, TICK) for genome in sections["flyer"] + sections["harvest"]]
    rng = np.random.default_rng(37)
    for block_set in BlockSet:
        for bug in (True, False):
            cfg = DecodeConfig(block_set, bug)
            cases += [(random_genome(rng, cfg.genome_length), cfg, TICK) for _ in range(300)]
    return cases


class TestPollScansEachBlockDictOnce:
    """The poll scans the watch region once per block dict an evaluation
    hands it, and reuses that scan when a later world shares the dict."""

    def evaluate_counting(self, cases, copy_polled):
        """Results, and (polls, scans) per evaluation; with `copy_polled`
        the poll receives a copy of each world, so no block dict repeats."""
        real_run_until, real_count_blocks = voxelflight.fitness.run_until, voxelflight.fitness.count_blocks
        counts = []

        def counting_run_until(world, cfg, seconds, observer):
            def poll(w, second):
                counts[-1][0] += 1
                return observer(w.copy() if copy_polled else w, second)

            return real_run_until(world, cfg, seconds, poll)

        def counting_count_blocks(world, region):
            counts[-1][1] += 1
            return real_count_blocks(world, region)

        results = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(voxelflight.fitness, "run_until", counting_run_until)
            mp.setattr(voxelflight.fitness, "count_blocks", counting_count_blocks)
            for genome, decode_cfg, tick_cfg in cases:
                counts.append([0, 0])
                results.append(evaluate(genome, decode_cfg, tick_cfg, FIT))
        return results, counts

    def test_same_results_when_every_poll_scans(self, poll_cases):
        shared, shared_counts = self.evaluate_counting(poll_cases, copy_polled=False)
        copied, copied_counts = self.evaluate_counting(poll_cases, copy_polled=True)
        assert all(scans == polls for polls, scans in copied_counts)
        # Whole results: trajectory, exit log and ticks used included.
        assert shared == copied
        assert [polls for polls, _ in shared_counts] == [polls for polls, _ in copied_counts]
        # Guards against a vacuous pass: some evaluations reused a scan.
        assert sum(1 for polls, scans in shared_counts if scans < polls) > len(poll_cases) // 10

    def test_polled_blocks_never_change_afterwards(self, poll_cases, monkeypatch):
        # The reuse is exact only because a world's blocks stay as they were
        # when it was polled, for the rest of the run.
        real_run_until = voxelflight.fitness.run_until
        changed = []

        def snapshotting_run_until(world, cfg, seconds, observer):
            polled = []

            def poll(w, second):
                polled.append((w.blocks, dict(w.blocks)))
                return observer(w, second)

            final = real_run_until(world, cfg, seconds, poll)
            changed.extend(blocks for blocks, snapshot in polled if blocks != snapshot)
            return final

        monkeypatch.setattr(voxelflight.fitness, "run_until", snapshotting_run_until)
        for genome, decode_cfg, tick_cfg in poll_cases:
            evaluate(genome, decode_cfg, tick_cfg, FIT)
        assert changed == []
