import math

import numpy as np
import pytest

from voxelflight import (
    BlockKind,
    BlockPlacement,
    BlockSet,
    DecodeConfig,
    EvaluationResult,
    FitnessConfig,
    Orientation,
    TickConfig,
    classify_direction,
    decode,
    evaluate,
    evaluate_shape,
    oscillation_fitness,
    random_genome,
)
from voxelflight.blocks import SPAWN_BOX_SIZE
from voxelflight.fitness import EmptyExitLog

K = BlockKind
O = Orientation
TICK = TickConfig()
FIT = FitnessConfig()


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
        with pytest.raises(EmptyExitLog):
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
        # An up-facing observer decodes as such but simulates facing north.
        shape = [BlockPlacement((1, 1, 1), K.OBSERVER, O.UP)]
        result = evaluate_shape(shape, TICK, FIT)
        assert result.flew is False  # total evaluation, no crash

    def test_csv_row(self):
        result = EvaluationResult(54.9, True, O.EAST, [], 1, 60)
        assert result.csv_row() == "54.9,true,EAST,1,60"
