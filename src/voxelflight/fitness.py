"""Shape evaluation: spawn in a fresh world, simulate, score.

A shape scores the accumulated per-second center-of-mass displacement of the
watch region. Once strictly more than `fly_threshold` blocks have left the
watch region the shape counts as a flying machine and instead receives a flat
reward minus a small penalty per block left behind, which always exceeds any
achievable oscillation score. Evaluation is fully deterministic: polling is
locked to simulation ticks, each call gets an isolated fresh world.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

from .blocks import (
    BlockPlacement,
    Box,
    Orientation,
    ORIENTATION_ORDER,
    SPAWN_BOX_SIZE,
    Vec3,
    WorldState,
    center_of_mass,
    count_blocks,
    place_shape,
)
from .genome import DecodeConfig, Genome, decode
from .sim import TickConfig, run_until


@dataclass(frozen=True)
class FitnessConfig:
    """Scoring settings, all pinned. The worst-case flying score (the reward
    minus the penalty for every block but `fly_threshold` left behind) must
    beat any oscillation score a shape confined to the watch region could
    plausibly accumulate (bounded by eval_seconds * watch-region radius)."""

    leftover_penalty: ClassVar[float] = 0.1
    fly_threshold: ClassVar[int] = 6  # strictly more than this many blocks must leave
    eval_seconds: ClassVar[int] = 10
    watch_size: ClassVar[int] = 9
    watch_box: ClassVar[Box] = Box.cube((SPAWN_BOX_SIZE // 2,) * 3, watch_size)
    fly_reward: ClassVar[float] = 55.0


@dataclass
class EvaluationResult:
    fitness: float
    flew: bool
    direction: Optional[Orientation]
    com_trajectory: list[tuple[float, float, float]]
    leftover_count: int
    ticks_used: int
    exit_log: list[tuple[Vec3, int]] = field(default_factory=list)

    def csv_row(self) -> str:
        direction = self.direction.name if self.direction else ""
        return f"{self.fitness!r},{str(self.flew).lower()},{direction},{self.leftover_count},{self.ticks_used}"


def oscillation_fitness(trajectory: list[tuple[float, float, float]]) -> float:
    """Sum of Euclidean distances between consecutive center-of-mass polls."""
    return sum(math.dist(a, b) for a, b in zip(trajectory, trajectory[1:]))


def classify_direction(exit_log: list[tuple[Vec3, int]], watch_center: tuple[float, float, float]) -> Orientation:
    """Dominant axis direction of the exit displacement sum.

    Scores each orientation by the signed component of the summed displacement
    along it; ties fall back to the fixed order North, South, East, West, Up,
    Down.
    """
    if not exit_log:
        raise ValueError("no exit records to classify")
    total = [0.0, 0.0, 0.0]
    for pos, _tick in exit_log:
        for i in range(3):
            total[i] += pos[i] - watch_center[i]
    best = ORIENTATION_ORDER[0]
    best_score = -math.inf
    for orient in ORIENTATION_ORDER:
        v = orient.vector
        score = total[0] * v[0] + total[1] * v[1] + total[2] * v[2]
        if score > best_score:
            best, best_score = orient, score
    return best


def evaluate_shape(shape: list[BlockPlacement], tick_cfg: TickConfig, fit_cfg: FitnessConfig) -> EvaluationResult:
    """Evaluate an already-decoded shape in an isolated fresh world.

    Each poll scans the watch region only for a block dict no earlier poll of
    this evaluation has scanned: cycle projections and quiet ticks share
    their stored world's blocks, and a handed-out world's blocks never change
    (see `WorldState`), so a repeated dict has the centre of mass, count and
    exits it had when first scanned."""
    world = place_shape(WorldState(), shape)

    watch = fit_cfg.watch_box
    placed = len(shape)
    trajectory: list[tuple[float, float, float]] = []
    exits: dict[Vec3, int] = {}  # cell -> tick of the poll that first saw it outside, in logging order
    flew = False
    leftover = 0
    last_com = None
    # id(block dict) -> (the dict, its centre of mass in the watch box).
    # Holding each dict keeps its id from being reused within the evaluation.
    scanned: dict[int, tuple] = {}

    def poll(world: WorldState, second: int) -> bool:
        nonlocal flew, leftover, last_com
        blocks = world.blocks
        seen = scanned.get(id(blocks))
        if seen is not None:
            # Its cells outside were logged, and were too few for a flight,
            # when it was first scanned.
            com = seen[1]
        else:
            com = center_of_mass(world, watch)
            inside = count_blocks(world, watch)
            scanned[id(blocks)] = (blocks, com)
            if inside < len(blocks):  # with every block inside, none can have newly left
                for pos in sorted(pos for pos in blocks if pos not in exits and not watch.contains(pos)):
                    exits[pos] = world.tick
            if placed - inside > fit_cfg.fly_threshold:
                flew = True
                leftover = inside
                return False
        unchanged = second > 0 and com == last_com
        last_com = com
        if com is not None:
            trajectory.append(com)
        return not unchanged

    ticks_used = run_until(world, tick_cfg, fit_cfg.eval_seconds, poll).tick
    exit_log = list(exits.items())
    if flew:
        fitness = fit_cfg.fly_reward - fit_cfg.leftover_penalty * leftover
        direction = classify_direction(exit_log, watch.center)
        return EvaluationResult(fitness, True, direction, trajectory, leftover, ticks_used, exit_log)
    return EvaluationResult(oscillation_fitness(trajectory), False, None, trajectory, 0, ticks_used, exit_log)


def evaluate(genome: Genome, decode_cfg: DecodeConfig, tick_cfg: TickConfig, fit_cfg: FitnessConfig) -> EvaluationResult:
    """Decode and evaluate a genome; total (empty shapes score 0, not-flying)."""
    return evaluate_shape(decode(genome, decode_cfg), tick_cfg, fit_cfg)
