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
from .sim import TickConfig, apply_observer_bug, run_until


class EmptyExitLog(ValueError):
    """Direction classification needs at least one exit record."""


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
    spawn_box: ClassVar[Box] = Box((0, 0, 0), (SPAWN_BOX_SIZE,) * 3)
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
        raise EmptyExitLog("no exit records to classify")
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
    """Evaluate an already-decoded shape in an isolated fresh world."""
    world = WorldState()
    if tick_cfg.emulate_observer_bug:
        shape = apply_observer_bug(shape)
    world = place_shape(world, shape, origin=(0, 0, 0))
    # Fresh per-call worlds make the cleared-space precondition vacuous.
    assert all(fit_cfg.spawn_box.contains(p) for p in world.blocks), "spawn must start clean"

    watch = fit_cfg.watch_box
    placed = len(shape)
    trajectory: list[tuple[float, float, float]] = []
    exit_log: list[tuple[Vec3, int]] = []
    logged_exits: set[Vec3] = set()
    state = {"flew": False, "leftover": 0, "done_tick": 0, "last_com": None}

    def poll(world: WorldState, second: int) -> bool:
        state["done_tick"] = world.tick
        com = center_of_mass(world, watch)
        inside = count_blocks(world, watch)
        if inside < len(world.blocks):  # with every block inside, none can have newly left
            left = sorted(pos for pos in world.blocks if pos not in logged_exits and not watch.contains(pos))
            logged_exits.update(left)
            exit_log.extend((pos, world.tick) for pos in left)
        if placed - inside > fit_cfg.fly_threshold:
            state["flew"] = True
            state["leftover"] = inside
            return False
        unchanged = second > 0 and com == state["last_com"]
        state["last_com"] = com
        if com is not None:
            trajectory.append(com)
        return not unchanged

    run_until(world, tick_cfg, fit_cfg.eval_seconds, poll)

    if state["flew"]:
        fitness = fit_cfg.fly_reward - fit_cfg.leftover_penalty * state["leftover"]
        direction = classify_direction(exit_log, watch.center)
        return EvaluationResult(fitness, True, direction, trajectory, state["leftover"], state["done_tick"], exit_log)
    return EvaluationResult(oscillation_fitness(trajectory), False, None, trajectory, 0, state["done_tick"], exit_log)


def evaluate(genome: Genome, decode_cfg: DecodeConfig, tick_cfg: TickConfig, fit_cfg: FitnessConfig) -> EvaluationResult:
    """Decode and evaluate a genome; total (empty shapes score 0, not-flying)."""
    return evaluate_shape(decode(genome, decode_cfg), tick_cfg, fit_cfg)
