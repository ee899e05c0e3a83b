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
from typing import Optional

from .blocks import (
    BlockPlacement,
    Box,
    Orientation,
    ORIENTATION_ORDER,
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
    fly_reward: float = 55.0
    leftover_penalty: float = 0.1
    fly_threshold: int = 6  # strictly more than this many blocks must leave
    eval_seconds: int = 10
    spawn_size: int = 3
    watch_size: int = 9

    def __post_init__(self):
        # The worst-case flying score must still beat any oscillation score a
        # shape could plausibly accumulate while confined to the watch region
        # (bounded here by eval_seconds * watch-region radius).
        volume = self.spawn_size**3
        min_fly = self.fly_reward - self.leftover_penalty * (volume - self.fly_threshold)
        max_oscillation = self.eval_seconds * (self.watch_size // 2)
        if min_fly <= max_oscillation:
            raise ValueError(
                f"fly reward too small: worst flying score {min_fly} does not "
                f"exceed the oscillation bound {max_oscillation}"
            )

    @property
    def spawn_box(self) -> Box:
        return Box((0, 0, 0), (self.spawn_size,) * 3)

    @property
    def watch_box(self) -> Box:
        center = tuple(self.spawn_size // 2 for _ in range(3))
        return Box.cube(center, self.watch_size)


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
        for pos in sorted(world.blocks):
            if not watch.contains(pos) and pos not in logged_exits:
                logged_exits.add(pos)
                exit_log.append((pos, world.tick))
        com = center_of_mass(world, watch)
        inside = count_blocks(world, watch)
        if placed - inside > fit_cfg.fly_threshold:
            state["flew"] = True
            state["leftover"] = inside
            return False
        unchanged = second > 0 and com == state["last_com"]
        state["last_com"] = com
        if com is not None:
            trajectory.append(com)
        return not unchanged

    run_until(world, tick_cfg, fit_cfg.eval_seconds * tick_cfg.ticks_per_second, poll)

    if state["flew"]:
        fitness = fit_cfg.fly_reward - fit_cfg.leftover_penalty * state["leftover"]
        direction = classify_direction(exit_log, watch.center)
        return EvaluationResult(fitness, True, direction, trajectory, state["leftover"], state["done_tick"], exit_log)
    return EvaluationResult(oscillation_fitness(trajectory), False, None, trajectory, 0, state["done_tick"], exit_log)


def evaluate(genome: Genome, decode_cfg: DecodeConfig, tick_cfg: TickConfig, fit_cfg: FitnessConfig) -> EvaluationResult:
    """Decode and evaluate a genome; total (empty shapes score 0, not-flying)."""
    return evaluate_shape(decode(genome, decode_cfg), tick_cfg, fit_cfg)
