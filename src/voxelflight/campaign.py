"""Experiment orchestration: multi-run campaigns, logging, aggregation, export.

A campaign executes `runs` independent searches with seeds base+i, writes one
log and one archive/population snapshot per run, then aggregates success
rates, per-direction counts, and time-to-first-success into summary CSVs.
Summaries are a pure function of the configuration.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .behavior import ArchiveLayout, Characterization
from .blocks import BlockSet, Orientation, format_shape
from .fitness import FitnessConfig, evaluate
from .genome import DecodeConfig, Genome, decode, genome_from_line, genome_to_line
from .search import (
    Archive,
    Population,
    RunLog,
    SearchBudget,
    map_elites_run,
    mu_plus_lambda_run,
)
from .sim import TickConfig


class ConfigError(ValueError):
    """An experiment configuration violates its invariants."""


class SelectorError(KeyError):
    """An export selector resolves to no occupant."""


class Method(Enum):
    PF = "pf"
    ME_C = "me-c"
    ME_CN = "me-cn"
    ME_PO = "me-po"

    @property
    def characterization(self) -> Optional[Characterization]:
        return {
            Method.ME_C: Characterization.BLOCK_COUNT,
            Method.ME_CN: Characterization.COUNT_NEGATIVE_SPACE,
            Method.ME_PO: Characterization.PISTON_ORIENTATION,
        }.get(self)


@dataclass(frozen=True)
class ExperimentConfig:
    method: Method = Method.ME_PO
    block_set: BlockSet = BlockSet.OBSERVER
    runs: int = 30
    seed_base: int = 0
    budget: SearchBudget = field(default_factory=SearchBudget)
    log_interval: int = 100
    emulate_observer_bug: bool = True
    out_dir: str = "out"

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.log_interval < 1:
            raise ConfigError("log_interval must be >= 1")

    def decode_config(self) -> DecodeConfig:
        return DecodeConfig(block_set=self.block_set)

    def tick_config(self) -> TickConfig:
        return TickConfig(emulate_observer_bug=self.emulate_observer_bug)

    def fitness_config(self) -> FitnessConfig:
        return FitnessConfig()


@dataclass
class RunOutcome:
    seed: int
    succeeded: bool
    first_flight_eval: Optional[int]  # exact evaluation number, None if never
    directions: tuple[str, ...]
    best_fitness: float
    evaluations: int


@dataclass
class CampaignSummary:
    method: str
    block_set: str
    runs: int
    success_count: int
    success_pct: float
    direction_run_counts: dict[str, int]  # runs with >= 1 flight per direction
    avg_distinct_directions: float
    max_distinct_directions: int
    first_flight_evals: list[object]  # rounded-up eval number per run, or "never"
    outcomes: list[RunOutcome] = field(default_factory=list)


def round_up_to_interval(value: int, interval: int) -> int:
    return interval * math.ceil(value / interval)


def _method_dir_name(index: int) -> str:
    return f"run_{index:03d}"


def save_archive(archive: Archive, path: str, cfg: ExperimentConfig, seed: int) -> None:
    """Persist an archive as genome-line files named by flat bin index."""
    bins_dir = os.path.join(path, "bins")
    os.makedirs(bins_dir, exist_ok=True)
    lines = [
        f"characterization = {archive.layout.characterization.value}",
        f"method = {cfg.method.value}",
        f"block_set = {cfg.block_set.value}",
        f"seed = {seed}",
        f"evaluations = {archive.evaluations}",
        f"emulate_observer_bug = {str(cfg.emulate_observer_bug).lower()}",
        "columns = bin,fitness,discovered_eval,flew,direction",
    ]
    for index in sorted(archive.bins):
        entry = archive.bins[index]
        direction = entry.result.direction.name if entry.result.direction else ""
        lines.append(f"bin {index} {entry.fitness!r} {entry.discovered_eval} {str(entry.result.flew).lower()} {direction}")
        with open(os.path.join(bins_dir, f"{index}.genome"), "w") as fh:
            fh.write(genome_to_line(entry.genome) + "\n")
    with open(os.path.join(path, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_archive_genome(path: str, bin_index: int) -> Genome:
    genome_path = os.path.join(path, "bins", f"{bin_index}.genome")
    if not os.path.exists(genome_path):
        raise SelectorError(f"no occupant stored for bin {bin_index} under {path}")
    with open(genome_path) as fh:
        return genome_from_line(fh.read())


def save_population(population: Population, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("# columns: fitness genome...\n")
        for ind in population:
            fh.write(f"{ind.fitness!r} {genome_to_line(ind.genome)}\n")


def run_single(cfg: ExperimentConfig, seed: int, run_dir: Optional[str] = None) -> tuple[RunOutcome, RunLog]:
    """One search run; writes log.csv plus an archive or population snapshot."""
    decode_cfg = cfg.decode_config()
    tick_cfg = cfg.tick_config()
    fit_cfg = cfg.fitness_config()
    if cfg.method is Method.PF:
        population, log = mu_plus_lambda_run(
            cfg.budget, decode_cfg, tick_cfg, fit_cfg, seed, log_interval=cfg.log_interval,
        )
        best = max(ind.fitness for ind in population)
        if run_dir is not None:
            os.makedirs(run_dir, exist_ok=True)
            save_population(population, os.path.join(run_dir, "population.txt"))
    else:
        layout = ArchiveLayout(cfg.method.characterization)
        archive, log = map_elites_run(
            cfg.budget, layout, decode_cfg, tick_cfg, fit_cfg, seed, log_interval=cfg.log_interval,
        )
        best = archive.best_fitness
        if run_dir is not None:
            os.makedirs(run_dir, exist_ok=True)
            save_archive(archive, os.path.join(run_dir, "archive"), cfg, seed)
    if run_dir is not None:
        with open(os.path.join(run_dir, "log.csv"), "w") as fh:
            fh.write(log.to_csv())
    first = min(log.first_flights.values()) if log.first_flights else None
    directions = tuple(sorted(o.name for o in log.first_flights))
    outcome = RunOutcome(seed, bool(log.first_flights), first, directions, best, log.evaluations)
    return outcome, log


def run_campaign(cfg: ExperimentConfig) -> CampaignSummary:
    """Execute `cfg.runs` independent runs and write the aggregated summary."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "config.txt"), "w") as fh:
        fh.write(describe_config(cfg))

    outcomes: list[RunOutcome] = []
    for i in range(cfg.runs):
        run_dir = os.path.join(cfg.out_dir, "runs", _method_dir_name(i))
        outcome, _log = run_single(cfg, cfg.seed_base + i, run_dir)
        outcomes.append(outcome)

    summary = summarize(cfg, outcomes)
    write_summary(summary, cfg.out_dir)
    return summary


def summarize(cfg: ExperimentConfig, outcomes: list[RunOutcome]) -> CampaignSummary:
    successes = [o for o in outcomes if o.succeeded]
    direction_counts = {o.name: 0 for o in Orientation}
    for outcome in outcomes:
        for name in outcome.directions:
            direction_counts[name] += 1
    distinct = [len(o.directions) for o in outcomes]
    firsts: list[object] = []
    for outcome in outcomes:
        if outcome.first_flight_eval is None:
            firsts.append("never")
        else:
            firsts.append(round_up_to_interval(outcome.first_flight_eval, cfg.log_interval))
    return CampaignSummary(
        method=cfg.method.value,
        block_set=cfg.block_set.value,
        runs=cfg.runs,
        success_count=len(successes),
        success_pct=100.0 * len(successes) / cfg.runs,
        direction_run_counts=direction_counts,
        avg_distinct_directions=sum(distinct) / cfg.runs,
        max_distinct_directions=max(distinct, default=0),
        first_flight_evals=firsts,
        outcomes=outcomes,
    )


def write_summary(summary: CampaignSummary, out_dir: str) -> None:
    with open(os.path.join(out_dir, "summary.csv"), "w") as fh:
        fh.write("method,block_set,runs,success_count,success_pct,avg_distinct_directions,max_distinct_directions\n")
        fh.write(
            f"{summary.method},{summary.block_set},{summary.runs},{summary.success_count},"
            f"{summary.success_pct!r},{summary.avg_distinct_directions!r},{summary.max_distinct_directions}\n"
        )
    with open(os.path.join(out_dir, "directions.csv"), "w") as fh:
        fh.write("direction,runs_with_flight,pct\n")
        for name, count in summary.direction_run_counts.items():
            fh.write(f"{name},{count},{100.0 * count / summary.runs!r}\n")
    with open(os.path.join(out_dir, "first_flights.csv"), "w") as fh:
        fh.write("run,seed,first_flight_rounded,first_flight_exact,best_fitness\n")
        for i, (outcome, rounded) in enumerate(zip(summary.outcomes, summary.first_flight_evals)):
            exact = outcome.first_flight_eval if outcome.first_flight_eval is not None else "never"
            fh.write(f"{i},{outcome.seed},{rounded},{exact},{outcome.best_fitness!r}\n")


def describe_config(cfg: ExperimentConfig) -> str:
    """The settings of a campaign in the CLI's config file format, so that
    `run --config` with this text repeats the campaign (the output directory
    is left to `--out`)."""
    b = cfg.budget
    lines = [
        f"method = {cfg.method.value}",
        f"block_set = {cfg.block_set.value}",
        f"runs = {cfg.runs}",
        f"seed = {cfg.seed_base}",
        f"init_samples = {b.init_samples}",
        f"evals = {b.offspring}",
        f"mu = {b.mu}",
        f"lam = {b.lam}",
        f"generations = {b.generations}",
        f"crossover_prob = {b.crossover_prob!r}",
        f"log_interval = {cfg.log_interval}",
        f"emulate_observer_bug = {str(cfg.emulate_observer_bug).lower()}",
    ]
    return "\n".join(lines) + "\n"


def export_shape_file(cfg: ExperimentConfig, archive_dir: str, bin_index: int, out_path: str) -> None:
    """Decode a stored occupant and write it in the shape text format."""
    genome = load_archive_genome(archive_dir, bin_index)
    decode_cfg = cfg.decode_config()
    shape = decode(genome, decode_cfg)
    result = evaluate(genome, decode_cfg, cfg.tick_config(), cfg.fitness_config())
    layout = ArchiveLayout(cfg.method.characterization or Characterization.BLOCK_COUNT)
    header = [
        f"bin {bin_index}",
        f"fitness {result.fitness!r}",
        f"flew {str(result.flew).lower()}" + (f" direction {result.direction.name}" if result.direction else ""),
        f"descriptor {list(layout.descriptor(shape))}",
    ]
    with open(out_path, "w") as fh:
        fh.write(format_shape(shape, header))
