"""Experiment orchestration: multi-run campaigns, logging, aggregation, export.

A campaign executes `runs` independent searches with seeds base+i, writes one
log and one archive/population snapshot per run, then aggregates success
rates, per-direction counts, and time-to-first-success into summary CSVs.
Summaries are a pure function of the configuration.
"""

from __future__ import annotations

import math
import os
import shutil
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .behavior import ArchiveLayout, Characterization
from .blocks import BlockSet, Orientation, write_shape_file
from .fitness import FitnessConfig, evaluate_shape
from .genome import DecodeConfig, Genome, decode, genome_from_line, genome_to_line
from .search import Archive, Population, RunLog, SearchBudget, map_elites_run, mu_plus_lambda_run
from .sim import TickConfig


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
    """A campaign's settings, every one given: the `run` parser (`cli`) holds their defaults."""

    method: Method
    decode: DecodeConfig
    runs: int
    seed_base: int
    budget: SearchBudget
    log_interval: int
    out_dir: str

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if self.seed_base < 0:
            raise ValueError("seed must be >= 0")
        if self.log_interval < 1:
            raise ValueError("log_interval must be >= 1")


def round_up_to_interval(value: int, interval: int) -> int:
    return interval * math.ceil(value / interval)


def save_archive(archive: Archive, path: str, cfg: ExperimentConfig, seed: int, evaluations: int) -> None:
    """Persist an archive as genome-line files named by flat bin index; `evaluations` is the run's total."""
    bins_dir = os.path.join(path, "bins")
    os.makedirs(bins_dir, exist_ok=True)
    lines = [
        f"characterization = {cfg.method.characterization.value}",
        f"method = {cfg.method.value}",
        f"block_set = {cfg.decode.block_set.value}",
        f"seed = {seed}",
        f"evaluations = {evaluations}",
        f"emulate_observer_bug = {str(cfg.decode.emulate_observer_bug).lower()}",
        "columns = bin,fitness,discovered_eval,flew,direction",
    ]
    for index in sorted(archive.bins):
        entry = archive.bins[index]
        direction = entry.direction.name if entry.direction else ""
        lines.append(f"bin {index} {entry.fitness!r} {entry.discovered_eval} {str(entry.flew).lower()} {direction}")
        with open(os.path.join(bins_dir, f"{index}.genome"), "w") as fh:
            fh.write(genome_to_line(entry.genome) + "\n")
    with open(os.path.join(path, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_manifest(path: str) -> tuple[ArchiveLayout, DecodeConfig]:
    """The archive layout and the decoding an archive was made with. A missing
    or unknown setting, a method without an archive layout, or a characterization
    other than the method's is a `ValueError` naming the manifest and the key."""
    manifest = os.path.join(path, "manifest.txt")
    with open(manifest) as fh:
        values = dict(line.split(" = ", 1) for line in fh.read().splitlines() if " = " in line)

    def setting(key: str, parse):
        if key not in values:
            raise ValueError(f"{manifest}: missing setting {key}")
        try:
            return parse(values[key])
        except (KeyError, ValueError):
            raise ValueError(f"{manifest}: {key}: invalid value {values[key]!r}") from None

    method = setting("method", Method)
    if method.characterization is None:
        raise ValueError(f"{manifest}: method: {method.value!r} has no archive layout")
    characterization = setting("characterization", Characterization)
    if characterization is not method.characterization:
        raise ValueError(f"{manifest}: characterization: {characterization.value!r} does not match method {method.value!r}")
    bug = {"true": True, "false": False}.__getitem__
    return ArchiveLayout(characterization), DecodeConfig(setting("block_set", BlockSet), setting("emulate_observer_bug", bug))


def load_archive_genome(path: str, bin_index: int) -> Genome:
    genome_path = os.path.join(path, "bins", f"{bin_index}.genome")
    if not os.path.exists(genome_path):
        raise ValueError(f"no occupant stored for bin {bin_index} under {path}")
    with open(genome_path) as fh:
        return genome_from_line(fh.read())


def save_population(population: Population, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("# columns: fitness genome...\n")
        for ind in population:
            fh.write(f"{ind.fitness!r} {genome_to_line(ind.genome)}\n")


def run_single(cfg: ExperimentConfig, seed: int, run_dir: str) -> RunLog:
    """One search run; writes log.csv plus an archive or population snapshot under `run_dir`."""
    tick_cfg = TickConfig()
    fit_cfg = FitnessConfig()
    os.makedirs(run_dir, exist_ok=True)
    if cfg.method is Method.PF:
        population, log = mu_plus_lambda_run(
            cfg.budget, cfg.decode, tick_cfg, fit_cfg, seed, log_interval=cfg.log_interval,
        )
        save_population(population, os.path.join(run_dir, "population.txt"))
    else:
        layout = ArchiveLayout(cfg.method.characterization)
        archive, log = map_elites_run(
            cfg.budget, layout, cfg.decode, tick_cfg, fit_cfg, seed, log_interval=cfg.log_interval,
        )
        save_archive(archive, os.path.join(run_dir, "archive"), cfg, seed, log.evaluations)
    with open(os.path.join(run_dir, "log.csv"), "w") as fh:
        fh.write(log.to_csv())
    return log


def run_campaign(cfg: ExperimentConfig) -> list[RunLog]:
    """Execute `cfg.runs` independent runs, replacing any earlier `runs/`, and write the aggregated summary."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    runs_dir = os.path.join(cfg.out_dir, "runs")
    if os.path.isdir(runs_dir):
        shutil.rmtree(runs_dir)
    logs = [run_single(cfg, cfg.seed_base + i, os.path.join(runs_dir, f"run_{i:03d}")) for i in range(cfg.runs)]
    write_summary(cfg, logs)
    return logs


def write_summary(cfg: ExperimentConfig, logs: list[RunLog]) -> None:
    """Write into `cfg.out_dir` `summary.csv` (successes, distinct directions per run),
    `directions.csv` (runs with a flight per direction) and `first_flights.csv` (per
    run with seed `cfg.seed_base + i`, exact and rounded up to its `log.csv` row)."""
    successes = sum(bool(log.first_flights) for log in logs)
    distinct = [len(log.first_flights) for log in logs]
    with open(os.path.join(cfg.out_dir, "summary.csv"), "w") as fh:
        fh.write("method,block_set,runs,success_count,success_pct,avg_distinct_directions,max_distinct_directions\n")
        fh.write(
            f"{cfg.method.value},{cfg.decode.block_set.value},{cfg.runs},{successes},"
            f"{100.0 * successes / cfg.runs!r},{sum(distinct) / cfg.runs!r},{max(distinct, default=0)}\n"
        )
    with open(os.path.join(cfg.out_dir, "directions.csv"), "w") as fh:
        fh.write("direction,runs_with_flight,pct\n")
        for orient in Orientation:
            count = sum(orient in log.first_flights for log in logs)
            fh.write(f"{orient.name},{count},{100.0 * count / cfg.runs!r}\n")
    with open(os.path.join(cfg.out_dir, "first_flights.csv"), "w") as fh:
        fh.write("run,seed,first_flight_rounded,first_flight_exact,best_fitness\n")
        for i, log in enumerate(logs):
            exact = min(log.first_flights.values(), default=None)
            rounded = "never" if exact is None else min(round_up_to_interval(exact, cfg.log_interval), log.evaluations)
            fh.write(f"{i},{cfg.seed_base + i},{rounded},{'never' if exact is None else exact},{log.best_fitness!r}\n")


def export_shape_file(run_dir: str, bin_index: int, out_path: str) -> None:
    """Decode a run's stored occupant with its manifest's settings and write
    it in the shape text format, as it is placed (and so simulated)."""
    if os.path.exists(os.path.join(run_dir, "population.txt")):
        raise ValueError(f"{run_dir}: a pf run keeps population.txt, not an archive to export from")
    archive_dir = os.path.join(run_dir, "archive")
    layout, decode_cfg = load_manifest(archive_dir)
    shape = decode(load_archive_genome(archive_dir, bin_index), decode_cfg)
    result = evaluate_shape(shape, TickConfig(), FitnessConfig())
    header = [
        f"bin {bin_index}",
        f"fitness {result.fitness!r}",
        f"flew {str(result.flew).lower()}" + (f" direction {result.direction.name}" if result.direction else ""),
        f"descriptor {list(layout.descriptor(shape))}",
    ]
    write_shape_file(out_path, shape, header)
