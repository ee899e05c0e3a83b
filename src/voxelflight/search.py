"""The two optimizers: MAP-Elites with probabilistic crossover, and a pure
fitness (mu+lambda) baseline with binary tournament selection.

Both run one ask/tell loop: the method's emitter asks for a batch of
genomes, the loop evaluates them serially in order, and the method's tell
keeps what it wants of each result. Both are reproducible byte-for-byte from
(seed, budget, configs): variation consumes the run's random generator
strictly sequentially, and evaluation consumes none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .behavior import ArchiveLayout
from .blocks import Orientation
from .fitness import EvaluationResult, FitnessConfig, evaluate
from .genome import DecodeConfig, Genome, crossover, decode, polynomial_mutate, random_genome
from .sim import TickConfig

# MAP-Elites emits offspring in batches of this size; parents within a batch
# all come from the archive as of the batch start.
EVAL_BATCH = 10

MUTATION_RATE = 0.3
MUTATION_ETA = 20.0


@dataclass(frozen=True)
class SearchBudget:
    init_samples: int = 100
    offspring: int = 60000
    mu: int = 20
    lam: int = 20
    generations: int = 3005
    crossover_prob: float = 0.5

    def __post_init__(self):
        if min(self.init_samples, self.mu, self.lam, self.generations) < 1 or self.offspring < 0:
            raise ValueError("budget values must be positive (offspring may be 0)")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must be a probability")


@dataclass
class BinEntry:
    genome: Genome
    fitness: float
    result: EvaluationResult
    discovered_eval: int


@dataclass
class Archive:
    layout: ArchiveLayout
    bins: dict[int, BinEntry] = field(default_factory=dict)
    evaluations: int = 0
    # Accepted insertions as (evaluation number, bin index, fitness), in order.
    history: list[tuple[int, int, float]] = field(default_factory=list)

    def insert(self, bin_index: int, genome: Genome, result: EvaluationResult) -> bool:
        """Keep the candidate iff its bin is empty or it is strictly fitter."""
        incumbent = self.bins.get(bin_index)
        if incumbent is not None and result.fitness <= incumbent.fitness:
            return False
        self.bins[bin_index] = BinEntry(genome.copy(), result.fitness, result, self.evaluations)
        self.history.append((self.evaluations, bin_index, result.fitness))
        return True

    @property
    def best_fitness(self) -> float:
        return max((e.fitness for e in self.bins.values()), default=0.0)

    @property
    def occupied(self) -> int:
        return len(self.bins)


LOG_COLUMNS = (
    "evaluations",
    "occupied_bins",
    "best_fitness",
    "flights",
    "first_flight_north",
    "first_flight_south",
    "first_flight_east",
    "first_flight_west",
    "first_flight_up",
    "first_flight_down",
)


@dataclass
class RunLog:
    """Snapshot rows taken every `log_interval` evaluations, plus the total
    number of evaluations recorded.

    First-flight columns hold the exact evaluation number that first flew in
    that direction, or 0 while none has.
    """

    rows: list[tuple] = field(default_factory=list)
    first_flights: dict[Orientation, int] = field(default_factory=dict)
    flights: int = 0
    evaluations: int = 0

    def record_result(self, result: EvaluationResult) -> int:
        """Count one evaluation and its flight, if any; return its evaluation number."""
        self.evaluations += 1
        if result.flew:
            self.flights += 1
            self.first_flights.setdefault(result.direction, self.evaluations)
        return self.evaluations

    def snapshot(self, eval_number: int, occupied: int, best: float) -> None:
        firsts = tuple(self.first_flights.get(o, 0) for o in Orientation)
        self.rows.append((eval_number, occupied, best, self.flights) + firsts)

    def to_csv(self) -> str:
        lines = [",".join(LOG_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        return "\n".join(lines) + "\n"


def _search(
    batches: Iterable[list[Genome]],
    tell: Callable[[int, Genome, EvaluationResult], None],
    stats: Callable[[], tuple[int, float]],
    decode_cfg: DecodeConfig,
    tick_cfg: TickConfig,
    fit_cfg: FitnessConfig,
    log_interval: int,
) -> RunLog:
    """Evaluate every genome of every batch in order and tell its result.

    `batches` asks for the next batch only once the previous one has been
    told, so the emitter sees all results so far. Every `log_interval`
    evaluations the log takes a snapshot of `stats()` (occupied bins, best
    fitness). The returned log carries the number of evaluations made.
    """
    log = RunLog()
    for batch in batches:
        for genome in batch:
            result = evaluate(genome, decode_cfg, tick_cfg, fit_cfg)
            eval_number = log.record_result(result)
            tell(eval_number, genome, result)
            if eval_number % log_interval == 0:
                log.snapshot(eval_number, *stats())
    return log


def map_elites_run(
    budget: SearchBudget,
    layout: ArchiveLayout,
    decode_cfg: DecodeConfig,
    tick_cfg: TickConfig,
    fit_cfg: FitnessConfig,
    seed: int,
    workers: int = 1,
    log_interval: int = 100,
    mutation_rate: float = MUTATION_RATE,
    mutation_eta: float = MUTATION_ETA,
) -> tuple[Archive, RunLog]:
    """Illuminate the behavior space: one elite per bin, uniform bin sampling.

    Offspring are either a crossover of two uniformly sampled elites followed
    by mutation (probability `crossover_prob`) or a mutated clone of one
    elite. Initial samples count toward the evaluation total and the log.
    `workers` is ignored: evaluation is serial.
    """
    rng = np.random.default_rng(seed)
    archive = Archive(layout)

    def ask() -> Iterator[list[Genome]]:
        yield [random_genome(rng, decode_cfg.genome_length) for _ in range(budget.init_samples)]
        for start in range(0, budget.offspring, EVAL_BATCH):
            occupied = sorted(archive.bins)  # parents fixed before the batch's insertions
            batch = []
            for _ in range(min(EVAL_BATCH, budget.offspring - start)):
                if rng.random() < budget.crossover_prob:
                    first = archive.bins[occupied[rng.integers(len(occupied))]].genome
                    second = archive.bins[occupied[rng.integers(len(occupied))]].genome
                    child = crossover(first, second, rng)
                else:
                    child = archive.bins[occupied[rng.integers(len(occupied))]].genome.copy()
                batch.append(polynomial_mutate(child, rng, mutation_rate, mutation_eta))
            yield batch

    def tell(eval_number: int, genome: Genome, result: EvaluationResult) -> None:
        archive.evaluations = eval_number
        archive.insert(layout.bin_index(layout.descriptor(decode(genome, decode_cfg))), genome, result)

    log = _search(
        ask(), tell, lambda: (archive.occupied, archive.best_fitness), decode_cfg, tick_cfg, fit_cfg, log_interval,
    )
    return archive, log


@dataclass
class Individual:
    genome: Genome
    fitness: float
    result: EvaluationResult
    birth: int  # global birth index; lower is older


Population = list[Individual]


def select_survivors(pool: Population, mu: int) -> Population:
    """Top mu by fitness; ties keep older individuals (lower birth index)."""
    return sorted(pool, key=lambda ind: (-ind.fitness, ind.birth))[:mu]


def _tournament(population: Population, rng: np.random.Generator) -> Individual:
    """Binary tournament: two uniform picks, higher fitness wins, ties uniform."""
    first = population[int(rng.integers(len(population)))]
    second = population[int(rng.integers(len(population)))]
    if first.fitness > second.fitness:
        return first
    if second.fitness > first.fitness:
        return second
    return first if rng.integers(2) == 0 else second


def mu_plus_lambda_run(
    budget: SearchBudget,
    decode_cfg: DecodeConfig,
    tick_cfg: TickConfig,
    fit_cfg: FitnessConfig,
    seed: int,
    workers: int = 1,
    log_interval: int = 100,
    mutation_rate: float = MUTATION_RATE,
    mutation_eta: float = MUTATION_ETA,
) -> tuple[Population, RunLog]:
    """Elitist (mu+lambda) evolution on raw fitness.

    Each child takes its first parent from a binary tournament, with
    probability `crossover_prob` crosses it with a second independently
    selected parent, then mutates. Survivors are the best mu of parents plus
    children, ties resolved oldest-first. `workers` is ignored: evaluation
    is serial.
    """
    rng = np.random.default_rng(seed)
    population: Population = []
    pool = population  # individuals told so far in this generation, parents first

    def ask() -> Iterator[list[Genome]]:
        nonlocal population, pool
        yield [random_genome(rng, decode_cfg.genome_length) for _ in range(budget.mu)]
        for _generation in range(budget.generations):
            children: list[Genome] = []
            for _ in range(budget.lam):
                parent = _tournament(population, rng)
                if rng.random() < budget.crossover_prob:
                    partner = _tournament(population, rng)
                    child = crossover(parent.genome, partner.genome, rng)
                else:
                    child = parent.genome.copy()
                children.append(polynomial_mutate(child, rng, mutation_rate, mutation_eta))
            pool = list(population)
            yield children
            population = select_survivors(pool, budget.mu)

    def tell(eval_number: int, genome: Genome, result: EvaluationResult) -> None:
        pool.append(Individual(genome, result.fitness, result, eval_number - 1))

    log = _search(
        ask(), tell, lambda: (budget.mu, max(ind.fitness for ind in pool)), decode_cfg, tick_cfg, fit_cfg, log_interval,
    )
    return population, log
