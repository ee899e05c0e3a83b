"""The two optimizers: MAP-Elites with probabilistic crossover, and a pure
fitness (mu+lambda) baseline with binary tournament selection.

Both run one ask/tell loop: the method's emitter asks for a batch of
genomes, the loop evaluates them serially in order, and the method's tell
keeps what it wants of each outcome. The loop decodes each genome once and
hands on the decoded shape with its scores, so MAP-Elites bins the shape it
evaluated. A run simulates each distinct shape once: it keeps the scores of
every shape it has evaluated, and a repeated shape gets the stored scores.
Both are reproducible byte-for-byte from (seed, budget, configs): variation
consumes the run's random generator strictly sequentially, and evaluation
consumes none of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .behavior import ArchiveLayout
from .blocks import BlockPlacement, Orientation
from .fitness import FitnessConfig, evaluate_shape
from .genome import DecodeConfig, Genome, crossover, decode, polynomial_mutate, random_genome, shape_key
from .sim import TickConfig

# MAP-Elites emits offspring in batches of this size; parents within a batch
# all come from the archive as of the batch start.
EVAL_BATCH = 10


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


class Outcome(NamedTuple):
    """What a run keeps of one evaluation: the decoded shape, which MAP-Elites
    bins, and the scores that the log and the tells read."""

    shape: list[BlockPlacement]
    fitness: float
    flew: bool
    direction: Optional[Orientation]
    ticks_used: int


def evaluate(
    genome: Genome, decode_cfg: DecodeConfig, tick_cfg: TickConfig, fit_cfg: FitnessConfig, memo: dict[bytes, tuple],
) -> Outcome:
    """The outcome of one evaluation of `genome` in a run whose scores so far
    `memo` holds by decoded shape. Evaluation is a pure function of the
    decoded shape and the settings, so a shape already in `memo` gets its
    stored scores and only a new one is simulated (and stored)."""
    shape = decode(genome, decode_cfg)
    key = shape_key(shape)
    scores = memo.get(key)
    if scores is None:
        result = evaluate_shape(shape, tick_cfg, fit_cfg)
        scores = memo[key] = (result.fitness, result.flew, result.direction, result.ticks_used)
    return Outcome(shape, *scores)


@dataclass
class Elite:
    """A kept genome (an archive bin's occupant or a PF population member) and the evaluation that found it."""

    genome: Genome
    fitness: float
    flew: bool
    direction: Optional[Orientation]
    discovered_eval: int


@dataclass
class Archive:
    bins: dict[int, Elite] = field(default_factory=dict)

    def insert(self, bin_index: int, genome: Genome, result: Outcome, eval_number: int) -> bool:
        """Keep the candidate, found at evaluation `eval_number`, iff its bin is empty or it is strictly fitter."""
        incumbent = self.bins.get(bin_index)
        if incumbent is not None and result.fitness <= incumbent.fitness:
            return False
        self.bins[bin_index] = Elite(genome.copy(), result.fitness, result.flew, result.direction, eval_number)
        return True


# The first-flight columns follow `Orientation`, as `RunLog.snapshot` does.
LOG_COLUMNS = (
    "evaluations",
    "occupied_bins",
    "best_fitness",
    "flights",
) + tuple(f"first_flight_{o.name.lower()}" for o in Orientation) + ("distinct_shapes",)


@dataclass
class RunLog:
    """Snapshot rows taken every `log_interval` evaluations and after the
    last one, plus the total number of evaluations recorded and the best
    fitness evaluated so far.

    Both searches are elitist, so the best fitness evaluated is also the best
    the archive or population holds. Only a strictly greater result replaces
    it, so of equal values (the int 0 and 0.0) the earliest stays, as in `max`.
    First-flight columns hold the exact evaluation number that first flew in
    that direction, or 0 while none has. The last column counts the distinct
    decoded shapes evaluated so far, each simulated once.
    """

    rows: list[tuple] = field(default_factory=list)
    first_flights: dict[Orientation, int] = field(default_factory=dict)
    flights: int = 0
    evaluations: int = 0
    best_fitness: float = float("-inf")  # the max of no results

    def record_result(self, result: Outcome) -> int:
        """Count one evaluation, its fitness and its flight, if any; return its evaluation number."""
        self.evaluations += 1
        if result.fitness > self.best_fitness:
            self.best_fitness = result.fitness
        if result.flew:
            self.flights += 1
            self.first_flights.setdefault(result.direction, self.evaluations)
        return self.evaluations

    def snapshot(self, occupied: int, distinct_shapes: int) -> None:
        firsts = tuple(self.first_flights.get(o, 0) for o in Orientation)
        self.rows.append((self.evaluations, occupied, self.best_fitness, self.flights) + firsts + (distinct_shapes,))

    def to_csv(self) -> str:
        lines = [",".join(LOG_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
        return "\n".join(lines) + "\n"


def _search(
    batches: Iterable[list[Genome]],
    tell: Callable[[int, Genome, Outcome], None],
    occupied: Callable[[], int],
    decode_cfg: DecodeConfig,
    tick_cfg: TickConfig,
    fit_cfg: FitnessConfig,
    log_interval: int,
) -> RunLog:
    """Evaluate every genome of every batch in order and tell its outcome.

    `batches` asks for the next batch only once the previous one has been
    told, so the emitter sees all outcomes so far. The run's memo of scores
    by decoded shape starts empty and is dropped on return, so runs stay
    independent. Every `log_interval` evaluations, and after the last one,
    the log takes a snapshot with `occupied()` bins and the memo's size. The
    returned log carries the number of evaluations made and the best fitness
    among them.
    """
    log = RunLog()
    memo: dict[bytes, tuple] = {}  # an Outcome's fields after the shape, by shape key
    for batch in batches:
        for genome in batch:
            outcome = evaluate(genome, decode_cfg, tick_cfg, fit_cfg, memo)
            eval_number = log.record_result(outcome)
            tell(eval_number, genome, outcome)
            if eval_number % log_interval == 0:
                log.snapshot(occupied(), len(memo))
    if log.evaluations % log_interval != 0:
        log.snapshot(occupied(), len(memo))
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
) -> tuple[Archive, RunLog]:
    """Illuminate the behavior space: one elite per bin, uniform bin sampling.

    Offspring are either a crossover of two uniformly sampled elites followed
    by mutation (probability `crossover_prob`) or a mutated clone of one
    elite. Initial samples count toward the evaluation total and the log.
    `workers` is ignored: evaluation is serial.
    """
    rng = np.random.default_rng(seed)
    archive = Archive()

    def ask() -> Iterator[list[Genome]]:
        def pick() -> Genome:  # a uniformly sampled elite of the batch's parents
            return archive.bins[occupied[rng.integers(len(occupied))]].genome

        yield [random_genome(rng, decode_cfg.genome_length) for _ in range(budget.init_samples)]
        for start in range(0, budget.offspring, EVAL_BATCH):
            occupied = sorted(archive.bins)  # parents fixed before the batch's insertions
            parents, uniforms = [], []
            for _ in range(min(EVAL_BATCH, budget.offspring - start)):
                parents.append(crossover(pick(), pick(), rng) if rng.random() < budget.crossover_prob else pick())
                uniforms.append(rng.random((2, decode_cfg.genome_length)))  # this child's mutation draws
            yield list(polynomial_mutate(np.array(parents), np.array(uniforms)))

    def tell(eval_number: int, genome: Genome, outcome: Outcome) -> None:
        archive.insert(layout.bin_index(layout.descriptor(outcome.shape)), genome, outcome, eval_number)

    log = _search(ask(), tell, lambda: len(archive.bins), decode_cfg, tick_cfg, fit_cfg, log_interval)
    return archive, log


Population = list[Elite]


def select_survivors(pool: Population, mu: int) -> Population:
    """Top mu by fitness; ties keep older members (found at an earlier evaluation)."""
    return sorted(pool, key=lambda member: (-member.fitness, member.discovered_eval))[:mu]


def _tournament(population: Population, rng: np.random.Generator) -> Elite:
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
    pool = population  # members told so far in this generation, parents first

    def ask() -> Iterator[list[Genome]]:
        nonlocal population, pool
        yield [random_genome(rng, decode_cfg.genome_length) for _ in range(budget.mu)]
        for _generation in range(budget.generations):
            parents, uniforms = [], []
            for _ in range(budget.lam):
                parent = _tournament(population, rng)
                if rng.random() < budget.crossover_prob:
                    partner = _tournament(population, rng)
                    parents.append(crossover(parent.genome, partner.genome, rng))
                else:
                    parents.append(parent.genome)
                uniforms.append(rng.random((2, decode_cfg.genome_length)))  # this child's mutation draws
            pool = list(population)
            yield list(polynomial_mutate(np.array(parents), np.array(uniforms)))
            population = select_survivors(pool, budget.mu)

    def tell(eval_number: int, genome: Genome, outcome: Outcome) -> None:
        pool.append(Elite(genome, outcome.fitness, outcome.flew, outcome.direction, eval_number))

    log = _search(ask(), tell, lambda: budget.mu, decode_cfg, tick_cfg, fit_cfg, log_interval)
    return population, log
