"""voxelflight: quality-diversity evolution of voxel flying machines.

Shapes of pistons, slime, redstone, and observer blocks are decoded from flat
real-valued genomes, dropped into a deterministic tick-based physics
simulator, and scored on accumulated center-of-mass movement with a flat
reward for machines that actually leave their spawn neighborhood. Search is
either MAP-Elites over one of three structural behavior characterizations or
a pure-fitness (mu+lambda) baseline.
"""

from .behavior import (
    ArchiveLayout,
    BehaviorDescriptor,
    Characterization,
    block_count_bc,
    negative_space,
    piston_orientation_bc,
)
from .blocks import (
    Block,
    BlockKind,
    BlockPlacement,
    BlockSet,
    Box,
    Orientation,
    ORIENTATION_ORDER,
    WorldState,
    center_of_mass,
    count_blocks,
    format_shape,
    parse_shape,
    place_shape,
    write_shape_file,
)
from .campaign import (
    ExperimentConfig,
    Method,
    run_campaign,
    run_single,
)
from .fitness import (
    EvaluationResult,
    FitnessConfig,
    classify_direction,
    evaluate,
    evaluate_shape,
    oscillation_fitness,
)
from .genome import (
    DecodeConfig,
    Genome,
    apply_observer_bug,
    crossover,
    decode,
    genome_from_line,
    genome_to_line,
    polynomial_mutate,
    random_genome,
)
from .search import (
    Archive,
    RunLog,
    SearchBudget,
    map_elites_run,
    mu_plus_lambda_run,
)
from .sim import TickConfig, compute_power, compute_push_set, run_until, step
from .stats import bonferroni, fisher_exact_2x2

__version__ = "0.1.0"
