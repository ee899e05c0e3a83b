"""Direct real-vector encoding of shapes and the variation operators.

A genome is a flat vector in [0,1]^(3*volume): three genes per cell, in cell
order x-major then y then z (index = (x*sy + y)*sz + z for a 3x3x3 shape).
The triple (presence, type, orientation) decodes as: a block exists iff
presence > 0.5; the type interval [0,1] is split evenly over the active block
set; orientation is split evenly over North, South, East, West, Up, Down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .blocks import BlockPlacement, BlockSet, ORIENTATION_ORDER, SPAWN_BOX_SIZE, _new

Genome = np.ndarray

PRESENCE_THRESHOLD = 0.5

# Polynomial mutation: the per-gene rate and the distribution index every search uses.
MUTATION_RATE = 0.3
MUTATION_ETA = 20.0


class LengthError(ValueError):
    """Genome length is not a positive multiple of 3."""


class LengthMismatchError(ValueError):
    """Genome length does not match the expected shape volume or partner."""


@dataclass(frozen=True)
class DecodeConfig:
    """Decoding settings: the block set is chosen per run; the shape is the
    pinned SPAWN_BOX_SIZE cube."""

    block_set: BlockSet = BlockSet.ORIGINAL

    volume: ClassVar[int] = SPAWN_BOX_SIZE**3
    genome_length: ClassVar[int] = 3 * volume

    def cell_for_index(self, i: int) -> tuple[int, int, int]:
        x, rem = divmod(i, SPAWN_BOX_SIZE * SPAWN_BOX_SIZE)
        y, z = divmod(rem, SPAWN_BOX_SIZE)
        return (x, y, z)


# Cell of each gene triple, in genome order; `cell_for_index` defines the order.
_CELLS = tuple(DecodeConfig().cell_for_index(i) for i in range(DecodeConfig.volume))
# Orientation by interval index, the last repeated: a gene of exactly 1.0 maps
# to index 6, which is the last interval, as `min(int(g * 6), 5)` would give.
_ORIENTS = ORIENTATION_ORDER + ORIENTATION_ORDER[-1:]


def decode(genome: Genome, cfg: DecodeConfig) -> list[BlockPlacement]:
    """Turn a genome into block placements in deterministic cell order. Genes
    lie in [0, 1], as `genome_from_line` enforces: the interval tables assume it."""
    if len(genome) != cfg.genome_length:
        raise LengthMismatchError(f"expected length {cfg.genome_length}, got {len(genome)}")
    # Python floats hold the same doubles as the array, without numpy's per-element boxing.
    genes = genome.tolist()
    members = cfg.block_set.members
    k = len(members)
    kinds = members + members[-1:]  # as `_ORIENTS`: a gene of 1.0 maps to the last kind
    shape: list[BlockPlacement] = []
    for cell, presence, kind_gene, orient_gene in zip(_CELLS, genes[0::3], genes[1::3], genes[2::3]):
        if presence > PRESENCE_THRESHOLD:
            shape.append(_new(BlockPlacement, (cell, kinds[int(kind_gene * k)], _ORIENTS[int(orient_gene * 6)])))
    return shape


def random_genome(rng: np.random.Generator, length: int) -> Genome:
    if length <= 0 or length % 3 != 0:
        raise LengthError(f"length must be a positive multiple of 3, got {length}")
    return rng.random(length)


def polynomial_mutate(
    genome: Genome,
    rng: np.random.Generator,
    per_gene_rate: float = MUTATION_RATE,
    eta: float = MUTATION_ETA,
) -> Genome:
    """Bounded polynomial mutation on [0,1], applied gene-wise.

    Each gene mutates independently with probability `per_gene_rate`; `eta`
    is the distribution index (larger means smaller perturbations). Untouched
    genes are returned bit-identical.
    """
    n = len(genome)
    mask = rng.random(n) < per_gene_rate
    r = rng.random(n)
    # Every gene gets its branch's value, elementwise (so bit for bit as if it
    # were computed alone), and the mask picks the genes that take it.
    mut_pow = 1.0 / (eta + 1.0)
    delta1 = genome  # distance to the lower bound 0
    delta2 = 1.0 - genome  # distance to the upper bound 1
    low = r <= 0.5
    xy = np.where(low, 1.0 - delta1, 1.0 - delta2) ** (eta + 1.0)
    val = np.where(low, 2.0 * r + (1.0 - 2.0 * r) * xy, 2.0 * (1.0 - r) + 2.0 * (r - 0.5) * xy) ** mut_pow
    deltaq = np.where(low, val - 1.0, 1.0 - val)
    return np.where(mask, np.minimum(np.maximum(genome + deltaq, 0.0), 1.0), genome)


def crossover(a: Genome, b: Genome, rng: np.random.Generator) -> Genome:
    """Single-point crossover cut at a gene-triple boundary.

    The cut index is a uniform multiple of 3 in [0, len], so a cell's
    (presence, type, orientation) triple is never split between parents.
    """
    if len(a) != len(b):
        raise LengthMismatchError(f"parent lengths differ: {len(a)} vs {len(b)}")
    cut = 3 * int(rng.integers(0, len(a) // 3 + 1))
    return np.concatenate([a[:cut], b[cut:]])


def genome_to_line(genome: Genome) -> str:
    """Serialize as one space-separated line, 17 significant digits (exact replay)."""
    return " ".join(f"{v:.17g}" for v in genome.tolist())


def genome_from_line(line: str) -> Genome:
    """Parse a `genome_to_line` line; every value must lie in [0, 1]."""
    values = np.array([float(tok) for tok in line.split()], dtype=float)
    if len(values) == 0 or len(values) % 3 != 0:
        raise LengthError(f"parsed {len(values)} values, expected a positive multiple of 3")
    outside = values[~((values >= 0.0) & (values <= 1.0))]  # NaN compares false: caught too
    if len(outside):
        raise ValueError(f"genome value {float(outside[0])!r} is not in [0, 1]")
    return values
