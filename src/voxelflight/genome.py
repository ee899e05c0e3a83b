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

from .blocks import BlockKind, BlockPlacement, BlockSet, Orientation, ORIENTATION_ORDER, SPAWN_BOX_SIZE

Genome = np.ndarray

PRESENCE_THRESHOLD = 0.5

# Polynomial mutation: the per-gene rate and the distribution index every search uses.
MUTATION_RATE = 0.3
MUTATION_ETA = 20.0


@dataclass(frozen=True)
class DecodeConfig:
    """Decoding settings, both chosen per run: the block set, and the observer
    placement quirk, under which an observer facing Up or Down decodes (and
    so is placed) facing North. The shape is the pinned SPAWN_BOX_SIZE cube."""

    block_set: BlockSet
    emulate_observer_bug: bool = True

    volume: ClassVar[int] = SPAWN_BOX_SIZE**3
    genome_length: ClassVar[int] = 3 * volume

    def cell_for_index(self, i: int) -> tuple[int, int, int]:
        x, rem = divmod(i, SPAWN_BOX_SIZE * SPAWN_BOX_SIZE)
        y, z = divmod(rem, SPAWN_BOX_SIZE)
        return (x, y, z)


def _last_repeated(intervals: tuple) -> tuple:
    """Entries by interval index, the last repeated: a gene of exactly 1.0
    maps to index len(intervals), which then lands in the last interval, as
    `min(int(g * n), n - 1)` would give."""
    return intervals + intervals[-1:]


def _placed_facing(kind: BlockKind, orient: Orientation) -> Orientation:
    """The facing a block is placed with under the observer placement quirk."""
    if kind is BlockKind.OBSERVER and (orient is Orientation.UP or orient is Orientation.DOWN):
        return Orientation.NORTH
    return orient


def apply_observer_bug(shape: list[BlockPlacement]) -> list[BlockPlacement]:
    """Rewrite Up/Down observer orientations to North, as decoding under the
    quirk does (so a shape `decode` returned under it is left as it is)."""
    return [p if (facing := _placed_facing(p.kind, p.orient)) is p.orient else p._replace(orient=facing) for p in shape]


def _decode_tables(block_set: BlockSet) -> tuple:
    """Every placement a gene triple can decode to under `block_set`, as
    `table[cell][int(kind_gene * k)][int(orient_gene * 6)]` for its k kinds:
    (k, table) without the observer quirk, then with it. The quirk's table
    shares the first one's rows but the observer's (the set's last kind, so
    the last row, repeated), whose Up and Down slots hold the North-facing
    observer of their cell; a set without observers has one table for both."""
    cfg = DecodeConfig(block_set)
    plain = tuple(
        _last_repeated(tuple(
            _last_repeated(tuple(BlockPlacement(cell, kind, orient) for orient in ORIENTATION_ORDER))
            for kind in block_set.members
        ))
        for cell in map(cfg.cell_for_index, range(cfg.volume))
    )
    quirk = plain if BlockKind.OBSERVER not in block_set.members else tuple(
        by_kind[:-2] + _last_repeated((tuple(by_kind[-1][_placed_facing(p.kind, p.orient).ordinal] for p in by_kind[-1]),))
        for by_kind in plain
    )
    return (len(block_set.members), plain), (len(block_set.members), quirk)


# ((k, table) without and with the quirk) by `BlockSet.ordinal`: the
# placements are built once, at import, and shared by every decoded shape.
_DECODE_TABLES = tuple(map(_decode_tables, BlockSet))


def decode(genome: Genome, cfg: DecodeConfig) -> list[BlockPlacement]:
    """Turn a genome into the shape it places, in cell order, each placement
    looked up in the decode table of the block set and quirk (so decoding
    builds no placement, and two decodes of one genome return the same
    objects). Genes lie in [0, 1], as `genome_from_line` enforces: the table
    assumes it."""
    if len(genome) != cfg.genome_length:
        raise ValueError(f"expected length {cfg.genome_length}, got {len(genome)}")
    # Python floats hold the same doubles as the array, without numpy's per-element boxing.
    genes = genome.tolist()
    k, table = _DECODE_TABLES[cfg.block_set.ordinal][cfg.emulate_observer_bug]
    return [
        by_kind[int(kind_gene * k)][int(orient_gene * 6)]
        for by_kind, presence, kind_gene, orient_gene in zip(table, genes[0::3], genes[1::3], genes[2::3])
        if presence > PRESENCE_THRESHOLD
    ]


# The kinds whose facing a rule reads: piston bases push along it and
# observers sense along it. Redstone, slime and quartz blocks decode with a
# facing that no rule, descriptor or poll reads.
_FACING_READ = (BlockKind.PISTON, BlockKind.STICKY_PISTON, BlockKind.OBSERVER)

# id of each placement the decode tables hold -> its two key bytes: the cell
# index, then kind * 6 + orientation, with a kind outside `_FACING_READ`
# keyed as its North-facing placement (North is ordinal 0). The tables live
# as long as the process, so no id is reused; the quirk's tables hold no
# placement of their own.
_KEY_CODES = {
    id(placement): bytes((cell, placement.kind.ordinal * 6 + (placement.orient.ordinal if placement.kind in _FACING_READ else 0)))
    for ((_k, table), _quirk) in _DECODE_TABLES
    for cell, by_kind in enumerate(table)
    for by_orient in by_kind
    for placement in by_orient
}


def shape_key(shape: list[BlockPlacement]) -> bytes:
    """A compact key for a shape `decode` returned: two bytes per block. Two
    decoded shapes have equal keys iff they are equal once every redstone,
    slime and quartz block in them faces North: those facings are read by no
    rule, descriptor or poll, so shapes with equal keys evaluate alike. The
    placements are looked up by id, so no Enum is hashed."""
    return b"".join(map(_KEY_CODES.__getitem__, map(id, shape)))


def random_genome(rng: np.random.Generator, length: int) -> Genome:
    if length <= 0 or length % 3 != 0:
        raise ValueError(f"length must be a positive multiple of 3, got {length}")
    return rng.random(length)


def polynomial_mutate(genomes: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Bounded polynomial mutation on [0,1], applied gene-wise to one genome
    `(n,)` or to each row of a batch `(k, n)`, at the fixed MUTATION_RATE and
    distribution index MUTATION_ETA (so the exponents are 21 and 1/21).

    `uniforms` holds each genome's draws in [0, 1), shaped `(2, n)` or
    `(k, 2, n)`: row 0 decides which genes mutate (those whose draw is below
    MUTATION_RATE), row 1 is the mutation's `r`. Untouched genes are returned
    bit-identical, and a batch row equals the one-genome call on it.
    """
    if uniforms.shape != genomes.shape[:-1] + (2,) + genomes.shape[-1:]:
        raise ValueError(f"uniforms of shape {uniforms.shape} do not fit genomes of shape {genomes.shape}")
    mask = uniforms[..., 0, :] < MUTATION_RATE
    r = uniforms[..., 1, :]
    # Every gene gets its branch's value, elementwise (so bit for bit as if it
    # were computed alone), and the mask picks the genes that take it.
    mut_pow = 1.0 / (MUTATION_ETA + 1.0)
    delta1 = genomes  # distance to the lower bound 0
    delta2 = 1.0 - genomes  # distance to the upper bound 1
    low = r <= 0.5
    xy = np.where(low, 1.0 - delta1, 1.0 - delta2) ** (MUTATION_ETA + 1.0)
    val = np.where(low, 2.0 * r + (1.0 - 2.0 * r) * xy, 2.0 * (1.0 - r) + 2.0 * (r - 0.5) * xy) ** mut_pow
    deltaq = np.where(low, val - 1.0, 1.0 - val)
    return np.where(mask, np.minimum(np.maximum(genomes + deltaq, 0.0), 1.0), genomes)


def crossover(a: Genome, b: Genome, rng: np.random.Generator) -> Genome:
    """Single-point crossover cut at a gene-triple boundary.

    The cut index is a uniform multiple of 3 in [0, len], so a cell's
    (presence, type, orientation) triple is never split between parents.
    """
    if len(a) != len(b):
        raise ValueError(f"parent lengths differ: {len(a)} vs {len(b)}")
    cut = 3 * int(rng.integers(0, len(a) // 3 + 1))
    return np.concatenate([a[:cut], b[cut:]])


def genome_to_line(genome: Genome) -> str:
    """Serialize as one space-separated line, 17 significant digits (exact replay)."""
    return " ".join(f"{v:.17g}" for v in genome.tolist())


def genome_from_line(line: str) -> Genome:
    """Parse a `genome_to_line` line; every value must lie in [0, 1]."""
    values = np.array([float(tok) for tok in line.split()], dtype=float)
    if len(values) == 0 or len(values) % 3 != 0:
        raise ValueError(f"parsed {len(values)} values, expected a positive multiple of 3")
    outside = values[~((values >= 0.0) & (values <= 1.0))]  # NaN compares false: caught too
    if len(outside):
        raise ValueError(f"genome value {float(outside[0])!r} is not in [0, 1]")
    return values
