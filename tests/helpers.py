import numpy as np

from voxelflight import Archive, BlockPlacement, DecodeConfig, TickConfig, WorldState, step
from voxelflight.blocks import ORIENTATION_ORDER, add
from voxelflight.genome import PRESENCE_THRESHOLD


def genome_for_shape(shape, cfg: DecodeConfig):
    """Build a genome that decodes exactly to `shape` under `cfg`."""
    g = np.full(cfg.genome_length, 0.25)
    members = cfg.block_set.members
    by_pos = {p.pos: p for p in shape}
    for i in range(cfg.volume):
        cell = cfg.cell_for_index(i)
        if cell in by_pos:
            p = by_pos[cell]
            g[3 * i] = 0.9
            g[3 * i + 1] = (members.index(p.kind) + 0.5) / len(members)
            g[3 * i + 2] = (ORIENTATION_ORDER.index(p.orient) + 0.5) / 6
    return g


def record_accepted_inserts(monkeypatch) -> list[tuple[int, float, int]]:
    """Patch `Archive.insert` to list every accepted insert as (bin index,
    fitness, evaluation number), in order."""
    accepted = []
    real_insert = Archive.insert

    def recording_insert(self, bin_index, genome, result, eval_number):
        kept = real_insert(self, bin_index, genome, result, eval_number)
        if kept:
            accepted.append((bin_index, result.fitness, eval_number))
        return kept

    monkeypatch.setattr(Archive, "insert", recording_insert)
    return accepted


def reference_decode(genome, cfg: DecodeConfig):
    """The decode rule cell by cell on the numpy array: each gene triple is an
    array slice and each gene a numpy scalar. `decode` must equal it exactly."""
    members = cfg.block_set.members
    k = len(members)
    shape = []
    for i in range(cfg.volume):
        presence, kind_gene, orient_gene = genome[3 * i : 3 * i + 3]
        if presence <= PRESENCE_THRESHOLD:
            continue
        kind = members[min(int(kind_gene * k), k - 1)]
        orient = ORIENTATION_ORDER[min(int(orient_gene * 6), 5)]
        shape.append(BlockPlacement(cfg.cell_for_index(i), kind, orient))
    return shape


def reference_mutate(genome, rng, per_gene_rate, eta):
    """Bounded polynomial mutation computed on the mutating genes only, each
    branch on its own subset. `polynomial_mutate` must equal it bit for bit."""
    n = len(genome)
    mask = rng.random(n) < per_gene_rate
    u = rng.random(n)
    out = genome.copy()
    if not mask.any():
        return out
    x = out[mask]
    r = u[mask]
    mut_pow = 1.0 / (eta + 1.0)
    delta1 = x  # distance to the lower bound 0
    delta2 = 1.0 - x  # distance to the upper bound 1
    low = r <= 0.5
    deltaq = np.empty_like(x)
    val = 2.0 * r[low] + (1.0 - 2.0 * r[low]) * (1.0 - delta1[low]) ** (eta + 1.0)
    deltaq[low] = val**mut_pow - 1.0
    val = 2.0 * (1.0 - r[~low]) + 2.0 * (r[~low] - 0.5) * (1.0 - delta2[~low]) ** (eta + 1.0)
    deltaq[~low] = 1.0 - val**mut_pow
    out[mask] = np.clip(x + deltaq, 0.0, 1.0)
    return out


def translated(world: WorldState, offset) -> WorldState:
    """The same world with every position (blocks, events, pulses) shifted."""
    return WorldState(
        {add(p, offset): b for p, b in world.blocks.items()},
        world.tick,
        [e._replace(pos=add(e.pos, offset)) for e in world.events],
        [p._replace(cell=add(p.cell, offset)) for p in world.pulses],
    )


def settled(world: WorldState) -> bool:
    """True when no later `step` can change anything but the tick: no event
    is pending, no pulse is scheduled or active, and one step moves no block
    and schedules nothing."""
    if world.events or world.pulses:
        return False
    after, moved = step(world, TickConfig())
    return not moved and after.blocks == world.blocks and not after.events and not after.pulses


def reference_run_until(world, cfg, seconds, observer):
    """`run_until` without fast-forward: one `step` on every tick.

    The reference the real `run_until` must match poll for poll.
    """
    if seconds < 1:
        raise ValueError("seconds must be >= 1")
    if not observer(world, 0):
        return world
    for second in range(1, seconds + 1):
        for _ in range(cfg.ticks_per_second):
            world, _moved = step(world, cfg)
        if not observer(world, second):
            break
    return world
