import numpy as np

from voxelflight import BlockPlacement, DecodeConfig, TickConfig, WorldState, step
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
