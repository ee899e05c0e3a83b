import numpy as np

from voxelflight import DecodeConfig, WorldState
from voxelflight.blocks import ORIENTATION_ORDER, add


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


def translated(world: WorldState, offset) -> WorldState:
    """The same world with every position (blocks, events, pulses) shifted."""
    return WorldState(
        {add(p, offset): b for p, b in world.blocks.items()},
        world.tick,
        [e._replace(pos=add(e.pos, offset)) for e in world.events],
        [p._replace(cell=add(p.cell, offset)) for p in world.pulses],
        world.next_seq,
    )
