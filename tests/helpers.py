import numpy as np

from voxelflight import DecodeConfig, WorldState, step
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
    )


def reference_run_until(world, cfg, max_ticks, observer):
    """`run_until` without fast-forward: one `step` on every tick.

    The reference the real `run_until` must match poll for poll.
    """
    if max_ticks < 1:
        raise ValueError("max_ticks must be >= 1")
    if not observer(world, 0):
        return world
    ticks_done = 0
    second = 0
    while ticks_done < max_ticks:
        burst = min(cfg.ticks_per_second, max_ticks - ticks_done)
        for _ in range(burst):
            world, _moved = step(world, cfg)
        ticks_done += burst
        if burst < cfg.ticks_per_second:
            break  # partial trailing second is not polled
        second += 1
        if not observer(world, second):
            break
    return world
