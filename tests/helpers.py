from typing import NamedTuple

import numpy as np

from voxelflight import Archive, BlockPlacement, DecodeConfig, Orientation, TickConfig, WorldState, step
from voxelflight.blocks import ORIENTATION_ORDER, SPAWN_BOX_SIZE, Block, BlockKind, Vec3, _new, neighbors6
from voxelflight.blocks import TickEvent as QueuedEvent  # the program's event, without a due tick
from voxelflight.genome import PRESENCE_THRESHOLD

_PISTON = BlockKind.PISTON
_STICKY_PISTON = BlockKind.STICKY_PISTON
_HEAD_NORMAL = BlockKind.PISTON_HEAD_NORMAL
_HEAD_STICKY = BlockKind.PISTON_HEAD_STICKY
_OBSERVER = BlockKind.OBSERVER


def add(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


# The kinds whose facing no rule, descriptor or poll reads.
FACING_UNREAD = (BlockKind.REDSTONE_BLOCK, BlockKind.SLIME_BLOCK, BlockKind.QUARTZ_BLOCK)


def unread_facings_north(shape) -> list[BlockPlacement]:
    """`shape` with every redstone, slime and quartz block facing North."""
    return [p._replace(orient=Orientation.NORTH) if p.kind in FACING_UNREAD else p for p in shape]


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


def reference_mutate(genome, uniforms, per_gene_rate, eta):
    """Bounded polynomial mutation of one genome computed on the mutating
    genes only, each branch on its own subset; `uniforms` is the `(2, n)`
    draws `polynomial_mutate` takes. It must equal this bit for bit."""
    mask = uniforms[0] < per_gene_rate
    u = uniforms[1]
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
        tuple(tuple(e._replace(pos=add(e.pos, offset)) for e in batch) for batch in world.events),
        tuple(tuple(add(cell, offset) for cell in batch) for batch in world.pulses),
    )


# The turns and mirrors about the vertical axis through the spawn box's
# centre, each as the matrix (a, b, c, d) of (x, z) -> (a*x + b*z, c*x + d*z)
# about that axis: the quarter, half and three-quarter turns, then the
# east-west, north-south and two diagonal mirrors. The identity is left out.
TURNS_AND_MIRRORS = {
    "quarter-turn": (0, -1, 1, 0),
    "half-turn": (-1, 0, 0, -1),
    "three-quarter-turn": (0, 1, -1, 0),
    "east-west-mirror": (-1, 0, 0, 1),
    "north-south-mirror": (1, 0, 0, -1),
    "diagonal-mirror": (0, 1, 1, 0),
    "anti-diagonal-mirror": (0, -1, -1, 0),
}


def turned_cell(p: Vec3, matrix) -> Vec3:
    """A cell turned or mirrored by `matrix` (see `TURNS_AND_MIRRORS`)."""
    a, b, c, d = matrix
    axis = SPAWN_BOX_SIZE // 2
    x, z = p[0] - axis, p[2] - axis
    return (a * x + b * z + axis, p[1], c * x + d * z + axis)


def turned(world: WorldState, matrix) -> WorldState:
    """The same world turned or mirrored by `matrix` (see `TURNS_AND_MIRRORS`):
    every position and facing of its blocks and events, and every pulse cell."""
    a, b, c, d = matrix

    def facing(orient: Orientation) -> Orientation:
        x, y, z = orient.vector
        return Orientation((a * x + b * z, y, c * x + d * z))

    return WorldState(
        {turned_cell(p, matrix): block._replace(orient=facing(block.orient)) for p, block in world.blocks.items()},
        world.tick,
        tuple(tuple(e._replace(pos=turned_cell(e.pos, matrix), orient=facing(e.orient)) for e in batch) for batch in world.events),
        tuple(tuple(turned_cell(cell, matrix) for cell in batch) for batch in world.pulses),
    )


class TickEvent(NamedTuple):
    """A pending piston action in absolute time, as `reference_step` holds
    it: it fires on the step from tick `due`."""

    due: int
    action: str  # "extend" | "retract"
    pos: Vec3
    orient: Orientation


class Pulse(NamedTuple):
    """An observer pulse in absolute time, as `reference_step` and
    `reference_power` hold it: it powers `cell` while `start <= tick < end`."""

    cell: Vec3
    start: int
    end: int


class AbsoluteWorld(WorldState):
    """A world as `reference_step` holds it: `events` a list of `TickEvent`s
    and `pulses` a list of `Pulse`s, both in absolute ticks and in scheduling
    order, where the program holds fixed-slot queues."""

    def copy(self) -> "AbsoluteWorld":
        return AbsoluteWorld(dict(self.blocks), self.tick, list(self.events), list(self.pulses))


def absolute_times(world: WorldState) -> tuple[list[TickEvent], list[Pulse]]:
    """The world's queues read back as absolute times: each event with the
    tick it fires on, each pulse with its window, in scheduling order. An
    event in batch k fires k ticks after the world's tick; a pulse cell in
    batch k powers through the step from tick + k and began one pulse length
    before that ended."""
    t = world.tick
    length = TickConfig.observer_pulse_length
    return (
        [TickEvent(t + k, *event) for k, batch in enumerate(world.events) for event in batch],
        [Pulse(cell, t + k + 1 - length, t + k + 1) for k, batch in enumerate(world.pulses) for cell in batch],
    )


def with_absolute_times(world: WorldState, events=(), pulses=()) -> WorldState:
    """`world` (its blocks, shared, and tick) holding the given absolute-time
    events and pulses in its queues, each batch in the order given: the
    converse of `absolute_times`, for hand-built worlds. Raises ValueError
    for what the queues cannot hold: an event not due within the next piston
    delay, or a pulse that has ended, starts too late, or does not last one
    pulse length."""
    t = world.tick
    length = TickConfig.observer_pulse_length
    event_batches = tuple([] for _ in world.events)
    pulse_batches = tuple([] for _ in world.pulses)
    for due, action, pos, orient in events:
        if not 0 <= due - t < len(event_batches):
            raise ValueError(f"an event due at tick {due} does not fit the queue at tick {t}")
        event_batches[due - t].append(QueuedEvent(action, pos, orient))
    for cell, start, end in pulses:
        if end - start != length or not 0 <= end - t - 1 < len(pulse_batches):
            raise ValueError(f"a pulse from tick {start} to {end} does not fit the queue at tick {t}")
        pulse_batches[end - t - 1].append(cell)
    return WorldState(world.blocks, t, tuple(map(tuple, event_batches)), tuple(map(tuple, pulse_batches)))


def absolute_world(world: WorldState) -> AbsoluteWorld:
    """`world` as `reference_step` holds it, sharing its blocks."""
    return AbsoluteWorld(world.blocks, world.tick, *absolute_times(world))


def settled(world: WorldState) -> bool:
    """True when no later `step` can change anything but the tick: no event
    is pending, no pulse is scheduled or active, and one step moves no block
    and schedules nothing."""
    if any(world.events) or any(world.pulses):
        return False
    after, moved = step(world, TickConfig())
    return not moved and after.blocks == world.blocks and not any(after.events) and not any(after.pulses)


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


def reference_power(world):
    """Powered cells from the documented rule, cell by cell: the neighbours
    of each redstone block and the cells of the pulses active at the tick."""
    powered = set()
    for pos, block in world.blocks.items():
        if block.kind is BlockKind.REDSTONE_BLOCK:
            powered.update(neighbors6(pos))
    for pulse in world.pulses:
        if pulse.start <= world.tick < pulse.end:
            powered.add(pulse.cell)
    return powered


# The push, pull and translation rules as the kernel stated them before it
# inlined its helper calls, kept here so that `reference_step` shares no code
# with the `step` it checks.


def reference_immovable(block: Block) -> bool:
    """A piston head or an extended piston base: never pushed or pulled."""
    kind = block.kind
    if kind is _HEAD_NORMAL or kind is _HEAD_STICKY:
        return True
    return block.extended and (kind is _PISTON or kind is _STICKY_PISTON)


def reference_push_set(world: WorldState, piston_pos: Vec3, direction) -> set[Vec3] | None:
    """Positions a piston extension would move, or None when blocked."""
    blocks = world.blocks
    dx, dy, dz = direction.vector
    front = (piston_pos[0] + dx, piston_pos[1] + dy, piston_pos[2] + dz)
    if front not in blocks:
        return set()
    result: set[Vec3] = set()
    stack = [front]
    while stack:
        cell = stack.pop()
        if cell in result:
            continue
        block = blocks.get(cell)
        if block is None:
            continue
        if cell == piston_pos:
            return None  # slime loop back onto the pushing piston
        if reference_immovable(block):
            return None
        result.add(cell)
        if len(result) > TickConfig.push_limit:
            return None
        if block.kind is BlockKind.SLIME_BLOCK:
            stack.extend(neighbors6(cell))
        stack.append((cell[0] + dx, cell[1] + dy, cell[2] + dz))
    return result


def reference_pull_set(world: WorldState, piston_pos: Vec3, facing) -> set[Vec3] | None:
    """Positions a sticky retraction drags toward the piston, or None for no pull."""
    blocks = world.blocks
    dx, dy, dz = facing.vector
    target = (piston_pos[0] + 2 * dx, piston_pos[1] + 2 * dy, piston_pos[2] + 2 * dz)
    first = blocks.get(target)
    if first is None or reference_immovable(first):
        return None
    result: set[Vec3] = set()
    stack = [target]
    while stack:
        cell = stack.pop()
        if cell in result or cell == piston_pos:
            continue
        block = blocks.get(cell)
        if block is None:
            continue
        if reference_immovable(block):
            continue  # immovable: not dragged, does not cancel the pull
        result.add(cell)
        if len(result) > TickConfig.push_limit:
            return None
        if block.kind is BlockKind.SLIME_BLOCK:
            stack.extend(neighbors6(cell))
    for cell in result:
        dest = (cell[0] - dx, cell[1] - dy, cell[2] - dz)
        if dest in result:
            continue
        if dest in blocks:
            return None  # destination occupied by a non-member: whole pull fails
    return result


def reference_translate(world: WorldState, cells: set[Vec3], offset: Vec3, moved: set[Vec3]) -> None:
    saved = {cell: world.blocks.pop(cell) for cell in cells}
    for cell, block in saved.items():
        dest = add(cell, offset)
        world.blocks[dest] = block
        moved.add(cell)
        moved.add(dest)


def reference_step(world: WorldState, cfg: TickConfig) -> tuple[WorldState, set[Vec3]]:
    """One tick the plain way: copy the world, find power by the documented
    rule (`reference_power`, not the program's `compute_power`) and
    out-of-step pistons by scanning every block, split due from pending
    events by their due tick, and push, pull and move blocks with the
    reference copies above. `step` must give an equal world and an equal
    moved set."""
    w = world.copy()
    blocks = w.blocks
    t = w.tick
    moved: set[Vec3] = set()

    powered = reference_power(w)

    # Pistons whose extension state differs from their power schedule a
    # toggle, in sorted position order. The event list is only appended to
    # and filtered, so due events fire in scheduling order.
    out_of_step = [
        pos for pos, b in blocks.items()
        if (b.kind is _PISTON or b.kind is _STICKY_PISTON) and b.extended != (pos in powered)
    ]
    events = w.events
    for pos in sorted(out_of_step):
        block = blocks[pos]
        if block.extended:
            events.append(_new(TickEvent, (t + cfg.piston_delay, "retract", pos, block.orient)))
        else:
            events.append(_new(TickEvent, (t + cfg.piston_delay, "extend", pos, block.orient)))

    due: list[TickEvent] = []
    w.events = pending = []
    for event in events:
        if event.due <= t:
            due.append(event)
        else:
            pending.append(event)
    for _due, action, pos, orient in due:
        block = blocks.get(pos)
        if block is None or not (block.kind is _PISTON or block.kind is _STICKY_PISTON) or block.orient is not orient:
            continue
        dx, dy, dz = orient.vector
        head_pos = (pos[0] + dx, pos[1] + dy, pos[2] + dz)
        if action == "extend":
            if block.extended:
                continue
            push = reference_push_set(w, pos, orient)
            if push is None:
                continue  # blocked pistons simply do not fire
            reference_translate(w, push, orient.vector, moved)
            blocks[head_pos] = _new(Block, (_HEAD_STICKY if block.kind is _STICKY_PISTON else _HEAD_NORMAL, orient, False))
            blocks[pos] = _new(Block, (block.kind, orient, True))
            moved.add(head_pos)
        else:
            if not block.extended:
                continue
            head = blocks.get(head_pos)
            assert head is not None and (head.kind is _HEAD_NORMAL or head.kind is _HEAD_STICKY), \
                "extended piston lost its head"
            del blocks[head_pos]
            moved.add(head_pos)
            blocks[pos] = _new(Block, (block.kind, orient, False))
            if block.kind is _STICKY_PISTON:
                pull = reference_pull_set(w, pos, orient)
                if pull:
                    reference_translate(w, pull, (-dx, -dy, -dz), moved)

    if moved:
        # An observer senses the cell it faces and powers the cell behind it.
        for (x, y, z), block in sorted((p, b) for p, b in blocks.items() if b.kind is _OBSERVER):
            dx, dy, dz = block.orient.vector
            if (x + dx, y + dy, z + dz) in moved:
                start = t + cfg.observer_pulse_delay
                w.pulses.append(_new(Pulse, ((x - dx, y - dy, z - dz), start, start + cfg.observer_pulse_length)))

    if w.pulses:
        w.pulses = [p for p in w.pulses if p.end > t + 1]
    w.tick = t + 1
    return w, moved
