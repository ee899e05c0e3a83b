"""Deterministic tick-based physics: redstone power, piston push/pull, observers.

The rule set is deliberately small and fully pinned so that evaluation is
reproducible bit-for-bit:

* Power: a cell is powered iff it is 6-adjacent to a redstone block or is the
  output cell of an active observer pulse. Pistons activate on the power state
  of their own cell. There is no quasi-connectivity and no redstone wiring.
* Pistons: a powered, unextended piston schedules an extension; an unpowered,
  extended piston schedules a retraction. Either fires one piston delay
  later, in FIFO order of scheduling (ties broken by lexicographic piston
  position), and is validated at fire time, so stale events for moved or
  already-toggled pistons are dropped. Power is NOT re-checked at fire
  time, which lets a short observer pulse drive a full extend/retract cycle.
* Push set: transitive closure from the cell in front of the piston; slime
  members recruit all six neighbors, every member recruits the block in its
  movement path. Blocked (piston simply does not fire) when the set exceeds
  the push limit, contains a piston head or an extended piston base, or loops
  back to the pushing piston itself.
* Sticky retraction: the head is always removed; the block that sat against
  the head, plus its slime-connected closure, is pulled one cell toward the
  piston. The retracting piston never pulls itself; immovable blocks reached
  through slime are skipped; the pull is all-or-nothing (any blocked
  destination, or more members than the push limit, cancels it).
* Observers: an observer whose sensing cell (the cell it faces) changed this
  tick schedules a pulse that powers the cell behind it,
  `TickConfig.observer_pulse_delay` ticks later, for
  `TickConfig.observer_pulse_length` ticks. A cell "changed" when a block
  left it or arrived in it, including the observer's own displacement.

Every event fires exactly one piston delay after it is scheduled and every
pulse lives a fixed window, so a world holds both in fixed-slot queues (a
timing wheel), one batch per tick (see `WorldState`), and `step` shifts each
queue by one slot per tick instead of touching every pending entry.
"""

from __future__ import annotations

from typing import Callable, Optional

from .blocks import (
    Block,
    BlockKind,
    Orientation,
    TickConfig,
    TickEvent,
    Vec3,
    WorldState,
    _new,
    neighbors6,
)

# The per-tick kernel tests kinds by identity against these constants, or by
# the `piston` and `head` flags every kind carries: membership in a frozenset
# of kinds calls the Python-level Enum.__hash__.
_STICKY_PISTON = BlockKind.STICKY_PISTON
_HEAD_NORMAL = BlockKind.PISTON_HEAD_NORMAL
_HEAD_STICKY = BlockKind.PISTON_HEAD_STICKY
_REDSTONE = BlockKind.REDSTONE_BLOCK
_SLIME = BlockKind.SLIME_BLOCK
_OBSERVER = BlockKind.OBSERVER


def compute_power(blocks: dict[Vec3, Block]) -> set[Vec3]:
    """Cells that redstone powers: the six neighbours of every redstone
    block. `step` adds the output cells of the active pulses. The set is the
    caller's; nothing else holds it."""
    powered: set[Vec3] = set()
    power = powered.add
    for (x, y, z), block in blocks.items():
        if block.kind is _REDSTONE:
            power((x + 1, y, z))
            power((x - 1, y, z))
            power((x, y + 1, z))
            power((x, y - 1, z))
            power((x, y, z + 1))
            power((x, y, z - 1))
    return powered


def _immovable(block: Block) -> bool:
    """A piston head or an extended piston base: never pushed or pulled
    (`step` sets `extended` on piston bases alone)."""
    return block.kind.head or block.extended


def compute_push_set(world: WorldState, piston_pos: Vec3, direction: Orientation) -> Optional[set[Vec3]]:
    """Positions a piston extension would move, or None when blocked.

    An empty set means the piston fires into air (head only). The test of
    `_immovable` and the six neighbours of a slime block are written out
    inline: this runs for every extension that fires.
    """
    blocks = world.blocks
    dx, dy, dz = direction.vector
    front = (piston_pos[0] + dx, piston_pos[1] + dy, piston_pos[2] + dz)
    if front not in blocks:
        return set()
    result: set[Vec3] = set()
    limit = TickConfig.push_limit
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
        kind = block.kind
        if kind.head or block.extended:
            return None
        result.add(cell)
        if len(result) > limit:
            return None
        x, y, z = cell
        if kind is _SLIME:
            stack += ((x + 1, y, z), (x - 1, y, z), (x, y + 1, z), (x, y - 1, z), (x, y, z + 1), (x, y, z - 1))
        stack.append((x + dx, y + dy, z + dz))
    return result


def _pull_set(world: WorldState, piston_pos: Vec3, facing: Orientation) -> Optional[set[Vec3]]:
    """Positions a sticky retraction drags toward the piston, or None for no pull.

    Called after the head has been removed. The closure starts at the block
    that sat against the head and spreads through slime only; the retracting
    piston is never included and immovable blocks reached through slime are
    skipped rather than dragged.
    """
    blocks = world.blocks
    dx, dy, dz = facing.vector
    target = (piston_pos[0] + 2 * dx, piston_pos[1] + 2 * dy, piston_pos[2] + 2 * dz)
    first = blocks.get(target)
    if first is None or _immovable(first):
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
        if _immovable(block):
            continue  # immovable: not dragged, does not cancel the pull
        result.add(cell)
        if len(result) > TickConfig.push_limit:
            return None
        if block.kind is _SLIME:
            stack.extend(neighbors6(cell))
    for cell in result:
        dest = (cell[0] - dx, cell[1] - dy, cell[2] - dz)
        if dest in result:
            continue
        if dest in blocks:
            return None  # destination occupied by a non-member: whole pull fails
    return result


def _translate_blocks(blocks: dict[Vec3, Block], cells: set[Vec3], offset: Vec3, moved: set[Vec3]) -> None:
    """Move the blocks at `cells` by `offset`, all at once, and add every
    vacated and every filled cell to `moved`."""
    dx, dy, dz = offset
    saved = [(cell, blocks.pop(cell)) for cell in cells]
    for cell, block in saved:
        dest = (cell[0] + dx, cell[1] + dy, cell[2] + dz)
        blocks[dest] = block
        moved.add(cell)
        moved.add(dest)


def _scan(blocks: dict[Vec3, Block]) -> tuple[list, list, frozenset[Vec3]]:
    """What `step` reads of the blocks each tick, from one power pass and
    one pass over the blocks: the pistons as (position, extended, powered by
    redstone, facing) and the observers as (position, sensed cell, output
    cell), each list in position order; and the occupied cells, which
    `_find_cycle` keys the world by."""
    redstone = compute_power(blocks)
    pistons = []
    observers = []
    for pos, block in blocks.items():
        kind = block.kind
        if kind.piston:
            pistons.append((pos, block.extended, pos in redstone, block.orient))
        elif kind is _OBSERVER:
            (x, y, z), (dx, dy, dz) = pos, block.orient.vector
            observers.append((pos, (x + dx, y + dy, z + dz), (x - dx, y - dy, z - dz)))
    pistons.sort()
    observers.sort()
    return pistons, observers, frozenset(blocks)


def step(world: WorldState, cfg: TickConfig) -> tuple[WorldState, set[Vec3]]:
    """Advance exactly one tick; returns the new world and the changed cells.

    The queues are fixed-slot (see `WorldState`): the events of batch 0
    fire, the cells of the oldest `observer_pulse_length` pulse batches are
    powered, and the new world holds each queue shifted by one slot, with
    this tick's scheduled events and observer outputs as the newest
    batches, so no carried batch is rebuilt. The block dict is copied just
    before a piston's first write, so after a tick where nothing fired (no
    event due, or every due one stale or blocked) the new world shares its
    input's blocks: change neither in place, only a `copy()`. Every world
    `step` returns carries the scan of its blocks (`_scan`): the input's
    when nothing moved (every fired event moves a piston head), otherwise
    one rebuilt once at the end of the tick, whose observers are the ones
    checked for changed cells. A scan is built at the start only for an
    input that carries none, such as a `copy()`.
    """
    blocks = world.blocks
    moved: set[Vec3] = set()
    scan = world.scan
    if scan is None:
        scan = _scan(blocks)
    pulses = world.pulses
    active = pulses[: cfg.observer_pulse_length]
    pulsed = {cell for batch in active for cell in batch} if any(active) else ()

    # Pistons whose extension state differs from their power (redstone or
    # an active pulse) schedule a toggle, in sorted position order.
    scheduled = []
    for pos, extended, powered, orient in scan[0]:
        if extended != (powered or pos in pulsed):
            scheduled.append(_new(TickEvent, ("retract" if extended else "extend", pos, orient)))
    events = world.events
    w = WorldState(blocks, world.tick + 1, events[1:] + (tuple(scheduled),), pulses, scan)  # pulses shifted at the end
    for action, pos, orient in events[0]:
        block = blocks.get(pos)
        if block is None or not block.kind.piston or block.orient is not orient:
            continue
        if action == "extend":
            if block.extended or (push := compute_push_set(w, pos, orient)) is None:
                continue  # blocked pistons simply do not fire
        elif not block.extended:
            continue
        if blocks is world.blocks:
            blocks = w.blocks = dict(blocks)  # copy just before the tick's first write
        dx, dy, dz = orient.vector
        head_pos = (pos[0] + dx, pos[1] + dy, pos[2] + dz)
        if action == "extend":
            _translate_blocks(blocks, push, orient.vector, moved)
            blocks[head_pos] = _new(Block, (_HEAD_STICKY if block.kind is _STICKY_PISTON else _HEAD_NORMAL, orient, False))
            blocks[pos] = _new(Block, (block.kind, orient, True))
            moved.add(head_pos)
        else:
            head = blocks.get(head_pos)
            assert head is not None and head.kind.head, "extended piston lost its head"
            del blocks[head_pos]
            moved.add(head_pos)
            blocks[pos] = _new(Block, (block.kind, orient, False))
            if block.kind is _STICKY_PISTON:
                pull = _pull_set(w, pos, orient)
                if pull:
                    _translate_blocks(blocks, pull, (-dx, -dy, -dz), moved)

    outputs = ()
    if moved:
        w.scan = scan = _scan(blocks)
        # An observer senses the cell it faces and powers the cell behind it.
        outputs = tuple([output for _pos, sensed, output in scan[1] if sensed in moved])
    w.pulses = pulses[1:] + (outputs,)
    return w, moved


def _moved_forward(world: WorldState, ticks: int) -> WorldState:
    """`world` `ticks` later, sharing its blocks and queues: a queue's slots
    count ticks from the world's tick, and `step` reads the tick only to add
    one to it, so stepping commutes with this."""
    return WorldState(world.blocks, world.tick + ticks, world.events, world.pulses)


def _repeats(earlier: WorldState, later: WorldState) -> bool:
    """Whether `later` is `earlier` moved forward to its tick: the same
    queues, batch by batch, then the same blocks, the costliest part, last."""
    return earlier.events == later.events and earlier.pulses == later.pulses and earlier.blocks == later.blocks


def _find_cycle(history: list[WorldState], seen: dict[frozenset[Vec3], list[int]]) -> Optional[tuple[int, int]]:
    """Register the newest world of `history`; return the cycle it closes, if any.

    A cycle (j, period) means: from stepped index j on, the world after
    j + phase + laps*period steps is history[j + phase] moved forward by
    laps*period ticks. The newest world closes a cycle when it repeats an
    earlier one (see `_repeats`); a settled world is a cycle of period 1,
    found one step after it settles. Candidates are the earlier worlds with
    the same occupied cells, read from the scan every world in `history`
    carries; `_repeats` confirms one by its queues, then its blocks.
    """
    i = len(history) - 1
    world = history[i]
    candidates = seen.setdefault(world.scan[2], [])
    for j in candidates:
        if _repeats(history[j], world):
            return j, i - j
    candidates.append(i)
    return None


def run_until(
    world: WorldState,
    cfg: TickConfig,
    seconds: int,
    observer: Callable[[WorldState, int], bool],
) -> WorldState:
    """Step the world for `seconds` simulated seconds, polling
    `observer(world, second)` at every whole second.

    The callback runs at second 0 before any stepping and may return False to
    stop early. The returned world is the one it polled last. Once the world
    repeats an earlier state relative to its tick (see `_find_cycle`; a
    settled world repeats with period 1) it is no longer stepped: each later
    poll, and the returned world, is the stored world of the same phase moved
    forward by whole periods, exactly what stepping would have produced. The
    caller's world is copied once on entry, so it is never modified and no
    world handed out shares its blocks (the queues' batches are tuples,
    which nobody can change); the copy is given the scan that the first
    step reads and `_find_cycle` keys it by.
    """
    if seconds < 1:
        raise ValueError("seconds must be >= 1")
    world = world.copy()
    world.scan = _scan(world.blocks)
    if not observer(world, 0):
        return world
    history = [world]  # history[k]: the world after k steps
    seen: dict[frozenset[Vec3], list[int]] = {}
    cycle = _find_cycle(history, seen)
    for second in range(1, seconds + 1):
        tick = second * cfg.ticks_per_second
        while cycle is None and len(history) <= tick:
            world, _moved = step(world, cfg)
            history.append(world)
            cycle = _find_cycle(history, seen)
        if cycle is not None:
            j, period = cycle
            laps, phase = divmod(tick - j, period)
            world = _moved_forward(history[j + phase], laps * period)
        if not observer(world, second):
            break
    return world
