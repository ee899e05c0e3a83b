"""Deterministic tick-based physics: redstone power, piston push/pull, observers.

The rule set is deliberately small and fully pinned so that evaluation is
reproducible bit-for-bit:

* Power: a cell is powered iff it is 6-adjacent to a redstone block or is the
  output cell of an active observer pulse. Pistons activate on the power state
  of their own cell. There is no quasi-connectivity and no redstone wiring.
* Pistons: a powered, unextended piston schedules an extension; an unpowered,
  extended piston schedules a retraction. Events fire after their delay in
  FIFO order of scheduling (ties broken by lexicographic piston position) and
  are validated at fire time, so stale events for moved or already-toggled
  pistons are dropped. Power is NOT re-checked at fire time, which is what
  lets a short observer pulse drive a full extend/retract cycle.
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
  tick schedules a pulse that powers the cell behind it, `pulse_delay` ticks
  later, for `pulse_length` ticks. A cell "changed" when a block left it or
  arrived in it, including the observer's own displacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Optional

from .blocks import (
    Block,
    BlockKind,
    BlockPlacement,
    Orientation,
    Pulse,
    TickEvent,
    Vec3,
    WorldState,
    _new,
    add,
    neighbors6,
)

# The per-tick kernel tests kinds by identity against these constants:
# membership in a frozenset of kinds calls the Python-level Enum.__hash__.
_PISTON = BlockKind.PISTON
_STICKY_PISTON = BlockKind.STICKY_PISTON
_HEAD_NORMAL = BlockKind.PISTON_HEAD_NORMAL
_HEAD_STICKY = BlockKind.PISTON_HEAD_STICKY
_REDSTONE = BlockKind.REDSTONE_BLOCK
_SLIME = BlockKind.SLIME_BLOCK
_OBSERVER = BlockKind.OBSERVER


@dataclass(frozen=True)
class TickConfig:
    """Simulator settings: the game's timing rules are pinned constants;
    only the observer placement quirk is chosen per run."""

    ticks_per_second: ClassVar[int] = 20
    piston_extend_delay: ClassVar[int] = 2
    piston_retract_delay: ClassVar[int] = 2
    observer_pulse_delay: ClassVar[int] = 2
    observer_pulse_length: ClassVar[int] = 2
    push_limit: ClassVar[int] = 12

    emulate_observer_bug: bool = True


def apply_observer_bug(shape: list[BlockPlacement]) -> list[BlockPlacement]:
    """Rewrite Up/Down observer orientations to North, as placement would."""
    out = []
    for p in shape:
        if p.kind is BlockKind.OBSERVER and p.orient in (Orientation.UP, Orientation.DOWN):
            p = p._replace(orient=Orientation.NORTH)
        out.append(p)
    return out


def compute_power(world: WorldState) -> set[Vec3]:
    """Cells currently powered: the six neighbours of every redstone block,
    plus the output cell of every pulse active at the world's tick. The set
    is the caller's; nothing else holds it."""
    powered: set[Vec3] = set()
    power = powered.add
    for (x, y, z), block in world.blocks.items():
        if block.kind is _REDSTONE:
            power((x + 1, y, z))
            power((x - 1, y, z))
            power((x, y + 1, z))
            power((x, y - 1, z))
            power((x, y, z + 1))
            power((x, y, z - 1))
    t = world.tick
    for cell, start, end in world.pulses:
        if start <= t < end:
            powered.add(cell)
    return powered


def _immovable(block: Block) -> bool:
    """A piston head or an extended piston base: never pushed or pulled."""
    kind = block.kind
    if kind is _HEAD_NORMAL or kind is _HEAD_STICKY:
        return True
    return block.extended and (kind is _PISTON or kind is _STICKY_PISTON)


def compute_push_set(world: WorldState, piston_pos: Vec3, direction: Orientation) -> Optional[set[Vec3]]:
    """Positions a piston extension would move, or None when blocked.

    An empty set means the piston fires into air (head only).
    """
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
        if _immovable(block):
            return None
        result.add(cell)
        if len(result) > TickConfig.push_limit:
            return None
        if block.kind is _SLIME:
            stack.extend(neighbors6(cell))
        stack.append((cell[0] + dx, cell[1] + dy, cell[2] + dz))
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


def _translate_blocks(world: WorldState, cells: set[Vec3], offset: Vec3, moved: set[Vec3]) -> None:
    saved = {cell: world.blocks.pop(cell) for cell in cells}
    for cell, block in saved.items():
        dest = add(cell, offset)
        world.blocks[dest] = block
        moved.add(cell)
        moved.add(dest)


def step(world: WorldState, cfg: TickConfig) -> tuple[WorldState, set[Vec3]]:
    """Advance exactly one tick; returns the new world and the changed cells."""
    w = world.copy()
    blocks = w.blocks
    t = w.tick
    moved: set[Vec3] = set()

    powered = compute_power(w)

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
            events.append(_new(TickEvent, (t + cfg.piston_retract_delay, "retract", pos, block.orient)))
        else:
            events.append(_new(TickEvent, (t + cfg.piston_extend_delay, "extend", pos, block.orient)))

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
            push = compute_push_set(w, pos, orient)
            if push is None:
                continue  # blocked pistons simply do not fire
            _translate_blocks(w, push, orient.vector, moved)
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
                pull = _pull_set(w, pos, orient)
                if pull:
                    _translate_blocks(w, pull, orient.opposite.vector, moved)

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


def _moved_forward(world: WorldState, ticks: int) -> WorldState:
    """A copy of `world` later in time: the tick, every event's due tick and
    every pulse's window move by `ticks`. `step` only ever reads times
    relative to the tick, so stepping commutes with it."""
    return WorldState(
        dict(world.blocks),
        world.tick + ticks,
        [_new(TickEvent, (due + ticks, action, pos, orient)) for due, action, pos, orient in world.events],
        [_new(Pulse, (cell, start + ticks, end + ticks)) for cell, start, end in world.pulses],
    )


def _repeats(earlier: WorldState, later: WorldState) -> bool:
    """Whether `later` is `earlier` moved forward to its tick, that is
    `_moved_forward(earlier, later.tick - earlier.tick) == later`, compared
    in place without building the moved world: blocks first, then events and
    pulses pairwise with the earlier times shifted by the tick difference."""
    if earlier.blocks != later.blocks:
        return False
    events, pulses = later.events, later.pulses
    if len(earlier.events) != len(events) or len(earlier.pulses) != len(pulses):
        return False
    ticks = later.tick - earlier.tick
    for (due, action, pos, orient), e in zip(earlier.events, events):
        if due + ticks != e.due or pos != e.pos or action != e.action or orient is not e.orient:
            return False
    for (cell, start, end), p in zip(earlier.pulses, pulses):
        if start + ticks != p.start or end + ticks != p.end or cell != p.cell:
            return False
    return True


def _find_cycle(history: list[WorldState], seen: dict[tuple, list[int]]) -> Optional[tuple[int, int]]:
    """Register the newest world of `history`; return the cycle it closes, if any.

    A cycle (j, period) means: from stepped index j on, the world after
    j + phase + laps*period steps is history[j + phase] moved forward by
    laps*period ticks. The newest world closes a cycle when it repeats an
    earlier one (see `_repeats`); a settled world is a cycle of period 1,
    found one step after it settles. Candidates are keyed by occupied cells
    and queue lengths, which hash only int tuples; a hit is then compared in
    full.
    """
    i = len(history) - 1
    world = history[i]
    candidates = seen.setdefault((frozenset(world.blocks), len(world.events), len(world.pulses)), [])
    for j in candidates:
        if _repeats(history[j], world):
            return (j, i - j)
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
    caller's world is never modified, and no world handed out shares its
    blocks.
    """
    if seconds < 1:
        raise ValueError("seconds must be >= 1")
    world = world.copy()
    if not observer(world, 0):
        return world
    history = [world]  # history[k]: the world after k steps
    seen: dict[tuple, list[int]] = {}
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
