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
    HEAD_KINDS,
    Orientation,
    PISTON_KINDS,
    Pulse,
    TickEvent,
    Vec3,
    WorldState,
    add,
    neighbors6,
)


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


def compute_power(world: WorldState) -> frozenset[Vec3]:
    """Cells currently powered: redstone 6-adjacency plus active pulse outputs."""
    powered: set[Vec3] = set()
    for pos, block in world.blocks.items():
        if block.kind is BlockKind.REDSTONE_BLOCK:
            powered.update(neighbors6(pos))
    for pulse in world.pulses:
        if pulse.start <= world.tick < pulse.end:
            powered.add(pulse.cell)
    return frozenset(powered)


def compute_push_set(world: WorldState, piston_pos: Vec3, direction: Orientation) -> Optional[set[Vec3]]:
    """Positions a piston extension would move, or None when blocked.

    An empty set means the piston fires into air (head only).
    """
    front = add(piston_pos, direction.vector)
    if front not in world.blocks:
        return set()
    result: set[Vec3] = set()
    stack = [front]
    while stack:
        cell = stack.pop()
        if cell in result:
            continue
        block = world.blocks.get(cell)
        if block is None:
            continue
        if cell == piston_pos:
            return None  # slime loop back onto the pushing piston
        if block.kind in HEAD_KINDS:
            return None
        if block.kind in PISTON_KINDS and block.extended:
            return None
        result.add(cell)
        if len(result) > TickConfig.push_limit:
            return None
        if block.kind is BlockKind.SLIME_BLOCK:
            stack.extend(neighbors6(cell))
        stack.append(add(cell, direction.vector))
    return result


def _pull_set(world: WorldState, piston_pos: Vec3, facing: Orientation) -> Optional[set[Vec3]]:
    """Positions a sticky retraction drags toward the piston, or None for no pull.

    Called after the head has been removed. The closure starts at the block
    that sat against the head and spreads through slime only; the retracting
    piston is never included and immovable blocks reached through slime are
    skipped rather than dragged.
    """
    target = add(piston_pos, (facing.vector[0] * 2, facing.vector[1] * 2, facing.vector[2] * 2))
    first = world.blocks.get(target)
    if first is None:
        return None
    if first.kind in HEAD_KINDS or (first.kind in PISTON_KINDS and first.extended):
        return None
    result: set[Vec3] = set()
    stack = [target]
    while stack:
        cell = stack.pop()
        if cell in result or cell == piston_pos:
            continue
        block = world.blocks.get(cell)
        if block is None:
            continue
        if block.kind in HEAD_KINDS or (block.kind in PISTON_KINDS and block.extended):
            continue  # immovable: not dragged, does not cancel the pull
        result.add(cell)
        if len(result) > TickConfig.push_limit:
            return None
        if block.kind is BlockKind.SLIME_BLOCK:
            stack.extend(neighbors6(cell))
    back = facing.opposite.vector
    for cell in result:
        dest = add(cell, back)
        if dest in result:
            continue
        if dest in world.blocks:
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
    t = w.tick
    moved: set[Vec3] = set()

    powered = compute_power(w)

    # Schedule piston state changes. Iterating positions in sorted order makes
    # sequence numbers (and therefore same-tick firing order) deterministic.
    for pos in sorted(p for p, b in w.blocks.items() if b.kind in PISTON_KINDS):
        block = w.blocks[pos]
        if pos in powered and not block.extended:
            w.events.append(TickEvent(t + cfg.piston_extend_delay, w.next_seq, "extend", pos, block.orient))
            w.next_seq += 1
        elif pos not in powered and block.extended:
            w.events.append(TickEvent(t + cfg.piston_retract_delay, w.next_seq, "retract", pos, block.orient))
            w.next_seq += 1

    due = sorted((e for e in w.events if e.due <= t), key=lambda e: e.seq)
    w.events = [e for e in w.events if e.due > t]
    for event in due:
        block = w.blocks.get(event.pos)
        if block is None or block.kind not in PISTON_KINDS or block.orient is not event.orient:
            continue
        if event.action == "extend":
            if block.extended:
                continue
            push = compute_push_set(w, event.pos, event.orient)
            if push is None:
                continue  # blocked pistons simply do not fire
            _translate_blocks(w, push, event.orient.vector, moved)
            head_kind = BlockKind.PISTON_HEAD_STICKY if block.kind is BlockKind.STICKY_PISTON else BlockKind.PISTON_HEAD_NORMAL
            head_pos = add(event.pos, event.orient.vector)
            w.blocks[head_pos] = Block(head_kind, event.orient)
            w.blocks[event.pos] = block._replace(extended=True)
            moved.add(head_pos)
        else:
            if not block.extended:
                continue
            head_pos = add(event.pos, event.orient.vector)
            head = w.blocks.get(head_pos)
            assert head is not None and head.kind in HEAD_KINDS, "extended piston lost its head"
            del w.blocks[head_pos]
            moved.add(head_pos)
            w.blocks[event.pos] = block._replace(extended=False)
            if block.kind is BlockKind.STICKY_PISTON:
                pull = _pull_set(w, event.pos, event.orient)
                if pull:
                    _translate_blocks(w, pull, event.orient.opposite.vector, moved)

    if moved:
        for pos in sorted(p for p, b in w.blocks.items() if b.kind is BlockKind.OBSERVER):
            block = w.blocks[pos]
            if add(pos, block.orient.vector) in moved:
                output = add(pos, block.orient.opposite.vector)
                start = t + cfg.observer_pulse_delay
                w.pulses.append(Pulse(output, start, start + cfg.observer_pulse_length))

    w.pulses = [p for p in w.pulses if p.end > t + 1]
    w.tick = t + 1
    return w, moved


def run_until(
    world: WorldState,
    cfg: TickConfig,
    max_ticks: int,
    observer: Callable[[WorldState, int], bool],
) -> WorldState:
    """Step the world, polling `observer(world, seconds)` at every whole second.

    The callback runs at second 0 before any stepping and may return False to
    stop early. Stops unconditionally once `max_ticks` ticks have run.
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
