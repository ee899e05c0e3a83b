"""Voxel domain types: block kinds, orientations, shapes, and the sparse world grid.

Coordinate convention (fixed once, used everywhere):
    North = -z, South = +z, East = +x, West = -x, Up = +y, Down = -y.

Positions are integer 3-tuples and double as cell centers, so the center of
mass of blocks at (0,0,0) and (2,0,0) is (1.0, 0.0, 0.0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NamedTuple, Optional

Vec3 = tuple[int, int, int]

# Builds a NamedTuple from a tuple of its fields in C, skipping the
# Python-level `__new__` that calling the class runs.
_new = tuple.__new__


class OverlapError(ValueError):
    """Two placements target the same cell, or a target cell is occupied."""


class OutOfBoundsError(ValueError):
    """A local shape position leaves the allowed spawn box."""


class ShapeFormatError(ValueError):
    """A shape text line could not be parsed."""


class BlockKind(Enum):
    AIR = "AIR"
    REDSTONE_BLOCK = "REDSTONE_BLOCK"
    SLIME_BLOCK = "SLIME_BLOCK"
    QUARTZ_BLOCK = "QUARTZ_BLOCK"
    PISTON = "PISTON"
    STICKY_PISTON = "STICKY_PISTON"
    OBSERVER = "OBSERVER"
    # Transient, simulator-created only; never part of a decoded shape.
    PISTON_HEAD_NORMAL = "PISTON_HEAD_NORMAL"
    PISTON_HEAD_STICKY = "PISTON_HEAD_STICKY"

    ordinal: int  # position in declaration order, set below


class Orientation(Enum):
    """A facing; the reverse facing is the negated `vector` (the unit step),
    a plain member attribute set once at import: the simulator reads it per
    block per tick, where an Enum property or `value` is a Python call.
    `ordinal`, the position in declaration order, is set at import likewise."""

    NORTH = (0, 0, -1)
    SOUTH = (0, 0, 1)
    EAST = (1, 0, 0)
    WEST = (-1, 0, 0)
    UP = (0, 1, 0)
    DOWN = (0, -1, 0)

    vector: Vec3
    ordinal: int

    def __init__(self, x: int, y: int, z: int):
        self.vector = (x, y, z)


# Fixed order used by the genome decoder and by direction tie-breaking: the declaration order.
ORIENTATION_ORDER: tuple[Orientation, ...] = tuple(Orientation)


class BlockSet(Enum):
    ORIGINAL = "original"
    OBSERVER = "observer"

    ordinal: int  # position in declaration order, set below

    @property
    def members(self) -> tuple[BlockKind, ...]:
        """Decodable kinds, in the fixed documented order."""
        if self is BlockSet.ORIGINAL:
            return _ORIGINAL_MEMBERS
        return _OBSERVER_MEMBERS


_ORIGINAL_MEMBERS = (
    BlockKind.REDSTONE_BLOCK,
    BlockKind.SLIME_BLOCK,
    BlockKind.QUARTZ_BLOCK,
    BlockKind.PISTON,
    BlockKind.STICKY_PISTON,
)
_OBSERVER_MEMBERS = _ORIGINAL_MEMBERS + (BlockKind.OBSERVER,)

# Placement and decoding index their tables by these ints, never by hashing
# an Enum: `Enum.__hash__` is a Python-level call.
for _enum in (BlockKind, Orientation, BlockSet):
    for _ordinal, _member in enumerate(_enum):
        _member.ordinal = _ordinal


class BlockPlacement(NamedTuple):
    pos: Vec3
    kind: BlockKind
    orient: Orientation


class Block(NamedTuple):
    """One occupied cell: kind, orientation, and the piston extension flag."""

    kind: BlockKind
    orient: Orientation
    extended: bool = False


class Pulse(NamedTuple):
    """A scheduled observer power pulse: powers `cell` while
    `start <= 0 < end`, both counted in ticks from its world's tick."""

    cell: Vec3
    start: int
    end: int


class TickEvent(NamedTuple):
    """A pending piston action, due `due` ticks after its world's tick (it
    fires when `due` is 0 or less). A world's event list is in scheduling
    order, and events due on the same tick fire in that order."""

    due: int
    action: str  # "extend" | "retract"
    pos: Vec3
    orient: Orientation


def neighbors6(pos: Vec3) -> tuple[Vec3, ...]:
    x, y, z = pos
    return (
        (x + 1, y, z),
        (x - 1, y, z),
        (x, y + 1, z),
        (x, y - 1, z),
        (x, y, z + 1),
        (x, y, z - 1),
    )


@dataclass(frozen=True)
class Box:
    """Axis-aligned box of cells: min corner inclusive, min+dims exclusive."""

    min: Vec3
    dims: Vec3
    # (x0, x1, y0, y1, z0, z1): a cell is inside when x0 <= x < x1, y0 <= y < y1
    # and z0 <= z < z1. The one definition of membership: `contains` and the
    # region scans, which unpack it once per call, both read it.
    bounds: tuple[int, int, int, int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"box dims must be positive, got {self.dims}")
        (x0, y0, z0), (dx, dy, dz) = self.min, self.dims
        object.__setattr__(self, "bounds", (x0, x0 + dx, y0, y0 + dy, z0, z0 + dz))

    @classmethod
    def cube(cls, center: Vec3, size: int) -> "Box":
        """Cube of odd `size` centered on an integer cell."""
        if size <= 0 or size % 2 == 0:
            raise ValueError("cube size must be odd and positive")
        r = size // 2
        return cls((center[0] - r, center[1] - r, center[2] - r), (size, size, size))

    def contains(self, pos: Vec3) -> bool:
        x0, x1, y0, y1, z0, z1 = self.bounds
        x, y, z = pos
        return x0 <= x < x1 and y0 <= y < y1 and z0 <= z < z1

    @property
    def center(self) -> tuple[float, float, float]:
        return tuple(self.min[i] + (self.dims[i] - 1) / 2.0 for i in range(3))


@dataclass
class WorldState:
    """Sparse voxel world plus pending tick events and observer pulses.

    Event and pulse times are counted from `tick` (see `TickEvent` and
    `Pulse`), so two worlds in the same state at different ticks hold equal
    event and pulse lists, and moving a world in time changes `tick` alone.
    A WorldState is a value: operations take a world and return a new one,
    which may share the input's block dict (`sim.step` copies it only when a
    piston fires) and, moved forward in time, its event and pulse lists too.
    So never change a world's blocks, events or pulses in place: change a
    `copy()`. The fitness poll relies on this: it scans each block dict it is
    handed once per evaluation, and reuses that scan when a later world
    shares the dict. `scan` is what the simulator reads of the blocks each
    tick (see `sim._scan`), handed on by `sim.step` with every world it
    returns; `==`, `repr` and `copy()` ignore it.
    """

    blocks: dict[Vec3, Block] = field(default_factory=dict)
    tick: int = 0
    events: list[TickEvent] = field(default_factory=list)
    pulses: list[Pulse] = field(default_factory=list)
    scan: Optional[tuple[list, list, frozenset]] = field(default=None, compare=False, repr=False)

    def copy(self) -> "WorldState":
        return WorldState(dict(self.blocks), self.tick, list(self.events), list(self.pulses))


SPAWN_BOX_SIZE = 3


def _placed_facing(kind: BlockKind, orient: Orientation, observer_bug: bool) -> Orientation:
    """The facing a block is placed with: under the observer placement quirk
    an observer facing Up or Down is placed facing North."""
    if observer_bug and kind is BlockKind.OBSERVER and (orient is Orientation.UP or orient is Orientation.DOWN):
        return Orientation.NORTH
    return orient


def apply_observer_bug(shape: list[BlockPlacement]) -> list[BlockPlacement]:
    """Rewrite Up/Down observer orientations to North, as placement with
    `observer_bug` would."""
    out = []
    for p in shape:
        if p.kind is BlockKind.OBSERVER and (facing := _placed_facing(p.kind, p.orient, True)) is not p.orient:
            p = p._replace(orient=facing)
        out.append(p)
    return out


# The unextended Block each placement writes, shared by every placed world:
# `_PLACED[observer_bug][kind.ordinal][orient.ordinal]`. Kinds no shape may
# hold (air and piston heads) have no row.
_PLACED = tuple(
    tuple(
        tuple(Block(kind, _placed_facing(kind, orient, bug), False) for orient in Orientation)
        if kind in _OBSERVER_MEMBERS else None
        for kind in BlockKind
    )
    for bug in (False, True)
)


def place_shape(world: WorldState, shape: Iterable[BlockPlacement], origin: Vec3, observer_bug: bool = False) -> WorldState:
    """Write a shape into the world at `origin` + local position, each block
    unextended and, when `observer_bug`, with the observer quirk applied (as
    `apply_observer_bug` would); every block comes from a table built at
    import and shared by all placed worlds.

    Local positions must stay inside the 3x3x3 spawn box and target cells must
    be empty, so two placements at one local position overlap. Only the six
    shape kinds place: air is absence and piston heads come from the
    simulator. The tick counter is unchanged; placement generates no events.
    """
    new = world.copy()
    blocks = new.blocks
    rows = _PLACED[observer_bug]
    ox, oy, oz = origin
    for pos, kind, orient in shape:
        row = rows[kind.ordinal]
        if row is None:
            raise ValueError(f"{kind.name} is not a shape block (air is represented by absence)")
        x, y, z = pos
        if not (0 <= x < SPAWN_BOX_SIZE and 0 <= y < SPAWN_BOX_SIZE and 0 <= z < SPAWN_BOX_SIZE):
            raise OutOfBoundsError(f"local position {pos} outside [0,{SPAWN_BOX_SIZE})^3")
        target = (ox + x, oy + y, oz + z)
        if target in blocks:
            raise OverlapError(f"target cell {target} already occupied")
        blocks[target] = row[orient.ordinal]
    return new


def center_of_mass(world: WorldState, region: Box) -> Optional[tuple[float, float, float]]:
    """Unweighted mean position of all blocks in `region`, heads included.

    Returns None when the region holds no blocks.
    """
    x0, x1, y0, y1, z0, z1 = region.bounds
    sx = sy = sz = 0
    n = 0
    for x, y, z in world.blocks:
        if x0 <= x < x1 and y0 <= y < y1 and z0 <= z < z1:
            sx += x
            sy += y
            sz += z
            n += 1
    if n == 0:
        return None
    return (sx / n, sy / n, sz / n)


def count_blocks(world: WorldState, region: Box) -> int:
    """Number of blocks (heads included) with positions inside `region`."""
    x0, x1, y0, y1, z0, z1 = region.bounds
    n = 0
    for x, y, z in world.blocks:
        if x0 <= x < x1 and y0 <= y < y1 and z0 <= z < z1:
            n += 1
    return n


# Shape text format: one block per line, `x y z KIND ORIENT`, upper-case
# canonical enum names, single spaces, newline-terminated. `#` starts a comment.


def format_shape(shape: Iterable[BlockPlacement], header: Iterable[str] = ()) -> str:
    lines = [f"# {h}" for h in header]
    for p in shape:
        lines.append(f"{p.pos[0]} {p.pos[1]} {p.pos[2]} {p.kind.value} {p.orient.name}")
    return "\n".join(lines) + "\n"


def parse_shape(text: str) -> list[BlockPlacement]:
    shape: list[BlockPlacement] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ShapeFormatError(f"line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            pos = (int(parts[0]), int(parts[1]), int(parts[2]))
            kind = BlockKind(parts[3])
            orient = Orientation[parts[4]]
        except (ValueError, KeyError) as exc:
            raise ShapeFormatError(f"line {lineno}: {raw!r}") from exc
        shape.append(BlockPlacement(pos, kind, orient))
    return shape


def write_shape_file(path, shape: Iterable[BlockPlacement], header: Iterable[str] = ()) -> None:
    with open(path, "w") as fh:
        fh.write(format_shape(shape, header))
