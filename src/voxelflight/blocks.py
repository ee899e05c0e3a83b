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


PISTON_KINDS = frozenset({BlockKind.PISTON, BlockKind.STICKY_PISTON})
HEAD_KINDS = frozenset({BlockKind.PISTON_HEAD_NORMAL, BlockKind.PISTON_HEAD_STICKY})


class Orientation(Enum):
    NORTH = (0, 0, -1)
    SOUTH = (0, 0, 1)
    EAST = (1, 0, 0)
    WEST = (-1, 0, 0)
    UP = (0, 1, 0)
    DOWN = (0, -1, 0)

    @property
    def vector(self) -> Vec3:
        return self.value

    @property
    def opposite(self) -> "Orientation":
        return _OPPOSITE[self]


_OPPOSITE = {
    Orientation.NORTH: Orientation.SOUTH,
    Orientation.SOUTH: Orientation.NORTH,
    Orientation.EAST: Orientation.WEST,
    Orientation.WEST: Orientation.EAST,
    Orientation.UP: Orientation.DOWN,
    Orientation.DOWN: Orientation.UP,
}

# Fixed order used by the genome decoder and by direction tie-breaking.
ORIENTATION_ORDER: tuple[Orientation, ...] = (
    Orientation.NORTH,
    Orientation.SOUTH,
    Orientation.EAST,
    Orientation.WEST,
    Orientation.UP,
    Orientation.DOWN,
)


class BlockSet(Enum):
    ORIGINAL = "original"
    OBSERVER = "observer"

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
    """A scheduled observer power pulse: powers `cell` during [start, end)."""

    cell: Vec3
    start: int
    end: int


class TickEvent(NamedTuple):
    """A pending piston action, fired in FIFO order of scheduling (seq)."""

    due: int
    seq: int
    action: str  # "extend" | "retract"
    pos: Vec3
    orient: Orientation


def add(a: Vec3, b: Vec3) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


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

    def __post_init__(self):
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"box dims must be positive, got {self.dims}")

    @classmethod
    def cube(cls, center: Vec3, size: int) -> "Box":
        """Cube of odd `size` centered on an integer cell."""
        if size <= 0 or size % 2 == 0:
            raise ValueError("cube size must be odd and positive")
        r = size // 2
        return cls((center[0] - r, center[1] - r, center[2] - r), (size, size, size))

    def contains(self, pos: Vec3) -> bool:
        return all(self.min[i] <= pos[i] < self.min[i] + self.dims[i] for i in range(3))

    @property
    def center(self) -> tuple[float, float, float]:
        return tuple(self.min[i] + (self.dims[i] - 1) / 2.0 for i in range(3))


@dataclass
class WorldState:
    """Sparse voxel world plus pending tick events.

    A WorldState is a value: operations take a world and return a new one.
    """

    blocks: dict[Vec3, Block] = field(default_factory=dict)
    tick: int = 0
    events: list[TickEvent] = field(default_factory=list)
    pulses: list[Pulse] = field(default_factory=list)
    next_seq: int = 0

    def copy(self) -> "WorldState":
        return WorldState(dict(self.blocks), self.tick, list(self.events), list(self.pulses), self.next_seq)


SPAWN_BOX_SIZE = 3


def place_shape(world: WorldState, shape: Iterable[BlockPlacement], origin: Vec3) -> WorldState:
    """Write a shape into the world at `origin` + local position.

    Local positions must stay inside the 3x3x3 spawn box and target cells must
    be empty. The tick counter is unchanged; placement generates no events.
    """
    new = world.copy()
    seen: set[Vec3] = set()
    for p in shape:
        if p.kind is BlockKind.AIR:
            raise ValueError("air is represented by absence, not a placement")
        if not all(0 <= c < SPAWN_BOX_SIZE for c in p.pos):
            raise OutOfBoundsError(f"local position {p.pos} outside [0,{SPAWN_BOX_SIZE})^3")
        if p.pos in seen:
            raise OverlapError(f"two placements share local position {p.pos}")
        seen.add(p.pos)
        target = add(origin, p.pos)
        if target in new.blocks:
            raise OverlapError(f"target cell {target} already occupied")
        new.blocks[target] = Block(p.kind, p.orient)
    return new


def center_of_mass(world: WorldState, region: Box) -> Optional[tuple[float, float, float]]:
    """Unweighted mean position of all blocks in `region`, heads included.

    Returns None when the region holds no blocks.
    """
    sx = sy = sz = 0
    n = 0
    for pos in world.blocks:
        if region.contains(pos):
            sx += pos[0]
            sy += pos[1]
            sz += pos[2]
            n += 1
    if n == 0:
        return None
    return (sx / n, sy / n, sz / n)


def count_blocks(world: WorldState, region: Box) -> int:
    """Number of blocks (heads included) with positions inside `region`."""
    return sum(1 for pos in world.blocks if region.contains(pos))


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


def read_shape_file(path) -> list[BlockPlacement]:
    with open(path) as fh:
        return parse_shape(fh.read())
