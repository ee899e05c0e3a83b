"""Behavior characterizations: structural descriptors that index the archive.

All three descriptors are computed from the decoded shape before simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .blocks import BlockPlacement

BehaviorDescriptor = tuple[int, ...]

MAX_PISTON_BIN = 5  # counts of 5 or more share one bin per axis


class Characterization(Enum):
    BLOCK_COUNT = "block-count"
    COUNT_NEGATIVE_SPACE = "count-negative-space"
    PISTON_ORIENTATION = "piston-orientation"


@dataclass(frozen=True)
class ArchiveLayout:
    characterization: Characterization

    @property
    def dims(self) -> tuple[int, ...]:
        if self.characterization is Characterization.BLOCK_COUNT:
            return (28,)
        if self.characterization is Characterization.COUNT_NEGATIVE_SPACE:
            return (28, 27)
        return (6, 6, 6)

    @property
    def total_bins(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def descriptor(self, shape: list[BlockPlacement]) -> BehaviorDescriptor:
        if self.characterization is Characterization.BLOCK_COUNT:
            return block_count_bc(shape)
        if self.characterization is Characterization.COUNT_NEGATIVE_SPACE:
            return (len(shape), negative_space(shape))
        return piston_orientation_bc(shape)

    def bin_index(self, descriptor: BehaviorDescriptor) -> int:
        """Row-major flattening; bijective over in-range descriptors."""
        dims = self.dims
        if len(descriptor) != len(dims):
            raise ValueError(f"descriptor arity {len(descriptor)} != layout arity {len(dims)}")
        index = 0
        for value, size in zip(descriptor, dims):
            if not 0 <= value < size:
                raise ValueError(f"descriptor {descriptor} outside dims {dims}")
            index = index * size + value
        return index


def block_count_bc(shape: list[BlockPlacement]) -> BehaviorDescriptor:
    return (len(shape),)


def negative_space(shape: list[BlockPlacement]) -> int:
    """Air cells inside the tight bounding cuboid of the shape (empty shape: 0)."""
    if not shape:
        return 0
    xs = [p.pos[0] for p in shape]
    ys = [p.pos[1] for p in shape]
    zs = [p.pos[2] for p in shape]
    volume = (max(xs) - min(xs) + 1) * (max(ys) - min(ys) + 1) * (max(zs) - min(zs) + 1)
    return volume - len(shape)


def piston_orientation_bc(shape: list[BlockPlacement]) -> BehaviorDescriptor:
    """Piston counts grouped by axis (north/south, east/west, up/down), capped
    at 5; `Orientation` is declared in these axis pairs."""
    counts = [0, 0, 0]
    for p in shape:
        if p.kind.piston:
            counts[p.orient.ordinal // 2] += 1
    return tuple(min(c, MAX_PISTON_BIN) for c in counts)
