"""NDRange index spaces and their work-group decomposition."""

from __future__ import annotations

import itertools
from dataclasses import dataclass


@dataclass(frozen=True)
class NdRange:
    """1- to 3-dimensional launch space.

    Each global extent must divide evenly by the matching local extent
    (OpenCL 1.x rule); the work-group grid is global_size / local_size.
    """

    global_size: tuple[int, ...]
    local_size: tuple[int, ...]

    def __post_init__(self):
        gsz = tuple(int(g) for g in self.global_size)
        lsz = tuple(int(l) for l in self.local_size)
        if not 1 <= len(gsz) <= 3:
            raise ValueError(f"NDRange dims must be 1..3, got {len(gsz)}")
        if len(lsz) != len(gsz):
            raise ValueError("global and local must have matching dims")
        for g, l in zip(gsz, lsz):
            if g < 1 or l < 1:
                raise ValueError(f"extents must be >= 1: global={gsz} local={lsz}")
            if g % l != 0:
                raise ValueError(f"global size {g} not divisible by local size {l}")
        object.__setattr__(self, "global_size", gsz)
        object.__setattr__(self, "local_size", lsz)

    @property
    def group_counts(self) -> tuple[int, ...]:
        return tuple(g // l for g, l in zip(self.global_size, self.local_size))

    def group_ids(self):
        """Lexicographic work-group ids (last dim fastest)."""
        return itertools.product(*(range(c) for c in self.group_counts))

    def local_ids(self):
        """Lexicographic local ids within one group (last dim fastest)."""
        return itertools.product(*(range(l) for l in self.local_size))

    def global_id(self, group_id: tuple[int, ...], local_id: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(g * l + i for g, l, i in zip(group_id, self.local_size, local_id))
