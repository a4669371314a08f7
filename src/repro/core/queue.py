"""Bounded level priority queue of §4.6.

Level i (states with i decided attributes) holds at most max(1, width-i+1)
states. A full level rejects a new state only if it is worse than the
level's worst state; otherwise the worst is evicted to make room. ``poll``
returns the globally cheapest state; ties are broken in favour of states
with more assignments (deeper levels first), as in the paper.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["BoundedLevelQueue"]


@dataclass
class _Entry:
    cost: float
    level: int
    seq: int
    item: Any


@dataclass
class BoundedLevelQueue:
    width: int
    _levels: dict[int, list[_Entry]] = field(default_factory=dict)
    _seq: int = 0

    def capacity(self, level: int) -> int:
        return max(1, self.width - level + 1)

    def __len__(self) -> int:
        return sum(len(v) for v in self._levels.values())

    def push(self, item: Any, cost: float, level: int) -> bool:
        """Insert; returns False if rejected because the level is full and
        its worst state is strictly better."""
        entries = self._levels.setdefault(level, [])
        cap = self.capacity(level)
        if len(entries) >= cap:
            worst = max(entries, key=lambda e: e.cost)
            if cost > worst.cost:
                return False
            entries.remove(worst)
        entries.append(_Entry(cost, level, self._seq, item))
        self._seq += 1
        return True

    def poll(self) -> Any:
        """Remove and return the cheapest state across all levels; ties go
        to the deeper level, then FIFO."""
        entries = [e for level in self._levels.values() for e in level]
        if not entries:
            raise IndexError("poll from empty queue")
        best = min(entries, key=lambda e: (e.cost, -e.level, e.seq))
        self._levels[best.level].remove(best)
        if not self._levels[best.level]:
            del self._levels[best.level]
        return best.item
