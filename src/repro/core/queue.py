"""Bounded level priority queue of §4.6.

Level i (states with i decided attributes) holds at most max(1, width-i+1)
states. A full level rejects a new state only if it is worse than the
level's worst state; otherwise the worst is evicted to make room. ``poll``
returns the globally cheapest state; ties are broken in favour of states
with more assignments (deeper levels first), as in the paper. A state is
queued by its own ``cost`` and ``level``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

__all__ = ["BoundedLevelQueue"]


@dataclass
class BoundedLevelQueue:
    width: int
    _levels: dict[int, list[tuple[int, Any]]] = field(default_factory=dict)
    _seq: int = 0  # push counter; entries are (seq, state) in push order

    def capacity(self, level: int) -> int:
        return max(1, self.width - level + 1)

    def __len__(self) -> int:
        return sum(len(v) for v in self._levels.values())

    def push(self, state: Any) -> bool:
        """Insert; returns False if rejected because the level is full and
        its worst state is strictly better."""
        entries = self._levels.setdefault(state.level, [])
        if len(entries) >= self.capacity(state.level):
            worst = max(range(len(entries)), key=lambda j: entries[j][1].cost)
            if state.cost > entries[worst][1].cost:
                return False
            del entries[worst]
        entries.append((self._seq, state))
        self._seq += 1
        return True

    def poll(self) -> Any:
        """Remove and return the cheapest state across all levels; ties go
        to the deeper level, then FIFO."""
        if not self._levels:
            raise IndexError("poll from empty queue")
        (_, neg_level, _), j = min(
            ((st.cost, -st.level, seq), j)
            for entries in self._levels.values()
            for j, (seq, st) in enumerate(entries)
        )
        entries = self._levels[-neg_level]
        _, state = entries.pop(j)
        if not entries:
            del self._levels[-neg_level]
        return state
