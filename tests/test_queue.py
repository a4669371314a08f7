"""Bounded level priority queue (§4.6)."""
import pytest

from repro.core.queue import BoundedLevelQueue


class _St(str):
    """A stand-in state: a name that also carries the ``cost`` and ``level``
    the queue reads."""

    def __new__(cls, name: str, cost: float, level: int):
        st = super().__new__(cls, name)
        st.cost, st.level = cost, level
        return st


def test_capacity_formula():
    q = BoundedLevelQueue(width=5)
    assert q.capacity(1) == 5
    assert q.capacity(3) == 3
    assert q.capacity(5) == 1
    assert q.capacity(9) == 1  # never below 1


def test_poll_returns_cheapest():
    q = BoundedLevelQueue(width=3)
    q.push(_St("a", 5.0, 1))
    q.push(_St("b", 2.0, 1))
    q.push(_St("c", 9.0, 2))
    assert q.poll() == "b"
    assert q.poll() == "a"
    assert q.poll() == "c"


def test_poll_tie_prefers_deeper_level():
    q = BoundedLevelQueue(width=5)
    q.push(_St("shallow", 3.0, 1))
    q.push(_St("deep", 3.0, 4))
    assert q.poll() == "deep"


def test_level_eviction_drops_worst():
    q = BoundedLevelQueue(width=1)  # every level holds exactly 1
    assert q.push(_St("a", 5.0, 1))
    assert q.push(_St("b", 3.0, 1))  # evicts a
    assert len(q) == 1
    assert q.poll() == "b"


def test_full_level_rejects_strictly_worse():
    q = BoundedLevelQueue(width=1)
    q.push(_St("a", 3.0, 1))
    assert not q.push(_St("worse", 4.0, 1))
    assert q.poll() == "a"


def test_full_level_accepts_equal():
    """A state as good as the level's worst is accepted."""
    q = BoundedLevelQueue(width=1)
    q.push(_St("a", 3.0, 1))
    assert q.push(_St("b", 3.0, 1))
    assert len(q) == 1


def test_full_level_accepts_better_than_worst():
    """A full level takes a state better than its worst alone, not only one
    better than every state on it, and evicts the worst."""
    q = BoundedLevelQueue(width=2)  # level 1 holds 2
    q.push(_St("best", 1.0, 1))
    q.push(_St("worst", 3.0, 1))
    assert q.push(_St("middle", 2.0, 1))
    assert len(q) == 2
    assert [q.poll(), q.poll()] == ["best", "middle"]


def test_levels_independent():
    q = BoundedLevelQueue(width=2)
    assert q.push(_St("l1a", 1.0, 1))
    assert q.push(_St("l1b", 2.0, 1))
    assert not q.push(_St("l1c", 3.0, 1))  # level 1 cap = 2
    assert q.push(_St("l2a", 9.0, 2))  # level 2 unaffected
    assert len(q) == 3


def test_poll_empty_raises():
    with pytest.raises(IndexError):
        BoundedLevelQueue(width=1).poll()


def test_fifo_on_full_tie():
    q = BoundedLevelQueue(width=5)
    q.push(_St("first", 1.0, 2))
    q.push(_St("second", 1.0, 2))
    assert q.poll() == "first"
