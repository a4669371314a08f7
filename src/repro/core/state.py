"""Problem instances and search states (paper §3, §4.1, §4.5).

A ``Problem`` wraps the two snapshots as Spark DataFrames of strings (one
column per attribute plus a hidden ``__rid`` record id). The metrics and an
explanation's core pairs use the id, and so does the Hs start state, which
breaks overlap-score ties by the lowest target id (DESIGN.md §2).

A ``SearchState`` is the paper's H: one slot per attribute holding either
UNDECIDED ('*') or a concrete ``TransformFunction``. The paper's square
(a value mapping to resolve in Finalize) is never stored: the search
finalizes the attributes it would mark at once (DESIGN.md note 6).

State cost (Def. 4.6, with the typography fixed so that it coincides with
Def. 3.10 on end states — see DESIGN.md):

    c(H) = 2*(1-alpha) * cf(H) + 2*alpha * |A| * ct(H)

where cf(H) sums psi over assigned functions and ct(H) = |T| - M(H) with
M(H) = sum over blocks of min(#source, #target). The paper's
max(ct, cs - Delta) equals ct identically because blocks partition both
record sets (cs - ct = |S| - |T|); a regression test asserts this.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from pyspark.sql import DataFrame, SparkSession

from .functions import TransformFunction

__all__ = ["UNDECIDED", "Problem", "SearchState", "RID"]

UNDECIDED = "*"
RID = "__rid"


@dataclass
class Problem:
    """One Explain-Table-Delta instance (Def. 3.1) over Spark DataFrames."""

    spark: SparkSession
    source: DataFrame
    target: DataFrame
    attrs: list[str]

    def __post_init__(self):
        if RID not in self.source.columns or RID not in self.target.columns:
            raise ValueError(f"both snapshots need the record id column {RID!r}")
        for a in self.attrs:
            if a not in self.source.columns or a not in self.target.columns:
                raise ValueError(f"attribute {a!r} missing from a snapshot")

    @cached_property
    def n_source(self) -> int:
        return self.source.count()

    @cached_property
    def n_target(self) -> int:
        return self.target.count()

    @property
    def n_attrs(self) -> int:
        return len(self.attrs)


@dataclass(frozen=True)
class SearchState:
    """H in the search lattice; ``cost``/``overlap`` are filled in by the
    search once the state has been evaluated against the data."""

    assignments: tuple  # per attribute: UNDECIDED | TransformFunction
    cost: float = float("inf")
    overlap: int = 0  # M(H)

    @property
    def level(self) -> int:
        """Lattice level = number of non-undecided slots."""
        return len(self.assignments) - len(self.undecided_indices())

    def undecided_indices(self) -> list[int]:
        return [i for i, h in enumerate(self.assignments) if h == UNDECIDED]

    def decided(self) -> list[tuple[int, TransformFunction]]:
        """(attribute index, function) for slots holding concrete functions."""
        return [(i, h) for i, h in enumerate(self.assignments) if h != UNDECIDED]

    @property
    def is_end(self) -> bool:
        return not self.undecided_indices()

    def cf(self) -> int:
        """Description length of the assigned functions (Def. 3.9 analogue)."""
        return sum(f.psi for _, f in self.decided())

    def extend(self, index: int, value) -> "SearchState":
        """Assign ``value`` to an UNDECIDED slot."""
        if self.assignments[index] != UNDECIDED:
            raise ValueError(f"slot {index} already holds a function")
        a = list(self.assignments)
        a[index] = value
        return SearchState(tuple(a))

    def with_cost(self, cost: float, overlap: int) -> "SearchState":
        return replace(self, cost=cost, overlap=overlap)

    def signature(self) -> tuple:
        """Hashable identity for duplicate elimination in the search."""
        return tuple(h if h == UNDECIDED else h.signature() for h in self.assignments)


def mdl_cost(n_attrs: int, n_inserted: int, psi: int, alpha: float) -> float:
    """The MDL cost 2*alpha*|A|*|T+| + 2*(1-alpha)*sum(psi): c(E) of Def.
    3.10, and c(H) of Def. 4.6 with |T+| = ct(H)."""
    return 2 * (1 - alpha) * psi + 2 * alpha * n_attrs * n_inserted


def state_cost(
    problem: Problem, cf: int, overlap: int, alpha: float
) -> float:
    """c(H) as documented in the module docstring."""
    return mdl_cost(problem.n_attrs, problem.n_target - overlap, cf, alpha)
