"""Affidavit — Algorithm 1 of the paper, orchestrating the Spark substrate.

Best-first search over partial attribute-function assignments. The driver
holds only the bounded frontier (queue width ϱ); every data-proportional
step runs as a Spark DataFrame computation:

* blocking index      -> blocking.with_block_key (both snapshots, one call
                         per state; extensions cache the pair for a poll)
* state evaluation    -> blocking.state_overlap / evaluate_pairs
* attribute ordering  -> blocking.indeterminacy
* example sampling    -> candidates.sample_examples
* greedy value maps   -> alignment.sample_random_alignment + greedy_map
* Hs initialization   -> overlap_init.overlap_start_state
* final conversion    -> explanation.explanation_from_functions (Prop. 3.6)
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from pyspark.sql import DataFrame

from . import blocking, candidates
from .alignment import greedy_map, greedy_maps_bulk, sample_random_alignment
from .blocking import evaluate_pairs, indeterminacy, persisted, with_block_key
from .candidates import induce_attr_candidates, sample_examples, scaled_support
from .explanation import Explanation, explanation_from_state, trivial_explanation
from .functions import Identity, TransformFunction
from .overlap_init import MAX_BLOCK_SIZE, overlap_start_state
from .queue import BoundedLevelQueue
from .state import UNDECIDED, Problem, SearchState, state_cost

__all__ = ["AffidavitConfig", "SearchDiagnostics", "run_affidavit"]

MAX_POLLS = 1000  # the main loop's bound; reaching it is reported


@dataclass
class AffidavitConfig:
    """Paper parameters (§5.2) plus implementation bounds.

    ``start``: 'id' (H^id), 'overlap' (H^s), or 'empty' (H^0).
    ``beta``: branching factor; ``queue_width``: the paper's ϱ (queue
    bound). A value out of range raises ``ValueError`` here, before any
    search.
    """

    alpha: float = 0.5
    beta: int = 2
    queue_width: int = 5
    start: str = "id"
    max_block_size: int = MAX_BLOCK_SIZE
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        for name in ("beta", "queue_width", "max_block_size"):
            if (value := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if self.start not in ("id", "overlap", "empty"):
            raise ValueError(f"unknown start strategy {self.start!r}")


@dataclass
class SearchDiagnostics:
    """``stop_reason`` says why the main loop ended: 'end_state' (an end
    state was polled), 'queue_empty' or 'max_polls'. Only 'end_state'
    yields a searched explanation; the other two return E_empty."""

    polls: int = 0
    generated: int = 0
    runtime_s: float = 0.0
    end_state: SearchState | None = None
    start_states: int = 0
    stop_reason: str = ""


class _Search:
    def __init__(self, problem: Problem, config: AffidavitConfig):
        self.p = problem
        self.cfg = config
        self.diag = SearchDiagnostics()
        self._seed_ctr = 0

    def _seed(self) -> int:
        self._seed_ctr += 1
        return self.cfg.seed * 10_007 + self._seed_ctr

    def _scored(self, st: SearchState, overlap: int) -> SearchState:
        """``st`` with its c(H) for M(H) = ``overlap``."""
        cost = state_cost(self.p, st.cf(), overlap, self.cfg.alpha)
        return st.with_cost(cost, overlap)

    # ------------------------------------------------------------------
    # Initialization (§4.2)
    # ------------------------------------------------------------------
    def init_start_states(self) -> list[SearchState]:
        empty = SearchState((UNDECIDED,) * self.p.n_attrs)
        if self.cfg.start == "id":
            pairs = [(i, Identity()) for i in range(self.p.n_attrs)]
            overlaps = evaluate_pairs(self.p, *with_block_key(self.p, empty), pairs)
            return [
                self._scored(empty.extend(i, f), m)
                for (i, f), m in zip(pairs, overlaps)
            ]
        if self.cfg.start == "overlap":
            st = overlap_start_state(self.p, max_block_size=self.cfg.max_block_size)
            if st.decided():
                return [self._scored(st, blocking.state_overlap(self.p, st))]
        # H0, and Hs when nothing survived its threshold: a single block
        return [self._scored(empty, min(self.p.n_source, self.p.n_target))]

    # ------------------------------------------------------------------
    # Extensions (Algorithm 1)
    # ------------------------------------------------------------------
    def extensions(self, h: SearchState) -> list[SearchState]:
        attrs = self.p.attrs
        with persisted(*with_block_key(self.p, h)) as (s_keyed, t_keyed):
            und = h.undecided_indices()
            und_names = [attrs[i] for i in und]
            ind = indeterminacy(s_keyed, t_keyed, und_names)
            ordered = sorted(und, key=lambda i: (ind.get(attrs[i], float("inf")), i))
            with persisted(
                sample_random_alignment(s_keyed, t_keyed, und_names, seed=self._seed())
            ) as (aligned,):
                sample = sample_examples(
                    s_keyed, t_keyed, und_names,
                    k=candidates.SAMPLE_SIZE, seed=self._seed(),
                )
                support = scaled_support(len(sample.targets), candidates.SAMPLE_SIZE)

                beta = self.cfg.beta
                for batch in [ordered[:beta]] + [[i] for i in ordered[beta:]]:
                    exts = self._extend_batch(
                        h, batch, s_keyed, t_keyed, aligned, sample, support
                    )
                    if exts:
                        return exts
                # Every batch failed: finalize every undecided attribute with
                # a value mapping (Algorithm 1's last branch), in this scope.
                return [self.finalize(h, und)]

    def _extend_batch(
        self,
        h: SearchState,
        batch: list[int],
        s_keyed: DataFrame,
        t_keyed: DataFrame,
        aligned: DataFrame,
        sample,
        support: int,
    ) -> list[SearchState]:
        """Up to beta extensions of ``h`` per attribute of ``batch``: the
        induced functions cheaper than the attribute's greedy map, ranked by
        (c(H), psi, signature). Empty when no attribute has one."""
        attrs = self.p.attrs
        greedy = greedy_maps_bulk(aligned, [attrs[i] for i in batch])
        cands: dict[int, list[TransformFunction]] = {}
        for i in batch:
            induced = induce_attr_candidates(sample, attrs[i], min_support=support)
            cands[i] = [f for f, _ in induced] + [greedy[attrs[i]]]
        pairs = [(i, f) for i in batch for f in cands[i]]
        overlaps = iter(evaluate_pairs(self.p, s_keyed, t_keyed, pairs))

        exts: list[SearchState] = []
        for i in batch:
            *induced, (g_st, _) = [
                (self._scored(h.extend(i, f), next(overlaps)), f) for f in cands[i]
            ]
            kept = [
                (st.cost, f.psi, f.signature(), st)
                for st, f in induced
                if st.cost < g_st.cost
            ]
            kept.sort(key=lambda c: c[:3])
            exts.extend(c[-1] for c in kept[: self.cfg.beta])
        return exts

    # ------------------------------------------------------------------
    # Finalize (§4.3): resolve attributes with greedy maps
    # ------------------------------------------------------------------
    def finalize(self, st: SearchState, indices: list[int]) -> SearchState:
        """``st`` with a greedy map on every slot of ``indices``, in order,
        re-keying and re-sampling the alignment after each assignment."""
        attrs = self.p.attrs
        for i in indices:
            g = greedy_map(*with_block_key(self.p, st), attrs[i], seed=self._seed())
            st = st.extend(i, g)
        return self._scored(st, blocking.state_overlap(self.p, st))

    # ------------------------------------------------------------------
    # Main loop (Algorithm 1)
    # ------------------------------------------------------------------
    def run(self) -> tuple[Explanation, SearchDiagnostics]:
        t0 = time.perf_counter()
        cache_manager = self.p.spark._jsparkSession.sharedState().cacheManager()
        cached = cache_manager.numCachedEntries()
        q = BoundedLevelQueue(self.cfg.queue_width)
        seen: set = set()
        for st in self.init_start_states():
            seen.add(st.signature())
            q.push(st)
            self.diag.start_states += 1

        end: SearchState | None = None
        while len(q) and self.diag.polls < MAX_POLLS:
            h = q.poll()
            self.diag.polls += 1
            if h.is_end:
                end = h
                break
            for ext in self.extensions(h):
                sig = ext.signature()
                if sig in seen:
                    continue
                seen.add(sig)
                self.diag.generated += 1
                q.push(ext)

        if end is not None:
            self.diag.stop_reason = "end_state"
            expl = explanation_from_state(self.p, end)
            if expl.core_size != end.overlap:  # a function was applied two ways
                raise RuntimeError(f"core {expl.core_size} != M(H) {end.overlap}")
        else:
            self.diag.stop_reason = "max_polls" if len(q) else "queue_empty"
            expl = trivial_explanation(self.p)
        # Each cache the search opens ends with its scope. The count, read
        # with no Spark job, includes plans cached but never read. Another
        # count means one was left open, or a release dropped an entry
        # another frame shared (Spark keeps one cache entry per plan).
        if cache_manager.numCachedEntries() != cached:
            raise RuntimeError(
                f"search began with {cached} cached plans"
                f" and ended with {cache_manager.numCachedEntries()}"
            )
        self.diag.end_state = end
        self.diag.runtime_s = time.perf_counter() - t0
        return expl, self.diag


def run_affidavit(
    problem: Problem, config: AffidavitConfig | None = None
) -> tuple[Explanation, SearchDiagnostics]:
    """Solve one Explain-Table-Delta instance; returns the explanation the
    search affirms plus diagnostics (polls, runtime, end state, and why the
    search stopped)."""
    return _Search(problem, config or AffidavitConfig()).run()
