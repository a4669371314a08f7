"""Affidavit — Algorithm 1 of the paper, orchestrating the Spark substrate.

Best-first search over partial attribute-function assignments. The driver
holds only the bounded frontier (queue width rho); every data-proportional
step runs as a Spark DataFrame computation:

* state evaluation    -> blocking.state_overlap / evaluate_pairs
* attribute ordering  -> blocking.indeterminacy
* example sampling    -> candidates.sample_examples
* greedy value maps   -> alignment.sample_random_alignment + greedy_map
* Hs initialization   -> overlap_init.overlap_start_state
* final conversion    -> explanation.explanation_from_functions (Prop. 3.6)
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from pyspark.sql import DataFrame

from . import blocking
from .alignment import greedy_map, greedy_maps_bulk, sample_random_alignment
from .blocking import evaluate_pairs, indeterminacy, with_block_key
from .candidates import induce_attr_candidates, sample_examples, scaled_support
from .explanation import Explanation, explanation_from_state, trivial_explanation
from .functions import Identity, TransformFunction
from .overlap_init import overlap_start_state
from .queue import BoundedLevelQueue
from .state import MAP_MARKER, UNDECIDED, Problem, SearchState, state_cost
from .stats import sample_size_for_support

__all__ = ["AffidavitConfig", "SearchDiagnostics", "run_affidavit"]


@dataclass
class AffidavitConfig:
    """Paper parameters (§5.2) plus implementation bounds.

    ``start``: 'id' (H^id), 'overlap' (H^s), or 'empty' (H^0).
    ``beta``: branching factor; ``queue_width``: the paper's rho (queue
    bound); ``theta``: estimated fraction of target records showing a
    function's effect; ``confidence``: the paper's ρ.
    """

    alpha: float = 0.5
    beta: int = 2
    queue_width: int = 5
    theta: float = 0.1
    confidence: float = 0.95
    start: str = "id"
    max_block_size: int = 100_000
    seed: int = 0
    max_polls: int = 1000
    max_block_rows: int = 50
    max_candidates: int = 24
    base_support: int = 5


@dataclass
class SearchDiagnostics:
    """``stop_reason`` says why the main loop ended: 'end_state' (an end
    state was polled), 'queue_empty' or 'max_polls'. Only 'end_state'
    yields a searched explanation; the other two return E_empty."""

    polls: int = 0
    generated: int = 0
    runtime_s: float = 0.0
    init_runtime_s: float = 0.0
    end_state: SearchState | None = None
    start_states: int = 0
    finalized: int = 0
    stop_reason: str = ""


class _Search:
    def __init__(self, problem: Problem, config: AffidavitConfig):
        self.p = problem
        self.cfg = config
        self.k = sample_size_for_support(
            config.theta, config.confidence, config.base_support
        )
        self.diag = SearchDiagnostics()
        self._seed_ctr = 0

    def _seed(self) -> int:
        self._seed_ctr += 1
        return self.cfg.seed * 10_007 + self._seed_ctr

    def _cost(self, cf: int, overlap: int) -> float:
        return state_cost(self.p, cf, overlap, self.cfg.alpha)

    # ------------------------------------------------------------------
    # Initialization (§4.2)
    # ------------------------------------------------------------------
    def init_start_states(self) -> list[SearchState]:
        d = self.p.n_attrs
        empty = SearchState(tuple(UNDECIDED for _ in range(d)))
        if self.cfg.start == "empty":
            m = min(self.p.n_source, self.p.n_target)  # single block
            return [empty.with_cost(self._cost(0, m), m)]
        if self.cfg.start == "id":
            s_keyed = with_block_key(self.p.source, empty, self.p.attrs, is_source=True)
            t_keyed = with_block_key(self.p.target, empty, self.p.attrs, is_source=False)
            pairs = [(i, Identity()) for i in range(d)]
            overlaps = evaluate_pairs(self.p, s_keyed, t_keyed, pairs)
            states = []
            for (i, f), m in zip(pairs, overlaps):
                st = empty.extend(i, f)
                states.append(st.with_cost(self._cost(st.cf(), m), m))
            return states
        if self.cfg.start == "overlap":
            st = overlap_start_state(self.p, max_block_size=self.cfg.max_block_size)
            if not st.decided():  # nothing survived the threshold
                m = min(self.p.n_source, self.p.n_target)
                return [empty.with_cost(self._cost(0, m), m)]
            m = blocking.state_overlap(self.p, st)
            return [st.with_cost(self._cost(st.cf(), m), m)]
        raise ValueError(f"unknown start strategy {self.cfg.start!r}")

    # ------------------------------------------------------------------
    # Extensions (Algorithm 1)
    # ------------------------------------------------------------------
    def extensions(self, h: SearchState) -> list[SearchState]:
        attrs = self.p.attrs
        s_keyed = with_block_key(self.p.source, h, attrs, is_source=True).cache()
        t_keyed = with_block_key(self.p.target, h, attrs, is_source=False).cache()
        try:
            und = h.undecided_indices()
            und_names = [attrs[i] for i in und]
            ind = indeterminacy(s_keyed, t_keyed, und_names)
            ordered = deque(
                sorted(und, key=lambda i: (ind.get(attrs[i], float("inf")), i))
            )
            aligned = sample_random_alignment(
                s_keyed, t_keyed, und_names, seed=self._seed()
            ).cache()
            sample = sample_examples(
                s_keyed,
                t_keyed,
                und_names,
                k=self.k,
                seed=self._seed(),
                max_block_rows=self.cfg.max_block_rows,
            )
            support = scaled_support(
                min(len(sample.targets), sample.population),
                self.k,
                self.cfg.base_support,
            )

            exts: list[SearchState] = []
            boxed: list[int] = []
            batch = [ordered.popleft() for _ in range(min(self.cfg.beta, len(ordered)))]
            while not exts and batch:
                exts = self._extend_batch(
                    h, batch, s_keyed, t_keyed, aligned, sample, support, boxed
                )
                batch = [ordered.popleft()] if (not exts and ordered) else []
            aligned.unpersist()
            if exts:
                return exts
            # Every undecided attribute needs a value mapping: mark and
            # finalize (resolve markers one after another, re-sampling the
            # alignment after each; Algorithm 1's last branch).
            st = h
            for i in boxed:
                st = st.extend(i, MAP_MARKER)
            return [self.finalize(st)]
        finally:
            s_keyed.unpersist()
            t_keyed.unpersist()

    def _extend_batch(
        self,
        h: SearchState,
        batch: list[int],
        s_keyed: DataFrame,
        t_keyed: DataFrame,
        aligned: DataFrame,
        sample,
        support: int,
        boxed: list[int],
    ) -> list[SearchState]:
        attrs = self.p.attrs
        per_attr: dict[int, list[TransformFunction]] = {}
        pairs: list[tuple[int, TransformFunction]] = []
        bulk = greedy_maps_bulk(aligned, [attrs[i] for i in batch])
        greedy: dict[int, TransformFunction] = {i: bulk[attrs[i]] for i in batch}
        for i in batch:
            a = attrs[i]
            g = greedy[i]
            cands = [
                f
                for f, _ in induce_attr_candidates(
                    sample, a, min_support=support, max_candidates=self.cfg.max_candidates
                )
            ]
            per_attr[i] = cands
            pairs.extend((i, f) for f in cands)
            pairs.append((i, g))

        overlaps = evaluate_pairs(self.p, s_keyed, t_keyed, pairs)
        m_of = {
            (i, f.signature()): m for (i, f), m in zip(pairs, overlaps)
        }

        exts: list[SearchState] = []
        for i in batch:
            g = greedy[i]
            g_cost = self._cost(h.cf() + g.psi, m_of[(i, g.signature())])
            scored = []
            for f in per_attr[i]:
                m = m_of[(i, f.signature())]
                cost = self._cost(h.cf() + f.psi, m)
                if cost < g_cost:
                    scored.append((cost, m, f))
            scored.sort(key=lambda cmf: (cmf[0], cmf[2].psi, cmf[2].signature()))
            if scored:
                for cost, m, f in scored[: self.cfg.beta]:
                    exts.append(h.extend(i, f).with_cost(cost, m))
            else:
                boxed.append(i)
        return exts

    # ------------------------------------------------------------------
    # Finalize (§4.3): resolve MAP_MARKER slots with greedy maps
    # ------------------------------------------------------------------
    def finalize(self, st: SearchState) -> SearchState:
        attrs = self.p.attrs
        while st.marker_indices():
            i = st.marker_indices()[0]
            s_keyed = with_block_key(self.p.source, st, attrs, is_source=True)
            t_keyed = with_block_key(self.p.target, st, attrs, is_source=False)
            g = greedy_map(s_keyed, t_keyed, attrs[i], seed=self._seed())
            st = st.extend(i, g)
        m = blocking.state_overlap(self.p, st)
        self.diag.finalized += 1
        return st.with_cost(self._cost(st.cf(), m), m)

    # ------------------------------------------------------------------
    # Main loop (Algorithm 1)
    # ------------------------------------------------------------------
    def run(self) -> tuple[Explanation, SearchDiagnostics]:
        t0 = time.perf_counter()
        q = BoundedLevelQueue(self.cfg.queue_width)
        seen: set = set()
        for st in self.init_start_states():
            seen.add(st.signature())
            q.push(st, st.cost, st.level)
            self.diag.start_states += 1
        self.diag.init_runtime_s = time.perf_counter() - t0

        end: SearchState | None = None
        while len(q) and self.diag.polls < self.cfg.max_polls:
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
                q.push(ext, ext.cost, ext.level)

        if end is not None:
            self.diag.stop_reason = "end_state"
            expl = explanation_from_state(self.p, end)
        else:
            self.diag.stop_reason = "max_polls" if len(q) else "queue_empty"
            expl = trivial_explanation(self.p)
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
