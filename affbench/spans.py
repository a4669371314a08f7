"""Spans around calls into ``repro.core``, recorded from outside the program.

``instrument`` swaps the module attributes that ``repro.core.affidavit``
calls through for wrappers that record one ``Span`` per call. Each span
gets its own Spark job group while it is open, so every Spark job can be
credited to the innermost layer that was running when the job started.
On exit every wrapped name is restored, even if the search raised.

``self_times`` is the interval arithmetic behind the per-layer figures: a
span's self time is its duration minus the part of its interval that its
children cover (the union of their intervals, clipped to the parent).
"""
from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "SEARCH_LAYERS",
    "Span",
    "Recorder",
    "covered",
    "self_times",
    "instrument",
]

# (layer name, module whose attribute is replaced, attribute name). The
# module is the namespace the search looks the name up in at call time:
# ``affidavit`` imported most names with ``from ... import``, but reaches
# ``state_overlap`` through the ``blocking`` module.
SEARCH_LAYERS: tuple[tuple[str, str, str], ...] = (
    ("blocking.with_block_key", "repro.core.affidavit", "with_block_key"),
    ("blocking.evaluate_pairs", "repro.core.affidavit", "evaluate_pairs"),
    ("blocking.indeterminacy", "repro.core.affidavit", "indeterminacy"),
    ("blocking.state_overlap", "repro.core.blocking", "state_overlap"),
    ("candidates.sample_examples", "repro.core.affidavit", "sample_examples"),
    (
        "candidates.induce_attr_candidates",
        "repro.core.affidavit",
        "induce_attr_candidates",
    ),
    (
        "alignment.sample_random_alignment",
        "repro.core.affidavit",
        "sample_random_alignment",
    ),
    ("alignment.greedy_maps_bulk", "repro.core.affidavit", "greedy_maps_bulk"),
    ("alignment.greedy_map", "repro.core.affidavit", "greedy_map"),
    (
        "overlap_init.overlap_start_state",
        "repro.core.affidavit",
        "overlap_start_state",
    ),
    (
        "explanation.explanation_from_state",
        "repro.core.affidavit",
        "explanation_from_state",
    ),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index of the enclosing span in Recorder.spans
    group: str = ""  # Spark job group the span's own jobs ran under
    counts: dict[str, int] = field(default_factory=dict)


class Recorder:
    """Keeps spans in memory; ``set_group`` is called with the job group to
    make current on every span entry and exit (``None`` clears it)."""

    def __init__(self, set_group: Callable[[str | None], None], prefix: str):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._set_group = set_group
        self._prefix = prefix

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, 0.0, parent=parent, group=f"{self._prefix}-{idx}")
        self.spans.append(sp)
        self._stack.append(idx)
        self._set_group(sp.group)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self._set_group(self.spans[parent].group if parent is not None else None)


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a, cur_b = None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    return [
        (sp.end - sp.start) - covered(children.get(i, []), sp.start, sp.end)
        for i, sp in enumerate(spans)
    ]


def _counting(name: str, sp: Span, args: tuple, result) -> None:
    """Work counts taken where the work happens (the wrapper's arguments
    and result), so ratios are measured at the layer boundary."""
    if name == "blocking.evaluate_pairs":
        sp.counts["pairs"] = len(args[3])
    elif name == "candidates.induce_attr_candidates":
        sp.counts["kept"] = len(result)


@contextmanager
def instrument(recorder: Recorder, layers=SEARCH_LAYERS) -> Iterator[None]:
    """Replace every listed module attribute with a span-recording wrapper
    for the duration of the block, then put the originals back."""
    saved: list[tuple[object, str, object]] = []
    try:
        for name, module_name, attr in layers:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(recorder, name, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _wrap(recorder: Recorder, name: str, fn):
    def wrapper(*args, **kwargs):
        with recorder.span(name) as sp:
            result = fn(*args, **kwargs)
            _counting(name, sp, args, result)
            return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper
