"""End-to-end searches (Algorithm 1) on the paper's running example and on
controlled miniature instances."""
import dataclasses
from collections import Counter

import pytest
from pyspark import StorageLevel

from repro.bench.running_example import (
    E1_CORE_SIZE,
    E1_COST,
    E1_INSERTED,
    running_example_problem,
)
from repro.core import AffidavitConfig, affidavit, blocking, overlap_init, run_affidavit
from repro.core.blocking import evaluate_pairs, state_overlap, with_block_key
from repro.core.functions import (
    ConstantValue,
    Identity,
    PrefixReplacement,
    Scale,
    Uppercasing,
    ValueMapping,
)

from .util import cached_plans, make_problem


@pytest.fixture(scope="module")
def i1(spark):
    return running_example_problem(spark)


def _pandas_overlap(attrs, s_pdf, t_pdf, state) -> int:
    """M(H) from pandas copies of the snapshots: the sum over blocks of
    min(#s, #t), a block being the tuple of projected values (None equal to
    None), source values through each function's scalar ``apply``."""
    decided = [(attrs[i], f) for i, f in state.decided()]
    s_blocks = Counter(
        tuple(f.apply(r[a]) for a, f in decided) for r in s_pdf.to_dict("records")
    )
    t_blocks = Counter(
        tuple(r[a] for a, _ in decided) for r in t_pdf.to_dict("records")
    )
    return sum(min(n, t_blocks[k]) for k, n in s_blocks.items())


@pytest.fixture(scope="module")
def i1_oracle(i1):
    """M(H) on I1 in pandas, from copies of the snapshots taken before any
    search."""
    s_pdf, t_pdf = i1.source.toPandas(), i1.target.toPandas()
    return lambda state: _pandas_overlap(i1.attrs, s_pdf, t_pdf, state)


@pytest.fixture(scope="module")
def i1_overlaps():
    """What ``i1_result`` records: every overlap its search computes, as
    (name, Spark M, pandas M); how many ``evaluate_pairs`` calls there were
    and were checked; and each keyed source frame's state, by the frame's
    ``id`` (the frame is kept, so its id is not reused)."""
    return {"records": [], "evaluate_calls": 0, "evaluate_checked": 0, "keyed": {}}


@pytest.fixture(scope="module")
def i1_result(i1, i1_oracle, i1_overlaps):
    """The flagship run: H^id configuration of §5.2 on Figure 1's I1, with
    its overlaps shadowed by pandas. The wrappers start no Spark action."""
    keyed = i1_overlaps["keyed"]

    def keying(problem, state):
        s, t = with_block_key(problem, state)
        keyed[id(s)] = (s, state)
        return s, t

    def candidates(problem, s_keyed, t_keyed, pairs):
        got = evaluate_pairs(problem, s_keyed, t_keyed, pairs)
        i1_overlaps["evaluate_calls"] += 1
        if id(s_keyed) in keyed:
            i1_overlaps["evaluate_checked"] += 1
            state = keyed[id(s_keyed)][1]
            i1_overlaps["records"] += [
                ("evaluate_pairs", m, i1_oracle(state.extend(i, f)))
                for m, (i, f) in zip(got, pairs)
            ]
        return got

    def overlap(problem, state):
        m = state_overlap(problem, state)
        i1_overlaps["records"].append(("state_overlap", m, i1_oracle(state)))
        return m

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(affidavit, "with_block_key", keying)
        mp.setattr(affidavit, "evaluate_pairs", candidates)
        mp.setattr(blocking, "state_overlap", overlap)
        return run_affidavit(
            i1, AffidavitConfig(start="id", beta=2, queue_width=5, seed=1)
        )


def test_running_example_matches_e1_cost(i1_result):
    expl, _ = i1_result
    assert expl.cost(0.5) <= E1_COST
    assert expl.core_size == E1_CORE_SIZE
    assert expl.n_inserted == E1_INSERTED


def test_running_example_learns_paper_functions(i1, i1_result):
    expl, _ = i1_result
    by_attr = dict(zip(i1.attrs, expl.functions))
    assert by_attr["Val"] == Scale(1.0 / 1000)
    assert by_attr["Unit"] == ConstantValue("k $")
    assert by_attr["Date"] == PrefixReplacement("9999123", "2018070")
    assert by_attr["Type"] == Identity()
    assert by_attr["Org"] == Identity()
    assert isinstance(by_attr["ID1"], ValueMapping)
    assert isinstance(by_attr["ID2"], ValueMapping)


def test_running_example_diagnostics(i1_result):
    _, diag = i1_result
    assert diag.end_state is not None and diag.end_state.is_end
    assert diag.stop_reason == "end_state"
    # I1's work for seed 1, the same at 8 and 64 shuffle partitions: the
    # guard that the poll order holds
    assert diag.polls == 27
    assert diag.generated == 39
    assert diag.start_states == 7  # one per attribute for H^id


def test_running_example_overlaps_match_pandas(
    i1, i1_oracle, i1_result, i1_overlaps
):
    """Every M(H) and M(H + f) the I1 search computed equals its pandas
    value, and every ``evaluate_pairs`` call was checked. The search calls
    ``state_overlap`` only on finalized states, whose blocks may all hold
    as many source as target records, so after the search it is also
    checked on every state the search keyed."""
    keyed = {st.signature(): st for _, st in i1_overlaps["keyed"].values()}
    records = i1_overlaps["records"] + [
        ("state_overlap", state_overlap(i1, st), i1_oracle(st))
        for st in keyed.values()
    ]
    assert {name for name, _, _ in records} == {"evaluate_pairs", "state_overlap"}
    assert [r for r in records if r[1] != r[2]] == []
    assert i1_overlaps["evaluate_checked"] == i1_overlaps["evaluate_calls"] > 0


def test_identical_snapshots_identity_solution(spark):
    rows = [(f"k{i}", f"v{i % 3}") for i in range(12)]
    p = make_problem(spark, ["k", "v"], rows, rows)
    expl, _ = run_affidavit(p, AffidavitConfig(start="id", beta=1, queue_width=1, seed=0))
    assert expl.core_size == 12
    assert expl.n_inserted == 0
    assert all(isinstance(f, Identity) for f in expl.functions)
    assert expl.cost(0.5) == 0.0


def test_single_transformed_attribute(spark):
    src = [(f"k{i:02d}", f"name{i % 4}", "usd") for i in range(16)]
    tgt = [(f"k{i:02d}", f"name{i % 4}", "USD") for i in range(16)]
    p = make_problem(spark, ["k", "n", "u"], src, tgt)
    expl, _ = run_affidavit(p, AffidavitConfig(start="id", beta=1, queue_width=2, seed=2))
    assert expl.core_size == 16
    by_attr = dict(zip(p.attrs, expl.functions))
    assert by_attr["u"] in (Uppercasing(), ConstantValue("USD"))
    assert expl.cost(0.5) <= 2  # at most one constant parameter


def test_insertions_and_deletions_detected(spark):
    src = [(f"k{i:02d}", f"v{i % 3}") for i in range(10)]
    tgt = [(f"k{i:02d}", f"v{i % 3}") for i in range(8)] + [("new1", "x"), ("new2", "y")]
    del src[0]  # k00 deleted; k08, k09 deleted; new1/new2 inserted
    p = make_problem(spark, ["k", "v"], src, tgt)
    expl, _ = run_affidavit(p, AffidavitConfig(start="id", beta=1, queue_width=1, seed=0))
    assert expl.core_size == 7  # k01..k07
    # source k01..k09; target k00..k07 plus new1 and new2: core k01..k07,
    # deleted k08 and k09, inserted k00, new1 and new2
    assert expl.n_inserted == 3
    assert expl.n_deleted == 2


def test_overlap_start_runs(spark):
    # pk permuted by i -> 7i mod 15 (a bijection no cheap function fits, so
    # the optimal explanation needs a value mapping for it: cost 2*15 = 30,
    # cheaper than losing core records).
    src = [(f"k{i}", f"v{i % 3}", str(i)) for i in range(15)]
    tgt = [(f"k{i}", f"v{i % 3}", str((i * 7) % 15)) for i in range(15)]
    p = make_problem(spark, ["k", "v", "pk"], src, tgt)
    expl, diag = run_affidavit(
        p, AffidavitConfig(start="overlap", beta=1, queue_width=1, seed=0)
    )
    assert expl.core_size == 15
    assert isinstance(dict(zip(p.attrs, expl.functions))["pk"], ValueMapping)
    assert diag.start_states == 1


def test_empty_start_runs(spark):
    rows = [(f"k{i}", "c") for i in range(8)]
    p = make_problem(spark, ["k", "v"], rows, rows)
    expl, _ = run_affidavit(p, AffidavitConfig(start="empty", beta=1, queue_width=2, seed=0))
    assert expl.core_size == 8


def test_max_polls_stop_is_reported(spark, monkeypatch):
    """A search cut by ``MAX_POLLS`` says so and returns E_empty."""
    rows = [(f"k{i}", f"v{i % 3}") for i in range(6)]
    p = make_problem(spark, ["k", "v"], rows, rows)
    monkeypatch.setattr(affidavit, "MAX_POLLS", 1)
    expl, diag = run_affidavit(
        p, AffidavitConfig(start="id", beta=1, queue_width=1, seed=0)
    )
    assert diag.polls == 1
    assert diag.stop_reason == "max_polls"
    assert diag.end_state is None
    assert expl.core_size == 0 and expl.n_inserted == 6


def test_unknown_start_raises(spark):
    rows = [("a", "b")]
    p = make_problem(spark, ["x", "y"], rows, rows)
    with pytest.raises(ValueError):
        run_affidavit(p, AffidavitConfig(start="bogus"))


@pytest.mark.parametrize(
    "field, value",
    [
        ("alpha", -1),
        ("alpha", 1.5),
        ("beta", 0),
        ("queue_width", 0),
        ("max_block_size", 0),
        ("start", "bogus"),
    ],
)
def test_bad_config_raises_at_construction(field, value):
    with pytest.raises(ValueError, match=field):
        AffidavitConfig(**{field: value})


def test_failed_poll_releases_its_cache(spark, monkeypatch):
    """A poll that raises after the alignment is cached still unpersists
    it, with the keyed snapshots."""

    def fail(*args, **kwargs):
        raise RuntimeError("evaluate_pairs failed")

    rows = [(f"k{i}", f"v{i % 3}") for i in range(6)]
    p = make_problem(spark, ["k", "v"], rows, rows)
    before = cached_plans(spark)
    monkeypatch.setattr(affidavit, "evaluate_pairs", fail)
    with pytest.raises(RuntimeError, match="evaluate_pairs failed"):
        run_affidavit(p, AffidavitConfig(start="empty", beta=1, queue_width=1))
    assert cached_plans(spark) == before


class _Failing:
    """Raises on a call or on any attribute read."""

    def __call__(self, *args):
        raise RuntimeError("Hs failed")

    __getattr__ = __call__


@pytest.mark.parametrize("name", ["Window", "SearchState"])
def test_failed_hs_start_releases_its_caches(spark, monkeypatch, name):
    """An Hs start that raises releases what it cached: through ``Window``
    once ``contrib`` is cached but before any Spark action reads it, and
    through ``SearchState`` once ``contrib`` and ``best`` are cached and
    read."""
    src = [(f"h{i}", f"x{i % 2}") for i in range(8)]
    tgt = [(f"h{i}", f"x{(i + 1) % 2}") for i in range(8)]
    p = make_problem(spark, ["k", "v"], src, tgt)
    before = cached_plans(spark)
    monkeypatch.setattr(overlap_init, name, _Failing())
    with pytest.raises(RuntimeError, match="Hs failed"):
        overlap_init.overlap_start_state(p)
    assert cached_plans(spark) == before


@pytest.mark.parametrize("read", [True, False], ids=["read", "never_read"])
def test_search_that_leaves_a_cache_raises(spark, monkeypatch, read):
    """A poll that leaves a frame cached, read or not, makes the search
    raise, naming the cached-plan counts before and after."""
    leaked = []
    real = affidavit._Search.extensions

    def leaky(self, h):
        leaked.append(self.p.source.limit(1).cache())  # a plan no search reads
        if read:
            leaked[-1].count()
        return real(self, h)

    rows = [(f"l{i}", f"u{i % 3}") for i in range(6)]
    p = make_problem(spark, ["k", "v"], rows, rows)
    before = cached_plans(spark)
    monkeypatch.setattr(affidavit._Search, "extensions", leaky)
    try:
        with pytest.raises(
            RuntimeError, match=f"began with {before} .* ended with {before + 1}"
        ):
            run_affidavit(p, AffidavitConfig(start="id", beta=1, queue_width=1))
    finally:
        for df in leaked:
            df.unpersist()


def test_end_state_core_must_match_its_overlap(spark, monkeypatch):
    """An end state whose stored M(H) differs from its Prop. 3.6 core is an
    error, and the search leaves no cache behind."""
    real = affidavit.explanation_from_state

    def off_by_one(problem, state):
        expl = real(problem, state)
        return dataclasses.replace(expl, core_size=expl.core_size + 1)

    rows = [(f"c{i}", f"w{i % 2}") for i in range(10)]
    p = make_problem(spark, ["k", "v"], rows, rows)
    before = cached_plans(spark)
    monkeypatch.setattr(affidavit, "explanation_from_state", off_by_one)
    with pytest.raises(RuntimeError, match=r"core 11 != M\(H\) 10"):
        run_affidavit(p, AffidavitConfig(start="id", beta=1, queue_width=1, seed=0))
    assert cached_plans(spark) == before


def test_held_explanation_survives_a_second_search(spark):
    """An explanation holds no cache: its core pairs stay uncached and read
    back the same after a second search over equal snapshots, and each
    search leaves the cached-plan count where it found it."""
    # six distinct tuples, each twice, so the pairing within a block is drawn
    src = [(f"e{i % 2}", f"d{i % 3}") for i in range(12)]
    tgt = [(f"e{i % 2}", f"D{i % 3}") for i in range(12)]
    cfg = AffidavitConfig(start="id", beta=1, queue_width=1, seed=0)
    before = cached_plans(spark)
    first, _ = run_affidavit(make_problem(spark, ["k", "v"], src, tgt), cfg)
    assert cached_plans(spark) == before
    pairs = sorted(first.core_pairs.collect())
    assert len(pairs) == first.core_size == 12
    run_affidavit(make_problem(spark, ["k", "v"], src, tgt), cfg)
    assert cached_plans(spark) == before
    assert sorted(first.core_pairs.collect()) == pairs
    assert first.core_pairs.storageLevel == StorageLevel.NONE


def test_poll_batches_then_finalizes(spark, monkeypatch):
    """With no induced candidate, a poll tries the beta most determined
    attributes together, then each other one alone, and then finalizes every
    undecided attribute with a value mapping."""
    batches = []
    bulk = affidavit.greedy_maps_bulk

    def spy(aligned, attrs):
        batches.append(list(attrs))
        return bulk(aligned, attrs)

    monkeypatch.setattr(
        affidavit, "indeterminacy", lambda s, t, attrs: {"a": 3.0, "b": 1.0, "c": 2.0}
    )
    monkeypatch.setattr(affidavit, "induce_attr_candidates", lambda *a, **k: [])
    monkeypatch.setattr(affidavit, "greedy_maps_bulk", spy)
    src = [(f"a{i}", f"b{i}", f"c{i}") for i in range(6)]
    tgt = [(f"x{i}", f"y{i}", f"z{i}") for i in range(6)]
    p = make_problem(spark, ["a", "b", "c"], src, tgt)
    expl, diag = run_affidavit(
        p, AffidavitConfig(start="empty", beta=2, queue_width=2, seed=0)
    )
    assert batches == [["b", "c"], ["a"]]
    assert all(isinstance(f, ValueMapping) for f in expl.functions)
    assert diag.stop_reason == "end_state"
