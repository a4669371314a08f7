"""Blocking substrate (Defs. 4.3/4.4) — every aggregation primitive is
cross-checked against the DuckDB oracle."""
import pandas as pd
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.blocking import (
    BK,
    evaluate_pairs,
    indeterminacy,
    mixed,
    pair_in_blocks,
    state_overlap,
    with_block_key,
)
from repro.core.explanation import explanation_from_functions
from repro.core.functions import (
    ConstantValue,
    Identity,
    Prefixing,
    Scale,
    Uppercasing,
)
from repro.core.state import RID, UNDECIDED, SearchState
from repro.oracle import assert_equivalent

from .util import make_problem

ATTRS = ["a", "b", "c"]
SRC = [
    ("x", "1", "p"),
    ("x", "2", "p"),
    ("y", "3", "q"),
    ("y", "4", "q"),
    ("z", "5", "r"),
]
TGT = [
    ("x", "10", "P"),
    ("x", "20", "P"),
    ("x", "99", "P"),
    ("y", "30", "Q"),
    ("w", "70", "W"),
]


@pytest.fixture(scope="module")
def problem(spark):
    return make_problem(spark, ATTRS, SRC, TGT)


def test_empty_state_single_block(problem):
    state = SearchState((UNDECIDED, UNDECIDED, UNDECIDED))
    s, t = with_block_key(problem, state)
    assert s.select(BK).distinct().count() == 1
    assert state_overlap(problem, state) == min(len(SRC), len(TGT))


def test_state_overlap_identity_matches_oracle(problem, spark):
    state = SearchState((Identity(), UNDECIDED, UNDECIDED))
    m = state_overlap(problem, state)
    sql = """
        WITH s AS (SELECT a, count(*) AS c FROM src GROUP BY a),
             t AS (SELECT a, count(*) AS c FROM tgt GROUP BY a)
        SELECT CAST(coalesce(sum(least(s.c, t.c)), 0) AS BIGINT) AS m
        FROM s JOIN t USING (a)
    """
    spark_df = spark.createDataFrame([(m,)], "m bigint")
    assert_equivalent(
        spark_df,
        sql,
        src=pd.DataFrame(SRC, columns=ATTRS),
        tgt=pd.DataFrame(TGT, columns=ATTRS),
    )


def test_state_overlap_applies_source_functions(problem):
    # uppercasing attribute c makes source p/q match target P/Q
    st_raw = SearchState((UNDECIDED, UNDECIDED, Identity()))
    st_up = SearchState((UNDECIDED, UNDECIDED, Uppercasing()))
    assert state_overlap(problem, st_raw) == 0
    # blocks P (2 src vs 3 tgt -> 2) and Q (2 src vs 1 tgt -> 1)
    assert state_overlap(problem, st_up) == 3


def test_state_overlap_counts_min_per_block(problem):
    st = SearchState((Identity(), UNDECIDED, UNDECIDED))
    # block x: 2 src vs 3 tgt -> 2 ; block y: 2 vs 1 -> 1 ; z/w unmatched
    assert state_overlap(problem, st) == 3


def test_cs_minus_delta_equals_ct(problem, spark):
    """DESIGN.md note 2: blocks partition S and T, hence cs - Delta = ct."""
    state = SearchState((Identity(), UNDECIDED, UNDECIDED))
    s, t = with_block_key(problem, state)
    sc, tc = (
        {tuple(r[BK]): r["count"] for r in df.groupBy(BK).count().collect()}
        for df in (s, t)
    )
    keys = set(sc) | set(tc)
    cs = sum(max(0, sc.get(k, 0) - tc.get(k, 0)) for k in keys)
    ct = sum(max(0, tc.get(k, 0) - sc.get(k, 0)) for k in keys)
    delta = len(SRC) - len(TGT)
    assert cs - delta == ct
    assert ct == len(TGT) - state_overlap(problem, state)


def test_indeterminacy_mixed_blocks_only(problem):
    state = SearchState((Identity(), UNDECIDED, UNDECIDED))
    s, t = with_block_key(problem, state)
    ind = indeterminacy(s, t, ["b", "c"])
    # mixed blocks are x (2 distinct b) and y (2 distinct b); c has 1 each
    assert ind["b"] == 2.0
    assert ind["c"] == 1.0


def test_indeterminacy_no_mixed_blocks_is_inf(spark):
    p = make_problem(spark, ["a"], [("x",)], [("y",)])
    s, t = with_block_key(p, SearchState((Identity(),)))
    assert indeterminacy(s, t, ["a"]) == {"a": float("inf")}


def test_evaluate_pairs_matches_individual_state_overlap(problem):
    base = SearchState((Identity(), UNDECIDED, UNDECIDED))
    s, t = with_block_key(problem, base)
    pairs = [
        (2, Uppercasing()),
        (2, Identity()),
        (2, ConstantValue("P")),
        (1, Scale(10.0)),
    ]
    got = evaluate_pairs(problem, s, t, pairs)
    want = [
        state_overlap(problem, base.extend(i, f)) for i, f in pairs
    ]
    assert got == want


def test_evaluate_pairs_oracle_check(problem, spark):
    """Identity extension on b under identity-on-a base == two-column
    group-count overlap in DuckDB."""
    base = SearchState((Identity(), UNDECIDED, UNDECIDED))
    s, t = with_block_key(problem, base)
    (m,) = evaluate_pairs(problem, s, t, [(1, Identity())])
    _assert_ab_overlap(spark, m, SRC, TGT, ATTRS)


def _assert_ab_overlap(spark, m, src_rows, tgt_rows, attrs):
    """``m`` equals the overlap of the (a, b) group counts in DuckDB, with
    null a value like any other."""
    sql = """
        WITH s AS (SELECT a, b, count(*) AS c FROM src GROUP BY a, b),
             t AS (SELECT a, b, count(*) AS c FROM tgt GROUP BY a, b)
        SELECT CAST(coalesce(sum(least(s.c, t.c)), 0) AS BIGINT) AS m
        FROM s JOIN t
          ON s.a IS NOT DISTINCT FROM t.a AND s.b IS NOT DISTINCT FROM t.b
    """
    assert_equivalent(
        spark.createDataFrame([(m,)], "m bigint"),
        sql,
        src=pd.DataFrame(src_rows, columns=attrs),
        tgt=pd.DataFrame(tgt_rows, columns=attrs),
    )


# A value holding the byte "\x1f" (a common text separator): the tuples
# share no (a, b) group, so no block may join them.
SEP_SRC = [("x\x1fy", "z")]
SEP_TGT = [("x", "y\x1fz")]


@pytest.fixture(scope="module")
def sep_problem(spark):
    return make_problem(spark, ["a", "b"], SEP_SRC, SEP_TGT)


def test_evaluate_pairs_separator_in_values(sep_problem, spark):
    base = SearchState((Identity(), UNDECIDED))
    s, t = with_block_key(sep_problem, base)
    (m,) = evaluate_pairs(sep_problem, s, t, [(1, Identity())])
    _assert_ab_overlap(spark, m, SEP_SRC, SEP_TGT, ["a", "b"])


def test_state_overlap_separator_in_values(sep_problem, spark):
    m = state_overlap(sep_problem, SearchState((Identity(), Identity())))
    assert m == 0
    _assert_ab_overlap(spark, m, SEP_SRC, SEP_TGT, ["a", "b"])


def test_core_size_separator_in_values(sep_problem, spark):
    e = explanation_from_functions(sep_problem, (Identity(), Identity()))
    assert e.core_size == 0
    _assert_ab_overlap(spark, e.core_size, SEP_SRC, SEP_TGT, ["a", "b"])


# Ordinary values next to a separator byte, a NUL byte, "\x00N" and the
# empty string: a block is the tuple of values, null included, whatever
# characters they hold.
ODD_VALUES = ["x", "y", "", "\x1f", "\x00", "\x00N", None]
_value = st.sampled_from(ODD_VALUES)
_rows = st.lists(st.tuples(_value, _value), max_size=8)
_text = st.sampled_from(ODD_VALUES[:-1])
_first_fn = st.one_of(st.builds(ConstantValue, _text), st.builds(Prefixing, _text))


@settings(max_examples=16, derandomize=True, database=None, deadline=None)
@given(src=_rows, tgt=_rows, f=_first_fn)
@example(src=[("\x00N", "x")], tgt=[(None, "x")], f=Prefixing(""))
@example(src=[("\x1f", "")], tgt=[("", "\x1f")], f=Prefixing(""))
@example(src=[(None, "")], tgt=[("", None)], f=Prefixing(""))
def test_overlaps_match_tuple_grouping(spark, src, tgt, f):
    """M(H) under (f, id), the overlap of the extension a := f from (*, id)
    and the Prop. 3.6 core size under (f, id) all equal DuckDB's overlap
    of the (f(a), b) tuples."""
    p = make_problem(spark, ["a", "b"], src, tgt)
    m = state_overlap(p, SearchState((f, Identity())))
    (m_ext,) = evaluate_pairs(
        p, *with_block_key(p, SearchState((UNDECIDED, Identity()))), [(0, f)]
    )
    e = explanation_from_functions(p, (f, Identity()))
    assert m == m_ext == e.core_size
    moved = [(f.apply(a), b) for a, b in src]
    _assert_ab_overlap(spark, m, moved, tgt, ["a", "b"])


def test_evaluate_pairs_empty(problem):
    s, t = with_block_key(problem, SearchState((UNDECIDED,) * 3))
    assert evaluate_pairs(problem, s, t, []) == []


def test_null_values_block_consistently(spark):
    p = make_problem(spark, ["a", "b"], [(None, "1")], [(None, "1")])
    assert state_overlap(p, SearchState((Identity(), Identity()))) == 1


# Blocks under identity on k: "x" 3 source / 1 target, the null block 2/3,
# "d" 3/2 duplicate rows, "s" source only, "t" target only.
DRAW_SRC = [
    ("x", "1"), ("x", "2"), ("x", "3"), (None, "4"), (None, "5"),
    ("d", "7"), ("d", "7"), ("d", "7"), ("s", "9"),
]
DRAW_TGT = [
    ("x", "1"), (None, "4"), (None, "6"), (None, "8"), ("d", "7"), ("d", "7"),
    ("t", "0"),
]


@pytest.fixture(scope="module")
def draw_keyed(spark):
    p = make_problem(spark, ["k", "v"], DRAW_SRC, DRAW_TGT)
    s, t = with_block_key(p, SearchState((Identity(), UNDECIDED)))
    return s.cache(), t.cache()


def _draw_tables():
    src = pd.DataFrame(DRAW_SRC, columns=["k", "v"], dtype="object")
    tgt = pd.DataFrame(DRAW_TGT, columns=["k", "v"], dtype="object")
    src[RID] = range(len(src))
    tgt[RID] = range(len(tgt))
    return {"src": src, "tgt": tgt}


@pytest.mark.parametrize("side", ["src", "tgt"])
def test_mixed_matches_semi_join_oracle(draw_keyed, side):
    s, t = draw_keyed
    df, other, rest = (s, t, "tgt") if side == "src" else (t, s, "src")
    sql = f"""
        SELECT x.{RID} AS rid FROM {side} x
        WHERE EXISTS (SELECT 1 FROM {rest} y WHERE y.k IS NOT DISTINCT FROM x.k)
    """
    got = mixed(df, other).select(F.col(RID).alias("rid"))
    assert_equivalent(got, sql, **_draw_tables())


@pytest.mark.parametrize("seed", [0, 7])
def test_pair_in_blocks_pairs_min_per_block(draw_keyed, seed):
    """min(#s, #t) pairs per block (the null block and the block of
    duplicate rows included), each record used at most once."""
    s, t = draw_keyed
    pairs = pair_in_blocks(
        s.select(BK, F.col(RID).alias("s_rid"), F.col("k").alias("sk")),
        t.select(BK, F.col(RID).alias("t_rid"), F.col("k").alias("tk")),
        seed,
    ).cache()
    rows = pairs.collect()
    assert all(r["sk"] == r["tk"] for r in rows)
    assert len({r["s_rid"] for r in rows}) == len(rows)
    assert len({r["t_rid"] for r in rows}) == len(rows)
    sql = """
        WITH s AS (SELECT k, count(*) AS c FROM src GROUP BY k),
             t AS (SELECT k, count(*) AS c FROM tgt GROUP BY k)
        SELECT s.k AS k, CAST(least(s.c, t.c) AS BIGINT) AS n
        FROM s JOIN t ON s.k IS NOT DISTINCT FROM t.k
    """
    got = pairs.groupBy(F.col("sk").alias("k")).agg(F.count("*").alias("n"))
    assert_equivalent(got, sql, **_draw_tables())
    pairs.unpersist()
