"""Sanity of the provided substrate (synth_data + DuckDB oracle, the test
JVM's memory) and an integration test: Affidavit explaining a transformed
snapshot of a TPC-H-lite table."""

from repro import synth_data
from repro.bench.instances import make_instance
from repro.bench.metrics import evaluate_explanation
from repro.core import AffidavitConfig, run_affidavit
from repro.oracle import assert_equivalent


def test_lineitem_aggregation_oracle(spark):
    li = synth_data.lineitem(spark, sf=0.001, seed=0)
    agg = li.groupBy("l_returnflag").count().withColumnRenamed("count", "n")
    assert_equivalent(
        agg,
        "SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n "
        "FROM li GROUP BY l_returnflag",
        li=li,
    )


def test_orders_snapshot_explained(spark):
    """End-to-end on TPC-H-lite: orders gets its own update + reassigned-key
    treatment; Affidavit must translate the core correctly."""
    pdf = synth_data.orders(spark, sf=0.0003, seed=3).toPandas()
    pdf = pdf.drop(columns=["o_orderkey"])  # fully distinct; §5.1 would drop it
    pdf["o_orderdate"] = pdf["o_orderdate"].astype(str)
    inst = make_instance(spark, pdf, eta=0.3, tau=0.3, seed=17)
    expl, _ = run_affidavit(
        inst.problem, AffidavitConfig(start="id", beta=1, queue_width=2, seed=17)
    )
    r = evaluate_explanation(inst, expl, runtime_s=0.0)
    assert r.acc >= 0.95
    assert r.dcore >= 0.9
    assert r.dcosts <= 1.1


def test_driver_mem_fits_the_machine(monkeypatch):
    """Without SPARK_DRIVER_MEM, the test JVM's heap is no larger than the
    machine's memory."""
    import conftest

    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    with open("/proc/meminfo") as f:
        kib = next(int(ln.split()[1]) for ln in f if ln.startswith("MemTotal:"))
    mem = conftest._driver_mem()
    assert mem.endswith("g")
    assert int(mem[:-1]) << 20 <= kib
