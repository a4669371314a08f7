#!/usr/bin/env python
"""Reproduce Table 2 (paper §5.3): the full 17-dataset x 3-setting x
2-configuration grid, paper numbers printed next to measured ones as a
markdown table. Cells run one at a time.

Usage (spark-submit or plain python):

    python jobs/table2.py                      # full grid, 1 instance/cell
    python jobs/table2.py --datasets iris chess --instances 3
    python jobs/table2.py --markdown-out results/table2.md
"""
import argparse
import sys
import time

from repro.bench.datasets import DATASETS
from repro.bench.session import build_session
from repro.bench.table2 import SETTINGS, format_rows, run_table2


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--datasets", nargs="*", default=None, choices=list(DATASETS))
    ap.add_argument(
        "--settings",
        nargs="*",
        type=float,
        default=None,
        help="eta=tau values, e.g. --settings 0.3 0.7",
    )
    ap.add_argument("--configs", nargs="*", default=None, choices=["Hs", "Hid"])
    ap.add_argument("--instances", type=int, default=1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--markdown-out", default=None)
    args = ap.parse_args(argv)

    settings = (
        [(v, v) for v in args.settings] if args.settings else SETTINGS
    )
    spark = build_session("repro-table2")
    spark.sparkContext.setLogLevel("ERROR")
    t0 = time.time()
    rows = run_table2(
        spark,
        datasets=args.datasets,
        settings=settings,
        configs=args.configs,
        n_instances=args.instances,
        seed=args.seed,
    )
    text = format_rows(rows)
    print(text)
    print(f"\n[{len(rows)} cells x {args.instances} instance(s) "
          f"in {time.time() - t0:.0f}s wall]")
    if args.markdown_out:
        with open(args.markdown_out, "w") as fh:
            fh.write(text + "\n")
        print(f"markdown written to {args.markdown_out}")
    spark.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
