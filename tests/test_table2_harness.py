"""Table 2 harness: paper-number bookkeeping, cell execution, rendering."""
import time

import pytest

from repro.bench import table2
from repro.bench.datasets import DATASETS
from repro.bench.table2 import (
    CONFIG_NAMES,
    CellRow,
    PAPER,
    SETTINGS,
    format_rows,
    make_config,
    run_cell,
    scaled_block_threshold,
)
from repro.core.candidates import CONFIDENCE, SAMPLE_SIZE, THETA

from .util import cached_plans


def test_paper_table_complete():
    assert set(PAPER) == set(DATASETS)
    for ds, by_cfg in PAPER.items():
        assert set(by_cfg) == set(CONFIG_NAMES)
        for cfg, by_setting in by_cfg.items():
            assert set(by_setting) == set(SETTINGS)
            for cell in by_setting.values():
                assert len(cell) == 4
                t, dcore, dcosts, acc = cell
                assert t > 0 and dcore >= 0 and dcosts > 0 and 0 <= acc <= 1


def test_paper_spotchecks():
    """A few literal values from the printed table."""
    assert PAPER["chess"]["Hs"][(0.3, 0.3)] == (2.83, 0.0, 2.11, 0.43)
    assert PAPER["uniprot"]["Hid"][(0.3, 0.3)] == (49.52, 1.0, 1.01, 1.0)
    assert PAPER["fd-red-30"]["Hid"][(0.5, 0.5)] == (342.02, 1.0, 1.0, 1.0)


def test_make_config_matches_paper_settings():
    hs = make_config("Hs", "iris", seed=1)
    assert (hs.start, hs.beta, hs.queue_width) == ("overlap", 1, 1)
    hid = make_config("Hid", "iris", seed=1)
    assert (hid.start, hid.beta, hid.queue_width) == ("id", 2, 5)
    assert hs.alpha == hid.alpha == 0.5
    # theta and rho are the same in every configuration, so constants
    assert (THETA, CONFIDENCE, SAMPLE_SIZE) == (0.1, 0.95, 89)
    with pytest.raises(ValueError):
        make_config("nope", "iris", seed=1)


def test_scaled_block_threshold():
    # unscaled datasets keep the paper's 100000
    assert scaled_block_threshold("iris") == 100_000
    # chess: 28056 -> 3000 rows scales quadratically
    assert scaled_block_threshold("chess") == round(100_000 * (3000 / 28056) ** 2)
    assert scaled_block_threshold("chess") < 2000


def test_run_cell_smoke(spark):
    before = cached_plans(spark)
    row = run_cell(
        spark, "iris", (0.3, 0.3), "Hs", n_instances=1, seed=5, n_rows=120
    )
    # the cell's search releases every cache it opened
    assert cached_plans(spark) == before
    assert row.dataset == "iris" and row.config == "Hs"
    assert row.measured.t > 0
    assert row.measured.dcosts > 0 and 0 <= row.measured.acc <= 1
    assert row.paper == PAPER["iris"]["Hs"][(0.3, 0.3)]
    text = format_rows([row])
    assert text.startswith("| dataset")
    assert "| iris | 0.3 | Hs |" in text


def test_run_table2_runs_cells_one_at_a_time(monkeypatch):
    """Cells run in grid order, each alone, so a cell's ``t`` times only
    its own search."""
    calls, active = [], []

    def fake_run_cell(spark, dataset, setting, config_name, **_):
        assert not active, "two cells ran at once"
        active.append(dataset)
        time.sleep(0.01)
        calls.append((dataset, setting, config_name))
        active.pop()
        return CellRow(dataset, setting, config_name, None, (), 1)

    monkeypatch.setattr(table2, "run_cell", fake_run_cell)
    datasets, settings = ["iris", "chess"], [(0.3, 0.3), (0.7, 0.7)]
    grid = [(d, s, c) for d in datasets for s in settings for c in CONFIG_NAMES]
    rows = table2.run_table2(None, datasets=datasets, settings=settings)
    assert calls == grid
    assert [(r.dataset, r.setting, r.config) for r in rows] == grid
