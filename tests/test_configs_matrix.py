"""Every Table II machine runs real kernels end-to-end."""

import pytest

import repro
from repro.arch.config import TABLE_II
from repro.kernels.registry import SUITE, fast_args


@pytest.mark.parametrize("config_name", list(TABLE_II))
def test_aes_runs_on_every_table2_machine(config_name):
    cfg = TABLE_II[config_name]
    res = repro.run(cfg, SUITE["AES"].kernel, fast_args("AES"))
    assert res.cycles > 0
    assert res.num_tiles == cfg.cell.num_tiles
    assert sum(res.core_breakdown.values()) == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("config_name", ["HB-16x8", "HB-32x8"])
def test_spgemm_runs_on_wide_machines(config_name):
    cfg = TABLE_II[config_name]
    res = repro.run(cfg, SUITE["SpGEMM"].kernel, fast_args("SpGEMM"))
    assert res.cycles > 0
    assert res.cache_hit_rate is not None


def test_2cell_config_runs_both_cells():
    session = repro.Session(TABLE_II["HB-2x16x8"])
    session.launch(SUITE["AES"].kernel, fast_args("AES"), cell=(0, 0))
    session.launch(SUITE["BS"].kernel, fast_args("BS"), cell=(1, 0))
    results = session.run()
    assert len(results) == 2
    assert all(r.cycles > 0 for r in results)


def test_fig15_specs_cover_whole_suite():
    from repro.experiments.fig15_doubling import HALF_ARGS, UNIT_ARGS

    assert set(UNIT_ARGS) == set(SUITE)
    assert set(HALF_ARGS) == set(SUITE)


def test_fig11_order_is_memory_to_compute():
    """The registry's Fig 11 ordering starts irregular, ends low-comm."""
    from repro.kernels.registry import FIG11_ORDER

    assert SUITE[FIG11_ORDER[0]].category == "memory-irregular"
    assert SUITE[FIG11_ORDER[-1]].category == "compute-low-comm"
