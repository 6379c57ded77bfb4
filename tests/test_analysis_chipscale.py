"""NoC closed forms and chip-scale projections."""

import pytest

import repro
from repro.noc.analysis import (
    bisection_channels,
    hb_wiring_density,
    hierarchical_wiring_density,
    mesh_saturation_injection_rate,
    ruche_bisection_gain,
    wiring_density_ratio,
    zero_load_diameter,
)
from repro.experiments.chip_scale import (
    compare_transfer_models,
    hundred_k_projection,
    peak_instruction_rate,
    project_chip,
)


class TestNocAnalysis:
    def test_2_over_n_saturation(self):
        """The paper's flat-manycore limit: 2/N per tile."""
        assert mesh_saturation_injection_rate(32) == pytest.approx(2 / 32)
        assert mesh_saturation_injection_rate(316) < 0.007  # ~100K cores

    def test_saturation_rejects_bad_n(self):
        with pytest.raises(ValueError):
            mesh_saturation_injection_rate(0)

    def test_ruche_4x_bisection(self):
        assert ruche_bisection_gain(3) == 4.0  # the paper's 4x
        assert ruche_bisection_gain(0) == 1.0

    def test_bisection_channels_match_topology(self):
        """The formula agrees with the constructed topology's cut."""
        from repro.arch.geometry import CellGeometry, ChipGeometry
        from repro.noc.topology import Topology

        chip = ChipGeometry(CellGeometry(16, 8), 1, 1)
        topo = Topology(chip, ruche=True)
        cut_one_dir = len(topo.cut_links_x(7.5)) // 2
        assert cut_one_dir == bisection_channels(16, chip.grid_rows, 3)

    def test_wiring_density_ratio_in_paper_band(self):
        """Paper: 21.6x horizontal, 7.0x vertical vs the 1024-bit mesh."""
        r = wiring_density_ratio()
        assert 15 < r.bits_per_tile_row_horizontal < 30
        assert 4 < r.bits_per_tile_col_vertical < 10

    def test_hb_wiring_h_v_ratio(self):
        d = hb_wiring_density()
        assert d.bits_per_tile_row_horizontal == 4 * d.bits_per_tile_col_vertical

    def test_hierarchical_density_shares_channel(self):
        d = hierarchical_wiring_density(1024, 8, 8)
        assert d.bits_per_tile_row_horizontal == pytest.approx(256)

    def test_diameter_ruche_vs_mesh(self):
        assert zero_load_diameter(16, 8, 3) < zero_load_diameter(16, 8, 1)
        assert zero_load_diameter(16, 8, 1) == 22


class TestChipScale:
    def test_2048_core_peak_is_2_8_tera(self):
        assert peak_instruction_rate() == pytest.approx(2.76e12, rel=0.01)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            peak_instruction_rate(cores=0)

    def test_100k_projection(self):
        out = hundred_k_projection()
        assert out["cores"] > 100_000
        assert out["peak_tera_ops"] > 100

    def test_project_chip_from_result(self, tiny_config):
        from repro.kernels import registry

        bench = registry.SUITE["AES"]
        res = repro.run(tiny_config, bench.kernel,
                        registry.fast_args("AES"))
        p = project_chip("AES", cells_x=8, cells_y=8, result=res,
                         config=tiny_config,
                         exchange_bytes_per_cell=4096)
        assert p.cells == 64
        assert p.total_cycles > p.cell_cycles
        assert p.aggregate_instructions == res.instructions * 64
        assert 0 < p.transfer_fraction < 1

    def test_transfer_model_comparison(self):
        cmp = compare_transfer_models(1 << 20, sparse=True)
        assert cmp["hb_advantage"] > 5
        dense = compare_transfer_models(1 << 20, sparse=False)
        assert dense["hb_advantage"] < cmp["hb_advantage"]
