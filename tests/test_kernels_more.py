"""Additional per-kernel behaviours: argument knobs and structure."""

import pytest

import repro
from repro.arch.config import small_config
from repro.kernels import (
    aes,
    barneshut,
    bfs,
    blackscholes,
    fft,
    jacobi,
    pagerank,
    sgemm,
    smithwaterman,
    spgemm,
)
from repro.workloads.graphs import uniform_random


@pytest.fixture(scope="module")
def cfg():
    return small_config(4, 4)


class TestArgumentKnobs:
    def test_aes_work_scales_cycles(self, cfg):
        small = repro.run(cfg, aes.KERNEL,
                          aes.make_args(blocks_per_tile=1, tiles=16))
        big = repro.run(cfg, aes.KERNEL,
                        aes.make_args(blocks_per_tile=4, tiles=16))
        assert big.cycles > 1.5 * small.cycles

    def test_bs_option_count_scales(self, cfg):
        small = repro.run(cfg, blackscholes.KERNEL,
                          blackscholes.make_args(options_per_tile=1,
                                                 tiles=16))
        big = repro.run(cfg, blackscholes.KERNEL,
                        blackscholes.make_args(options_per_tile=4,
                                               tiles=16))
        assert big.cycles > small.cycles

    def test_fft_requires_pow2(self):
        with pytest.raises(ValueError):
            fft.make_args(n=100)

    def test_sgemm_requires_multiple_of_tb(self, cfg):
        args = sgemm.make_args(n=18)  # not a multiple of 4
        with pytest.raises(ValueError):
            repro.run(cfg, sgemm.KERNEL, args)

    def test_jacobi_iters_scale(self, cfg):
        one = repro.run(cfg, jacobi.KERNEL,
                        jacobi.make_args(z_depth=16, iters=1, tiles=16))
        three = repro.run(cfg, jacobi.KERNEL,
                          jacobi.make_args(z_depth=16, iters=3, tiles=16))
        assert three.cycles > one.cycles

    def test_bh_theta_controls_work(self, cfg):
        tight = repro.run(cfg, barneshut.KERNEL,
                          barneshut.make_args(num_bodies=24, theta=0.3))
        loose = repro.run(cfg, barneshut.KERNEL,
                          barneshut.make_args(num_bodies=24, theta=1.2))
        assert tight.instructions > loose.instructions

    def test_bh_traverse_fraction(self, cfg):
        full = repro.run(cfg, barneshut.KERNEL,
                         barneshut.make_args(num_bodies=32))
        half_args = barneshut.make_args(num_bodies=32)
        half_args["traverse_fraction"] = 0.5
        half = repro.run(cfg, barneshut.KERNEL, half_args)
        assert half.cycles < full.cycles

    def test_pr_iters_scale(self, cfg):
        g = uniform_random(96, 4.0)
        one = repro.run(cfg, pagerank.KERNEL,
                        pagerank.make_args(graph=g, iters=1))
        two = repro.run(cfg, pagerank.KERNEL,
                        pagerank.make_args(graph=g, iters=2))
        assert two.cycles > 1.4 * one.cycles

    def test_spgemm_tasks_add_work(self, cfg):
        one = repro.run(cfg, spgemm.KERNEL,
                        spgemm.make_args(scale=0.1, tasks=1),
                        group_shape=(4, 4))
        # Same shape, two tasks across the two... 4x4 cell has one 4x4
        # group; wrap-around means the one group does task 0 only, so
        # give 2x2 groups for two real tasks.
        two = repro.run(cfg, spgemm.KERNEL,
                        spgemm.make_args(scale=0.1, tasks=4),
                        group_shape=(2, 2))
        assert two.instructions > one.instructions

    def test_sw_longer_sequences_cost_more(self, cfg):
        short = repro.run(cfg, smithwaterman.KERNEL,
                          smithwaterman.make_args(query_len=6, ref_len=8,
                                                  tiles=16))
        long_ = repro.run(cfg, smithwaterman.KERNEL,
                          smithwaterman.make_args(query_len=12, ref_len=16,
                                                  tiles=16))
        assert long_.cycles > short.cycles


class TestBfsStructure:
    def test_pull_heuristic_thresholds(self):
        import numpy as np

        g = uniform_random(128, 8.0)
        tiny_frontier = {"frontier": [0],
                         "distance": np.full(128, -1)}
        assert not bfs._should_pull(g, tiny_frontier)
        huge_frontier = {"frontier": list(range(64)),
                         "distance": np.full(128, -1)}
        assert bfs._should_pull(g, huge_frontier)

    def test_source_distance_zero(self, cfg):
        args = bfs.make_args(width=8, source=5)
        repro.run(cfg, bfs.KERNEL, args)
        assert args["state"]["distance"][5] == 0
