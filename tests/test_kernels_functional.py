"""Functional correctness of the benchmark kernels.

The kernels really compute: BFS produces true distances, SW true
alignment scores, atomics distribute work exactly once, etc.  These tests
run them on a small machine and check against host references.
"""

import numpy as np
import pytest

import repro
from repro.arch.config import small_config
from repro.kernels import bfs, pagerank, smithwaterman, spgemm
from repro.kernels.registry import SUITE, fast_args
from repro.workloads.graphs import roadnet_like, wiki_vote_like


@pytest.fixture(scope="module")
def cfg():
    return small_config(4, 4)


class TestBfsFunctional:
    def test_distances_match_reference(self, cfg):
        graph = roadnet_like(width=10, height=10)
        args = bfs.make_args(graph=graph, source=0)
        repro.run(cfg, bfs.KERNEL, args)
        expected = bfs.reference_bfs(graph, 0)
        assert np.array_equal(args["state"]["distance"], expected)

    def test_distances_match_on_power_law(self, cfg):
        graph = wiki_vote_like(scale=0.1)
        args = bfs.make_args(graph=graph, source=1)
        repro.run(cfg, bfs.KERNEL, args)
        expected = bfs.reference_bfs(graph, 1)
        assert np.array_equal(args["state"]["distance"], expected)

    def test_unreachable_stay_minus_one(self, cfg):
        graph = roadnet_like(width=8, height=8, drop=0.5)
        args = bfs.make_args(graph=graph, source=0)
        repro.run(cfg, bfs.KERNEL, args)
        expected = bfs.reference_bfs(graph, 0)
        assert np.array_equal(args["state"]["distance"] < 0, expected < 0)

    def test_direction_switch_used_on_dense_graph(self, cfg):
        graph = wiki_vote_like(scale=0.15)
        assert bfs._should_pull(graph, {
            "frontier": list(range(graph.num_rows // 2)),
            "distance": np.full(graph.num_rows, -1),
        })


class TestSmithWatermanFunctional:
    def test_scores_match_reference(self, cfg):
        args = smithwaterman.make_args(query_len=8, ref_len=10, tiles=16)
        repro.run(cfg, smithwaterman.KERNEL, args)
        computed = args["computed_scores"]
        assert len(computed) == 16
        for pair, score in computed.items():
            expected = smithwaterman.reference_score(
                args["query_data"][pair], args["ref_data"][pair])
            assert score == expected

    def test_identical_sequences_score_match_times_length(self):
        seq = np.array([0, 1, 2, 3] * 4, dtype=np.int8)
        assert smithwaterman.reference_score(seq, seq) == \
            smithwaterman.MATCH * len(seq)


class TestPageRankReference:
    def test_reference_sums_to_one(self):
        g = wiki_vote_like(scale=0.1)
        ranks = pagerank.reference_pagerank(g, iters=3)
        # Pull-formulated PR without dangling redistribution: bounded mass.
        assert 0.3 < ranks.sum() <= 1.5
        assert np.all(ranks > 0)

    def test_hub_ranks_higher(self):
        g = wiki_vote_like(scale=0.2)
        ranks = pagerank.reference_pagerank(g, iters=5)
        hub = int(np.argmax(g.degrees()))  # most in-edges
        assert ranks[hub] > np.median(ranks)


class TestWorkDistribution:
    def test_spgemm_processes_every_row_once(self, cfg):
        args = spgemm.make_args(scale=0.1)
        res = repro.run(cfg, spgemm.KERNEL, args, keep_machine=True)
        n = args["matrix"].num_rows
        counter_val = res.machine.cell(0, 0).peek(args["counters"])
        # Counter overshoots by at most one grab per tile.
        assert n <= counter_val <= n + 16

    def test_all_kernels_complete_on_tiny_machine(self, cfg):
        for name, bench in SUITE.items():
            res = repro.run(cfg, bench.kernel, fast_args(name, tiles=16))
            assert res.cycles > 0, name
            assert res.instructions > 0, name

    def test_all_kernels_deterministic(self, cfg):
        for name in ("AES", "SpGEMM", "BH"):
            bench = SUITE[name]
            a = repro.run(cfg, bench.kernel, fast_args(name, tiles=16))
            b = repro.run(cfg, bench.kernel, fast_args(name, tiles=16))
            assert a.cycles == b.cycles, name
