"""Unit and cross-validation tests for Howard's algorithm
(repro.graphs.howard)."""

import random

import pytest

from repro.graphs.digraph import WeightedDigraph
from repro.graphs.howard import (
    maximum_cycle_mean_howard,
    minimum_cycle_mean_howard,
)
from repro.graphs.karp import cycle_mean, maximum_cycle_mean, minimum_cycle_mean


def random_graph(rng: random.Random, n: int, density: float = 0.4):
    g = WeightedDigraph()
    for i in range(n):
        g.add_node(i)
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                g.add_edge(u, v, rng.uniform(-5.0, 5.0))
    return g


class TestKnownInstances:
    def test_two_cycles(self):
        g = WeightedDigraph.from_edges(
            [(0, 1, 2.0), (1, 0, 4.0), (1, 2, 1.0), (2, 0, 3.0)]
        )
        assert minimum_cycle_mean_howard(g).mean == pytest.approx(2.0)
        assert maximum_cycle_mean_howard(g).mean == pytest.approx(3.0)

    def test_self_loop(self):
        g = WeightedDigraph.from_edges(
            [(0, 0, -7.0), (0, 1, 1.0), (1, 0, 1.0)]
        )
        assert minimum_cycle_mean_howard(g).mean == pytest.approx(-7.0)

    def test_acyclic(self):
        g = WeightedDigraph.from_edges([(0, 1, 1.0), (1, 2, 1.0)])
        assert minimum_cycle_mean_howard(g).is_acyclic

    def test_empty(self):
        assert minimum_cycle_mean_howard(WeightedDigraph()).is_acyclic

    def test_witness_cycle_achieves_mean(self):
        g = WeightedDigraph.from_edges(
            [(0, 1, 2.0), (1, 0, 4.0), (1, 2, 1.0), (2, 0, 3.0)]
        )
        result = minimum_cycle_mean_howard(g)
        assert cycle_mean(g, result.cycle) == pytest.approx(result.mean)

    def test_multichain_policy_instance(self):
        """Two disjoint-ish cycles joined so the initial greedy policy is
        multichain: forces the gain-improvement step."""
        g = WeightedDigraph.from_edges(
            [
                (0, 1, 10.0),
                (1, 0, 10.0),  # expensive cycle, mean 10
                (2, 3, -1.0),
                (3, 2, -1.0),  # cheap cycle, mean -1
                (0, 2, 0.0),
                (2, 0, 0.0),  # connectivity
            ]
        )
        assert minimum_cycle_mean_howard(g).mean == pytest.approx(-1.0)


class TestCrossValidation:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_karp_random(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(2, 10))
            karp = minimum_cycle_mean(g)
            howard = minimum_cycle_mean_howard(g)
            if karp.is_acyclic:
                assert howard.is_acyclic
            else:
                assert howard.mean == pytest.approx(karp.mean, abs=1e-7)
                assert cycle_mean(g, howard.cycle) == pytest.approx(
                    howard.mean
                )

    def test_matches_karp_dense_max(self):
        rng = random.Random(77)
        for _ in range(10):
            g = random_graph(rng, 12, density=1.0)
            assert maximum_cycle_mean_howard(g).mean == pytest.approx(
                maximum_cycle_mean(g).mean, abs=1e-7
            )


class TestShiftsIntegration:
    def test_shifts_method_howard_matches_karp(self):
        from repro.core.shifts import shifts
        from repro.core.precision import rho_bar

        rng = random.Random(5)
        for _ in range(10):
            n = rng.randrange(2, 7)
            ms = {}
            starts = [rng.uniform(0, 10) for _ in range(n)]
            for p in range(n):
                for q in range(n):
                    if p != q:
                        ms[(p, q)] = rng.uniform(0, 5) + starts[p] - starts[q]
            # Close under triangle inequality (ms is a path metric).
            for k in range(n):
                for p in range(n):
                    for q in range(n):
                        if len({p, q, k}) == 3:
                            ms[(p, q)] = min(
                                ms[(p, q)], ms[(p, k)] + ms[(k, q)]
                            )
            a = shifts(list(range(n)), ms, method="karp")
            b = shifts(list(range(n)), ms, method="howard")
            assert b.precision == pytest.approx(a.precision, abs=1e-7)
            assert rho_bar(ms, b.corrections) == pytest.approx(
                a.precision, abs=1e-7
            )

    def test_unknown_method_rejected(self):
        from repro.core.shifts import shifts

        with pytest.raises(ValueError, match="method"):
            shifts([0, 1], {(0, 1): 1.0, (1, 0): 1.0}, method="magic")
