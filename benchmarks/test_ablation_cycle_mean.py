"""Ablation: Karp vs Howard for the SHIFTS cycle-mean stage.

DESIGN.md calls out the cycle-mean stage as the dominant pipeline cost
(E9).  This bench times the dict oracle's two algorithms on the dense
``ms~``-style graphs SHIFTS actually builds, at the same size, asserting
they agree -- the data behind the ``method=`` choice of the oracle
:func:`repro.core.shifts.shifts`.
"""

import random

import pytest

from repro.graphs.digraph import WeightedDigraph
from repro.graphs.howard import maximum_cycle_mean_howard
from repro.graphs.karp import maximum_cycle_mean


def _ms_like_graph(n: int, seed: int = 0) -> WeightedDigraph:
    """A complete digraph shaped like a real ms~ matrix (metric + shifted)."""
    rng = random.Random(seed)
    starts = [rng.uniform(0.0, 10.0) for _ in range(n)]
    ms = {}
    for p in range(n):
        for q in range(n):
            if p != q:
                ms[(p, q)] = rng.uniform(0.0, 5.0)
    for k in range(n):
        for p in range(n):
            for q in range(n):
                if len({p, q, k}) == 3:
                    ms[(p, q)] = min(ms[(p, q)], ms[(p, k)] + ms[(k, q)])
    g = WeightedDigraph()
    for i in range(n):
        g.add_node(i)
    for (p, q), v in ms.items():
        g.add_edge(p, q, v + starts[p] - starts[q])
    return g


GRAPH = _ms_like_graph(32)
EXPECTED = maximum_cycle_mean(GRAPH).mean


def test_ablation_karp(benchmark):
    result = benchmark(lambda: maximum_cycle_mean(GRAPH))
    assert result.mean == pytest.approx(EXPECTED)


def test_ablation_howard(benchmark):
    result = benchmark(lambda: maximum_cycle_mean_howard(GRAPH))
    assert result.mean == pytest.approx(EXPECTED, abs=1e-7)
