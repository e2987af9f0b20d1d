"""E9 bench: regenerate the scaling table; time the two graph kernels
(Karp max cycle mean, Bellman--Ford) at a fixed size so regressions in
either show up independently of the end-to-end pipeline; race the matrix
engine against the dict oracle on the full pipeline, and archive the
engine's ``engine.pipeline`` cases from the :mod:`repro.bench` harness
as ``BENCH_engine.json`` in the schema'd :class:`~repro.bench.BenchReport`
form."""

import random
from pathlib import Path

from conftest import show_tables

from repro.experiments import run_experiment
from repro.graphs.digraph import WeightedDigraph
from repro.graphs.karp import maximum_cycle_mean
from repro.graphs.shortest_paths import bellman_ford


def _dense_graph(n: int, seed: int = 0) -> WeightedDigraph:
    rng = random.Random(seed)
    g = WeightedDigraph()
    for i in range(n):
        g.add_node(i)
    for u in range(n):
        for v in range(n):
            if u != v:
                g.add_edge(u, v, rng.uniform(0.0, 5.0))
    return g


def test_e9_scaling_table(benchmark, capsys):
    tables = run_experiment("E9", quick=True)
    show_tables(capsys, tables)
    assert all(row[-1] > 0 for row in tables[0].rows)

    g = _dense_graph(24)
    result = benchmark(lambda: maximum_cycle_mean(g))
    assert result.mean is not None


def test_e9_bellman_ford_kernel(benchmark):
    g = _dense_graph(48, seed=1)
    dist = benchmark(lambda: bellman_ford(g, 0)[0])
    assert len(dist) == 48


def test_e9_engine_beats_dict_oracle(capsys):
    """Matrix engine vs dict oracle on the full pipeline; archives BENCH_engine.json.

    The engine must beat the dict oracle pipeline (GLOBAL ESTIMATES by
    dict shortest paths, Tarjan components, dict SHIFTS), called
    directly, by at least 5x at n=64 (measured ~15x; the bound leaves CI
    headroom), and both must agree on A^max to 1e-7.  The engine's
    ``engine.pipeline`` cases run through the ``repro.bench`` harness
    (suite ``full``), so the archived file is a schema'd,
    environment-fingerprinted ``BenchReport``.
    """
    from repro.bench import run_suite, validate_bench_file, write_bench_report
    from repro.experiments.e9_scaling import compare_pipelines

    oracle_s, engine_s = compare_pipelines(64, repeats=3)
    speedup = oracle_s / engine_s

    outcome = run_suite(
        suite="full", names=["engine.pipeline"], repeats=3, warmup=1
    )
    report = outcome.report
    out = Path(__file__).resolve().parent / "BENCH_engine.json"
    write_bench_report(out, report)
    assert validate_bench_file(out) == len(report.results)

    with capsys.disabled():
        print()
        for result in report.results:
            print(f"{result.key:<24} engine {result.wall.min:.5f}s")
        print(
            f"n= 64  dict oracle {oracle_s:.5f}s  engine {engine_s:.5f}s  "
            f"speedup {speedup:.1f}x"
        )

    assert speedup >= 5.0
