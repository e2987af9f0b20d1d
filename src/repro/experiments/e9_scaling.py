"""E9 -- Algorithmic scaling of the pipeline.

The paper cites Karp's ``O(n^3)`` bound for computing ``A^max`` on the
complete shift graph.  This experiment times the three pipeline stages
separately (local estimates, GLOBAL ESTIMATES, SHIFTS) as ``n`` grows on
ring topologies (sparse communication graph, dense ``ms~`` graph) and
reports the growth rate of the dominant stage.
"""

from __future__ import annotations

import time
from typing import List

from repro.analysis.reporting import Table
from repro.core.estimates import local_shift_estimates
from repro.core.global_estimates import global_shift_estimates, shift_graph
from repro.core.shifts import CYCLE_MEAN_METHODS, shifts
from repro.graphs import ring
from repro.workloads.scenarios import bounded_uniform


def _time_stages(n: int, seed: int = 0):
    scenario = bounded_uniform(ring(n), lb=1.0, ub=3.0, probes=2, seed=seed)
    alpha = scenario.run()
    views = alpha.views()
    processors = list(scenario.system.processors)

    t0 = time.perf_counter()
    mls = local_shift_estimates(scenario.system, views)
    t1 = time.perf_counter()
    ms = global_shift_estimates(processors, mls)
    t2 = time.perf_counter()
    outcome = shifts(processors, ms)
    t3 = time.perf_counter()
    return {
        "mls": t1 - t0,
        "global": t2 - t1,
        "shifts": t3 - t2,
        "precision": outcome.precision,
    }


def _cycle_mean_table(quick: bool) -> Table:
    """The dict oracle's two cycle-mean methods on the same ms~ matrices."""
    table = Table(
        title="E9b: SHIFTS cycle-mean ablation (dict oracle) on the same "
        "ms~ matrices",
        headers=["n"] + [f"{m} (s)" for m in sorted(CYCLE_MEAN_METHODS)],
    )
    sizes = [16, 32] if quick else [16, 32, 64]
    for n in sizes:
        scenario = bounded_uniform(ring(n), lb=1.0, ub=3.0, probes=2, seed=0)
        alpha = scenario.run()
        mls = local_shift_estimates(scenario.system, alpha.views())
        processors = list(scenario.system.processors)
        ms = global_shift_estimates(processors, mls)
        row = [n]
        reference = None
        for method in sorted(CYCLE_MEAN_METHODS):
            t0 = time.perf_counter()
            outcome = shifts(processors, ms, method=method)
            row.append(time.perf_counter() - t0)
            if reference is None:
                reference = outcome.precision
            else:
                assert abs(outcome.precision - reference) < 1e-7
        table.add_row(*row)
    table.add_note(
        "Karp and Howard return the same precision (asserted); both are "
        "test oracles of the matrix engine, which runs Karp's recurrence"
    )
    return table


def oracle_pipeline(processors, mls) -> float:
    """The dict oracle end to end; returns ``A^max`` of a one-component system.

    GLOBAL ESTIMATES by dict shortest paths, components by Tarjan on the
    finite ``mls~`` graph, then SHIFTS (Karp + Bellman--Ford on a
    :class:`~repro.graphs.digraph.WeightedDigraph`) -- the work the
    matrix engine does, in the seed's dict form.
    """
    ms = global_shift_estimates(processors, mls)
    components = shift_graph(processors, mls).strongly_connected_components()
    if len(components) != 1:
        raise ValueError("oracle_pipeline expects one component")
    return shifts(processors, ms).precision


def compare_pipelines(n: int, repeats: int = 1, seed: int = 0):
    """Best-of-``repeats`` seconds of the dict oracle and the engine.

    Both run on the same ``mls~`` of the E9 ring and must agree on
    ``A^max`` to 1e-7.  Returns ``(oracle_seconds, engine_seconds)``.
    """
    from repro.core.synchronizer import ClockSynchronizer

    scenario = bounded_uniform(ring(n), lb=1.0, ub=3.0, probes=2, seed=seed)
    alpha = scenario.run()
    mls = local_shift_estimates(scenario.system, alpha.views())
    processors = list(scenario.system.processors)
    sync = ClockSynchronizer(scenario.system)
    sync.from_local_estimates(mls)  # warm-up
    oracle_s = engine_s = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        oracle = oracle_pipeline(processors, mls)
        t1 = time.perf_counter()
        result = sync.from_local_estimates(mls)
        t2 = time.perf_counter()
        oracle_s = min(oracle_s, t1 - t0)
        engine_s = min(engine_s, t2 - t1)
        assert abs(result.precision - oracle) < 1e-7
    return oracle_s, engine_s


def _engine_table(quick: bool) -> Table:
    """The matrix engine against the dict oracle on the full pipeline."""
    table = Table(
        title="E9c: dict oracle vs matrix engine on the full pipeline "
        "(GLOBAL ESTIMATES + components + SHIFTS)",
        headers=["n", "dict oracle (s)", "engine (s)", "speedup"],
    )
    sizes = [8, 16] if quick else [8, 16, 32, 64]
    for n in sizes:
        oracle_s, engine_s = compare_pipelines(n, repeats=3)
        table.add_row(n, oracle_s, engine_s, oracle_s / max(engine_s, 1e-12))
    table.add_note(
        "same A^max from both (asserted); the engine replaces per-edge "
        "dict work with dense min-plus / Karp / Bellman--Ford matrix "
        "kernels"
    )
    return table


def run(quick: bool = False) -> List[Table]:
    """Run the experiment (trimmed sweep when ``quick``); see module docstring."""
    sizes = [8, 16, 24] if quick else [8, 16, 32, 48, 64]
    table = Table(
        title="E9a: pipeline stage times vs network size (ring-n)",
        headers=[
            "n",
            "mls~ (s)",
            "GLOBAL ESTIMATES (s)",
            "SHIFTS (s)",
            "total (s)",
        ],
    )
    timings = []
    for n in sizes:
        t = _time_stages(n)
        timings.append((n, t))
        table.add_row(
            n,
            t["mls"],
            t["global"],
            t["shifts"],
            t["mls"] + t["global"] + t["shifts"],
        )
    if len(timings) >= 2:
        n0, t0 = timings[0]
        n1, t1 = timings[-1]
        total0 = sum(v for k, v in t0.items() if k != "precision")
        total1 = sum(v for k, v in t1.items() if k != "precision")
        if total0 > 0:
            import math

            exponent = math.log(total1 / total0) / math.log(n1 / n0)
            table.add_note(
                f"empirical growth exponent ~ n^{exponent:.2f} "
                f"(SHIFTS dominates; Karp on the complete ms~ graph is O(n^3))"
            )
    return [table, _cycle_mean_table(quick), _engine_table(quick)]


__all__ = ["run", "oracle_pipeline", "compare_pipelines"]
