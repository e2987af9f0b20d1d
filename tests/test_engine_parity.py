"""Property test: the matrix engine agrees with the dict oracle.

Across ~50 seeded random systems -- including negative ``mls~`` weights,
sparse/disconnected graphs, multi-component decompositions, and
inconsistent views -- :class:`~repro.engine.SyncEngine` must agree with
the dict/digraph oracle functions on every observable of the pipeline:

* the ``ms~`` closure against
  :func:`~repro.core.global_estimates.global_shift_estimates`;
* the synchronization components (sets *and* order) against Tarjan's
  strongly connected components of
  :func:`~repro.core.global_estimates.shift_graph`;
* per-component ``A^max`` and corrections (up to root normalization,
  which both pin to ``x_root = 0``) against
  :func:`~repro.core.shifts.shifts` with *both* cycle-mean methods,
  ``"karp"`` and ``"howard"``;
* the error behaviour (``InconsistentViewsError`` for negative cycles,
  ``UnboundedPrecisionError`` with the same offending pairs).

A second layer runs real simulated systems through the
:class:`~repro.core.synchronizer.ClockSynchronizer` facade and requires
*certified* results whose precision matches the oracle pipeline.
"""

import random

import numpy as np
import pytest

from repro._types import INF
from repro.core.estimates import local_shift_estimates
from repro.core.global_estimates import (
    InconsistentViewsError,
    global_shift_estimates,
    shift_graph,
)
from repro.core.optimality import verify_certificate
from repro.core.precision import rho_bar
from repro.core.shifts import UnboundedPrecisionError, shifts
from repro.core.synchronizer import ClockSynchronizer
from repro.engine import SyncEngine
from repro.graphs.topology import ring
from repro.workloads.scenarios import bounded_uniform, heterogeneous

#: The dict oracle's two cycle-mean methods.
ORACLE_METHODS = ("karp", "howard")


def mls_pairs(mls):
    """The dict form of an ``mls~`` matrix (rows double as processor ids).

    Infinite entries are left out, and so are non-negative diagonal
    entries; a negative diagonal entry is a negative cycle and stays.
    """
    n = len(mls)
    return {
        (i, j): float(mls[i, j])
        for i in range(n)
        for j in range(n)
        if (mls[i, j] < 0.0 if i == j else mls[i, j] != INF)
    }


def oracle_closure(mls):
    """``ms~`` as a matrix, by the dict GLOBAL ESTIMATES."""
    n = len(mls)
    ms = global_shift_estimates(list(range(n)), mls_pairs(mls))
    out = np.full((n, n), INF)
    for (i, j), weight in ms.items():
        out[i, j] = weight
    return out


def oracle_components(mls):
    """Tarjan components of the finite ``mls~`` graph, in engine order."""
    graph = shift_graph(list(range(len(mls))), mls_pairs(mls))
    components = [sorted(c) for c in graph.strongly_connected_components()]
    return sorted(components, key=lambda c: c[0])


def oracle_shifts(ms, rows, method):
    """Dict SHIFTS over ``rows`` of an ``ms~`` matrix."""
    ms_dict = {(i, j): float(ms[i, j]) for i in rows for j in rows}
    return shifts(list(rows), ms_dict, root=rows[0], method=method)


def random_mls_matrix(rng, n, density, blocks=1):
    """Random negative-cycle-free mls~ matrix, optionally block-diagonal.

    Weights are ``u + y_i - y_j`` with slack ``u >= 0``: cycle weights
    telescope to the slack sum, so the instance is consistent, while the
    potentials ``y`` make plenty of individual weights negative.  With
    ``blocks > 1`` no edge crosses block boundaries, forcing multiple
    synchronization components.
    """
    y = [rng.uniform(-5.0, 5.0) for _ in range(n)]
    block_of = [i % blocks for i in range(n)]
    matrix = np.full((n, n), INF)
    np.fill_diagonal(matrix, 0.0)
    for i in range(n):
        for j in range(n):
            if (
                i != j
                and block_of[i] == block_of[j]
                and rng.random() < density
            ):
                matrix[i, j] = rng.uniform(0.0, 4.0) + y[i] - y[j]
    return matrix


def assert_engine_matches_oracle(mls):
    """Run the engine and the oracle over one mls~ matrix; compare all."""
    engine = SyncEngine()
    ms = engine.global_estimates(mls)
    ms_oracle = oracle_closure(mls)
    assert np.allclose(ms, ms_oracle, atol=1e-9)  # inf == inf ok

    components = engine.components(mls, ms)
    assert components == oracle_components(mls)

    for rows in components:
        out = engine.shifts(ms, rows=rows)
        for method in ORACLE_METHODS:
            oracle = oracle_shifts(ms_oracle, rows, method)
            assert out.a_max == pytest.approx(oracle.precision, abs=1e-7)
            # Both pin the root (rows[0]) to zero; compare normalized.
            expected = np.array([oracle.corrections[r] for r in rows])
            assert np.allclose(
                out.corrections - out.corrections[0],
                expected - expected[0],
                atol=1e-7,
            )
        if len(rows) > 1:
            assert out.cycle_rows is not None
            cycle = out.cycle_rows
            assert set(cycle) <= set(rows)
            # The witness must achieve A^max on the oracle's ms~ matrix.
            k = len(cycle)
            total = sum(
                ms_oracle[cycle[i], cycle[(i + 1) % k]] for i in range(k)
            )
            assert total / k == pytest.approx(out.a_max, abs=1e-6)


@pytest.mark.parametrize("seed", range(50))
def test_random_system_parity(seed):
    """~50 random instances: dense, sparse, and multi-block shapes."""
    rng = random.Random(seed)
    n = rng.randint(2, 14)
    blocks = 1 if seed % 3 else rng.randint(1, min(3, n))
    density = rng.uniform(0.4, 1.0)
    assert_engine_matches_oracle(random_mls_matrix(rng, n, density, blocks))


@pytest.mark.parametrize("seed", range(5))
def test_negative_cycle_parity(seed):
    """Inconsistent views raise the same error from engine and oracle."""
    rng = random.Random(seed)
    n = rng.randint(3, 10)
    mls = random_mls_matrix(rng, n, density=0.8)
    # Plant a strictly negative 2-cycle.
    i, j = rng.sample(range(n), 2)
    mls[i, j] = -3.0
    mls[j, i] = 1.0
    with pytest.raises(InconsistentViewsError):
        SyncEngine().global_estimates(mls)
    with pytest.raises(InconsistentViewsError):
        oracle_closure(mls)


@pytest.mark.parametrize("seed", range(5))
def test_unbounded_pairs_parity(seed):
    """Asking SHIFTS to span components reports identical pairs."""
    rng = random.Random(seed)
    n = rng.randint(4, 10)
    mls = random_mls_matrix(rng, n, density=0.9, blocks=2)
    ms = SyncEngine().global_estimates(mls)
    with pytest.raises(UnboundedPrecisionError) as err_engine:
        SyncEngine().shifts(ms)
    for method in ORACLE_METHODS:
        with pytest.raises(UnboundedPrecisionError) as err_oracle:
            oracle_shifts(oracle_closure(mls), list(range(n)), method)
        assert err_engine.value.pairs == err_oracle.value.pairs
    assert err_engine.value.pairs  # two blocks really are disconnected


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("make", [bounded_uniform, heterogeneous])
def test_synchronizer_backend_parity_certified(seed, make):
    """Full facade on simulated executions: certified, oracle precision."""
    n = 5 + 2 * seed
    if make is bounded_uniform:
        scenario = make(ring(n), lb=1.0, ub=3.0, seed=seed)
    else:
        scenario = make(ring(n), seed=seed)
    views = scenario.run().views()
    result = ClockSynchronizer(scenario.system).from_views(views)
    verify_certificate(result)
    processors = list(scenario.system.processors)
    ms_oracle = global_shift_estimates(
        processors, local_shift_estimates(scenario.system, views)
    )
    for method in ORACLE_METHODS:
        oracle = shifts(processors, ms_oracle, method=method)
        assert result.precision == pytest.approx(oracle.precision, abs=1e-9)
    # The engine's corrections are optimal under the oracle's ms~ too.
    assert rho_bar(ms_oracle, result.corrections) == pytest.approx(
        result.precision, abs=1e-7
    )
