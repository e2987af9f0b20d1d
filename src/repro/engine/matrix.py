"""The matrix engine: the GLOBAL ESTIMATES -> SHIFTS pipeline as array kernels.

An engine consumes dense row-indexed matrices (see
:class:`~repro.engine.index.ProcessorIndex`) and provides the four
operations the synchronization pipeline is made of, each timed in
:attr:`SyncEngine.stats`:

* ``global_estimates`` -- min-plus Floyd--Warshall closure of the
  ``mls~`` matrix (Theorem 5.5), one broadcasted ``minimum`` per pivot
  (:func:`min_plus_closure`), raising
  :class:`~repro.core.global_estimates.InconsistentViewsError` on a
  negative cycle;
* ``components`` -- the synchronization components (maximal row sets with
  finite pairwise ``ms~``), read directly off the closure and ordered by
  first row for stable roots;
* ``shifts`` -- SHIFTS (Theorems 4.4/4.6) on one component: the optimal
  precision ``A^max`` by Karp's recurrence as a level-by-level broadcast
  (:func:`karp_max_cycle_mean_matrix`), a critical-cycle witness from the
  tight-edge subgraph under vectorized Bellman--Ford potentials (the same
  construction as :mod:`repro.graphs.karp`), and corrections as batched
  Bellman--Ford distances (:func:`bellman_ford_matrix`) under
  ``w = A^max - ms~`` with the same epsilon-nudge retry loop as the
  dict oracle :func:`repro.core.shifts.shifts`;
* ``incremental_update`` -- the single-edge closure repair used by
  :class:`repro.extensions.online.OnlineSynchronizer`: when one ``mls~``
  entry decreases, the cached closure is repaired by relaxing paths
  through the improved edge (two broadcast adds per change) instead of
  recomputing all pairs.  For a batch of decreases applied in sequence
  this is exact: a shortest path uses each decreased edge at most once
  (paths are simple when no negative cycle exists), so relaxing edges
  one at a time covers every new path, and a batch-created negative
  cycle surfaces as a negative diagonal entry.

The dict/digraph code in :mod:`repro.core` and :mod:`repro.graphs` is
the test oracle this engine is checked against (see
``tests/test_engine_parity.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.global_estimates import InconsistentViewsError
from repro.core.shifts import UnboundedPrecisionError
from repro.engine.stats import EngineStats

INF = float("inf")
_TOL = 1e-9


# ----------------------------------------------------------------------
# Kernels (module-level so tests and other layers can reuse them)
# ----------------------------------------------------------------------


def min_plus_closure(matrix: np.ndarray) -> np.ndarray:
    """Min-plus transitive closure (Floyd--Warshall), input unmutated.

    The kernel itself never raises: it returns the closure, and a
    negative diagonal entry is the negative-cycle witness -- check with
    :func:`has_negative_diagonal`.
    """
    dist = matrix.astype(float, copy=True)
    n = len(dist)
    for k in range(n):
        np.minimum(dist, dist[:, k, None] + dist[None, k, :], out=dist)
    return dist


def has_negative_diagonal(matrix: np.ndarray, tol: float = _TOL) -> bool:
    """Whether the closure's diagonal witnesses a negative cycle."""
    return bool((np.diagonal(matrix) < -tol).any())


def bellman_ford_matrix(
    weights: np.ndarray, source: int, tol: float = _TOL
) -> Optional[np.ndarray]:
    """Single-source distances on a dense weight matrix.

    Rounds of relaxation run as one broadcast per round with early exit.
    Returns ``None`` when a negative cycle is reachable (the caller
    decides whether that is an error or a retry-with-nudge).
    """
    n = len(weights)
    dist = np.full(n, INF)
    dist[source] = 0.0
    for _ in range(max(0, n - 1)):
        relaxed = np.minimum(dist, (dist[:, None] + weights).min(axis=0))
        if not (relaxed < dist).any():
            break
        dist = relaxed
    if ((dist[:, None] + weights).min(axis=0) < dist - tol).any():
        return None
    return dist


def karp_max_cycle_mean_matrix(weights: np.ndarray) -> Optional[float]:
    """Maximum cycle mean of a dense digraph given as a weight matrix.

    ``inf`` encodes absent edges; the diagonal is ignored (no self-loops,
    matching the complete ``ms~`` digraph SHIFTS builds).  Assumes the
    off-diagonal part is strongly connected -- true for any all-finite
    matrix with ``n >= 2``.  Returns ``None`` for ``n < 2``.
    """
    n = len(weights)
    if n < 2:
        return None
    # Negate to reuse Karp's *minimum* recurrence; kill self-loops.
    w = -weights.astype(float, copy=True)
    np.fill_diagonal(w, INF)

    levels = np.full((n + 1, n), INF)
    levels[0, 0] = 0.0
    for k in range(n):
        levels[k + 1] = (levels[k][:, None] + w).min(axis=0)

    d_n = levels[n]
    ks = np.arange(n)
    denominators = (n - ks)[:, None].astype(float)
    with np.errstate(invalid="ignore"):
        ratios = (d_n[None, :] - levels[:n, :]) / denominators
    ratios[~np.isfinite(levels[:n, :])] = -INF
    per_node_max = ratios.max(axis=0)

    valid = np.isfinite(d_n) & np.isfinite(per_node_max)
    if not valid.any():
        return None
    return -float(per_node_max[valid].min())


def _potentials(weights: np.ndarray) -> Optional[np.ndarray]:
    """Bellman--Ford potentials from a virtual source joined to every node.

    Equivalent to distances from a zero-weight super-source; ``None``
    when relaxation has not converged after ``n`` rounds (a float-noise
    negative cycle -- the caller retries with slack).
    """
    n = len(weights)
    dist = np.zeros(n)
    for _ in range(n):
        relaxed = np.minimum(dist, (dist[:, None] + weights).min(axis=0))
        if not (relaxed < dist).any():
            return dist
        dist = relaxed
    return None


def _critical_cycle_matrix(
    weights: np.ndarray, mean: float
) -> Optional[List[int]]:
    """A cycle of mean ``mean`` in a matrix whose *maximum* mean is ``mean``.

    Mirror of :func:`repro.graphs.karp._critical_cycle` in matrix form:
    work on negated weights (minimum-mean world), shift by the mean so
    critical cycles become zero-weight, take tight edges under potentials,
    and return any cycle of the tight subgraph.
    """
    n = len(weights)
    shifted = -weights.astype(float, copy=True) + mean
    np.fill_diagonal(shifted, INF)

    h = None
    for _ in range(3):
        h = _potentials(shifted)
        if h is not None:
            break
        shifted = shifted + _TOL
    if h is None:
        return None

    finite = np.isfinite(weights) & ~np.eye(n, dtype=bool)
    scale = max(1.0, float(np.abs(weights[finite]).max()) if finite.any() else 1.0)
    tol = _TOL * scale * 10
    # Tight: h[u] + (mean - w[u,v]) - h[v] ~ 0.
    slack = h[:, None] + (mean - weights) - h[None, :]
    tight = finite & (np.abs(slack) <= tol)
    return _find_any_cycle_bool(tight)


def _find_any_cycle_bool(adjacency: np.ndarray) -> Optional[List[int]]:
    """Some directed cycle of a boolean adjacency matrix (DFS, iterative)."""
    n = len(adjacency)
    successors = [np.flatnonzero(adjacency[u]) for u in range(n)]
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * n
    parent: dict = {}
    for root in range(n):
        if color[root] != WHITE:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            u, next_i = stack[-1]
            advanced = False
            succ = successors[u]
            while next_i < len(succ):
                v = int(succ[next_i])
                next_i += 1
                if color[v] == WHITE:
                    color[v] = GRAY
                    parent[v] = u
                    stack[-1] = (u, next_i)
                    stack.append((v, 0))
                    advanced = True
                    break
                if color[v] == GRAY:
                    cycle = [u]
                    node = u
                    while node != v:
                        node = parent[node]
                        cycle.append(node)
                    cycle.reverse()
                    return cycle
            if advanced:
                continue
            stack[-1] = (u, next_i)
            if next_i >= len(succ):
                color[u] = BLACK
                stack.pop()
    return None


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EngineShifts:
    """SHIFTS result in row space.

    ``corrections[k]`` is the correction of the processor in ``rows[k]``
    (the row sequence handed to :meth:`SyncEngine.shifts`); ``cycle_rows``
    is the critical-cycle witness, also as global row indices.
    """

    corrections: np.ndarray
    a_max: float
    cycle_rows: Optional[Tuple[int, ...]]


class SyncEngine:
    """The matrix pipeline; stateless apart from its per-stage ``stats``.

    The stats pick the process-wide recorder's registry when
    observability is enabled and a private one otherwise (see
    :class:`~repro.engine.stats.EngineStats`).
    """

    def __init__(self) -> None:
        self.stats = EngineStats()

    def global_estimates(self, mls_matrix: np.ndarray) -> np.ndarray:
        """``ms~`` matrix: min-plus closure of the ``mls~`` matrix."""
        _check_square(mls_matrix)
        with self.stats.stage("global_estimates"):
            closure = min_plus_closure(mls_matrix)
            if has_negative_diagonal(closure):
                raise InconsistentViewsError(
                    "local shift estimates contain a negative cycle; the "
                    "observed delays are inconsistent with the declared "
                    "delay assumptions"
                )
            return closure

    def components(
        self, mls_matrix: np.ndarray, ms_matrix: np.ndarray
    ) -> List[List[int]]:
        """Synchronization components as row lists (sorted, stable order)."""
        _check_square(mls_matrix)
        _check_square(ms_matrix)
        with self.stats.stage("components"):
            # Mutual finiteness of the closure is exactly "same strongly
            # connected component of the finite-mls~ digraph".
            finite = np.isfinite(ms_matrix)
            mutual = finite & finite.T
            n = len(ms_matrix)
            seen = np.zeros(n, dtype=bool)
            components: List[List[int]] = []
            for i in range(n):
                if seen[i]:
                    continue
                members = np.flatnonzero(mutual[i])
                seen[members] = True
                components.append([int(j) for j in members])
            return components

    def shifts(
        self,
        ms_matrix: np.ndarray,
        rows: Optional[Sequence[int]] = None,
        root_row: Optional[int] = None,
    ) -> EngineShifts:
        """SHIFTS over ``rows`` of the ``ms~`` matrix (default: all rows).

        Raises :class:`~repro.core.shifts.UnboundedPrecisionError` when a
        pair inside ``rows`` has infinite estimate, listing the pairs in
        row-major order -- pass one synchronization component at a time
        to avoid it.
        """
        _check_square(ms_matrix)
        row_list = list(range(len(ms_matrix))) if rows is None else list(rows)
        if not row_list:
            raise ValueError("no rows")
        if root_row is None:
            root_row = row_list[0]
        elif root_row not in row_list:
            raise ValueError(f"root row {root_row} is not in rows")

        with self.stats.stage("shifts"):
            if len(row_list) == 1:
                return EngineShifts(
                    corrections=np.zeros(1), a_max=0.0, cycle_rows=None
                )
            sub = ms_matrix[np.ix_(row_list, row_list)]
            infinite = ~np.isfinite(sub)
            np.fill_diagonal(infinite, False)
            if infinite.any():
                raise UnboundedPrecisionError(
                    [(row_list[i], row_list[j]) for i, j in np.argwhere(infinite)]
                )
            root_local = row_list.index(root_row)

            # Step 1: A^max, the maximum cycle mean of the complete
            # submatrix, and a critical cycle witnessing it.
            a_max = karp_max_cycle_mean_matrix(sub)
            assert a_max is not None  # complete graph with n >= 2 has cycles
            cycle = _critical_cycle_matrix(sub, a_max)

            # Step 2: corrections as distances under w = A^max - ms~, with
            # the oracle's nudge ladder for float-rounded epsilon-negative
            # cycles.
            scale = max(1.0, abs(a_max))
            base = a_max - sub
            np.fill_diagonal(base, INF)
            for attempt in range(4):
                corrections = bellman_ford_matrix(
                    base + attempt * 1e-9 * scale, root_local
                )
                if corrections is not None:
                    if attempt:
                        self.stats.count("shifts.nudge_retries", attempt)
                    break
            else:  # pragma: no cover - would need pathological float behaviour
                raise AssertionError(
                    "negative cycle under w = A^max - ms~ persisted after "
                    "nudging; this contradicts the maximum cycle mean"
                )
            if corrections[root_local] != 0.0:
                # Pin x_root to exactly 0 (the nudged Bellman--Ford can
                # leave an epsilon-sized residue at the root).
                corrections = corrections - corrections[root_local]
            return EngineShifts(
                corrections=corrections,
                a_max=float(a_max),
                cycle_rows=(
                    tuple(row_list[i] for i in cycle) if cycle else None
                ),
            )

    def incremental_update(
        self,
        ms_matrix: np.ndarray,
        changes: Sequence[Tuple[int, int, float]],
    ) -> np.ndarray:
        """Closure after decreasing ``mls~`` entries ``(i, j, new_weight)``.

        Returns a *new* matrix (the input is never mutated).  Only weight
        *decreases* are supported -- the online monotonicity guarantee
        (new observations only tighten estimates) makes that the only
        case that occurs.
        """
        _check_square(ms_matrix)
        with self.stats.stage("incremental_update"):
            closure = ms_matrix.astype(float, copy=True)
            for i, j, weight in changes:
                if i == j:
                    if weight < -_TOL:
                        raise InconsistentViewsError(
                            "negative self-estimate in incremental update"
                        )
                    continue
                through = closure[:, i, None] + (weight + closure[None, j, :])
                np.minimum(closure, through, out=closure)
            self.stats.count("incremental_update.relaxed_edges", len(changes))
            if has_negative_diagonal(closure):
                raise InconsistentViewsError(
                    "incrementally updated local shift estimates contain a "
                    "negative cycle; the observed delays are inconsistent "
                    "with the declared delay assumptions"
                )
            return closure


def _check_square(matrix: np.ndarray) -> None:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")


__all__ = [
    "EngineShifts",
    "SyncEngine",
    "min_plus_closure",
    "has_negative_diagonal",
    "bellman_ford_matrix",
    "karp_max_cycle_mean_matrix",
]
