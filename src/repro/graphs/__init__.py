"""Graph substrate: digraphs, shortest paths, cycle means, topologies.

The two graph computations at the heart of the paper's pipeline live
here in dict/digraph form.  The synchronization pipeline runs them as
matrix kernels (:mod:`repro.engine`); these versions are its test
oracles and serve the analysis layer:

* :func:`~repro.graphs.karp.maximum_cycle_mean` -- the optimal precision
  ``A^max`` of SHIFTS step 1 (Karp 1978, cited in Section 4.4), with
  Howard's policy iteration as a second, independent oracle;
* :func:`~repro.graphs.shortest_paths.bellman_ford` and friends -- the
  distance computations of SHIFTS step 2 and GLOBAL ESTIMATES.
"""

from repro.graphs.digraph import Node, WeightedDigraph
from repro.graphs.howard import (
    maximum_cycle_mean_howard,
    minimum_cycle_mean_howard,
)
from repro.graphs.karp import (
    CycleMeanResult,
    cycle_mean,
    cycle_weight,
    enumerate_simple_cycle_means,
    maximum_cycle_mean,
    minimum_cycle_mean,
)
from repro.graphs.shortest_paths import (
    NegativeCycleError,
    all_pairs_shortest_paths,
    bellman_ford,
    dijkstra,
    floyd_warshall,
    johnson,
    reconstruct_path,
)
from repro.graphs.topology import (
    Topology,
    binary_tree,
    complete,
    grid,
    hypercube,
    line,
    random_connected,
    ring,
    star,
)

__all__ = [
    "Node",
    "WeightedDigraph",
    "maximum_cycle_mean_howard",
    "minimum_cycle_mean_howard",
    "CycleMeanResult",
    "cycle_mean",
    "cycle_weight",
    "enumerate_simple_cycle_means",
    "maximum_cycle_mean",
    "minimum_cycle_mean",
    "NegativeCycleError",
    "all_pairs_shortest_paths",
    "bellman_ford",
    "dijkstra",
    "floyd_warshall",
    "johnson",
    "reconstruct_path",
    "Topology",
    "binary_tree",
    "complete",
    "grid",
    "hypercube",
    "line",
    "random_connected",
    "ring",
    "star",
]
