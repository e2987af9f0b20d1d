"""Array-backed matrix engine for the GLOBAL ESTIMATES -> SHIFTS pipeline.

The pipeline of the paper is dense matrix algebra: GLOBAL ESTIMATES is a
min-plus closure, SHIFTS is a maximum cycle mean plus one single-source
shortest-path tree.  This package gives those stages one matrix
implementation:

* :class:`~repro.engine.index.ProcessorIndex` -- stable id <-> row map;
* :class:`~repro.engine.matrix.SyncEngine` -- the vectorized stage
  kernels plus the incremental single-edge closure update used by the
  online extension, with per-stage timing/counter hooks in
  :class:`~repro.engine.stats.EngineStats`.

The dict/digraph code (:func:`repro.core.global_estimates.global_shift_estimates`,
:func:`repro.core.shifts.shifts`) is the test oracle the engine is
checked against.  See DESIGN.md section "Engine layer" for the matrix
layout and the invariants.
"""

from repro.engine.index import ProcessorIndex
from repro.engine.matrix import EngineShifts, SyncEngine
from repro.engine.stats import EngineStats

__all__ = [
    "EngineShifts",
    "SyncEngine",
    "ProcessorIndex",
    "EngineStats",
]
