"""Per-stage timing and counter hooks, backed by the metrics registry.

Every engine owns an :class:`EngineStats`; the engine wraps each
pipeline stage (``global_estimates``, ``components``, ``shifts``,
``incremental_update``) in a timed region, and bumps named
counters for interesting events (nudge retries, relaxed edges, ...).
Benchmarks read :meth:`EngineStats.snapshot` to report where time goes.

Since the observability layer landed, :class:`EngineStats` is a thin
view over a :class:`~repro.obs.metrics.MetricsRegistry` rather than a
parallel bookkeeping system: stage seconds/calls and custom counters
live as registry counters (``engine.<stage>.seconds``,
``engine.<stage>.calls``, ``engine.<name>``), which makes the stats

* **thread-safe** -- registry instruments serialize updates, so the
  online extension's refresh and other threads can interleave stage
  timers without torn updates;
* **mergeable** -- :meth:`merge` aggregates stats across the many
  engines of a campaign;
* **exportable** -- when the process-wide recorder
  (:mod:`repro.obs.recorder`) is enabled, a fresh ``EngineStats`` backs
  itself by the recorder's shared registry, so engine series appear in
  ``--metrics-out`` dumps next to the sim and pipeline series, and each
  stage additionally opens an ``engine.<stage>`` span in the trace.

With the recorder disabled (the default), each ``EngineStats`` owns a
private registry and behaves exactly like the original dict-based
implementation, including the :attr:`timings`/:attr:`counters`/
:meth:`snapshot` shapes the benchmarks archive.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import get_recorder

#: Registry namespace every engine metric lives under.
NAMESPACE = "engine"

_SECONDS_SUFFIX = ".seconds"
_CALLS_SUFFIX = ".calls"


class EngineStats:
    """Cumulative wall-clock seconds and event counts, keyed by stage name.

    ``registry=None`` picks the backing store automatically: the global
    recorder's registry when observability is enabled (engine metrics
    then aggregate process-wide, normal for a metrics plane), a private
    registry otherwise (per-engine semantics, as the benchmarks expect).
    """

    __slots__ = ("_registry",)

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        if registry is None:
            recorder = get_recorder()
            registry = (
                recorder.registry if recorder.enabled else MetricsRegistry()
            )
        self._registry = registry

    @property
    def registry(self) -> MetricsRegistry:
        """The backing metrics registry."""
        return self._registry

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time one stage invocation; accumulates seconds and a call count.

        Also opens an ``engine.<name>`` span on the process-wide recorder,
        so engine stages nest inside pipeline spans in exported traces.
        """
        recorder = get_recorder()
        with recorder.span(f"{NAMESPACE}.{name}"):
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                prefix = f"{NAMESPACE}.{name}"
                self._registry.counter(prefix + _SECONDS_SUFFIX).add(elapsed)
                self._registry.counter(prefix + _CALLS_SUFFIX).add(1)

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a named counter."""
        self._registry.counter(f"{NAMESPACE}.{name}").add(amount)

    @property
    def timings(self) -> Dict[str, float]:
        """Cumulative seconds per stage (a copy)."""
        prefix = f"{NAMESPACE}."
        return {
            name[len(prefix):-len(_SECONDS_SUFFIX)]: value
            for name, value in self._registry.counters(prefix).items()
            if name.endswith(_SECONDS_SUFFIX)
        }

    @property
    def counters(self) -> Dict[str, int]:
        """Event counts (a copy)."""
        prefix = f"{NAMESPACE}."
        return {
            name[len(prefix):]: int(value)
            for name, value in self._registry.counters(prefix).items()
            if not name.endswith(_SECONDS_SUFFIX)
        }

    def total_seconds(self) -> float:
        """Total engine time across all stages."""
        return sum(self.timings.values())

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Both tables at once, for serialization into benchmark reports."""
        return {"timings": self.timings, "counters": dict(self.counters)}

    def merge(self, other: "EngineStats") -> None:
        """Fold another engine's stats into this one (campaign aggregation).

        Adds ``other``'s stage seconds, call counts and custom counters
        onto this instance's.  Only meaningful when the two stats own
        *distinct* registries (always true with the recorder disabled);
        merging stats that share a registry would double-count, so that
        case raises.
        """
        if other._registry is self._registry:
            raise ValueError(
                "cannot merge EngineStats sharing one registry "
                "(their values already aggregate)"
            )
        for name, value in other._registry.counters(f"{NAMESPACE}.").items():
            self._registry.counter(name).add(value)

    def reset(self) -> None:
        """Zero every timer and counter (drops this namespace only)."""
        self._registry.reset(f"{NAMESPACE}.")

    def __repr__(self) -> str:
        return (
            f"EngineStats(total={self.total_seconds():.6f}s, "
            f"stages={sorted(self.timings)})"
        )


__all__ = ["EngineStats", "NAMESPACE"]
