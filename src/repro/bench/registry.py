"""Benchmark registry: the ``@benchmark`` decorator and suite selection.

A benchmark is a *setup function* returning the zero-argument thunk the
runner times -- setup cost (building scenarios, precomputing matrices)
never pollutes the measurement::

    @benchmark(
        "engine.pipeline",
        grid={"n": (8, 16, 32, 64)},
        suites=lambda p: SUITES if p["n"] <= 32 else ("full",),
    )
    def engine_pipeline(n):
        system, mls = _pipeline_inputs(n)

        def run():
            ClockSynchronizer(system).from_local_estimates(mls)

        return run

``grid`` expands the declaration into one :class:`BenchCase` per
parameter combination (``engine.pipeline[n=32]``...);
``suites`` assigns each case to tiers -- ``smoke`` is the small, fast
subset CI gates on, ``full`` the complete set.  ``histograms`` names
obs histograms whose latency percentiles the runner harvests from an
instrumented pass.  Setup may also return ``(thunk, extra)`` to attach
a free-form payload (speedups, precisions) to the archived result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
    Union,
)

#: The standard suite tiers (a case may belong to several).
SUITES = ("smoke", "full")

SuitesSpec = Union[
    Sequence[str], Callable[[Dict[str, object]], Sequence[str]]
]


@dataclass(frozen=True)
class BenchCase:
    """One runnable benchmark: a named setup bound to fixed params."""

    name: str
    setup: Callable[..., object]
    params: Dict[str, object] = field(default_factory=dict)
    suites: Tuple[str, ...] = SUITES
    histograms: Tuple[str, ...] = ()

    @property
    def key(self) -> str:
        from repro.bench.schema import _params_key

        return _params_key(self.name, self.params)

    def build(self):
        """Run setup; returns ``(thunk, extra)``."""
        built = self.setup(**self.params)
        if isinstance(built, tuple):
            thunk, extra = built
            return thunk, dict(extra)
        return built, {}


class BenchRegistry:
    """Ordered, name-unique collection of benchmark cases."""

    def __init__(self) -> None:
        self._cases: Dict[str, BenchCase] = {}

    def add(self, case: BenchCase) -> None:
        if case.key in self._cases:
            raise ValueError(f"benchmark {case.key!r} already registered")
        unknown = set(case.suites) - set(SUITES)
        if unknown:
            raise ValueError(
                f"benchmark {case.key!r} names unknown suites "
                f"{sorted(unknown)}; choose from {SUITES}"
            )
        self._cases[case.key] = case

    def benchmark(
        self,
        name: str,
        *,
        grid: Optional[Mapping[str, Sequence[object]]] = None,
        suites: SuitesSpec = SUITES,
        histograms: Sequence[str] = (),
    ) -> Callable:
        """Decorator registering ``fn`` as one case per grid combination."""

        def register(fn: Callable) -> Callable:
            for params in _expand_grid(grid):
                case_suites = (
                    tuple(suites(params)) if callable(suites)
                    else tuple(suites)
                )
                self.add(BenchCase(
                    name=name,
                    setup=fn,
                    params=params,
                    suites=case_suites,
                    histograms=tuple(histograms),
                ))
            return fn

        return register

    def cases(
        self,
        suite: Optional[str] = None,
        names: Optional[Iterable[str]] = None,
    ) -> List[BenchCase]:
        """Cases in registration order, filtered by suite and/or name.

        ``names`` entries match either the bare benchmark name
        (``engine.pipeline`` selects every parameterization) or a full
        key (``engine.pipeline[n=32]``).
        """
        if suite is not None and suite not in SUITES:
            raise ValueError(
                f"unknown suite {suite!r}; choose from {SUITES}"
            )
        wanted = set(names) if names is not None else None
        out = []
        for case in self._cases.values():
            if suite is not None and suite not in case.suites:
                continue
            if wanted is not None and not (
                case.name in wanted or case.key in wanted
            ):
                continue
            out.append(case)
        return out

    def keys(self) -> List[str]:
        return list(self._cases)

    def __len__(self) -> int:
        return len(self._cases)

    def __contains__(self, key: str) -> bool:
        return key in self._cases


def _expand_grid(
    grid: Optional[Mapping[str, Sequence[object]]]
) -> List[Dict[str, object]]:
    if not grid:
        return [{}]
    keys = list(grid)
    return [
        dict(zip(keys, combo))
        for combo in itertools.product(*(grid[k] for k in keys))
    ]


#: The process-wide default registry (populated by
#: :mod:`repro.bench.workloads` on first use).
REGISTRY = BenchRegistry()

#: Module-level decorator bound to the default registry.
benchmark = REGISTRY.benchmark

_defaults_loaded = False


def load_default_workloads() -> BenchRegistry:
    """Import the standard workload definitions (idempotent)."""
    global _defaults_loaded
    if not _defaults_loaded:
        import repro.bench.workloads  # noqa: F401  (registers cases)

        _defaults_loaded = True
    return REGISTRY


__all__ = [
    "REGISTRY",
    "SUITES",
    "BenchCase",
    "BenchRegistry",
    "benchmark",
    "load_default_workloads",
]
