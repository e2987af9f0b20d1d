"""Observability overhead guard.

The instrumentation added to the sim/pipeline/engine hot paths must be
free when disabled: with the default no-op recorder installed the n=64
E9 pipeline is measured live and gated against the
archived ``engine.pipeline[n=64]`` result in
``BENCH_engine.json`` through the noise-aware ``repro.bench`` comparison
(DESIGN.md §13): a regression is flagged only when both the median and
the min-of-repeats exceed the ``local`` tolerance.  The archive is a
different run of the same machine, so a raw few-percent ratio check
flakes on container drift; the gate still catches a genuinely hot
disabled path (a 2x slowdown fails it unconditionally).

A second (informational, loosely bounded) check times the pipeline with
an enabled recorder to show what full tracing costs.
"""

import time
from pathlib import Path

from repro.bench import (
    BenchResult,
    SampleStats,
    TOLERANCE_PRESETS,
    compare_results,
    read_bench_report,
)
from repro.core.estimates import local_shift_estimates
from repro.core.synchronizer import ClockSynchronizer
from repro.graphs import ring
from repro.obs import get_recorder, NOOP, recording
from repro.workloads.scenarios import bounded_uniform

N = 64
REPEATS = 9


def _pipeline_inputs():
    scenario = bounded_uniform(ring(N), lb=1.0, ub=3.0, probes=2, seed=0)
    mls = local_shift_estimates(scenario.system, scenario.run().views())
    return scenario.system, mls


def _samples_of(fn, repeats=REPEATS):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return samples


def _best_of(fn, repeats=REPEATS):
    return min(_samples_of(fn, repeats))


def baseline_result():
    """The archived n=64 pipeline result from ``BENCH_engine.json``."""
    path = Path(__file__).resolve().parent / "BENCH_engine.json"
    report = read_bench_report(path)
    return report.by_key()[f"engine.pipeline[n={N}]"]


def assert_within_baseline_gate(fn, label, capsys, attempts=3):
    """Measure ``fn`` live and gate it against the archive, noise-aware.

    The container's load swings wall-clock by tens of percent between
    epochs, so a single measurement against an archive captured at a
    fast moment still flakes even at the 25% ``local`` tolerance.  The
    measurement is therefore re-taken up to ``attempts`` times and the
    guard fails only when *every* attempt regresses: a transient load
    spike clears on retry, a genuinely hot disabled path (2x) fails
    all of them.
    """
    baseline = baseline_result()
    tolerance, _ = TOLERANCE_PRESETS["local"]
    delta = None
    for attempt in range(attempts):
        samples = _samples_of(fn)
        current = BenchResult(
            name=baseline.name,
            params=dict(baseline.params),
            wall=SampleStats(samples=tuple(samples)),
            cpu=SampleStats(samples=tuple(samples)),
            warmup=1,
        )
        delta = compare_results(baseline, current, tolerance)
        with capsys.disabled():
            print(
                f"\n{label} [attempt {attempt + 1}] median "
                f"{current.wall.median:.5f}s min {current.wall.min:.5f}s  "
                f"baseline median {baseline.wall.median:.5f}s min "
                f"{baseline.wall.min:.5f}s  verdict {delta.verdict}"
            )
        if not delta.regressed:
            return
    raise AssertionError(
        f"{label} regressed vs BENCH_engine.json on all {attempts} "
        f"attempts: {delta.detail}"
    )


def test_noop_recorder_run_passes_baseline_gate(capsys):
    assert get_recorder() is NOOP, "benchmark requires the disabled default"
    system, mls = _pipeline_inputs()

    # Mirror the archived engine.pipeline workload exactly (fresh
    # synchronizer per timing) so the gate compares methodology-identical
    # numbers.
    def once():
        ClockSynchronizer(system).from_local_estimates(mls)

    once()  # warm import/caches before timing
    assert_within_baseline_gate(once, "obs disabled", capsys)


def test_enabled_recorder_overhead_is_bounded(capsys):
    system, mls = _pipeline_inputs()
    sync = ClockSynchronizer(system)
    sync.from_local_estimates(mls)
    disabled = _best_of(lambda: sync.from_local_estimates(mls))
    with recording() as rec:
        enabled = _best_of(lambda: sync.from_local_estimates(mls))
    assert rec.tracer.finished(), "recorder saw no spans"
    with capsys.disabled():
        print(
            f"\nobs enabled {enabled:.5f}s  disabled {disabled:.5f}s  "
            f"ratio {enabled / disabled:.2f}"
        )
    # Tracing is allowed to cost something, but a blow-up here means a
    # hot loop started allocating spans per event instead of per run.
    assert enabled <= disabled * 3.0
