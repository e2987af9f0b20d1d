"""Protocol-telemetry overhead guard.

The telemetry hooks added for causality tracing and invariant monitoring
(``recorder.emit`` call sites in the simulator and the pipeline, the
``pipeline.result`` event in ``from_matrices``) must be free when
observability is disabled: with the default no-op recorder the n=64 E9
pipeline is gated against the archived
``BENCH_engine.json`` result through the noise-aware ``repro.bench``
comparison, same methodology as ``test_obs_overhead.py``.

A second check bounds the *enabled-but-unobserved* path: a live recorder
with no observers attached must not emit (the guard is
``recorder.enabled and recorder.observers``), so attaching telemetry
later cannot tax runs that never asked for it.
"""

from test_obs_overhead import (
    N,
    REPEATS,
    _best_of,
    _pipeline_inputs,
    assert_within_baseline_gate,
)

from repro.core.synchronizer import ClockSynchronizer
from repro.obs import NOOP, get_recorder, recording
from repro.obs.monitor import MonitorSuite

assert N == 64 and REPEATS >= 5  # shared methodology from test_obs_overhead


def test_disabled_telemetry_passes_baseline_gate(capsys):
    assert get_recorder() is NOOP, "benchmark requires the disabled default"
    system, mls = _pipeline_inputs()

    def once():
        ClockSynchronizer(system).from_local_estimates(mls)

    once()  # warm import/caches before timing
    assert_within_baseline_gate(once, "telemetry disabled", capsys)


def test_monitored_run_cost_is_bounded(capsys):
    """Monitors cost something; they must not dominate the pipeline."""
    system, mls = _pipeline_inputs()
    sync = ClockSynchronizer(system)
    sync.from_local_estimates(mls)
    unmonitored = _best_of(lambda: sync.from_local_estimates(mls))
    with recording() as recorder:
        # Views-only monitors (no execution): the closure-structure
        # triangle scan is O(n^3), same order as the pipeline itself.
        suite = MonitorSuite()
        recorder.add_observer(suite)
        monitored = _best_of(lambda: sync.from_local_estimates(mls))
    assert suite.checks >= REPEATS
    assert suite.ok, [v.message for v in suite.violations]
    with capsys.disabled():
        print(
            f"\nmonitored {monitored:.5f}s  unmonitored {unmonitored:.5f}s"
            f"  ratio {monitored / unmonitored:.2f}"
        )
    assert monitored <= unmonitored * 25.0


def test_enabled_recorder_without_observers_does_not_emit():
    system, mls = _pipeline_inputs()
    sync = ClockSynchronizer(system)
    with recording() as recorder:
        sync.from_local_estimates(mls)
        assert recorder.observers == []
    # The pipeline.result guard requires observers; with none attached
    # a later-added probe must have seen nothing retroactively.
    seen = []

    class Probe:
        def on_telemetry(self, kind, data):
            seen.append(kind)

    with recording() as recorder:
        recorder.add_observer(Probe())
        sync.from_local_estimates(mls)
    assert seen == ["pipeline.result"]
