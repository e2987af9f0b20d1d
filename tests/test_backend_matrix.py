"""Engine vs dict oracle on every delay model.

For each scenario family, the matrix engine behind
:class:`~repro.core.synchronizer.ClockSynchronizer` must produce a
certified result whose precision matches the dict SHIFTS oracle
(:func:`repro.core.shifts.shifts`) under each of its cycle-mean methods,
and whose corrections are optimal under the oracle's ``ms~``.
"""

import pytest

from repro.core.global_estimates import global_shift_estimates
from repro.core.optimality import verify_certificate
from repro.core.precision import rho_bar
from repro.core.shifts import CYCLE_MEAN_METHODS, shifts
from repro.core.synchronizer import ClockSynchronizer
from repro.graphs.topology import ring
from repro.workloads.scenarios import (
    bounded_uniform,
    fully_asynchronous,
    heterogeneous,
    lower_bound_only,
    round_trip_bias,
)

SCENARIOS = {
    "bounded": lambda: bounded_uniform(ring(5), lb=1.0, ub=3.0, seed=5),
    "lower-only": lambda: lower_bound_only(ring(5), lb=1.0, mean_extra=2.0, seed=5),
    "async": lambda: fully_asynchronous(ring(5), mean_delay=2.0, seed=5),
    "bias": lambda: round_trip_bias(ring(5), bias=0.5, seed=5),
    "hetero": lambda: heterogeneous(ring(5), seed=5),
}


@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
@pytest.mark.parametrize("method", sorted(CYCLE_MEAN_METHODS))
def test_backend_certified_on_every_model(scenario_name, method):
    scenario = SCENARIOS[scenario_name]()
    alpha = scenario.run()
    result = ClockSynchronizer(scenario.system).from_execution(alpha)
    verify_certificate(result)
    # Cross-check precision against the dict oracle under ``method``.
    processors = list(scenario.system.processors)
    ms_oracle = global_shift_estimates(processors, result.mls_tilde)
    oracle = shifts(processors, ms_oracle, method=method)
    assert result.precision == pytest.approx(oracle.precision, abs=1e-9)
    # Both correction sets are optimal under the oracle's ms~.
    assert rho_bar(ms_oracle, result.corrections) == pytest.approx(
        oracle.precision, abs=1e-7
    )
    assert rho_bar(ms_oracle, oracle.corrections) == pytest.approx(
        oracle.precision, abs=1e-7
    )
