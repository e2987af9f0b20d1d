"""The benchmark's workloads: inputs from a seed, one op, its check.

Three workloads are closed loops with one caller, driven by
``run_closed_loop`` in ``run.py``; ``live-loopback`` is an open loop on
a real asyncio cluster.  Each closed-loop
workload has two ways of running an op:

* ``op(i)`` -- the public call a user makes (``repro.run``,
  ``repro.sweep``, ``OnlineSynchronizer.observe`` + ``result``); the
  untraced runs time only this;
* ``traced_op(i, tracer)`` -- the same work, split at the public
  functions of each layer and wrapped in spans.  Time inside one
  program call is split further only with counters the program already
  exports (the engine's per-stage ``stats``).

The traced run alternates the two, so the traced and untraced medians
come from the same minutes of the same process; their difference is
the tracing overhead.
"""

from __future__ import annotations

import asyncio
import math
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import repro
from repro.core.estimates import local_shift_estimates
from repro.core.optimality import CertificateError, verify_certificate
from repro.core.precision import realized_spread
from repro.core.shifts import shifts as dict_shifts
from repro.core.synchronizer import ClockSynchronizer, SyncResult
from repro.extensions.online import OnlineSynchronizer
from repro.graphs.topology import complete, grid, random_connected, ring
from repro.session import resolve_source
from repro.workloads import scenarios

from spans import Tracer

#: Tolerance of every numeric output check.
TOL = 1e-9

#: Engine stage (as named in ``engine.stats.timings``) -> layer row.
ENGINE_LAYERS = {
    "global_estimates": "engine.closure",
    "components": "engine.shifts",
    "shifts": "engine.shifts",
    "incremental_update": "engine.incremental",
}


class CheckFailed(Exception):
    """An op's output is wrong (as opposed to the op failing to run)."""


@contextmanager
def engine_attribution(tracer: Tracer, engine) -> Iterator[None]:
    """Charge the engine stages run inside the block to their layers."""
    before = engine.stats.timings
    yield
    after = engine.stats.timings
    for stage, layer in ENGINE_LAYERS.items():
        delta = after.get(stage, 0.0) - before.get(stage, 0.0)
        if delta > 0.0:
            tracer.attribute(layer, delta)


def traced_pipeline(tracer: Tracer, system, views) -> SyncResult:
    """``repro.run(system, views)`` split at each layer's public call."""
    views = resolve_source(views, processors=system.processors)
    synchronizer = ClockSynchronizer(system)
    with tracer.span("estimates"):
        mls = local_shift_estimates(system, views)
    with tracer.span("sync.glue"):
        mls_matrix = synchronizer.index.matrix(mls)
    with tracer.span("engine.closure"):
        ms_matrix = synchronizer.engine.global_estimates(mls_matrix)
    with tracer.span("sync.glue"), engine_attribution(
        tracer, synchronizer.engine
    ):
        result = synchronizer.from_matrices(
            mls, mls_matrix=mls_matrix, ms_matrix=ms_matrix
        )
    with tracer.span("certify"):
        verify_certificate(result)
    return result


def compare_results(
    result: SyncResult, reference: SyncResult, tol: float = TOL
) -> Tuple[Optional[str], int]:
    """(problem or None, count of values not bit-equal to the reference).

    Compares every correction and the precision.  A value off by more
    than ``tol`` (relative to max(1, |value|)) is a problem.
    """
    pairs = [(result.precision, reference.precision, "precision")]
    if set(result.corrections) != set(reference.corrections):
        return "corrections cover different processors", 0
    pairs.extend(
        (result.corrections[p], reference.corrections[p], f"correction {p!r}")
        for p in reference.corrections
    )
    problem = None
    inexact = 0
    for got, want, what in pairs:
        if got == want:
            continue
        inexact += 1
        if not abs(got - want) <= tol * max(1.0, abs(want)):
            problem = problem or f"{what}: {got!r} != reference {want!r}"
    return problem, inexact


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q / 100.0
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _answer(corrections, precision: float) -> SyncResult:
    """A result holding only corrections and precision."""
    return SyncResult(
        corrections=dict(corrections),
        precision=precision,
        components=(),
        mls_tilde={},
        ms_tilde={},
    )


class Workload:
    """Defaults shared by the closed-loop workloads.

    ``paired`` is set for the traced run, where the workload traces
    every other op and runs the rest untraced.
    """

    name = ""
    params: Dict[str, object] = {}
    #: Whether the untraced op goes through the campaign runner while
    #: the traced op does not (their difference is the runner's cost).
    via_runner = False

    def __init__(self, seed: int, *, paired: bool = False, **params) -> None:
        unknown = set(params) - set(self.params)
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)}")
        self.seed = seed
        self.paired = paired
        self.params = {**self.params, **params}

    def is_traced(self, i: int) -> bool:
        return self.paired and i % 2 == 1

    def check_setup(self) -> None:
        """A check that runs once, after the timed set-ups."""

    def counts(self) -> Dict[str, float]:
        """Per-layer counts gathered by the ops of this run."""
        return {}


# ----------------------------------------------------------------------
# batch-ring256
# ----------------------------------------------------------------------

class BatchRing(Workload):
    """``repro.run(system, views)``, cycling over a few sets of views.

    Instance ``k`` is simulated from seed ``1000 * seed + k``.  SHIFTS
    time depends on the instance (a long critical cycle costs more in
    the cycle search and in Bellman--Ford), so one instance per run
    would make the run's figures depend on which instance the seed drew.
    Every op is certified inside ``repro.run``; its result must equal
    the first result on the same instance, and instance 0's result is
    compared once with the dict-based SHIFTS oracle.
    """

    name = "batch-ring256"
    params = {"n": 256, "lb": 1.0, "ub": 3.0, "probes": 2, "instances": 8}

    def setup(self) -> None:
        p = self.params
        self.instances = []
        for k in range(p["instances"]):
            scenario = scenarios.bounded_uniform(
                ring(p["n"]), lb=p["lb"], ub=p["ub"], probes=p["probes"],
                seed=1000 * self.seed + k,
            )
            self.instances.append((scenario.system, scenario.run().views()))
        # Warm-up op; it also gives instance 0 its reference.
        self.references = [None] * len(self.instances)
        self.references[0] = repro.run(*self.instances[0])

    def check_setup(self) -> None:
        """Instance 0's answer against the dict-based SHIFTS oracle."""
        system = self.instances[0][0]
        ref = self.references[0]
        oracle = dict_shifts(
            list(system.processors), ref.ms_tilde, method="howard"
        )
        problem, _ = compare_results(
            ref, _answer(oracle.corrections, oracle.precision)
        )
        if problem is not None:
            raise CheckFailed(f"dict oracle: {problem}")

    def _slot(self, i: int) -> int:
        # Paired, each instance runs once untraced, then once traced.
        return (i // 2 if self.paired else i) % len(self.instances)

    def op(self, i: int) -> SyncResult:
        return repro.run(*self.instances[self._slot(i)])

    def traced_op(self, i: int, tracer: Tracer) -> SyncResult:
        return traced_pipeline(tracer, *self.instances[self._slot(i)])

    def check(self, i: int, result: SyncResult) -> None:
        k = self._slot(i)
        if self.references[k] is None:
            # Keep only what the comparison reads, not the n^2 estimates.
            self.references[k] = _answer(result.corrections, result.precision)
            return
        problem, _ = compare_results(result, self.references[k])
        if problem is not None:
            raise CheckFailed(problem)


# ----------------------------------------------------------------------
# campaign-mixed
# ----------------------------------------------------------------------

def _bounded(topology, seed):
    return scenarios.bounded_uniform(topology, 1.0, 3.0, seed=seed)


def _lower_only(topology, seed):
    return scenarios.lower_bound_only(topology, 1.0, 2.0, seed=seed)


def _async(topology, seed):
    return scenarios.fully_asynchronous(topology, 2.0, seed=seed)


def _bias(topology, seed):
    return scenarios.round_trip_bias(topology, 0.5, seed=seed)


def _heterogeneous(topology, seed):
    return scenarios.heterogeneous(topology, seed=seed)


#: The four Section 6 models plus the per-link mixture.
BUILDERS = (
    ("bounded", _bounded),
    ("lower-only", _lower_only),
    ("async", _async),
    ("bias", _bias),
    ("heterogeneous", _heterogeneous),
)


class CampaignMixed(Workload):
    """One op is one cell of ``repro.sweep(..., workers=1)``.

    Cells run builders outer, topologies inner, so every three cells
    hold one dense ``complete`` graph and a run that stops mid-grid
    still sees the grid's mix.  Grid round ``r`` uses scenario seed
    ``1000 * seed + r``.  Each cell of each round draws its own
    ``random_connected`` graph (graphs repeat after ``rounds`` rounds):
    a random graph's cell time grows with its link count squared, so a
    run's middle-cost cells must come from many graphs, not one.  In the
    traced run each cell runs twice in a row, through the sweep and then
    split into layers, and the two precisions must be equal.
    """

    name = "campaign-mixed"
    via_runner = True
    params = {
        "complete": 32,
        "random": (48, 0.15),
        "grid": (6, 8),
        "rounds": 16,
    }

    def __init__(self, seed: int, **options) -> None:
        super().__init__(seed, **options)
        self.messages: List[int] = []
        self._swept: Dict[int, float] = {}

    def setup(self) -> None:
        p = self.params
        dense, mesh = complete(p["complete"]), grid(*p["grid"])
        self.grids = [
            [
                (name, builder, topology)
                for b, (name, builder) in enumerate(BUILDERS)
                for topology in (
                    dense,
                    random_connected(
                        *p["random"], 1000 * self.seed + len(BUILDERS) * r + b
                    ),
                    mesh,
                )
            ]
            for r in range(p["rounds"])
        ]
        # Warm-up through the same runner, on the cheapest cell.
        self._sweep(self.grids[0][-1], seed=-1)

    def _cell(self, i: int):
        k = i // 2 if self.paired else i
        rounds, slot = divmod(k, len(self.grids[0]))
        cells = self.grids[rounds % len(self.grids)]
        return k, cells[slot], 1000 * self.seed + rounds

    @staticmethod
    def _sweep(cell, seed: int) -> float:
        name, builder, topology = cell
        table = repro.sweep(
            {name: builder}, [topology], seeds=(seed,), workers=1
        )
        (_, _, precision, _, _, sound), = table.rows
        if not sound:
            raise CheckFailed(f"cell {name}:{topology.name} not sound")
        return precision

    def op(self, i: int) -> float:
        k, cell, seed = self._cell(i)
        precision = self._sweep(cell, seed)
        self._swept[k] = precision
        return precision

    def traced_op(self, i: int, tracer: Tracer) -> float:
        k, (name, builder, topology), seed = self._cell(i)
        scenario = builder(topology, seed)
        with tracer.span("sim.run"):
            alpha = scenario.run()
            views = alpha.views()
        self.messages.append(len(alpha.message_records()))
        result = traced_pipeline(tracer, scenario.system, views)
        spread = realized_spread(alpha.start_times(), result.corrections)
        if spread > result.precision + TOL:
            raise CheckFailed(f"cell {name}:{topology.name} not sound")
        swept = self._swept.pop(k, None)
        if swept is not None and swept != result.precision:
            raise CheckFailed(
                f"cell {k}: traced precision {result.precision!r} != "
                f"sweep {swept!r}"
            )
        return result.precision

    def check(self, i: int, precision: float) -> None:
        if not math.isfinite(precision):
            raise CheckFailed(f"op {i}: precision {precision}")

    def counts(self) -> Dict[str, float]:
        if not self.messages:  # counted by the traced ops only
            return {}
        return {"sim.messages": sum(self.messages) / len(self.messages)}


# ----------------------------------------------------------------------
# online-ring64
# ----------------------------------------------------------------------

class OnlineRing(Workload):
    """One op is ``observe()`` of the next delivered message + ``result()``.

    Observations are the views' estimated delays (receive clock minus
    send clock, as :func:`repro.core.estimates.estimated_delays` computes
    them), in delivery order.  A pass streams every observation of one
    instance once, from a fresh synchronizer; the last op of a pass must
    match ``from_views`` on the same views.  Passes cycle over instances
    simulated from seeds ``1000 * seed + k``: an op costs about twice as
    much once the observed graph is connected, and where that happens in
    a pass depends on the instance.
    """

    name = "online-ring64"
    params = {
        "n": 64, "lb": 1.0, "ub": 3.0, "probes": 2, "instances": 16,
        "warmup_ops": 32,
    }

    def __init__(self, seed: int, **options) -> None:
        super().__init__(seed, **options)
        self.refreshes = 0
        self.incremental = 0
        self.exact_mismatch = 0

    def setup(self) -> None:
        p = self.params
        self.instances = [
            self._build(1000 * self.seed + k) for k in range(p["instances"])
        ]
        self.pass_length = len(self.instances[0][1])
        if any(len(obs) != self.pass_length for _, obs, _ in self.instances):
            raise ValueError("instances differ in observation count")
        system, observations, _ = self.instances[0]
        warm = OnlineSynchronizer(system)
        for sender, receiver, delay in observations[: p["warmup_ops"]]:
            warm.observe(sender, receiver, delay)
            warm.result()
        self.online: Optional[OnlineSynchronizer] = None
        self.last_precision = math.inf

    def _build(self, seed: int):
        """(system, observations in delivery order, from_views result)."""
        p = self.params
        scenario = scenarios.bounded_uniform(
            ring(p["n"]), lb=p["lb"], ub=p["ub"], probes=p["probes"],
            seed=seed,
        )
        alpha = scenario.run()
        views = alpha.views()
        send_clock: Dict[int, float] = {}
        receive_clock: Dict[int, float] = {}
        for view in views.values():
            send_clock.update(view.send_clock_times())
            receive_clock.update(view.receive_clock_times())
        records = sorted(
            alpha.message_records().values(),
            key=lambda r: (r.receive_real_time, r.message.uid),
        )
        observations = [
            (
                r.message.sender,
                r.message.receiver,
                receive_clock[r.message.uid] - send_clock[r.message.uid],
            )
            for r in records
        ]
        reference = ClockSynchronizer(scenario.system).from_views(views)
        return scenario.system, observations, reference

    def is_traced(self, i: int) -> bool:
        # Passes have an even length; shift the parity every pass so a
        # pass's first refresh (a full closure) is traced every other pass.
        return self.paired and (i + i // self.pass_length) % 2 == 1

    def _next(self, i: int):
        passes, j = divmod(i, self.pass_length)
        system, observations, _ = self.instances[passes % len(self.instances)]
        if j == 0:
            self.online = OnlineSynchronizer(system)
        return observations[j]

    def op(self, i: int) -> SyncResult:
        sender, receiver, delay = self._next(i)
        self.online.observe(sender, receiver, delay)
        return self.online.result()

    def traced_op(self, i: int, tracer: Tracer) -> SyncResult:
        sender, receiver, delay = self._next(i)
        with tracer.span("online.observe"):
            self.online.observe(sender, receiver, delay)
        engine = self.online.synchronizer.engine
        before = engine.stats.counters
        with tracer.span("online.refresh"), engine_attribution(
            tracer, engine
        ):
            result = self.online.result()
        after = engine.stats.counters

        def calls(stage: str) -> int:
            key = f"{stage}.calls"
            return after.get(key, 0) - before.get(key, 0)

        # from_matrices runs components once per refresh.
        self.refreshes += calls("components")
        self.incremental += calls("incremental_update")
        return result

    def check(self, i: int, result: SyncResult) -> None:
        passes, j = divmod(i, self.pass_length)
        if j == 0:
            self.last_precision = math.inf
        # New observations only tighten estimates: precision never grows.
        if result.precision > self.last_precision * (1 + TOL) + TOL:
            raise CheckFailed(
                f"op {i}: precision rose {self.last_precision!r} -> "
                f"{result.precision!r}"
            )
        self.last_precision = result.precision
        if j == self.pass_length - 1:
            reference = self.instances[passes % len(self.instances)][2]
            try:
                verify_certificate(result)
            except CertificateError as exc:
                raise CheckFailed(f"streamed result: {exc}") from exc
            problem, inexact = compare_results(result, reference)
            self.exact_mismatch = max(self.exact_mismatch, inexact)
            if problem is not None:
                raise CheckFailed(f"streamed != from_views: {problem}")

    def counts(self) -> Dict[str, float]:
        counts = {"online.exact_mismatch": self.exact_mismatch}
        if self.paired:  # refreshes are counted by the traced ops
            counts["online.refreshes"] = self.refreshes
            counts["online.incremental_share"] = (
                self.incremental / self.refreshes if self.refreshes else 0.0
            )
        return counts


CLOSED_LOOP = {cls.name: cls for cls in (BatchRing, CampaignMixed, OnlineRing)}


# ----------------------------------------------------------------------
# live-loopback
# ----------------------------------------------------------------------

class LiveLoopback:
    """An open loop of correction queries against a 4-peer ``LiveCluster``.

    Query ``i`` is due at ``i / rate`` seconds after the timed phase
    starts, and is sent by client ``i % clients`` whether or not earlier
    queries were answered.  Its latency runs from when it was due, so a
    stall counts against every query that waited behind it.  A query
    fails when it times out (after the client's retries) or its answer
    is not ``ok``.
    """

    name = "live-loopback"
    params = {
        "peers": 4,
        "interval": 0.01,
        "rate": 300.0,
        "clients": 2,
        "warmup_observations": 24,
        "timeout": 1.0,
        "retries": 3,
        "audit_cuts": 20,
    }

    def __init__(self, seed: int, **params) -> None:
        unknown = set(params) - set(self.params)
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)}")
        self.seed = seed
        self.params = {**self.params, **params}

    async def _boot(self):
        from repro.live.cluster import ClusterConfig, LiveCluster

        p = self.params
        cluster = LiveCluster(
            ClusterConfig(
                peers=p["peers"], interval=p["interval"], net_seed=self.seed
            )
        )
        await cluster.start()
        try:
            await cluster.wait_for_observations(p["warmup_observations"])
            nodes = list(cluster.topology.nodes)
            clients = [
                await cluster.client(nodes[c % len(nodes)])
                for c in range(p["clients"])
            ]
            for client in clients:
                await client.query(timeout=p["timeout"], retries=p["retries"])
        except BaseException:
            await cluster.stop()
            raise
        return cluster, clients

    async def run(self, seconds: float, setups: int, recorder=None) -> dict:
        """Set up ``setups`` times (keeping the last cluster), then load."""
        setup_times = []
        cluster = clients = None
        for k in range(setups):
            started = time.perf_counter()
            cluster, clients = await self._boot()
            setup_times.append(time.perf_counter() - started)
            if k < setups - 1:
                await cluster.stop()
        try:
            out = await self._load(cluster, clients, seconds)
            started = time.perf_counter()
            replay = self._audit(cluster)
            out["replay.audit_s"] = time.perf_counter() - started
            out["replay.checked"] = replay.checked
            if not replay.ok:
                out["problems"].append(replay.describe())
            totals = cluster.transport_summary().get("totals", {})
            out["transport"] = totals
            out["answers"] = list(cluster.server.answers[-1:])
            if recorder is not None:
                out["server"] = self._server_metrics(recorder)
        finally:
            await cluster.stop()
        out["setup_times"] = setup_times
        return out

    def _audit(self, cluster):
        """``verify_replay`` over the answers of ``audit_cuts`` cuts.

        The full audit replays ``from_views`` once per distinct cut over
        a log that grows with the run, so its cost grows with the square
        of the run length; cuts evenly spread over the run (first and
        last included) keep it within the run's time limit.
        """
        from repro.live.replay import verify_replay_equality

        answers = [a for a in cluster.server.answers if a.status == "ok"]
        cuts = sorted({a.cut for a in answers})
        keep = self.params["audit_cuts"]
        if len(cuts) > keep:
            step = (len(cuts) - 1) / (keep - 1)
            cuts = [cuts[round(k * step)] for k in range(keep)]
        chosen = set(cuts)
        return verify_replay_equality(
            cluster.server.probe_log,
            [a for a in answers if a.cut in chosen],
            cluster.system,
        )

    async def _load(self, cluster, clients, seconds: float) -> dict:
        p = self.params
        rate = p["rate"]
        total = max(1, int(seconds * rate))
        latencies: List[float] = []
        late: List[float] = []
        lag: List[float] = []
        problems: List[str] = []
        failed = 0

        async def one(client, due: float) -> None:
            nonlocal failed
            try:
                answer = await client.query(
                    timeout=p["timeout"], retries=p["retries"]
                )
            except TimeoutError:
                failed += 1
                return
            if answer.status != "ok":
                failed += 1
                return
            latencies.append(time.perf_counter() - due)

        running = True

        async def lag_monitor() -> None:
            # A periodic callback the benchmark owns in the cluster's loop.
            period = 0.01
            while running:
                expected = time.perf_counter() + period
                await asyncio.sleep(period)
                lag.append(time.perf_counter() - expected)

        monitor = asyncio.ensure_future(lag_monitor())
        tasks = []
        started = time.perf_counter()
        try:
            for i in range(total):
                due = started + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                late.append(time.perf_counter() - due)
                tasks.append(
                    asyncio.ensure_future(one(clients[i % len(clients)], due))
                )
            await asyncio.gather(*tasks)
        finally:
            running = False
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await monitor
        elapsed = time.perf_counter() - started
        return {
            "attempted": total,
            "failed": failed,
            "latencies": latencies,
            "elapsed": elapsed,
            "problems": problems,
            "gen.late_p50_ms": 1e3 * percentile(late, 50),
            "loop.lag_p90_ms": 1e3 * percentile(lag, 90),
        }

    @staticmethod
    def _server_metrics(recorder) -> Dict[str, float]:
        from repro.obs.report import quantile

        registry = recorder.registry
        counters = registry.counters("live.server.")
        request = registry.histogram("live.server.request_seconds")
        refresh = registry.histogram("live.server.refresh_seconds")
        queries = counters.get("live.server.queries", 0.0)
        hits = counters.get("live.server.cache_exact", 0.0) + counters.get(
            "live.server.cache_fresh", 0.0
        )
        return {
            "server.request_p50_ms": 1e3 * quantile(request, 0.5),
            "server.request_p90_ms": 1e3 * quantile(request, 0.9),
            "server.refresh_p90_ms": 1e3 * quantile(refresh, 0.9),
            "server.refreshes": counters.get("live.server.refreshes", 0.0),
            "server.cache_hit_share": hits / queries if queries else 0.0,
        }


def wire_codec_us(sample_answer, rounds: int = 2000) -> Dict[str, float]:
    """Encode and decode times of the benchmark's own datagrams, in µs."""
    from repro.live.wire import Query, decode, encode

    messages = [Query(client=0, qid=7)]
    if sample_answer is not None:
        messages.append(sample_answer)
    datagrams = [encode(m) for m in messages]
    calls = rounds * len(messages)
    started = time.perf_counter()
    for _ in range(rounds):
        for message in messages:
            encode(message)
    encode_us = 1e6 * (time.perf_counter() - started) / calls
    started = time.perf_counter()
    for _ in range(rounds):
        for data in datagrams:
            decode(data)
    decode_us = 1e6 * (time.perf_counter() - started) / calls
    return {"wire.encode_us": encode_us, "wire.decode_us": decode_us}
