"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-ring256 --seed 1 \\
        --seconds 35 --trace 0

The program is imported from the checkout's own ``src/``; without it
the command exits with code 2 and prints no result.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full
result -- provenance, every metric, the layer table and, for a traced
run, every span -- is written to ``perfbench/out/``.  The exit code is
1 when an output check failed or an op failed, else 0.

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: A closed-loop run sets up at least ``SETUPS`` times, and again while
#: its set-ups have taken less than ``SETUP_SECONDS`` in all, up to
#: ``MAX_SETUPS``; ``setup_s`` is their median.  A cheap set-up is thus
#: timed many times, and a brief slow moment of the machine moves the
#: median less.
SETUPS = 3
SETUP_SECONDS = 2.0
MAX_SETUPS = 15

END_TO_END_UNITS = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Layers that partition a traced op: base name -> metric name in
#: seconds per op.  ``online.refresh``'s self time (a refresh minus its
#: engine stages) is synchronizer glue and is counted in ``sync.glue``.
PARTITION = {
    "sim.run": "sim.run_s",
    "estimates": "estimates.s",
    "sync.glue": "sync.glue_s",
    "engine.closure": "engine.closure_s",
    "engine.shifts": "engine.shifts_s",
    "engine.incremental": "engine.incremental_s",
    "certify": "certify.s",
    "online.observe": "online.observe_s",
    "residual": "residual_s",
}

COUNTS = (
    "sim.messages",
    "online.refreshes",
    "online.incremental_share",
    "online.exact_mismatch",
)


def source_available() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def git_commit() -> Optional[str]:
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over ``src/`` (path and bytes of every file, sorted)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: bool,
               setups: int, params: dict) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setups": setups,
        "params": params,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Closed loop
# ----------------------------------------------------------------------

def timed_setups(setup) -> List[float]:
    """Run ``setup`` ``SETUPS`` to ``MAX_SETUPS`` times; their durations."""
    times: List[float] = []
    while len(times) < SETUPS or (
        sum(times) < SETUP_SECONDS and len(times) < MAX_SETUPS
    ):
        started = time.perf_counter()
        setup()
        times.append(time.perf_counter() - started)
    return times


def run_closed_loop(workload, seconds: float, trace: bool) -> dict:
    """Set up as ``timed_setups`` says, then run ops back to back for
    ``seconds``.

    Untraced, every op is the public call.  Traced, the workload traces
    every other op and runs the rest untraced.  An op that raises or
    whose output check fails counts as failed, and its problem is kept.
    """
    from cases import CheckFailed
    from spans import Tracer

    setup_times = timed_setups(workload.setup)
    problems: List[str] = []
    try:
        workload.check_setup()
    except CheckFailed as exc:
        problems.append(f"set-up check: {exc}")
    tracer = Tracer()
    latencies: Dict[bool, List[float]] = {False: [], True: []}
    attempted = failed = 0
    gc.collect()
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        i = attempted
        traced = workload.is_traced(i)
        attempted += 1
        op_started = time.perf_counter()
        try:
            if traced:
                with tracer.op(i):
                    output = workload.traced_op(i, tracer)
            else:
                output = workload.op(i)
            op_seconds = time.perf_counter() - op_started
            workload.check(i, output)
        except CheckFailed as exc:
            failed += 1
            problems.append(f"op {i}: {exc}")
            continue
        except Exception as exc:  # a failed op is counted, not fatal
            failed += 1
            problems.append(f"op {i} raised {exc!r}")
            continue
        latencies[traced].append(op_seconds)
    elapsed = time.perf_counter() - started
    return {
        "setup_times": setup_times,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "elapsed": elapsed,
        "latencies": latencies[False],
        "traced_latencies": latencies[True],
        "tracer": tracer,
        "counts": workload.counts(),
        "via_runner": workload.via_runner,
    }


def end_to_end(run: dict) -> Dict[str, float]:
    from cases import percentile

    latencies = run["latencies"]
    ok = run["attempted"] - run["failed"]
    return {
        "throughput_ops_s": ok / run["elapsed"],
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        "latency_p90_ms": 1e3 * percentile(latencies, 90),
        "ok_share": ok / run["attempted"],
        "setup_s": statistics.median(run["setup_times"]),
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(run: dict) -> Dict[str, float]:
    """Per-layer metrics of a traced closed-loop run.

    ``<layer>_s`` is self time per traced op; ``<layer>.share`` is the
    same as a percentage of the traced op time.
    """
    rows = run["tracer"].layer_table()
    ops = rows["op"]["calls"]
    op_s = rows["op"]["incl_s"] / ops

    def self_s(name: str) -> float:
        return rows.get(name, {}).get("self_s", 0.0) / ops

    per_op = {
        base: self_s(base) for base in PARTITION if base != "residual"
    }
    per_op["sync.glue"] += self_s("online.refresh")
    per_op["residual"] = self_s("op")
    refresh_s = rows.get("online.refresh", {}).get("incl_s", 0.0) / ops
    untraced = statistics.median(run["latencies"])
    traced = statistics.median(run["traced_latencies"])
    layered = op_s - per_op["residual"]
    overhead_s = (
        statistics.mean(run["latencies"]) - layered
        if run["via_runner"]
        else 0.0
    )
    metrics = {"op_s": op_s}
    metrics.update({PARTITION[base]: v for base, v in per_op.items()})
    metrics["online.refresh_s"] = refresh_s
    metrics["campaign.overhead_s"] = overhead_s
    metrics.update(
        {f"{base}.share": 100.0 * v / op_s for base, v in per_op.items()}
    )
    metrics["online.refresh.share"] = 100.0 * refresh_s / op_s
    metrics["campaign.overhead.share"] = (
        100.0 * overhead_s / statistics.mean(run["latencies"])
    )
    metrics["tracing.overhead"] = traced / untraced - 1.0
    # Counts of layers the workload's ops never reach are 0.
    metrics.update(dict.fromkeys(COUNTS, 0.0))
    metrics.update(run["counts"])
    return metrics


# ----------------------------------------------------------------------
# Open loop (live-loopback)
# ----------------------------------------------------------------------

def run_live(workload, seconds: float, trace: bool) -> dict:
    from cases import wire_codec_us

    if trace:
        from repro.obs.recorder import Recorder, recording

        with recording(Recorder()) as recorder:
            run = asyncio.run(workload.run(seconds, SETUPS, recorder))
    else:
        run = asyncio.run(workload.run(seconds, SETUPS))
    totals = run.pop("transport")
    sent = totals.get("segments_sent", 0.0)
    delivered = totals.get("delivered", 0.0)
    layers = {
        "transport.retransmit_ratio": (
            totals.get("retransmits", 0.0) / sent if sent else 0.0
        ),
        "transport.duplicate_ratio": (
            totals.get("duplicates", 0.0) / delivered if delivered else 0.0
        ),
        "transport.retransmits": totals.get("retransmits", 0.0),
        "transport.duplicates": totals.get("duplicates", 0.0),
        "gen.late_p50_ms": run.pop("gen.late_p50_ms"),
        "loop.lag_p90_ms": run.pop("loop.lag_p90_ms"),
        "replay.audit_s": run.pop("replay.audit_s"),
        "replay.checked": run.pop("replay.checked"),
    }
    layers.update(wire_codec_us(next(iter(run.pop("answers")), None)))
    layers.update(run.pop("server", {}))
    run["layers"] = layers
    return run


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def live_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith(("_ratio", "_share")) else "count"


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 **params) -> dict:
    """Run one workload; return the result line plus everything else."""
    from cases import CLOSED_LOOP, LiveLoopback

    if name == LiveLoopback.name:
        workload = LiveLoopback(seed, **params)
        run = run_live(workload, seconds, trace)
        layers = run.pop("layers")
    elif name in CLOSED_LOOP:
        workload = CLOSED_LOOP[name](seed, paired=trace, **params)
        run = run_closed_loop(workload, seconds, trace)
        layers = layer_metrics(run) if trace else run["counts"]
    else:
        raise ValueError(f"unknown workload {name!r}")
    e2e = end_to_end(run)
    if not trace:
        units, pool = END_TO_END_UNITS, e2e
    elif name == LiveLoopback.name:
        # Not a BENCHMARK.json workload: report its own layer set.
        units, pool = {n: live_unit(n) for n in sorted(layers)}, layers
    else:
        units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
        pool = layers
    line = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            n: {"value": pool[n], "unit": unit} for n, unit in units.items()
        },
    }
    return {
        "line": line,
        "end_to_end": e2e,
        "layers": layers,
        "run": run,
        "provenance": provenance(
            name, seed, seconds, trace, len(run["setup_times"]),
            dict(workload.params),
        ),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not source_available():
        print(
            f"error: no program source at {SRC / 'repro'}; run from the "
            "root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    out = run_workload(args.workload, args.seed, args.seconds, trace)
    report(out, args)
    line = out["line"]
    print(json.dumps(line))
    return 0 if line["correct"] and line["failed"] == 0 else 1


def report(out: dict, args) -> None:
    """Print the human-readable report and write the full result file."""
    from spans import format_layer_table

    run = out["run"]
    print("provenance " + json.dumps(out["provenance"], sort_keys=True))
    for problem in run["problems"][:20]:
        print(f"CHECK FAILED {problem}")
    print(f"ops attempted {run['attempted']} failed {run['failed']}")
    for name, value in out["end_to_end"].items():
        print(f"{name:<22}{value:>16.6g} {END_TO_END_UNITS[name]}")
    for name, value in sorted(out["layers"].items()):
        print(f"{name:<28}{value:>16.6g}")
    record = {
        "provenance": out["provenance"],
        "result": out["line"],
        "end_to_end": out["end_to_end"],
        "layers": out["layers"],
        "problems": run["problems"],
    }
    tracer = run.get("tracer")
    if args.trace and tracer is not None:
        rows = tracer.layer_table()
        print(format_layer_table(rows))
        record["layer_table"] = rows
        record["trace"] = tracer.dump()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())
