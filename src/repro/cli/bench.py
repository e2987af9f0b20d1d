"""``bench`` subcommand: continuous benchmarking run/compare/report."""

from __future__ import annotations

import argparse
import sys


def _cmd_bench_run(args: argparse.Namespace) -> int:
    """Measure a benchmark suite, archive it, print the report."""
    from repro.bench import (
        append_history,
        render_report,
        run_suite,
        write_bench_report,
    )

    try:
        outcome = run_suite(
            suite=args.suite,
            names=args.name or None,
            repeats=args.repeats,
            warmup=args.warmup,
            collect_spans=args.profile,
            progress=lambda key: print(f"bench: {key}"),
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print()
    print(render_report(outcome.report, outcome.spans, top=args.top))
    if args.out:
        path = write_bench_report(args.out, outcome.report)
        print(f"\nreport written to {path}")
    if not args.no_history:
        path = append_history(args.history, outcome.report)
        print(f"run appended to {path}")
    return 0


def _cmd_bench_compare(args: argparse.Namespace) -> int:
    """Gate a run against a baseline; exit 1 on regression."""
    from repro.bench import (
        BaselineMismatchError,
        BenchSchemaError,
        compare_reports,
        comparison_table,
        read_bench_report,
        resolve_tolerance,
    )

    try:
        tolerance, allow_cross_env = resolve_tolerance(args.tolerance)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.allow_cross_env:
        allow_cross_env = True
    try:
        baseline = read_bench_report(args.baseline)
        current = read_bench_report(args.current)
    except (OSError, BenchSchemaError, ValueError) as exc:
        print(f"cannot load reports: {exc}", file=sys.stderr)
        return 2
    try:
        comparison = compare_reports(
            baseline, current,
            tolerance=tolerance,
            allow_cross_env=allow_cross_env,
        )
    except BaselineMismatchError as exc:
        print(exc, file=sys.stderr)
        return 2
    for line in comparison.lines():
        print(line)
    print()
    comparison_table(comparison).show()
    return 0 if comparison.ok else 1


def _cmd_bench_report(args: argparse.Namespace) -> int:
    """Render an archived report, or measure live with span profiling."""
    from repro.bench import (
        BenchSchemaError,
        read_bench_report,
        render_report,
        run_suite,
    )

    if args.from_file:
        try:
            report = read_bench_report(args.from_file)
        except (OSError, BenchSchemaError, ValueError) as exc:
            print(f"cannot load report: {exc}", file=sys.stderr)
            return 2
        print(render_report(report, top=args.top))
        return 0
    try:
        outcome = run_suite(
            suite=args.suite,
            names=args.name or None,
            repeats=args.repeats,
            warmup=args.warmup,
            collect_spans=True,
            progress=lambda key: print(f"bench: {key}"),
        )
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print()
    print(render_report(outcome.report, outcome.spans, top=args.top))
    return 0


def _add_bench_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--suite", choices=["smoke", "full"], default="smoke",
        help="benchmark tier: 'smoke' is the small CI-gated subset, "
        "'full' the complete grid (default: smoke)",
    )
    parser.add_argument(
        "--name", action="append", metavar="BENCH", default=None,
        help="run only this benchmark (bare name selects every "
        "parameterization, a full key like "
        "'engine.karp[n=32]' selects one); repeatable",
    )
    parser.add_argument(
        "--repeats", type=int, default=5, metavar="N",
        help="measured calls per benchmark (default 5)",
    )
    parser.add_argument(
        "--warmup", type=int, default=1, metavar="N",
        help="unmeasured warmup calls per benchmark (default 1)",
    )
    parser.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="rows in the memory / top-stages tables (default 10)",
    )


def register(sub) -> None:
    p_bench = sub.add_parser(
        "bench",
        help="continuous benchmarking: measure suites into schema'd "
        "reports, gate against baselines, render profiling views",
    )
    bench_sub = p_bench.add_subparsers(dest="bench_action", required=True)

    p_bench_run = bench_sub.add_parser(
        "run", help="measure a suite, archive the schema'd report"
    )
    _add_bench_run_arguments(p_bench_run)
    p_bench_run.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the report as a pretty JSON document "
        "(the BENCH_baseline.json / BENCH_engine.json format)",
    )
    p_bench_run.add_argument(
        "--history", metavar="PATH",
        default="benchmarks/BENCH_history.jsonl",
        help="JSONL history the run is appended to "
        "(default: benchmarks/BENCH_history.jsonl)",
    )
    p_bench_run.add_argument(
        "--no-history", action="store_true",
        help="do not append the run to the history file",
    )
    p_bench_run.add_argument(
        "--profile", action="store_true",
        help="collect spans during the instrumented pass and include "
        "the top-stages / span-tree profile in the output",
    )
    p_bench_run.set_defaults(func=_cmd_bench_run)

    p_bench_cmp = bench_sub.add_parser(
        "compare",
        help="diff a run against a baseline; exit 1 on regression, "
        "2 when the files are unreadable or environments differ",
    )
    p_bench_cmp.add_argument(
        "current", metavar="CURRENT.json",
        help="the report under test (from 'bench run --out')",
    )
    p_bench_cmp.add_argument(
        "--baseline", metavar="PATH",
        default="benchmarks/BENCH_baseline.json",
        help="committed baseline report "
        "(default: benchmarks/BENCH_baseline.json)",
    )
    p_bench_cmp.add_argument(
        "--tolerance", default="local", metavar="SPEC",
        help="relative tolerance: 'local' (25%%, same machine only), "
        "'ci' (150%%, cross-machine allowed) or a bare float "
        "(default: local)",
    )
    p_bench_cmp.add_argument(
        "--allow-cross-env", action="store_true",
        help="compare runs from different environment fingerprints "
        "(implied by --tolerance ci)",
    )
    p_bench_cmp.set_defaults(func=_cmd_bench_compare)

    p_bench_rep = bench_sub.add_parser(
        "report",
        help="render an archived report, or measure live with the "
        "span-tree profile",
    )
    p_bench_rep.add_argument(
        "--from", dest="from_file", metavar="PATH", default=None,
        help="render this archived report instead of measuring live",
    )
    _add_bench_run_arguments(p_bench_rep)
    p_bench_rep.set_defaults(func=_cmd_bench_report)
