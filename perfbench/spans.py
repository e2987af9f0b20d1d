"""Benchmark-side spans and the per-layer table built from them.

The traced run wraps each of its calls into a layer's public function in
a span (name, start, end, parent, op id).  Time a layer spends inside a
single program call that the benchmark cannot split further -- the
engine stages inside ``from_matrices``, for instance -- is read from a
counter the program already exports and attached to the enclosing span
as an *inner* measurement.  Spans and inner measurements stay in memory
and are written out once, when the run ends.

A layer's self time is its span's duration minus its child spans and
inner measurements.  The top-level ``op`` span's self time is the
``residual`` row: time in the op that no layer row accounts for.  By
construction the self times of all rows add up to the traced op time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Spans kept in memory; one ``op`` span per traced operation."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self.inner: List[dict] = []
        self._stack: List[int] = []
        self._op: Optional[int] = None

    @contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """The root span of one operation; nested spans inherit its id."""
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def attribute(self, name: str, seconds: float) -> None:
        """Charge ``seconds`` measured by a program counter to layer
        ``name``, nested inside the currently open span."""
        if not self._stack:
            raise RuntimeError("attribute() needs an open span")
        self.inner.append(
            {
                "name": name,
                "seconds": seconds,
                "parent": self._stack[-1],
                "op": self._op,
            }
        )

    def layer_table(self) -> Dict[str, dict]:
        """Per layer name: calls, inclusive and self seconds (totals).

        The ``op`` row holds the op count and total op time; its self
        time is the residual.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        for item in self.inner:
            covered[item["parent"]] += item["seconds"]
        rows: Dict[str, dict] = {}

        def add(name: str, inclusive: float, self_time: float) -> None:
            row = rows.setdefault(
                name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["incl_s"] += inclusive
            row["self_s"] += self_time

        for span, inside in zip(self.spans, covered):
            duration = span["end"] - span["start"]
            add(span["name"], duration, duration - inside)
        for item in self.inner:
            add(item["name"], item["seconds"], item["seconds"])
        return rows

    def dump(self) -> dict:
        return {"spans": self.spans, "inner": self.inner}


def format_layer_table(rows: Dict[str, dict]) -> str:
    """Self time per op for every layer row, residual last."""
    ops = rows["op"]["calls"]
    op_s = rows["op"]["incl_s"] / ops
    lines = [
        f"{'layer':<22}{'calls/op':>10}{'incl ms/op':>12}"
        f"{'self ms/op':>12}{'self %':>8}"
    ]
    for name in sorted(rows, key=lambda n: -rows[n]["self_s"]):
        if name == "op":
            continue
        row = rows[name]
        lines.append(
            f"{name:<22}{row['calls'] / ops:>10.2f}"
            f"{1e3 * row['incl_s'] / ops:>12.3f}"
            f"{1e3 * row['self_s'] / ops:>12.3f}"
            f"{100 * row['self_s'] / rows['op']['incl_s']:>8.1f}"
        )
    residual = rows["op"]["self_s"]
    lines.append(
        f"{'residual':<22}{1.0:>10.2f}{1e3 * residual / ops:>12.3f}"
        f"{1e3 * residual / ops:>12.3f}"
        f"{100 * residual / rows['op']['incl_s']:>8.1f}"
    )
    lines.append(
        f"{'op (traced)':<22}{ops:>10d}{1e3 * op_s:>12.3f}"
        f"{'':>12}{100.0:>8.1f}"
    )
    return "\n".join(lines)
