"""In-process tracing of seeksim's layers, from the benchmark's side.

No span is created inside seeksim. ``Tracer.patched`` replaces the public
functions that ``seeksim.cli`` and ``seeksim.report`` look up by name with
timing wrappers, so each span times a call as the calling module sees it,
and restores the originals on exit. Spans are kept in memory as tuples
(name, start, end, parent index, op id) and written out once at the end.
"""

from __future__ import annotations

import importlib
import json
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

SCHEDULERS = {
    "schedule_fifo": "FIFO", "schedule_sstf": "SSTF", "schedule_scan": "SCAN",
    "schedule_cscan": "C-SCAN", "schedule_look": "LOOK", "schedule_odsa": "ODSA",
}

# Module -> {global the module calls: span name}. A name a later commit
# removes is skipped, and its layer then reads 0.
SPANS = {
    "seeksim.cli": {
        "build_parser": "cli.build_parser",
        "parse_requests": "workload.parse_requests",
        "generate": "workload.generate",
        "render_requests": "workload.render_requests",
        "validate_instance": "model.validate_instance",
        "run_comparison": "report.run_comparison",
        "head_path_series": "report.head_path_series",
        "emit": "report.emit",
        "run_property_campaign": "report.run_property_campaign",
    },
    "seeksim.report": {
        **{fn: f"schedulers.{fn}" for fn in SCHEDULERS},
        "brute_force_optimal": "schedulers.brute_force_optimal",
        "validate_instance": "model.validate_instance",
        "transfer_time": "metrics.transfer_time",
        "display": "metrics.display",
    },
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op: str | None = None
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = name
            if name == "report.emit" and not hasattr(args[0], "rows"):
                span = "report.emit_series"
            result = self.call(span, fn, *args, **kwargs)
            self._count(span, result)
            return result

        return traced

    def _count(self, span: str, result) -> None:
        if span == "workload.parse_requests":
            self.counts["workload.parse_requests.n"] += len(result[0])
        elif span == "schedulers.brute_force_optimal":
            self.counts["schedulers.brute_force_optimal.n"] += 1
        elif span.startswith("report.emit"):
            self.counts[f"{span}.bytes"] += len(result.encode("utf-8"))
        elif span.startswith("schedulers."):
            self.counts[f"sim.total_seek.{SCHEDULERS[span.split('.')[1]]}"] += result.total_seek

    @contextmanager
    def patched(self):
        saved = []
        try:
            for module_name, names in SPANS.items():
                module = importlib.import_module(module_name)
                for attr, span in names.items():
                    fn = getattr(module, attr, None)
                    if fn is not None:
                        saved.append((module, attr, fn))
                        setattr(module, attr, self._wrap(span, fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: each span's duration minus the part
        its direct children cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - covered[i]
        return totals

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                    "parent": parent, "op": op}) + "\n")


def peak_mb(module_name: str, attr: str, run) -> float:
    """Run ``run()`` with ``module.attr`` wrapped in tracemalloc and return
    the largest peak, in MiB, over the calls it made (0 if none)."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr, None)
    if original is None:
        return 0.0
    peaks = [0.0]

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
            tracemalloc.stop()

    setattr(module, attr, measured)
    try:
        run()
    finally:
        setattr(module, attr, original)
    return max(peaks)
