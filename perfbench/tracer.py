"""Outside-in span tracing of calls between gofboot modules.

Edges are found at run time: every function that one ``gofboot.*`` module
binds from another is wrapped in the caller's namespace, and ``cli.main``
is the root. Renaming an entry point therefore keeps its attribution.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "gofboot"


def layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def find_edges():
    """(caller module, attribute, function) for each cross-module binding."""
    prefix = PACKAGE + "."
    edges = []
    for mod_name, module in sorted(sys.modules.items()):
        if not mod_name.startswith(prefix) or module is None:
            continue
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__.startswith(prefix)
                and value.__module__ != mod_name
            ):
                edges.append((module, attr, value))
    return edges


class Tracer:
    """Wraps every cross-module call of an imported package and records spans.

    A span is (id, parent id, callee layer, name, wall start, wall end, CPU
    start, CPU end, counts). CPU is ``time.process_time``, so native helper
    threads such as BLAS workers are included. A call whose result carries
    ``redraw_count`` and ``boot_values`` records both as counts.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        """Wrap every edge and the root ``cli.main``; undo with :meth:`uninstall`."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        cli = sys.modules[f"{PACKAGE}.cli"]
        targets = find_edges() + [(cli, "main", cli.main)]
        for module, attr, fn in targets:
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn):
        layer = layer_of(fn.__module__)
        name = f"{layer}.{fn.__name__}"
        spans, stack = self.spans, self._stack
        clock, cpu_clock = time.perf_counter, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(span_id)
            counts = None
            c0, t0 = cpu_clock(), clock()
            try:
                result = fn(*args, **kwargs)
                redraws = getattr(result, "redraw_count", None)
                if redraws is not None:
                    counts = (int(redraws), len(result.boot_values))
                return result
            finally:
                t1, c1 = clock(), cpu_clock()
                stack.pop()
                spans[span_id] = (span_id, parent, layer, name, t0, t1, c0, c1, counts)

        return traced

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as handle:
            for span_id, parent, layer, name, t0, t1, c0, c1, counts in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "layer": layer,
                    "name": name,
                    "start": t0,
                    "end": t1,
                    "cpu_start": c0,
                    "cpu_end": c1,
                }
                if counts is not None:
                    record["redraws"], record["draws"] = counts
                handle.write(json.dumps(record) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as handle:
        return [json.loads(line) for line in handle]


def layer_table(spans: list[dict], layers) -> dict[str, float]:
    """Per-layer calls, self wall time and self CPU time from one run's spans.

    Self time is a span's duration minus the durations of its direct
    children. Also sums the redraw counts recorded at the bootstrap boundary.
    """
    child_wall: dict[int, float] = defaultdict(float)
    child_cpu: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_wall[s["parent"]] += s["end"] - s["start"]
            child_cpu[s["parent"]] += s["cpu_end"] - s["cpu_start"]
    table = {}
    for layer in layers:
        table[f"{layer}.calls"] = 0
        table[f"{layer}.self_s"] = 0.0
        table[f"{layer}.self_cpu_s"] = 0.0
    redraws = draws = 0
    for s in spans:
        layer = s["layer"]
        if f"{layer}.calls" not in table:
            continue
        table[f"{layer}.calls"] += 1
        table[f"{layer}.self_s"] += s["end"] - s["start"] - child_wall[s["id"]]
        table[f"{layer}.self_cpu_s"] += (
            s["cpu_end"] - s["cpu_start"] - child_cpu[s["id"]]
        )
        if "redraws" in s:
            redraws += s["redraws"]
            draws += s["draws"]
    table["bootstrap.redraws"] = redraws
    # with no bootstrap draws nothing was wasted
    table["bootstrap.useful_ratio"] = draws / (draws + redraws) if draws else 1.0
    roots = [s for s in spans if s["parent"] is None]
    table["trace.wall_s"] = sum(s["end"] - s["start"] for s in roots)
    return table
