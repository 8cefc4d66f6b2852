"""Span recorder for the benchmark's traced run.

:meth:`Tracer.install` wraps every public function of latcomm's modules
under each name a caller looks it up by: the defining module's attribute,
every module that imported it with ``from ... import``, and the package.
Each call then records a span (name, operation id, parent span, start and
end in nanoseconds).  Spans stay in memory in flat columns until the run
ends.  A span's self time is its duration minus its child spans; each
per-layer time metric is the self time of the spans mapped to it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter
from typing import Callable

import numpy as np

MODULES = ("cli", "protocol_engine", "partition_core", "converse_verification", "lattice_geometry")
OP_SPAN = "bench.op"

# Span name -> per-layer metric its self time counts toward.  Any other cli
# span is dispatch glue; any other span counts toward "<module>.other_ms".
SELF_TIME_METRICS = {
    "cli.build_parser": "cli.build_parser_ms",
    "cli.render": "cli.render_ms",
    "protocol_engine.monte_carlo": "protocol_engine.monte_carlo_ms",
    "protocol_engine.run_protocol": "protocol_engine.run_protocol_ms",
    "protocol_engine.sample_inputs": "protocol_engine.sample_inputs_ms",
    "protocol_engine.induced_partition": "protocol_engine.induced_partition_ms",
    "protocol_engine.sum_rate": "protocol_engine.sum_rate_ms",
    "partition_core.LabeledPartition.__post_init__": "partition_core.validate_ms",
    "partition_core.maximize_staircase_numeric": "partition_core.staircase_numeric_ms",
    "partition_core.staircase_area": "partition_core.staircase_numeric_ms",
    "partition_core.satisfies_staircase_bounds": "partition_core.staircase_checks_ms",
    "partition_core.is_zero_error": "partition_core.staircase_checks_ms",
    "partition_core.LabeledPartition.to_json_dict": "partition_core.to_json_ms",
    "partition_core.LabeledPartition.to_json": "partition_core.to_json_ms",
    "converse_verification.run_all_checks": "converse_verification.run_all_checks_ms",
    "converse_verification.quadrant_grid_oracle": "converse_verification.quadrant_grid_oracle_ms",
    "converse_verification.self_similar_partition": "converse_verification.self_similar_partition_ms",
    "lattice_geometry.simulate_round_count": "lattice_geometry.simulate_round_count_ms",
    "lattice_geometry.nearest_lattice_point": "lattice_geometry.nearest_lattice_point_ms",
    "lattice_geometry.babai_subdivision": "lattice_geometry.subdivision_ms",
    "lattice_geometry.babai_cell": "lattice_geometry.subdivision_ms",
    "lattice_geometry.round_rates": "lattice_geometry.subdivision_ms",
    "lattice_geometry.crossed_cell_mass": "lattice_geometry.subdivision_ms",
    "lattice_geometry.subdivision_to_json": "lattice_geometry.subdivision_ms",
    OP_SPAN: "bench.harness_ms",
}

# Span name -> per-layer metric counting its calls.
CALL_COUNT_METRICS = {
    "protocol_engine.run_protocol": "protocol_engine.run_protocol_calls",
    "protocol_engine.sum_rate": "protocol_engine.sum_rate_calls",
    "lattice_geometry.nearest_lattice_point": "lattice_geometry.nearest_calls",
}

# Work counters the tracer or the harness adds per operation.
WORK_COUNTERS = (
    "protocol_engine.samples",
    "protocol_engine.nodes_materialized",
    "partition_core.cells_validated",
    "lattice_geometry.mc_samples",
    "cli.output_bytes",
)

# LabeledPartition methods traced besides the module-level functions.
_METHODS = ("__post_init__", "to_json_dict", "to_json")


def self_time_metric(span: str) -> str:
    if span in SELF_TIME_METRICS:
        return SELF_TIME_METRICS[span]
    module = span.split(".", 1)[0]
    return "cli.dispatch_self_ms" if module == "cli" else module + ".other_ms"


def time_metrics() -> list[str]:
    others = {m + ".other_ms" for m in MODULES if m != "cli"}
    return sorted(set(SELF_TIME_METRICS.values()) | others | {"cli.dispatch_self_ms"})


def _public_functions(module) -> list[str]:
    return [
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]


def count_materialized(tree) -> int:
    """Protocol-tree nodes and leaves built so far (unexpanded children are None)."""
    stack = [tree.root]
    count = 0
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(ch for ch in getattr(node, "children", ()) if ch is not None)
    return count


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counts: list[Counter] = []
        self._stack: list[int] = []
        self._trees: list = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.op.append(len(self.counts) - 1)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self) -> int:
        self.counts.append(Counter())
        return self._open(self._intern(OP_SPAN))

    def end_op(self, idx: int) -> None:
        self._close(idx)
        for tree in self._trees:
            self.count("protocol_engine.nodes_materialized", count_materialized(tree))
        self._trees.clear()

    def count(self, counter: str, amount: int) -> None:
        self.counts[-1][counter] += amount

    def _wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        nid = self._intern(name)
        if inspect.isgeneratorfunction(fn):
            # The work happens while the caller iterates: one span per next().
            def spans(gen):
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    yield item

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return spans(fn(*args, **kwargs))

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(result)
            return result

        return traced

    def _counting(self, counter: str, fn: Callable, arg: str):
        signature = inspect.signature(fn)
        return lambda args, kwargs: self.count(
            counter, signature.bind(*args, **kwargs).arguments[arg]
        )

    # -- installation -------------------------------------------------------

    def _set(self, holder, attr: str, value) -> None:
        self._restore.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def install(self) -> None:
        package = importlib.import_module("latcomm")
        modules = {m: importlib.import_module(f"latcomm.{m}") for m in MODULES}
        holders = [package, *modules.values()]
        for short, module in modules.items():
            for attr in _public_functions(module):
                fn = getattr(module, attr)
                before = after = None
                if (short, attr) == ("protocol_engine", "monte_carlo"):
                    before = self._counting("protocol_engine.samples", fn, "samples")
                elif (short, attr) == ("lattice_geometry", "simulate_round_count"):
                    before = self._counting("lattice_geometry.mc_samples", fn, "samples")
                elif (short, attr) == ("protocol_engine", "bit_exchange_protocol"):
                    after = self._trees.append
                wrapper = self._wrap(f"{short}.{attr}", fn, before, after)
                for holder in holders:
                    for key in [k for k, v in vars(holder).items() if v is fn]:
                        self._set(holder, key, wrapper)
        partition = modules["partition_core"].LabeledPartition
        for method in _METHODS:
            before = None
            if method == "__post_init__":
                before = lambda args, kwargs: self.count(
                    "partition_core.cells_validated", len(args[0].cells) + len(args[0].residual)
                )
            wrapper = self._wrap(f"partition_core.LabeledPartition.{method}",
                                 vars(partition)[method], before)
            self._set(partition, method, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            holder, attr, value = self._restore.pop()
            setattr(holder, attr, value)

    # -- summary ------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "op": np.frombuffer(self.op, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def _self_times_ns(self, cols: dict[str, np.ndarray]) -> np.ndarray:
        """Per-span self time; checks that every span closed inside its parent."""
        start, end, parent = cols["start_ns"], cols["end_ns"], cols["parent"]
        duration = end - start
        nested = parent >= 0
        if np.any(duration < 0) or self._stack:
            raise RuntimeError("trace has unclosed spans")
        if np.any(start[nested] < start[parent[nested]]) or np.any(end[nested] > end[parent[nested]]):
            raise RuntimeError("trace has a span outside its parent")
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        return duration - child

    def self_time_sums_ms(self) -> list[float]:
        """Sum of the self times of each operation's spans, in operation order."""
        cols = self.columns()
        sums = np.bincount(cols["op"], weights=self._self_times_ns(cols), minlength=len(self.counts))
        return (sums / 1e6).tolist()

    def per_op_metrics(self) -> dict[str, float]:
        """Each per-layer time and count metric, as a mean per operation."""
        cols = self.columns()
        ops = len(self.counts)
        self_ns = self._self_times_ns(cols)
        per_name = np.bincount(cols["name"], weights=self_ns, minlength=len(self.names))
        calls = np.bincount(cols["name"], minlength=len(self.names))
        out = {m: 0.0 for m in time_metrics()}
        out.update({m: 0.0 for m in CALL_COUNT_METRICS.values()})
        out.update({m: 0.0 for m in WORK_COUNTERS})
        for nid, span in enumerate(self.names):
            out[self_time_metric(span)] += per_name[nid] / 1e6 / ops
            if span in CALL_COUNT_METRICS:
                out[CALL_COUNT_METRICS[span]] += calls[nid] / ops
        for counter in WORK_COUNTERS:
            out[counter] = sum(c[counter] for c in self.counts) / ops
        return out
