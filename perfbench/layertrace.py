"""Outside-in layer trace of esdkit.

install() wraps every public function of each library module in every
esdkit.* namespace that binds it: cli and entanglement import names directly,
so patching only the defining module would miss their calls.  Each call
records a span (function, start, end, parent span, error) in memory; nothing
is written until summary() and write_spans() run after the timed call.

A span's self time is its duration minus the time its child spans cover.
Time in cli.main outside every span is the cli layer's self time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time

LAYERS = ("linalg", "states", "channel", "entanglement", "memory", "master", "esd")

# Named per-layer counts: calls of one function.
CALL_COUNTERS = {
    "states.validations": "esdkit.states.assert_density_matrix",
    "channel.kraus_builds": "esdkit.channel.build_kraus",
    "entanglement.dense_concurrences": "esdkit.entanglement.concurrence",
    "master.rhs_calls": "esdkit.master.master_rhs",
}
# Named per-layer counts read from a function's return value.
RESULT_COUNTERS = {
    "esdkit.memory.solve_amplitude": ("memory.grid_points", lambda sol: int(sol.t.size)),
    "esdkit.esd.disentanglement_time": ("esd.bisections", lambda v: int(v.kind == "finite")),
}
# Total time spent inside one function.
SPAN_TIMERS = {"memory.table_load_s": "esdkit.memory.load_kernel_table"}


class Tracer:
    """Span store for one process.  Spans are tuples
    (span_id, parent_id, function_index, start_ns, end_ns, failed)."""

    def __init__(self) -> None:
        self.names: list[str] = []  # function_index -> "esdkit.module.function"
        self.spans: list[tuple[int, int, int, int, int, bool]] = []
        self.counts: dict[str, int] = {}
        self._stack = [0]
        self._next_id = 1

    def _wrap(self, fn, qualname: str):
        index = len(self.names)
        self.names.append(qualname)
        counter = RESULT_COUNTERS.get(qualname)
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            failed = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, index, start, end, failed))
                if counter is not None:
                    # A failed death-time call still ran its bisection.
                    step = 1 if failed else counter[1](result)
                    self.counts[counter[0]] = self.counts.get(counter[0], 0) + step
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, in every esdkit
        namespace that binds them.  Call after esdkit.cli is imported."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"esdkit.{layer}"]
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(obj, f"{module.__name__}.{name}")
        for modname, module in list(sys.modules.items()):
            if modname != "esdkit" and not modname.startswith("esdkit."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])

    def summary(self, run_s: float) -> dict:
        """Per-layer and per-function aggregates of the recorded spans."""
        covered = [0] * self._next_id  # child time inside each span
        for span_id, parent, _, start, end, _ in self.spans:
            covered[parent] += end - start
        layer_of = [name.split(".")[1] for name in self.names]
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = 0
            metrics[f"{layer}.self_s"] = 0.0
            metrics[f"{layer}.errors"] = 0
        functions: dict[str, list] = {}
        for span_id, _, index, start, end, failed in self.spans:
            layer = layer_of[index]
            self_s = (end - start - covered[span_id]) * 1e-9
            metrics[f"{layer}.calls"] += 1
            metrics[f"{layer}.self_s"] += self_s
            metrics[f"{layer}.errors"] += int(failed)
            entry = functions.setdefault(self.names[index], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += self_s
            entry[2] += (end - start) * 1e-9
        for metric, qualname in CALL_COUNTERS.items():
            metrics[metric] = functions.get(qualname, [0])[0]
        for metric, _ in RESULT_COUNTERS.values():
            metrics[metric] = self.counts.get(metric, 0)
        for metric, qualname in SPAN_TIMERS.items():
            metrics[metric] = functions.get(qualname, [0, 0.0, 0.0])[2]
        metrics["cli.self_s"] = run_s - covered[0] * 1e-9
        return {"metrics": metrics, "functions": functions}

    def write_spans(self, path: str, rep: int) -> None:
        """Append this repetition's spans as tab-separated rows to a gzip file."""
        with gzip.open(path, "at", compresslevel=1) as fh:
            for span_id, parent, index, start, end, failed in self.spans:
                fh.write(f"{rep}\t{span_id}\t{parent}\t{self.names[index]}\t"
                         f"{start}\t{end}\t{int(failed)}\n")
