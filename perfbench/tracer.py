"""Run one workload session in-process, optionally with layer tracing.

Usage: python tracer.py SESSION.json RESULT.json {plain,traced,memory}

SESSION.json holds {"invocations": [[arg, ...], ...], "stdout": [path, ...]}.
Every invocation goes through `errstat.cli.run(argv)` in this one
interpreter, with its stdout written to the matching path.  In "traced"
mode the public functions of each errstat module are wrapped from the
outside before the session starts: every call records a span (name,
start, end, parent span, invocation index, attributes).  Spans stay in
memory and are written to RESULT.json when the session ends, together
with the wall time and exit code of each invocation.  "memory" mode
records the same spans and also runs tracemalloc inside the outermost
span of each name in MEMORY_SPANS.  tracemalloc slows every allocation
(the per-replicate Python loops several times over), so its spans'
times are not used; the peaks are deterministic for a given input.

Only the benchmark wraps errstat; the package itself is not changed, so
its JSON reports are byte-identical with and without tracing.
"""

import contextlib
import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc

LAYERS = ("dataset", "estimators", "inference", "sip", "correlation", "simulation", "render", "cli")
# Private helpers whose cost the per-layer metrics name explicitly.
EXTRA = {"cli": ("_write_json", "_write_csv")}
# Called once per bootstrap replicate: a span each would mostly measure
# the wrapper itself.
SKIP = frozenset({"inference.replicate_rng", "inference.resample_indices"})
# Outermost spans of these names record their tracemalloc peak.
MEMORY_SPANS = frozenset({
    "inference.replicate_stats",
    "inference.bootstrap_se",
    "inference.compare_pair",
    "inference.rank_probability_matrix",
    "sip.delta_ecdf",
})


def _attributes(name, args, result):
    """Counters recorded at the span boundary, where the work happens."""
    if name == "estimators.evaluate_rows":
        return {"kind": args[0].kind, "cells": int(args[1].size)}
    if name == "inference.index_matrix":
        plan, n = args[0], args[1]
        return {"B": plan.B, "key": [plan.seed, plan.B, n, plan.resample_size(n)]}
    if name == "correlation.correlation_matrix":
        return {"k": int(result.values.shape[0])}
    if name == "dataset.load_table":
        return {"rows": result.n_systems}
    if name.startswith("render.render_"):
        return {"bytes": len(result.encode("utf-8"))}
    if name in ("cli._write_json", "cli._write_csv"):
        return {"bytes": os.path.getsize(args[0])}
    return None


class Tracer:
    def __init__(self, memory=False):
        self.memory = memory
        self.spans = []
        self.stack = []
        self.invocation = -1
        self.tracking_memory = False

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.invocation, None]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            track = self.memory and name in MEMORY_SPANS and not self.tracking_memory
            if track:
                self.tracking_memory = True
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                record[1], record[2] = start, end
                if track:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.tracking_memory = False
            attrs = _attributes(name, args, result)
            if track:
                attrs = dict(attrs or {}, peak_bytes=peak)
            record[5] = attrs
            return result

        return traced

    def install(self):
        """Wrap every public function of each layer and rebind every alias of it."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"errstat.{layer}")
            names = list(getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")]))
            for attr in names + list(EXTRA.get(layer, ())):
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and f"{layer}.{attr}" not in SKIP:
                    wrappers[fn] = self.wrap(f"{layer}.{attr}", fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "errstat" or mod_name.startswith("errstat."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(module, attr, wrappers[value])


def main(argv):
    session_path, result_path, mode = argv
    with open(session_path, encoding="utf-8") as fh:
        session = json.load(fh)
    import errstat.cli

    tracer = Tracer(memory=mode == "memory")
    if mode != "plain":
        tracer.install()
    runs = []
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        for i, (args, out_path) in enumerate(zip(session["invocations"], session["stdout"])):
            tracer.invocation = i
            with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(devnull):
                start = time.perf_counter()
                code = errstat.cli.run(args)
                wall = time.perf_counter() - start
            runs.append({"code": code, "wall_s": wall})
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"mode": mode, "invocations": runs, "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
