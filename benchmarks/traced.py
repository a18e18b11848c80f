"""Run one recoilspec command in this process with its layers wrapped in spans.

    python3 benchmarks/traced.py --mode full --spans OUT.json -- <cli args>

The layers are the package modules named in LAYERS.  In mode "full" every
public function of each layer is replaced, wherever the package holds a
reference to it, by a wrapper that records a span (name, layer, start,
end, parent).  Two counters sit below the spans: every propagation
(rate_engine._integrate) and every solve_ivp result as rate_engine sees it
(nfev, nlu).  tracemalloc runs from just before the command, so the heap
still held after the last propagation can be set against the heap before
the first.  In mode "spectrum" only scan_fit.readout_spectrum is wrapped
and tracemalloc stays off, which leaves the run as fast as an untraced one.

Spans and counters stay in memory and are written to the --spans file when
the command ends, also when it raises; the exit code is the command's.
"""

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc

LAYERS = ("presets", "coupling", "radiation", "rate_engine", "readout",
          "scan_fit", "cli")


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []        # [name, layer, start, end, parent index]
        self.stack = []
        self.counts = {"propagations": 0, "rhs_evals": 0, "lu_decomps": 0}
        self.heap_before_first = None
        self.heap_after_last = None

    def span(self, layer, fn):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            index = len(self.spans)
            record = [name, layer, time.perf_counter(), None, parent]
            self.spans.append(record)
            self.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self.stack.pop()
        return wrapper

    def propagation_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.heap_before_first is None and tracemalloc.is_tracing():
                self.heap_before_first = tracemalloc.get_traced_memory()[0]
            self.counts["propagations"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                if tracemalloc.is_tracing():
                    self.heap_after_last = tracemalloc.get_traced_memory()[0]
        return wrapper

    def solver_counter(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self.counts["rhs_evals"] += int(sol.nfev)
            self.counts["lu_decomps"] += int(sol.nlu)
            return sol
        return wrapper

    def dump(self, path):
        payload = {"counts": self.counts,
                   "heap_before_first": self.heap_before_first,
                   "heap_after_last": self.heap_after_last,
                   "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _package_namespaces():
    """Every dict in the package that may hold a reference to a layer function."""
    spaces = [m.__dict__ for name, m in list(sys.modules.items())
              if name == "recoilspec" or name.startswith("recoilspec.")]
    spaces.append(importlib.import_module("recoilspec.presets").PRESETS)
    return spaces


def _replace_everywhere(original, wrapper):
    for space in _package_namespaces():
        for key, value in list(space.items()):
            if value is original:
                space[key] = wrapper


def install(tracer, mode):
    modules = {layer: importlib.import_module(f"recoilspec.{layer}")
               for layer in LAYERS}
    if mode == "spectrum":
        scan_fit = modules["scan_fit"]
        _replace_everywhere(scan_fit.readout_spectrum,
                            tracer.span("scan_fit", scan_fit.readout_spectrum))
        return
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                _replace_everywhere(obj, tracer.span(layer, obj))
    rate_engine = modules["rate_engine"]
    rate_engine._integrate = tracer.propagation_counter(rate_engine._integrate)
    rate_engine.solve_ivp = tracer.solver_counter(rate_engine.solve_ivp)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=("full", "spectrum"), required=True)
    parser.add_argument("--spans", required=True, help="output JSON path")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    install(tracer, args.mode)
    cli = sys.modules["recoilspec.cli"]
    if args.mode == "full":
        tracemalloc.start()
    try:
        return cli.main(cli_args)
    finally:
        tracemalloc.stop()
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
