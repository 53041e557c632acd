"""Run one angcn command in this process and write a timing report.

    python3 perfbench/child.py --report FILE --trace 0|1 -- <angcn argv...>

The command goes through the public entry point `angcn.cli.cli_run`, exactly
as a user's argv would. Untraced (`--trace 0`), the only instrumentation is
one boundary around `cross_validate`: the time of its first call, the time
spent inside it, the fold-epochs it trained and whether every test
probability it returned is finite. Traced (`--trace 1`), the public
functions are also wrapped at the names their callers bind at import time,
and every call becomes a span (name, start, end, parent, note) kept in
memory and written out at exit.

Timestamps come from time.monotonic(), which on Linux reads the system-wide
CLOCK_MONOTONIC, so the parent process can compare them with its own.
"""

import argparse
import functools
import glob
import importlib
import json
import os
import resource
import sys
import time

# Span names are "<module>.<attribute>"; each module maps to the public
# names it binds at import time and calls. Wrapping the binding (not the
# definition) keeps calls internal to a layer, such as presample's own
# sample_node_subgraph calls, out of the caller's counts.
TRACED = {
    "training": (
        "train", "forward", "backward", "adam_step", "sample_node_subgraph",
        "add_self_loops", "normalize_adjacency", "hadamard",
    ),
    "cli": (
        "auto_sigma", "build_adjacency", "presample", "aggregation_matrix",
        "ones_gamma", "cross_validate", "confusion", "scalar_metrics",
        "roc_curve", "pr_curve",
    ),
    "data": ("load_bundle", "save_checkpoint"),
}


def _rows(args, kwargs, result):
    """Operator rows of one forward call: its second positional argument."""
    return int(args[1].shape[0])


def _graph_size(args, kwargs, result):
    """Nodes and edges of the population graph (edges are stored once each)."""
    return [int(result.n), len(result.edges)]


# Extra facts some spans carry, computed after the call returns.
NOTES = {"training.forward": _rows, "cli.build_adjacency": _graph_size}


class Tracer:
    """In-memory span recorder; a span's parent is the span open around it."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or -1, note]
        self.stack = []
        self.absent = []

    def wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.monotonic()
                self.stack.pop()
            if note is not None:
                try:
                    span[4] = note(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    span[4] = None
            return result

        return traced

    def install(self):
        for module_name, names in TRACED.items():
            module = importlib.import_module(f"angcn.{module_name}")
            for attr in names:
                name = f"{module_name}.{attr}"
                fn = getattr(module, attr, None)
                if not callable(fn):
                    # a refactor removed or renamed it: record, do not fail
                    self.absent.append(name)
                    continue
                setattr(module, attr, self.wrap(name, fn))


class Boundary:
    """The one timestamp pair around cross_validate that untraced runs keep."""

    def __init__(self):
        self.first_call = None
        self.seconds = 0.0
        self.epochs = 0
        self.probs_finite = True

    def wrap(self, fn):
        @functools.wraps(fn)
        def bounded(*args, **kwargs):
            start = time.monotonic()
            if self.first_call is None:
                self.first_call = start
            results = fn(*args, **kwargs)
            self.seconds += time.monotonic() - start
            import numpy as np

            for r in results:
                self.epochs += len(r.history)
                self.probs_finite &= bool(np.isfinite(r.probs).all())
            return results

        return bounded


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    import numpy as np

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import angcn.cli as cli

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    boundary = Boundary()
    cli.cross_validate = boundary.wrap(cli.cross_validate)

    code = cli.cli_run(argv)
    end = time.monotonic()
    report = {
        "end": end,
        "cv_first_call": boundary.first_call,
        "cv_seconds": boundary.seconds,
        "epochs": boundary.epochs,
        "probs_finite": boundary.probs_finite,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        report["spans"] = tracer.spans
        report["absent"] = tracer.absent
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
