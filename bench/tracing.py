"""Span tracing installed from outside the program.

`install` replaces public functions and methods of the infodyn modules by
timing wrappers. A function imported by name into another module is
replaced there as well, by rebinding every module attribute that holds
the original object, so calls are caught where the caller looks the name
up. Spans ({name, start, end, parent, invocation}) are kept in memory and
written out when the run ends. Hot inner calls are not given spans: they
are aggregated into a call count, a total time and an optional size sum,
and their time is charged to the enclosing span so that self time stays
exact.
"""

from __future__ import annotations

import importlib
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor

# (module, attribute or Class.method, span name, hot)
TARGETS = (
    ("infodyn.jsonio", "load_json", "jsonio.load_json", False),
    ("infodyn.jsonio", "parse_state", "jsonio.parse_state", False),
    ("infodyn.jsonio", "parse_channel", "jsonio.parse_channel", False),
    ("infodyn.jsonio", "parse_experiment", "jsonio.parse_experiment", False),
    ("infodyn.jsonio", "dump_json", "jsonio.dump_json", False),
    ("infodyn.jsonio", "matrix_to_json", "jsonio.matrix_to_json", False),
    ("infodyn.svgplot", "line_plot", "svgplot.line_plot", False),
    ("infodyn.classical", "sweep", "classical.sweep", False),
    ("infodyn.classical", "iterate_orbit", "classical.iterate_orbit", False),
    ("infodyn.classical", "Partition.encode", "classical.encode", False),
    ("infodyn.classical", "empirical_channel", "classical.empirical_channel", False),
    ("infodyn.classical", "EmpiricalChannel.conditional_entropy",
     "classical.conditional_entropy", False),
    ("infodyn.metrics", "classify_dynamics", "metrics.classify_dynamics", False),
    ("infodyn.metrics", "chaos_degree", "metrics.chaos_degree", False),
    ("infodyn.metrics", "conjecture_batch", "metrics.conjecture_batch", False),
    ("infodyn.metrics", "axiom_suite", "metrics.axiom_suite", False),
    ("infodyn.channels", "kraus_channel", "channels.construct", False),
    ("infodyn.channels", "unitary_channel", "channels.construct", False),
    ("infodyn.channels", "stochastic_channel", "channels.construct", False),
    ("infodyn.channels", "schur_channel", "channels.construct", False),
    ("infodyn.channels", "identity_channel", "channels.construct", False),
    ("infodyn.channels", "random_kraus_channel", "channels.construct", False),
    ("infodyn.channels", "Channel.apply_matrix", "channels.apply_matrix", True),
    ("infodyn.hilbert", "DensityOperator.__init__", "hilbert.density", True),
    ("infodyn.hilbert", "random_unitary", "hilbert.random_unitary", True),
    ("infodyn.hilbert", "von_neumann_entropy", "hilbert.entropy", True),
    ("infodyn.hilbert", "relative_entropy", "hilbert.entropy", True),
    ("infodyn.recognition", "recognize_sequence", "recognition.recognize_sequence", False),
    ("infodyn.recognition", "outcome_probabilities", "recognition.outcome_probabilities", False),
    ("infodyn.recognition", "update_direct", "recognition.update", False),
    ("infodyn.recognition", "entangle", "recognition.entangle", True),
)

# Spans that also record the minor page faults taken inside them.
FAULT_SPANS = {"classical.sweep", "recognition.recognize_sequence"}


def _orbit_steps(args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return cfg.transient + cfg.samples


def _density_n3(args, kwargs):
    return args[0].matrix.shape[0] ** 3


# Size sums recorded next to a span or hot aggregate, computed from the
# call's arguments after it returns.
SIZES = {"classical.iterate_orbit": _orbit_steps, "hilbert.density": _density_n3}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, invocation, hot_s, faults, size]
        self.hot = {}  # name -> [calls, seconds, size]
        self._stack = []  # open span indices
        self._hot_depth = 0
        self.invocation = -1

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt if name in FAULT_SPANS else 0
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.invocation, 0.0, faults, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        if span[0] in FAULT_SPANS:
            span[6] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - span[6]
        self._stack.pop()

    def span(self, fn, name):
        size = SIZES.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if size is not None:
                    try:
                        self.spans[idx][7] = size(args, kwargs)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        pass

        return wrapper

    def aggregate(self, fn, name):
        size = SIZES.get(name)
        agg = self.hot.setdefault(name, [0, 0.0, 0])

        def wrapper(*args, **kwargs):
            self._hot_depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._hot_depth -= 1
                agg[0] += 1
                agg[1] += dt
                if self._hot_depth == 0 and self._stack:
                    self.spans[self._stack[-1]][5] += dt
                if size is not None:
                    try:
                        agg[2] += size(args, kwargs)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        pass

        return wrapper

    def invoke(self, invocation, fn, *args):
        """Run one CLI invocation under a root span named cli.main."""
        self.invocation = invocation
        return self.span(fn, "cli.main")(*args)

    def install(self):
        """Wrap every target that exists; returns the names not found."""
        missing = []
        modules = [m for name, m in sys.modules.items()
                   if name == "infodyn" or name.startswith("infodyn.")]
        for module_name, attr, name, hot in TARGETS:
            module = importlib.import_module(module_name)
            make = self.aggregate if hot else self.span
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in vars(cls):
                    missing.append(f"{module_name}.{attr}")
                    continue
                setattr(cls, meth, make(vars(cls)[meth], name))
                continue
            orig = getattr(module, attr, None)
            if orig is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = make(orig, name)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
        classical = sys.modules["infodyn.classical"]
        if getattr(classical, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
            classical.ProcessPoolExecutor = self._pool_class()
        else:
            missing.append("infodyn.classical.ProcessPoolExecutor")
        return missing

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Records the parent's time from pool start to shutdown."""

            def __enter__(self):
                self._span = tracer._open("classical.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer._close(self._span)

        return TracedPool

    def dump(self) -> dict:
        return {"spans": self.spans, "hot": self.hot}
