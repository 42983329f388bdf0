"""Span tracing around the package's layer boundaries, installed from outside.

The tracer replaces, for the duration of a traced phase, the names that
each caller module looks up (for example `solver.uniform_sample`, the
sampler as the solver sees it) with wrappers that record a span: name,
start, end, parent span and op id.  Nothing under `src/` is edited; the
originals are put back by `uninstall`.

`VoronoiCellData.membership_scaled` runs ~10^5 times per pass, so it gets a
counting wrapper instead of a span: its calls and time are added to the
enclosing span (so self times stay right) and to per-layer totals.

A span's self time is its duration minus the time its child spans and
counted calls cover.  A layer's self time is the sum over its spans.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "experiments",
    "solver",
    "navigation",
    "sampling",
    "voronoi",
    "oracles",
    "lattice",
    "linalg",
)

# (module, attribute the callers look up, span name); the layer is the
# span name's prefix.  Several modules may import the same function: each
# lookup is wrapped under one span name.
SPAN_SITES = (
    ("cli", "main", "cli.main"),
    ("experiments", "run_crossing_trials", "experiments.run_crossing_trials"),
    ("experiments", "solve_with_strategy", "experiments.solve_with_strategy"),
    ("solver", "query", "solver.query"),
    ("solver", "preprocess", "solver.preprocess"),
    ("solver", "round_to_start", "solver.round_to_start"),
    ("experiments", "round_to_start", "solver.round_to_start"),
    ("solver", "certify", "solver.certify"),
    ("experiments", "certify", "solver.certify"),
    ("solver", "uniform_sample", "sampling.uniform_sample"),
    ("experiments", "uniform_sample", "sampling.uniform_sample"),
    ("solver", "randomized_straight_line", "navigation.randomized_straight_line"),
    ("experiments", "randomized_straight_line", "navigation.randomized_straight_line"),
    ("navigation", "line_follow", "navigation.line_follow"),
    ("experiments", "line_follow", "navigation.line_follow"),
    ("experiments", "iterative_slicer", "navigation.iterative_slicer"),
    ("experiments", "mv_walk", "navigation.mv_walk"),
    ("voronoi", "compute_relevant_vectors", "voronoi.compute_relevant_vectors"),
    ("voronoi", "load_cell", "voronoi.load_cell"),
    ("voronoi", "save_cell", "voronoi.save_cell"),
    ("oracles", "cvp_bruteforce", "oracles.cvp_bruteforce"),
    ("lattice", "read_basis", "lattice.read_basis"),
    ("linalg", "ldl", "linalg.ldl"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "inverse", "linalg.inverse"),
)

MEMBERSHIP = "voronoi.membership"
SAMPLER = "sampling.uniform_sample"
WALK = "navigation.randomized_straight_line"


class _Frame:
    __slots__ = ("span_id", "name", "start", "parent", "child")

    def __init__(self, span_id, name, start, parent):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        self.child = 0.0


class Tracer:
    """Spans and per-name totals, split by phase ("setup" or "op")."""

    def __init__(self, package):
        self.pkg = package
        self.phase = "setup"
        self.op_id = None
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()  # (phase, name) -> calls
        self.incl: defaultdict = defaultdict(float)  # (phase, name) -> seconds
        self.self_time: defaultdict = defaultdict(float)
        self.events: Counter = Counter()  # (phase, event) -> count
        self._stack: list[_Frame] = []
        self._open: Counter = Counter()
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for mod_name, attr, span in SPAN_SITES:
            mod = getattr(self.pkg, mod_name)
            fn = getattr(mod, attr)
            if fn not in wrapped:
                wrapped[fn] = self._wrap(fn, span)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrapped[fn])
        cls = self.pkg.voronoi.VoronoiCellData
        self._saved.append((cls, "membership_scaled", cls.membership_scaled))
        cls.membership_scaled = self._count(cls.membership_scaled)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> _Frame:
        parent = self._stack[-1].span_id if self._stack else None
        frame = _Frame(len(self.spans), name, perf_counter(), parent)
        self.spans.append(None)  # reserve the id; filled in by end()
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def end(self, frame: _Frame) -> None:
        stop = perf_counter()
        self._stack.pop()
        self._open[frame.name] -= 1
        dur = stop - frame.start
        key = (self.phase, frame.name)
        self.calls[key] += 1
        self.incl[key] += dur
        self.self_time[key] += dur - frame.child
        if self._stack:
            self._stack[-1].child += dur
        self.spans[frame.span_id] = (
            frame.span_id,
            frame.name,
            frame.start,
            stop,
            frame.parent,
            self.op_id,
        )

    def _wrap(self, fn, name):
        tracer = self
        observe = _observe_walk if name == WALK else None

        def wrapper(*args, **kwargs):
            frame = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(tracer, None, exc)
                raise
            finally:
                tracer.end(frame)
            if observe is not None:
                observe(tracer, result, None)
            return result

        return wrapper

    def _count(self, fn):
        tracer = self

        def counted(*args):
            start = perf_counter()
            result = fn(*args)
            dur = perf_counter() - start
            key = (tracer.phase, MEMBERSHIP)
            tracer.calls[key] += 1
            tracer.incl[key] += dur
            tracer.self_time[key] += dur
            if tracer._stack:
                tracer._stack[-1].child += dur
            if tracer._open[SAMPLER]:
                tracer.events[(tracer.phase, "sampler_tests")] += 1
            return result

        return counted

    # -- output ---------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for span_id, name, start, stop, parent, op in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": stop,
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )

    def layer_self(self, phase: str) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for (ph, name), secs in self.self_time.items():
            layer = name.split(".", 1)[0]
            if ph == phase and layer in out:
                out[layer] += secs
        return out


def _observe_walk(tracer: Tracer, result, exc) -> None:
    """Ties and truncations, which `query()` retries without counting."""
    if exc is not None:
        if isinstance(exc, tracer.pkg.errors.TieDetected):
            tracer.events[(tracer.phase, "ties")] += 1
    elif result[0] is tracer.pkg.navigation.TRUNCATED:
        tracer.events[(tracer.phase, "truncated")] += 1

