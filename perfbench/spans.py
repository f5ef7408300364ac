"""Spans around the calls into runslab's public functions, and self times.

The tracer wraps each layer's public functions (the plain functions named
in the module's ``__all__``, plus the methods listed in ``EXTRA``) in every
runslab namespace that holds them -- ``runslab.cli.run_sweep`` as well as
``runslab.evolve.run_sweep`` -- so calls between layers are seen whichever
name they go through.  Spans are kept in memory; nothing is written while
the traced code runs, and ``write_spans`` writes them out afterwards.
``restore`` puts every original object back.

A layer's self time is the duration of its spans minus the part of each
span that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

PACKAGE = "runslab"

# Module names inside the package, in report order.  Metric names use the
# module name without its leading underscore, because metric names must
# start with a letter or a digit.
LAYERS = (
    "_rng",
    "evolve",
    "stats",
    "combinatorics",
    "patterns",
    "polys",
    "asymptotics",
    "verify",
    "cli",
)

# Public calls that ``__all__`` does not name: ``_rng`` has no ``__all__``,
# and the accumulators' batch merges are methods.
EXTRA = {
    "_rng": ("stream", "StreamPool.get"),
    "stats": ("MomentAccumulator.add_batch", "CoMomentAccumulator.add_batch"),
}

# The parabola-path sampler's unit of work: one call is one path.
PATH_FUNCTION = "parabola_path_max"


class Span(NamedTuple):
    layer: str
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    reps: int = 0  # evolve only: repetitions simulated by this call
    cells: int = 0  # evolve only: sum of n over those repetitions


def _evolve_work(result) -> Tuple[int, int]:
    """(reps, cells) of an evolve call, read from what it returned."""
    config = getattr(result, "config", None)
    if config is not None:  # SweepResult
        return config.reps, config.reps * config.n
    n = getattr(result, "n", None)
    if isinstance(n, int):  # Trajectory: one repetition
        return 1, n
    return 0, 0


class Tracer:
    """Install spans around runslab's public calls; restore on exit."""

    def __init__(self):
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    @staticmethod
    def _modules():
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    @staticmethod
    def _targets() -> List[Tuple[str, object, str, object]]:
        """(layer, owner, attribute, original) for every call to wrap."""
        found = []
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if inspect.isfunction(obj):
                    found.append((layer, mod, name, obj))
            for qualname in EXTRA.get(layer, ()):
                owner_name, _, attr = qualname.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                found.append((layer, owner, attr, owner.__dict__[attr]))
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original function) -> wrapper
        for layer, owner, attr, original in self._targets():
            wrapper = self._wrap(layer, attr, original)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                wrappers[id(original)] = wrapper
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrapper)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def patched(self) -> List[Tuple[object, str, object]]:
        return list(self._patches)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def take_spans(self) -> List[Span]:
        """Hand over the spans recorded so far and start a new list."""
        if self._stack:
            raise RuntimeError("spans are still open")
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, layer: str, name: str, func):
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        is_evolve = layer == "evolve"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            reps = cells = 0
            start = clock()
            try:
                result = func(*args, **kwargs)
                if is_evolve:
                    reps, cells = _evolve_work(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(layer, name, start, end, parent, reps, cells)

        return traced


# -- arithmetic on recorded spans ----------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - _covered(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer counts and self times of one traced pass.

    Work (reps, cells) is counted on the outermost evolve span only, so a
    ``simulate_runs`` call and the ``runs_from_order`` call inside it count
    one repetition, not two.
    """
    calls = {layer: 0 for layer in LAYERS}
    busy = {layer: 0.0 for layer in LAYERS}
    reps = cells = paths = 0
    for span, own in zip(spans, self_times(spans)):
        calls[span.layer] += 1
        busy[span.layer] += own
        if span.layer == "evolve" and (
            span.parent < 0 or spans[span.parent].layer != "evolve"
        ):
            reps += span.reps
            cells += span.cells
        if span.name == PATH_FUNCTION:
            paths += 1
    out: Dict[str, float] = {}
    for layer in LAYERS:
        prefix = layer.lstrip("_")
        out[f"{prefix}.calls"] = calls[layer]
        out[f"{prefix}.self_s"] = busy[layer]
    out["rng.us_per_call"] = _ratio(busy["_rng"], calls["_rng"], 1e6)
    out["evolve.reps"] = reps
    out["evolve.cells"] = cells
    out["evolve.ns_per_cell"] = _ratio(busy["evolve"], cells, 1e9)
    out["evolve.us_per_rep"] = _ratio(busy["evolve"], reps, 1e6)
    out["asymptotics.us_per_path"] = _ratio(busy["asymptotics"], paths, 1e6)
    return out


def write_spans(path: Path, spans: Sequence[Span]) -> Path:
    """Write spans as JSON lines, one object a span, times in seconds from
    the first span's start; ``parent`` is the line index of the enclosing
    span (-1 at top level)."""
    origin = spans[0].start if spans else 0.0
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            record = span._replace(start=span.start - origin, end=span.end - origin)
            fh.write(json.dumps(record._asdict()) + "\n")
    return path


def _ratio(seconds: float, count: int, scale: float) -> float:
    return seconds / count * scale if count else 0.0

