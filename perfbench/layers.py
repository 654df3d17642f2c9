"""Per-layer tracing for the benchmark's traced run.

The wrappers live here, outside the library: each goes on a name as the
importing module binds it (``series.eval_deriv``, ``measures.phi_eval``, ...),
so every call crossing a layer boundary opens a span.  A layer's self time
is its spans' duration minus the wrapped child spans inside them.  Generators
(``attractor_points``, ``iter_series_all_words``) are timed per ``next()``.
Only this process is measured; nothing is traced system-wide.

Binning (L3) has no public entry, so the private ``measures._Hist.add`` is
wrapped; when a binding is missing its metrics are reported absent.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

from workloads import lab

#: Per-layer metrics of the traced run: (name, unit, better).
PER_LAYER = [
    ("periodic.eval_s", "s", "lower"),
    ("periodic.calls", "count", "lower"),
    ("periodic.points", "count", "lower"),
    ("series.self_s", "s", "lower"),
    ("series.values", "count", "lower"),
    ("dynamics.self_s", "s", "lower"),
    ("dynamics.points", "count", "lower"),
    ("measures.hist_s", "s", "lower"),
    ("measures.hist_items", "count", "lower"),
    ("measures.cells", "count", "lower"),
    ("fractal.box_self_s", "s", "lower"),
    ("fractal.boxes_finest", "count", "lower"),
    ("fractal.boxes_per_point", "boxes/point", "higher"),
    ("measures.build_self_s", "s", "lower"),
    ("entropy.fit_s", "s", "lower"),
    ("separation.scan_self_s", "s", "lower"),
    ("partitions.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

#: Self-time metric of each span layer.
SELF_TIME = {
    "periodic": "periodic.eval_s",
    "series": "series.self_s",
    "dynamics": "dynamics.self_s",
    "hist": "measures.hist_s",
    "fractal": "fractal.box_self_s",
    "build": "measures.build_self_s",
    "entropy": "entropy.fit_s",
    "separation": "separation.scan_self_s",
    "partitions": "partitions.self_s",
    "cli": "cli.self_s",
}

#: Count metrics of each span layer.
COUNTS = {
    "periodic": ("periodic.calls", "periodic.points"),
    "series": ("series.values",),
    "dynamics": ("dynamics.points",),
    "hist": ("measures.hist_items", "measures.cells"),
    "fractal": ("fractal.boxes_finest",),
}


def _size(v) -> int:
    return int(v.size) if isinstance(v, np.ndarray) else 1


def _count_phi(t, args, kwargs, result):
    t.counts["periodic.calls"] += 1
    t.counts["periodic.points"] += int(np.size(args[1] if len(args) > 1 else kwargs["x"]))


def _count_series(t, args, kwargs, result):
    t.counts["series.values"] += _size(result)


def _count_block(t, block):
    t.counts["series.values"] += block.size


def _count_orbit(t, block):
    t.counts["dynamics.points"] += block[0].size


def _count_hist(t, args, kwargs, result):
    hist, idx = args[0], args[1]
    t.counts["measures.hist_items"] += len(idx)
    t.counts["measures.cells"] += len(getattr(hist, "idx", ()))


def _count_boxes(t, args, kwargs, result):
    t.counts["fractal.boxes_finest"] += result.counts[-1]


# (module, attribute, layer, kind, counter).  kind "call" times each call,
# "gen" each next() of the returned generator, "box" also counts the points
# fed to box_count_dimension.  Top-level entries the workloads call are
# wrapped on their defining modules; nothing inside those modules calls them
# by that name except fractal.attractor_box_count, which stays in its layer.
BINDINGS = [
    ("series", "eval_deriv", "periodic", "call", _count_phi),
    ("measures", "phi_eval", "periodic", "call", _count_phi),
    ("dynamics", "phi_eval", "periodic", "call", _count_phi),
    ("fractal", "phi_eval", "periodic", "call", _count_phi),
    ("measures", "eval_S", "series", "call", _count_series),
    ("measures", "iter_series_all_words", "series", "gen", _count_block),
    ("separation", "eval_S_deriv", "series", "call", _count_series),
    ("separation", "series_fixed_word", "series", "call", _count_series),
    ("separation", "series_over_prefixes", "series", "call", _count_series),
    ("partitions", "eval_S", "series", "call", _count_series),
    ("partitions", "random_tail_series", "series", "call", _count_series),
    ("partitions", "series_at_codes", "series", "call", _count_series),
    ("partitions", "series_fixed_word", "series", "call", _count_series),
    ("partitions", "series_over_prefixes", "series", "call", _count_series),
    ("dynamics", "attractor_points", "dynamics", "gen", _count_orbit),
    ("fractal", "attractor_points", "dynamics", "gen", _count_orbit),
    ("cli", "attractor_points", "dynamics", "gen", _count_orbit),
    ("measures", "_Hist.add", "hist", "call", _count_hist),
    ("fractal", "box_count_dimension", "fractal", "box", _count_boxes),
    ("measures", "build_mx_empirical", "build", "call", None),
    ("measures", "build_mx_exact", "build", "call", None),
    ("partitions", "build_mx_exact", "build", "call", None),
    ("cli", "build_mx_empirical", "build", "call", None),
    ("entropy", "dimension_estimate", "entropy", "call", None),
    ("cli", "dimension_estimate", "entropy", "call", None),
    ("cli", "porosity_fraction", "entropy", "call", None),
    ("separation", "exp_separation_scan", "separation", "call", None),
    ("cli", "exp_separation_scan", "separation", "call", None),
    ("cli", "condition_H_scan", "separation", "call", None),
    ("cli", "transversality_search", "separation", "call", None),
    ("cli", "decomposition_check", "partitions", "call", None),
    ("cli", "theta_entropy_table", "partitions", "call", None),
    ("cli", "separation_exponent", "partitions", "call", None),
    ("cli", "main", "cli", "call", None),
]


class Tracer:
    """Span stack with per-layer self time and counters."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.box_points = 0
        self.layers: set[str] = set()
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans
    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.self_s[layer] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def _timed(self, fn, layer, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def _timed_iter(self, it, layer, count):
        it = iter(it)
        try:
            while True:
                self.enter(layer)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                count(self, item)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def _counted_points(self, chunks):
        for xb, yb in chunks:
            self.box_points += len(xb)
            yield xb, yb

    def _wrap(self, fn, layer, kind, count):
        if kind == "gen":

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return self._timed_iter(fn(*args, **kwargs), layer, count)

            return traced_gen
        timed = self._timed(fn, layer, count)
        if kind == "box":

            @functools.wraps(fn)
            def traced_box(points, *args, **kwargs):
                if isinstance(points, np.ndarray):
                    self.box_points += len(points)
                else:
                    points = self._counted_points(points)
                return timed(points, *args, **kwargs)

            return traced_box
        return timed

    # --------------------------------------------------------- installation
    def install(self) -> None:
        """Wrap every binding in BINDINGS that exists; record the others."""
        for module, attr, layer, kind, count in BINDINGS:
            owner = lab(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._undo.append((owner, name, fn))
            setattr(owner, name, self._wrap(fn, layer, kind, count))
            self.layers.add(layer)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, fn = self._undo.pop()
            setattr(owner, name, fn)

    # -------------------------------------------------------------- results
    def metrics(self, speed: float = 1.0) -> dict[str, float]:
        """Per-layer metrics of every layer that has at least one binding,
        self times multiplied by ``speed`` (speed.py)."""
        out: dict[str, float] = {}
        for layer, name in SELF_TIME.items():
            if layer in self.layers:
                out[name] = self.self_s[layer] * speed
        for layer, names in COUNTS.items():
            if layer in self.layers:
                for name in names:
                    out[name] = self.counts[name]
        if "fractal" in self.layers:
            boxes = self.counts["fractal.boxes_finest"]
            out["fractal.boxes_per_point"] = boxes / self.box_points if self.box_points else 0.0
        return out
