"""Spans around the calls each module of the package makes into the next layer.

The traced run replaces, for its duration only, the public names that each
module imported from the layer below (``zero_temperature.integrate_xi_y``,
``finite_temperature.sum_matsubara_primed``, ``cli.force_pp0`` and so on) by
timing wrappers, and the integrand or term callable handed to the engine by a
wrapped one.  The package's own files are not changed.  A name that a later
version no longer imports is reported as an absent boundary, and its layer as
absent when none of its boundaries is left.

Spans are kept in memory as rows (id, name, start, end, parent, op, aux1,
aux2) and written out when the run ends.  A layer's self time is the duration
of its spans minus the union of their child spans.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array
from pathlib import Path

import numpy as np

from casimir_impedance import cli, finite_temperature, zero_temperature

LAYERS = ("cli", "series", "observable", "matsubara", "quadrature", "integrand", "reflection")

# (module, imported name, layer).  Engine and Matsubara entry points also
# wrap the callable they are handed: the integrand, or the per-l term.
BOUNDARIES = (
    (cli, "force_pp0", "observable"),
    (cli, "energy_pp0", "observable"),
    (cli, "series_force", "series"),
    (zero_temperature, "integrate_xi_y", "quadrature"),
    (zero_temperature, "impedance", "reflection"),
    (zero_temperature, "reflection_factors", "reflection"),
    (finite_temperature, "integrate_y_from", "quadrature"),
    (finite_temperature, "sum_matsubara_primed", "matsubara"),
    (finite_temperature, "impedance", "reflection"),
    (finite_temperature, "reflection_factors", "reflection"),
    (finite_temperature, "static_reflection_factors", "reflection"),
)

# Spans the benchmark opens itself around each operation, and the wrapped
# callables; a term is finite_temperature code, so it belongs to the observable
# layer.
OBSERVABLES = ("force_pp0", "energy_pp0", "force_sphere0", "force_ppT", "energy_ppT")
EXTRA_SPANS = {name: "observable" for name in OBSERVABLES}
EXTRA_SPANS.update({"cli.main": "cli", "integrand": "integrand", "term": "observable"})

FIELDS = ("id", "name", "start", "end", "parent", "op", "aux1", "aux2")


def _label(module, attr: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Records spans; ``install()`` puts the wrappers in, ``remove()`` undoes it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.rows = array("q")
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self.op = -1
        self.root = -1
        self.absent: list[str] = []
        for name, layer in EXTRA_SPANS.items():
            self._name_id(name, layer)

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.layer_of.append(layer)
        return self.names.index(name)

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name_id: int, fn, args, kwargs, aux=None):
        """Run fn inside a span; ``aux(args, result)`` gives (aux1, aux2)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        stack.append(sid)
        t0 = time.perf_counter_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            a1, a2 = aux(args, result) if aux is not None and result is not None else (0, 0)
            # One extend call per row keeps rows whole when threads interleave.
            self.rows.extend((sid, name_id, t0, t1, parent, self.op, a1, a2))

    def run_op(self, op_index: int, name: str, fn):
        """The benchmark's own root span around one operation."""
        self.op = op_index
        stack = self._stack()
        name_id = self._name_id(name, EXTRA_SPANS[name])
        # The root's id is the next one handed out; worker threads of the
        # operation have empty stacks and take it as their parent.
        self.root = next(self._ids)
        stack.append(self.root)
        t0 = time.perf_counter_ns()
        try:
            return fn()
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.rows.extend((self.root, name_id, t0, t1, -1, op_index, 0, 0))
            self.root = -1

    def _wrapper(self, name: str, layer: str, fn):
        name_id = self._name_id(name, layer)
        integrand_id = self._name_id("integrand", "integrand")
        term_id = self._name_id("term", "observable")
        tracer = self

        def points(args, result):
            return (int(np.size(args[-1])), 0)

        def wrap_callable(inner_id, f, aux=None):
            def wrapped(*args, **kwargs):
                return tracer.span(inner_id, f, args, kwargs, aux)
            return wrapped

        if layer == "quadrature":
            def quad_aux(args, result):
                return (int(result.evaluations), int(bool(result.converged)))

            def quadrature(f, *args, **kwargs):
                g = wrap_callable(integrand_id, f, points)
                return tracer.span(name_id, fn, (g,) + args, kwargs, quad_aux)
            return quadrature
        if layer == "matsubara":
            def matsubara(term, *args, **kwargs):
                g = wrap_callable(term_id, term)
                return tracer.span(name_id, fn, (g,) + args, kwargs)
            return matsubara
        return wrap_callable(name_id, fn)

    def install(self) -> None:
        self.absent = []
        for module, attr, layer in BOUNDARIES:
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(_label(module, attr))
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(attr, layer, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def absent_layers(self) -> list[str]:
        # The benchmark opens the observable and cli spans itself, and
        # integrand spans hang off the engine entry points.
        wrapped = {"observable", "cli"}
        wrapped.update(layer for m, a, layer in BOUNDARIES if _label(m, a) not in self.absent)
        if "quadrature" in wrapped:
            wrapped.add("integrand")
        return [layer for layer in LAYERS if layer not in wrapped]

    def table(self) -> np.ndarray:
        """All spans as an int64 array of FIELDS, row i holding span id i."""
        t = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, len(FIELDS)).copy()
        return t[np.argsort(t[:, 0], kind="stable")]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, spans=self.table(), fields=np.array(FIELDS),
                 names=np.array(self.names), layers=np.array(self.layer_of))


def self_times(t: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals.

    Children are sorted by (parent, start); a running maximum of end times,
    offset per parent so that groups never mix, gives the part of each child
    not already covered by an earlier sibling.  Threads make siblings overlap.
    """
    start, end = t[:, 2], t[:, 3]
    dur = end - start
    kids = np.flatnonzero(t[:, 4] >= 0)
    covered = np.zeros(len(t), dtype=np.int64)
    if kids.size:
        # Row of each parent; ``t`` is sorted by span id and holds whole ops.
        parent = np.full(len(t), -1, dtype=np.int64)
        parent[kids] = np.searchsorted(t[:, 0], t[kids, 4])
        order = kids[np.lexsort((start[kids], parent[kids]))]
        p = parent[order]
        base = start.min()
        big = int(end.max() - base) + 1
        s = start[order] - base + p * big
        e = end[order] - base + p * big
        prev = np.maximum.accumulate(np.concatenate(([np.int64(-1)], e[:-1])))
        part = np.clip(e - np.maximum(s, prev), 0, None)
        covered = np.bincount(p, weights=part, minlength=len(t)).astype(np.int64)
    return dur - covered


def union_length(intervals: np.ndarray) -> int:
    """Length of the union of [start, end) rows."""
    if not len(intervals):
        return 0
    iv = intervals[np.argsort(intervals[:, 0])]
    prev = np.maximum.accumulate(np.concatenate(([iv[0, 0]], iv[:-1, 1])))
    return int(np.clip(iv[:, 1] - np.maximum(iv[:, 0], prev), 0, None).sum())


def layer_metrics(t: np.ndarray, names: list[str], layer_of: list[str],
                  op_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the spans in ``t`` (one traced pass)."""
    self_ns = self_times(t)
    name = t[:, 1]
    layer = np.array([LAYERS.index(lay) for lay in layer_of], dtype=np.intp)[name]
    dur = t[:, 3] - t[:, 2]

    def ids(*span_names):
        return [names.index(n) for n in span_names if n in names]

    def of(span_names):
        return np.isin(name, ids(*span_names))

    def in_layer(lay):
        return layer == LAYERS.index(lay)

    def s(ns):
        return float(ns) / 1e9

    quad = in_layer("quadrature")
    integ = in_layer("integrand")
    refl = in_layer("reflection")
    matsu = in_layer("matsubara")
    series = in_layer("series")
    clis = in_layer("cli")
    obs = of(OBSERVABLES)
    points = int(t[integ, 6].sum())
    n_integrand = int(integ.sum())
    n_quad = int(quad.sum())

    # Top-level observable spans: roots, or children of a cli root.
    parent = t[:, 4]
    top = obs & ((parent < 0) | np.isin(parent, t[clis, 0]))
    op_col = t[:, 5]
    summed = covered = 0
    for op in np.unique(op_col[top]):
        rows = t[top & (op_col == op)]
        summed += int((rows[:, 3] - rows[:, 2]).sum())
        covered += union_length(rows[:, 2:4])

    attributed = s(self_ns.sum())
    return {
        "quadrature.self_s": s(self_ns[quad].sum()),
        "quadrature.calls": n_quad,
        "quadrature.evaluations": int(t[quad, 6].sum()),
        "quadrature.integrand_calls": n_integrand,
        "quadrature.points_per_integrand_call": points / n_integrand if n_integrand else 0.0,
        "quadrature.converged_ratio": float(t[quad, 7].sum()) / n_quad if n_quad else 1.0,
        "matsubara.calls": int(matsu.sum()),
        "matsubara.terms": int(of(["term"]).sum()),
        "matsubara.self_s": s(self_ns[matsu].sum()),
        "integrand.self_s": s(self_ns[integ].sum()),
        "integrand.ns_per_point": float(self_ns[integ].sum()) / points if points else 0.0,
        "reflection.calls": int(refl.sum()),
        "reflection.s": s(dur[refl].sum()),
        "reflection.ns_per_point": float(dur[refl].sum()) / points if points else 0.0,
        "observable.calls": int(obs.sum()),
        "observable.self_s": s(self_ns[in_layer("observable")].sum()),
        "cli.rows": 0,  # filled in from the CSV files by the caller
        "cli.self_s": s(self_ns[clis].sum()),
        "cli.concurrency": summed / covered if covered else 1.0,
        "series.calls": int(series.sum()),
        "series.s": s(dur[series].sum()),
        "trace.op_s": op_wall_s,
        "trace.attributed_s": attributed,
        "trace.unattributed_s": op_wall_s - attributed,
    }
