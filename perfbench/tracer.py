"""Spans and counts at the layer boundaries of limitgap, recorded from outside.

`Tracer.install()` replaces every public function of each layer module (and
the methods named in LAYER_METHODS) with a wrapper that records a span: its
name, start, end, parent span and the query it belongs to.  A function is
replaced under every name it is looked up by, in every limitgap module, so
`convergence_lab.mu_closed_form` is traced as well as
`process_lab.mu_closed_form`.  `uninstall()` puts the originals back.

Spans are kept in flat arrays while the pass runs; self time (a span's
duration minus the time its child spans cover) is computed afterwards.
The program is single-threaded here (every call uses workers=1), so spans
nest strictly and one stack gives each span its parent.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

PACKAGE = "limitgap"
TOP_SPANS = 12
LAYERS = ("measure_core", "event_dsl", "process_lab", "convergence_lab", "extended_line", "cli")

LAYER_METHODS = {
    "measure_core": {
        "DiscreteMeasure": ("__post_init__", "mass_at", "mass_of_set", "cdf",
                            "restrict_to_reals", "pushforward"),
        "MeasurableSet": ("from_pieces", "union", "intersection", "complement"),
    },
    "event_dsl": {"EventPredicate": ("max_coord_index",)},
    "convergence_lab": {
        "MeasureFamily": ("member",),
        "SetFamily": ("member", "limit"),
    },
}

# Spans whose calls add to a named count.
COUNTED = {
    "measure_core.DiscreteMeasure.mass_at": "measure_core.mass_queries",
    "measure_core.DiscreteMeasure.mass_of_set": "measure_core.mass_queries",
    "measure_core.DiscreteMeasure.cdf": "measure_core.mass_queries",
    "measure_core.MeasurableSet.from_pieces": "measure_core.set_ops",
    "measure_core.MeasurableSet.union": "measure_core.set_ops",
    "measure_core.MeasurableSet.intersection": "measure_core.set_ops",
    "measure_core.MeasurableSet.complement": "measure_core.set_ops",
    "convergence_lab.MeasureFamily.member": "convergence_lab.member_requests",
}

COUNT_NAMES = (
    "event_dsl.predicate_evals",
    "measure_core.measures_built",
    "measure_core.atoms_built",
    "measure_core.mass_queries",
    "measure_core.set_ops",
    "convergence_lab.member_requests",
    "convergence_lab.reports",
    "process_lab.rows_materialized",
    "cli.stdout_bytes",
)


def per_layer_metric_names() -> list[str]:
    names = [f"{layer}.{what}" for layer in LAYERS for what in ("calls", "self_s", "errors")]
    names += [c for c in COUNT_NAMES if c != "convergence_lab.reports"]
    return names + ["convergence_lab.members_per_report", "trace.overhead_ratio"]


class Tracer:
    def __init__(self) -> None:
        self.name_table: list[str] = []
        self.name_layer: list[int] = []
        self.sid = array("q")
        self.parent = array("q")
        self.query = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self.stack: list[tuple[int, int]] = [(-1, -1)]  # (span id, layer)
        self.next_sid = 0
        self.query_id = -1
        self.counts: Counter = Counter()
        self._pred_cells: list[list[int]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _name_index(self, name: str, layer: int) -> int:
        self.name_table.append(name)
        self.name_layer.append(layer)
        return len(self.name_table) - 1

    def _span(self, fn, full_name: str, layer: int, after=None):
        index = self._name_index(full_name, layer)
        count_as = COUNTED.get(full_name)
        conv = LAYERS.index("convergence_lab")
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.next_sid
            tracer.next_sid = sid + 1
            parent, parent_layer = tracer.stack[-1]
            if count_as is not None:
                tracer.counts[count_as] += 1
            if layer == conv and parent_layer != conv:
                tracer.counts["convergence_lab.reports"] += 1
            tracer.stack.append((sid, layer))
            failed = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                failed = 1
                raise
            finally:
                end = clock()
                tracer.stack.pop()
                tracer.sid.append(sid)
                tracer.parent.append(parent)
                tracer.query.append(tracer.query_id)
                tracer.name.append(index)
                tracer.start.append(start)
                tracer.end.append(end)
                tracer.failed.append(failed)
            if after is not None:
                result = after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after(self, full_name: str):
        """Post-call hooks that read counts off a call's arguments or result."""
        counts = self.counts
        if full_name == "measure_core.DiscreteMeasure.__post_init__":
            def built(args, result):
                counts["measure_core.measures_built"] += 1
                counts["measure_core.atoms_built"] += len(args[0].atoms)
                return result
            return built
        if full_name == "process_lab.enumerate_outcomes":
            def rows(args, result):
                counts["process_lab.rows_materialized"] += len(result)
                return result
            return rows
        if full_name == "event_dsl.compile_event":
            cells = self._pred_cells

            def counted(args, pred):
                cell = [0]
                cells.append(cell)

                def predicate(v, y, z):
                    cell[0] += 1
                    return pred(v, y, z)
                return predicate
            return counted
        return None

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer_index, layer in enumerate(LAYERS):
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:  # never imported by this workload, so it does no work
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                full = f"{layer}.{attr}"
                wrapped = self._span(obj, full, layer_index, self._after(full))
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is obj:
                            self._restore.append((m, key, obj))
                            setattr(m, key, wrapped)
            for cls_name, methods in LAYER_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    full = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        new = classmethod(self._span(raw.__func__, full, layer_index))
                    else:
                        new = self._span(raw, full, layer_index, self._after(full))
                    self._restore.append((cls, meth, raw))
                    setattr(cls, meth, new)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()
        self.counts["event_dsl.predicate_evals"] += sum(c[0] for c in self._pred_cells)
        self._pred_cells.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def _self_times(self) -> list[float]:
        """Each recorded span's duration minus the time its children cover."""
        covered = [0.0] * self.next_sid
        for i in range(len(self.sid)):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - covered[self.sid[i]] for i in range(len(self.sid))]

    def layer_stats(self) -> dict[str, float]:
        """<layer>.calls, .self_s and .errors from the recorded spans."""
        calls = [0] * len(LAYERS)
        errors = [0] * len(LAYERS)
        self_s = [0.0] * len(LAYERS)
        for i, own in enumerate(self._self_times()):
            layer = self.name_layer[self.name[i]]
            calls[layer] += 1
            errors[layer] += self.failed[i]
            self_s[layer] += own
        out: dict[str, float] = {}
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = calls[k]
            out[f"{layer}.self_s"] = self_s[k]
            out[f"{layer}.errors"] = errors[k]
        return out

    def top_spans(self) -> list[tuple[str, int, float]]:
        """(name, calls, self seconds) of the TOP_SPANS spans with the most self time."""
        by_name: dict[str, list] = {}
        for i, own in enumerate(self._self_times()):
            entry = by_name.setdefault(self.name_table[self.name[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += own
        ranked = sorted(by_name.items(), key=lambda kv: -kv[1][1])[:TOP_SPANS]
        return [(name, calls, secs) for name, (calls, secs) in ranked]
