"""Span tracing of mcselect from outside the package, and the per-layer
metrics derived from the spans.

Every public function of the seven modules is replaced, at each module
attribute a caller looks it up through, by a wrapper that records a span
(name, start, end, parent).  ``mcselect.cli.project_keep_in`` and
``mcselect.objectives.project_keep_in`` are both wrapped, under the one
span name ``chain_core.project_keep_in``.  A few private helpers that carry
the factorized-kernel and drift-check work are wrapped too, as are the
public methods of ``Workspace`` and ``ObjectiveDecomposition`` and the
``g`` / ``f_direct`` callables of every objective built while tracing.
Generator functions are left alone: their wrapper would return before the
work is done.

Spans stay in memory; the metrics are computed per round, and the spans
can be written out when the run ends.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
from array import array
from time import perf_counter

import numpy as np

MODULES = ("models", "chain_core", "functionals", "objectives", "optimizers", "oracle", "cli")

# private helpers that the layer metrics need as spans of their own
PRIVATE = {
    "objectives": ("_block_order_kl", "_weighted_kl", "_direct_entropy_rate",
                   "_direct_k_dist2fact"),
}
# (class, methods) wrapped in the class namespace; trivial accessors such as
# penalty() stay unwrapped because a span would cost more than the call
METHODS = {
    "objectives": {
        "Workspace": ("__init__", "entropy_pi", "entropy_rate", "dist_to_independence",
                      "dist_to_stationarity", "dist_to_factorizability",
                      "dist_to_factorizability_fixed", "split_divergence"),
        "ObjectiveDecomposition": ("f", "gc", "c", "report_value"),
    },
}

SEARCH = ("optimizers.greedy", "optimizers.distorted_greedy",
          "optimizers.generalized_distorted_greedy", "optimizers.local_search",
          "optimizers.batch_greedy")
BUILD = ("objectives.build_subset_objective", "objectives.build_partition_objective")
WS_INIT = "objectives.Workspace.__init__"
WS_QUERY = "objectives.Workspace.entropy_rate"


class Tracer:
    """Records spans while ``recording`` is set; wrappers stay installed
    until :meth:`uninstall`."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_id: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.recording = False
        self._undo: list[tuple[object, str, object]] = []
        self._serial = itertools.count()
        self._ws_serial: dict[int, int] = {}
        self.masks: set[tuple[int, int]] = set()

    # -- wrapping ---------------------------------------------------------
    def _id(self, label: str) -> int:
        if label not in self._label_id:
            self._label_id[label] = len(self.labels)
            self.labels.append(label)
        return self._label_id[label]

    def wrap(self, label: str, fn):
        lid = self._id(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.label.append(lid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(perf_counter())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()

        traced.__traced__ = True
        return traced

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _build_hook(self, fn):
        """Wrap ``g`` and ``f_direct`` of each objective the builder returns."""

        def build(*args, **kwargs):
            dec = fn(*args, **kwargs)
            object.__setattr__(dec, "g", self.wrap("objectives.g", dec.g))
            object.__setattr__(dec, "f_direct", self.wrap("objectives.f_direct", dec.f_direct))
            return dec

        return functools.wraps(fn)(build)

    def _init_hook(self, fn):
        def init(ws, *args, **kwargs):
            self._ws_serial[id(ws)] = next(self._serial)
            return fn(ws, *args, **kwargs)

        return functools.wraps(fn)(init)

    def _query_hook(self, fn):
        def query(ws, mask, *args, **kwargs):
            if self.recording:
                self.masks.add((self._ws_serial.get(id(ws), -1), mask.bits))
            return fn(ws, mask, *args, **kwargs)

        return functools.wraps(fn)(query)

    def install(self) -> None:
        if self._undo:
            return
        for short in MODULES:
            mod = importlib.import_module(f"mcselect.{short}")
            for name, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or inspect.isgeneratorfunction(obj):
                    continue
                if not obj.__module__.startswith("mcselect."):
                    continue
                if name.startswith("_") and name not in PRIVATE.get(short, ()):
                    continue
                label = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__qualname__}"
                if label in BUILD:
                    obj = self._build_hook(obj)
                self._set(mod, name, self.wrap(label, obj))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for name in methods:
                    fn = cls.__dict__[name]
                    label = f"{short}.{cls_name}.{name}"
                    if label == WS_INIT:
                        fn = self._init_hook(fn)
                    elif label == WS_QUERY:
                        fn = self._query_hook(fn)
                    self._set(cls, name, self.wrap(label, fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- metrics ----------------------------------------------------------
    def mark(self) -> int:
        self.masks = set()
        return len(self.start)

    def round_metrics(self, first: int, wall: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since ``first``."""
        lab = np.array(self.label[first:], dtype=np.int64)
        par = np.array(self.parent[first:], dtype=np.int64) - first
        dur = np.array(self.end[first:]) - np.array(self.start[first:])
        child = np.zeros(len(dur))
        nested = par >= 0
        np.add.at(child, par[nested], dur[nested])
        self_t = dur - child
        names = np.array(self.labels + [""], dtype=object)
        parent_label = np.where(nested, lab[np.where(nested, par, 0)], len(self.labels))
        parent_name = names[parent_label]
        span_name = names[lab]

        def pick(labels) -> np.ndarray:
            ids = [self._label_id[x] for x in labels if x in self._label_id]
            return np.isin(lab, ids)

        def self_s(labels) -> float:
            return float(self_t[pick(labels)].sum())

        def incl_s(labels) -> float:
            # outermost spans only, so recursion is not counted twice
            sel = pick(labels) & ~np.isin(parent_name, list(labels))
            return float(dur[sel].sum())

        def count(labels) -> int:
            return int(pick(labels).sum())

        prefixed = lambda p: [x for x in self.labels if x.startswith(p)]
        ws_methods = [x for x in prefixed("objectives.Workspace.") if x != WS_INIT]
        queries = count([WS_QUERY])
        distinct = len(self.masks)
        entropy_s = self_s(ws_methods)
        in_build = pick([WS_INIT]) & np.isin(parent_name, list(BUILD))
        out = {
            "models.chain_s": incl_s(["models.curie_weiss_chain", "models.load_chain"]),
            "chain_core.stationary_s": incl_s(["chain_core.stationary_distribution"]),
            "chain_core.stationary_calls": count(["chain_core.stationary_distribution"]),
            "chain_core.project_keep_in_s": self_s(["chain_core.project_keep_in",
                                                    "chain_core.project_leave_out",
                                                    "chain_core.project_edge"]),
            "chain_core.project_keep_in_calls": count(["chain_core.project_keep_in"]),
            "chain_core.matrix_power_s": incl_s(["chain_core.matrix_power"]),
            "chain_core.matrix_power_calls": count(["chain_core.matrix_power"]),
            "chain_core.tensor_s": self_s(["chain_core.tensor", "chain_core.tensor_dist",
                                           "chain_core.reorder_coordinates",
                                           "objectives._block_order_kl"]),
            "objectives.workspace_init_s": incl_s([WS_INIT]),
            "objectives.build_s": incl_s(list(BUILD)) - float(dur[in_build].sum()),
            "objectives.entropy_queries": queries,
            "objectives.distinct_masks": distinct,
            "objectives.cache_hit_ratio": (queries - distinct) / queries if queries else 0.0,
            "objectives.g_calls": count(["objectives.g"]),
            "objectives.entropy_s": entropy_s,
            "objectives.s_per_distinct_mask": entropy_s / distinct if distinct else 0.0,
            "functionals.direct_s": incl_s(["objectives.f_direct"]),
            "functionals.direct_calls": count(["objectives.f_direct"]),
            "functionals.kl_rate_s": self_s(["functionals.kl_rate", "objectives._weighted_kl"]),
            "optimizers.search_s": self_s(SEARCH),
            "optimizers.certify_s": self_s(["optimizers.certify", "optimizers.brute_force_opt",
                                            "optimizers.batch_certificate"]),
            "optimizers.certify_candidates": int(
                ((span_name == "objectives.ObjectiveDecomposition.gc")
                 & (parent_name == "optimizers.brute_force_opt")).sum()),
            "oracle.check_s": self_s(prefixed("oracle.")),
            "oracle.evals": int(np.char.startswith(parent_name.astype(str), "oracle.").sum()),
            "cli.run_selection_self_s": self_s(["cli.run_selection"]),
            "cli.mcmc_study_self_s": self_s(["cli.mcmc_study"]),
        }
        for short in MODULES:
            out[f"{short}.self_s"] = self_s(prefixed(f"{short}."))
        out["trace.outside_s"] = wall - float(dur[~nested].sum())
        out["trace.spans"] = len(dur)
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line: name, start, end, parent index."""
        with open(path, "w") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.labels[self.label[i]], self.start[i],
                                     self.end[i], self.parent[i]]) + "\n")


UNITS = {"count": ("calls", "queries", "masks", "candidates", "evals", "spans"),
         "ratio": ("ratio",), "s/mask": ("s_per_distinct_mask",)}


def unit_of(name: str) -> str:
    tail = name.rsplit(".", 1)[1]
    for unit, suffixes in UNITS.items():
        if tail.endswith(suffixes):
            return unit
    return "s"
