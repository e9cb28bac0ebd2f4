"""Span tracing for the benchmark, installed from outside the library.

``Tracer.install`` wraps the public functions of each layer module of
``rookpart``, the public methods of the classes those modules define, and the
arithmetic/constructor methods of those classes.  A span opens only when a
call enters a layer from a different one, so a layer's span covers all the
work it does before handing control to another layer.  Counter hooks run on
every call, including calls inside one layer, and their own time is recorded
as a ``trace`` span so that it is not charged to any layer.

Each wrapper is installed at every place the original is bound: module
attributes of every loaded ``rookpart`` module (``jm`` imports
``simultaneous_eigenspace`` by name, so patching ``linalg`` alone would miss
those calls), class dictionaries, and the criterion table of
``rookpart.acceptance``.  ``Tracer.remove`` puts every original object back.

Spans are kept in memory in flat arrays and written out by the caller once
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = (
    "scalars",
    "formal",
    "linalg",
    "combinat",
    "rook",
    "seminormal",
    "characters",
    "diagram",
    "bratteli",
    "rsk",
    "tensor",
    "jm",
)

# methods wrapped besides the public ones: where constructors and operator
# overloads carry most of a layer's work (dense grids, formal sums, XiPoly)
WRAPPED_DUNDERS = frozenset(
    {"__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"}
)

COUNT_NAMES = (
    "linalg.elim_rows",
    "linalg.rank_ratio",
    "linalg.matmul_calls",
    "tensor.cells",
    "tensor.nonzeros",
    "tensor.density",
    "tensor.dim_max",
    "jm.paths",
    "jm.eigen_dim_total",
    "diagram.compositions",
    "diagram.result_terms",
    "formal.bilinear_pairs",
    "characters.system_rows",
    "characters.chi_star_calls",
    "rook.support_data_calls",
    "bratteli.paths_enumerated",
)

ROOT = "bench"
HOOK = "trace"


def self_times(spans) -> dict:
    """Self time per span name.

    ``spans`` is a sequence of ``(name, parent_index, start, end)``; a parent
    index of -1 marks a root.  A span's self time is its duration minus the
    part of its interval that its child spans cover (overlapping children are
    merged, and children are clipped to the parent's interval).
    """
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out: dict = defaultdict(float)
    for idx, (name, _, start, end) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] += (end - start) - covered
    return dict(out)


def _nonzeros(m) -> int:
    return sum(1 for row in m.data for v in row if v)


class Tracer:
    """In-memory span recorder with wrappers over the ``rookpart`` layers."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[tuple[str, int]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self._restore: list = []

    # --- spans ---------------------------------------------------------------

    def _name(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, layer: str, name: str) -> int:
        idx = len(self.span_start)
        self.span_name.append(self._name(name))
        self.span_parent.append(self._stack[-1][1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append((layer, idx))
        self.span_start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = self.clock()
        self._stack.pop()

    def caller_layer(self):
        """Inside a counter hook: the layer that made the hooked call."""
        return self._stack[-2][0] if len(self._stack) > 1 else None

    def spans(self) -> list:
        """Recorded spans as ``(name, parent_index, start, end)`` tuples."""
        names = self.names
        return [
            (names[n], p, s, e)
            for n, p, s, e in zip(self.span_name, self.span_parent, self.span_start, self.span_end)
        ]

    def layer_self_times(self) -> dict:
        """Self seconds per layer (span names are ``layer.function``)."""
        out: dict = defaultdict(float)
        for name, value in self_times(self.spans()).items():
            out[name.split(".", 1)[0]] += value
        return dict(out)

    # --- wrappers ------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str, hook=None):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                tracer.calls[layer] += 1
                idx = tracer.open(layer, name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close(idx)
            if hook is not None:
                h = tracer.open(HOOK, HOOK + ".hook")
                try:
                    hook(tracer, args, result)
                finally:
                    tracer.close(h)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer of the loaded ``rookpart`` package."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        hooks = _hooks()
        replacements = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = sys.modules[f"rookpart.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(obj, layer, hooks)
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    replacements[id(obj)] = (obj, self._wrap(obj, layer, name, hooks.get(name)))
        acceptance = sys.modules.get("rookpart.acceptance")
        if acceptance is not None:
            for num, _, fn, _ in acceptance.CRITERIA:
                name = f"acceptance.crit{num:02d}"
                replacements[id(fn)] = (fn, self._wrap(fn, "acceptance", name))
        modules = [
            m for key, m in sys.modules.items() if key == "rookpart" or key.startswith("rookpart.")
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((setattr, mod, attr, obj))
                    setattr(mod, attr, hit[1])
        if acceptance is not None:
            table = acceptance.CRITERIA
            for i, entry in enumerate(table):
                num, label, fn, budget = entry
                self._restore.append((_set_item, table, i, entry))
                table[i] = (num, label, replacements[id(fn)][1], budget)

    def _wrap_class(self, cls, layer: str, hooks: dict) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            hook = hooks.get(name)
            if inspect.isfunction(raw):
                new = self._wrap(raw, layer, name, hook)
            elif isinstance(raw, (classmethod, staticmethod)) and inspect.isfunction(raw.__func__):
                new = type(raw)(self._wrap(raw.__func__, layer, name, hook))
            else:
                continue
            self._restore.append((setattr, cls, attr, raw))
            setattr(cls, attr, new)

    def remove(self) -> None:
        """Put back every original attribute, newest first."""
        while self._restore:
            setter, owner, key, original = self._restore.pop()
            setter(owner, key, original)


def summarize_counts(raw: dict) -> dict:
    """Every named count from raw tallies; ratios are formed from their parts."""
    out = {name: raw.get(name, 0) for name in COUNT_NAMES}
    rows = raw.get("linalg.elim_rows", 0)
    out["linalg.rank_ratio"] = raw.get("linalg.elim_rank", 0) / rows if rows else 0.0
    cells = raw.get("tensor.cells", 0)
    out["tensor.density"] = raw.get("tensor.nonzeros", 0) / cells if cells else 0.0
    return out


def merge_counts(tallies) -> dict:
    """Sum raw tallies of several cases; ``tensor.dim_max`` takes the maximum."""
    out: dict = defaultdict(int)
    for raw in tallies:
        for key, value in raw.items():
            out[key] = max(out[key], value) if key == "tensor.dim_max" else out[key] + value
    return dict(out)


def _set_item(seq, index, value):
    seq[index] = value


def _hooks() -> dict:
    """Counter hooks keyed by wrapped name; each gets (tracer, args, result)."""

    def elim(rows_of, rank_of):
        def hook(t, args, result):
            rows = rows_of(args, result)
            t.counts["linalg.elim_rows"] += rows
            t.counts["linalg.elim_rank"] += rank_of(args, result)
        return hook

    def solve_unique(t, args, result):
        a = args[0]
        t.counts["linalg.elim_rows"] += a.rows
        t.counts["linalg.elim_rank"] += a.cols
        if t.caller_layer() == "characters":
            t.counts["characters.system_rows"] += a.rows

    def action_matrix(t, args, result):
        t.counts["tensor.cells"] += result.rows * result.cols
        t.counts["tensor.nonzeros"] += _nonzeros(result)
        t.counts["tensor.dim_max"] = max(t.counts["tensor.dim_max"], result.rows)

    def gt_decompose(t, args, result):
        t.counts["jm.paths"] += len(result["entries"])
        t.counts["jm.eigen_dim_total"] += sum(e["dimension"] for e in result["entries"])

    def product_terms(t, args, result):
        t.counts["diagram.result_terms"] += len(result.sum)

    def bilinear(t, args, result):
        t.counts["formal.bilinear_pairs"] += len(args[0]) * len(args[1])

    def tally(key):
        def hook(t, args, result):
            t.counts[key] += 1
        return hook

    def paths(t, args, result):
        t.counts["bratteli.paths_enumerated"] += len(result)

    return {
        "linalg.rank": elim(lambda a, r: a[0].rows, lambda a, r: r),
        "linalg.nullspace": elim(lambda a, r: a[0].rows, lambda a, r: a[0].cols - len(r)),
        "linalg.sparse_rank_of_vectors": elim(lambda a, r: len(a[0]), lambda a, r: r),
        # the stacked system has d^2 rows per generator and rank d^2 - result
        "linalg.commutant_dimension": elim(
            lambda a, r: a[0][0].rows ** 2 * len(a[0]), lambda a, r: a[0][0].rows ** 2 - r
        ),
        "linalg.solve_unique": solve_unique,
        "linalg.ExactMatrix.__mul__": tally("linalg.matmul_calls"),
        "tensor.phi_diagram": action_matrix,
        "tensor.phi_orbit": action_matrix,
        "tensor.psi_rook": action_matrix,
        "jm.gt_decompose": gt_decompose,
        "diagram.compose": tally("diagram.compositions"),
        "diagram.diagram_product": product_terms,
        "diagram.orbit_product_general": product_terms,
        "diagram.orbit_product_tppa": product_terms,
        "formal.FormalSum.bilinear": bilinear,
        "characters.chi_star": tally("characters.chi_star_calls"),
        "rook.support_data": tally("rook.support_data_calls"),
        "bratteli.GradedGraph.enumerate_paths": paths,
    }
