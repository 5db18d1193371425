"""In-memory span tracer that wraps triplex's public functions from outside.

A span is one call of a wrapped function: its name, start, end and the
span that was open when it began (its parent).  Spans live in flat arrays
while the pass runs and are turned into per-layer metrics (and optionally
written to a file) only after the timed part has finished.

Functions are patched by identity in every loaded ``triplex`` module, so a
name bound with ``from .x import y`` (``envelope.check_axioms``,
``hopf.tree_degree``, the ``lts`` names in ``suites``) is wrapped too.
Methods are patched once on their class.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from array import array

# (dotted owner, attribute, span name); owner is "module" or "module:Class"
SPANS = (
    ("triplex.cli", "load_system", "cli.load_system"),
    ("triplex.lts", "check_axioms", "lts.check_axioms"),
    ("triplex.lts", "standard_embedding", "lts.standard_embedding"),
    ("triplex.lts", "trace_identity_check", "lts.trace_identity_check"),
    ("triplex.lts", "lie_closure", "lts.lie_closure"),
    ("triplex.lts", "simplicity_certificate", "lts.simplicity_certificate"),
    ("triplex.freealg:MonomialTable", "__init__", "freealg.table"),
    ("triplex.exactlin:Echelon", "insert", "exactlin.insert"),
    ("triplex.exactlin:Echelon", "reduce", "exactlin.reduce"),
    ("triplex.exactlin:Subspace", "reduce", "exactlin.subspace_reduce"),
    ("triplex.exactlin", "echelonize", "exactlin.echelonize"),
    ("triplex.envelope", "build", "envelope.build"),
    ("triplex.envelope:EnvelopingAlgebra", "reduce_tree", "envelope.reduce_tree"),
    ("triplex.envelope:EnvelopingAlgebra", "mul", "envelope.mul"),
    ("triplex.envelope:EnvelopingAlgebra", "right_ideal_closure",
     "envelope.right_ideal_closure"),
    ("triplex.hopf", "comult", "hopf.comult"),
    ("triplex.hopf", "comult3", "hopf.comult3"),
    ("triplex.hopf", "check_coideal", "hopf.check_coideal"),
    ("triplex.hopf", "primitives", "hopf.primitives"),
) + tuple(("triplex.suites", f"suite_{n}", f"suites.{n}")
          for n in ("axioms", "embedding", "endo", "simple", "pbw", "jordan",
                    "lemma", "expansion", "s2", "hopf", "mainthm"))

# count-only hooks: too hot for a span each
COUNTS = (("triplex.freealg", "tree_degree", "freealg.tree_degree"),)


def _resolve(owner):
    module, _, cls = owner.partition(":")
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}
        self.accepted = 0      # Echelon.insert calls that added a row
        self.accepted_nnz = 0  # nonzeros in those rows
        self._stack = [-1]
        self._undo = []

    # -- installing --------------------------------------------------------

    def install(self):
        """Wrap every function in SPANS and COUNTS, importing their modules."""
        for owner, attr, name in SPANS:
            observe = self._observe_insert if name == "exactlin.insert" else None
            self._patch(owner, attr, lambda fn, n=name, o=observe: self._span(n, fn, o))
        for owner, attr, name in COUNTS:
            self._patch(owner, attr, lambda fn, n=name: self._count(n, fn))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, make):
        target = _resolve(owner)
        if ":" in owner:
            original = target.__dict__[attr]
            self._undo.append((target, attr, original))
            setattr(target, attr, make(original))
            return
        original = getattr(target, attr)
        wrapped = make(original)
        modules = [m for key, m in sys.modules.items()
                   if key == "triplex" or key.startswith("triplex.")]
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def _span(self, name, fn, observe):
        nid = len(self.names)
        self.names.append(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _observe_insert(self, row):
        if row is not None:
            self.accepted += 1
            self.accepted_nnz += len(row)

    # -- reading -----------------------------------------------------------

    def spans(self):
        """(id, parent, name, start, end) for every recorded span."""
        names = self.names
        return [(i, self.parent[i], names[self.span_name[i]], self.start[i], self.end[i])
                for i in range(len(self.span_name))]

    def write(self, path, trace_id):
        """Write every span as one tab-separated line, times in microseconds."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w") as fh:
            fh.write(f"# trace {trace_id}\n# id\tparent\tname\tstart_us\tend_us\n")
            for i, p, name, s, e in self.spans():
                fh.write(f"{i}\t{p}\t{name}\t{(s - t0) * 1e6:.1f}\t{(e - t0) * 1e6:.1f}\n")

    def layer_metrics(self, rescale=None):
        """Per-layer metrics from the spans and counters (see README.md).

        ``rescale`` maps a raw monotonic time to the clock durations are
        reported in (the speed probe's reference time); default raw.
        """
        start, end = self.start, self.end
        if rescale is not None:
            start = [rescale(t) for t in start]
            end = [rescale(t) for t in end]
        nid = {n: i for i, n in enumerate(self.names)}
        durations = {n: [] for n in self.names}
        child_time = [0.0] * len(self.span_name)
        has_reduce_child = set()
        reduce_id, tree_id = nid["exactlin.reduce"], nid["envelope.reduce_tree"]
        for i, (n, p) in enumerate(zip(self.span_name, self.parent)):
            d = end[i] - start[i]
            durations[self.names[n]].append(d)
            if p >= 0:
                child_time[p] += d
                if n == reduce_id and self.span_name[p] == tree_id:
                    has_reduce_child.add(p)
        builds = [i for i, n in enumerate(self.span_name) if n == nid["envelope.build"]]

        def calls(name):
            return len(durations[name])

        def total(name):
            return sum(durations[name], 0.0)

        trees = durations["envelope.reduce_tree"]
        quant = statistics.quantiles(trees, n=100) if len(trees) > 1 else trees * 99
        inserts = calls("exactlin.insert")
        m = {
            "cli.load_system_s": total("cli.load_system"),
            "lts.check_axioms_calls": calls("lts.check_axioms"),
            "freealg.table_s": total("freealg.table"),
            "freealg.tree_degree_calls": self.counts.get("freealg.tree_degree", 0),
            "exactlin.insert_calls": inserts,
            "exactlin.insert_accept_ratio": self.accepted / inserts if inserts else 0.0,
            "exactlin.row_nnz_mean": (self.accepted_nnz / self.accepted
                                      if self.accepted else 0.0),
            "envelope.build_self_s": sum(end[i] - start[i] - child_time[i]
                                         for i in builds),
            "envelope.reduce_tree_calls": len(trees),
            "envelope.nf_cache_hit_ratio": (1 - len(has_reduce_child) / len(trees)
                                            if trees else 0.0),
            "envelope.reduce_tree_p50_us": quant[49] * 1e6 if trees else 0.0,
            "envelope.reduce_tree_p99_us": quant[98] * 1e6 if trees else 0.0,
        }
        for name in ("lts.check_axioms", "lts.standard_embedding",
                     "lts.trace_identity_check", "lts.lie_closure",
                     "lts.simplicity_certificate", "exactlin.insert",
                     "exactlin.reduce", "exactlin.subspace_reduce",
                     "exactlin.echelonize", "envelope.build", "envelope.mul",
                     "envelope.right_ideal_closure", "hopf.comult", "hopf.comult3",
                     "hopf.check_coideal", "hopf.primitives"):
            m[f"{name}_s"] = total(name)
        for name in ("exactlin.reduce", "exactlin.subspace_reduce",
                     "exactlin.echelonize", "envelope.mul",
                     "envelope.right_ideal_closure", "hopf.comult", "hopf.comult3"):
            m[f"{name}_calls"] = calls(name)
        for name in self.names:
            if name.startswith("suites."):
                m[f"{name}_s"] = total(name)
        return m
