"""Outside-in tracing of matk, installed from the benchmark's own files.

``Tracer.install`` replaces each traced function by a wrapper in every
``matk`` namespace that holds it (``hochster.reduced_cohomology``,
``massey.cup_multiply`` and so on, not only the defining module) and
replaces the traced methods on their classes.  ``uninstall`` puts every
original back.  Each call becomes a span (id, name, start, end, parent id,
job id); a layer's self time is its spans' durations minus the time their
child spans cover.  Self times and counts are aggregated as spans close,
and the first ``SPAN_CAP`` spans are kept in memory and written out at the
end.  Every wrapper carries the attribute ``MARK``, so a wrapper left in
place after ``uninstall`` can be found.

Each thread keeps its own span stack.  A span opened on a worker thread
with nothing open on that thread (``hochster_decompose(threads=N)``) takes
the installing thread's innermost open span as parent; such children can
overlap in time, so their parent subtracts the union of their intervals.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict

MODULES = ("simplicial", "cochains", "exactalg", "hochster", "massey",
           "constructions", "nestohedra")

# Per-term helpers whose wrapper would cost more than their work; their
# time stays with the calling span.
SKIP = {
    "cochains": {"epsilon", "epsilon_set", "overline", "total_degree"},
    "exactalg": {"GF", "zeros", "identity"},
    "nestohedra": {"subset_label"},
}

METHODS = (
    ("simplicial", "SimplicialComplex", ("faces", "has_face")),
    ("cochains", "ReducedCohomology", ("delta_matrix", "class_key")),
)

# Functions taking a dense matrix (list of rows) as first argument; the
# outermost such call counts the entries and nonzeros handed in.
MATRIX_FUNCS = {"rank", "snf_diagonal", "smith_normal_form", "row_echelon",
                "solve_affine", "kernel_basis", "mat_vec", "mat_mul",
                "column_space_basis", "cokernel_invariants"}

ENUMERATE = "massey.enumerate_defining_systems"

SPAN_CAP = 100_000  # spans kept for writing out; later ones are only counted
MARK = "_perfbench_span"  # attribute set on every wrapper


def _dense_counts(M):
    """(rows * cols, nonzeros) of a list-of-rows matrix, else (0, 0)."""
    if not isinstance(M, (list, tuple)) or not M or not isinstance(M[0], (list, tuple)):
        return 0, 0
    entries = nonzeros = 0
    for row in M:
        entries += len(row)
        nonzeros += len(row) - row.count(0)
    return entries, nonzeros


def _union(intervals) -> float:
    """Total length covered by a list of (start, end) intervals."""
    total = 0.0
    reach = None
    for a, b in sorted(intervals):
        if reach is None or a > reach:
            total += b - a
            reach = b
        elif b > reach:
            total += b - reach
            reach = b
    return total


class Tracer:
    def __init__(self):
        self.on = False
        self.job = None
        # thread id -> stack of frames [name, start, child_time, span_id,
        # intervals of children opened on other threads or None]
        self.stacks = {}
        self.main = threading.get_ident()
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self_s]
        self.counters = defaultdict(float)
        self.active = defaultdict(int)  # name -> open spans of that name
        self.spans = []
        self.dropped = 0
        self.ids = itertools.count()  # next() is atomic across threads
        self.epoch = time.perf_counter()
        self._patches = []
        self._job_results = set()

    # -- installation -----------------------------------------------------

    def targets(self, extra=()):
        """(layer name, function) of every function to trace: the public
        functions defined in each module, the METHODS, and ``extra``."""
        out = []
        for short in MODULES:
            mod = sys.modules[f"matk.{short}"]
            for attr, val in vars(mod).items():
                if (isinstance(val, types.FunctionType) and not attr.startswith("_")
                        and val.__module__ == mod.__name__
                        and attr not in SKIP.get(short, ())):
                    out.append((f"{short}.{attr}", val))
        for short, cls_name, names in METHODS:
            cls = getattr(sys.modules[f"matk.{short}"], cls_name)
            out.extend((f"{short}.{n}", vars(cls)[n]) for n in names)
        for short, attr in extra:
            out.append((f"{short}.{attr}", getattr(sys.modules[f"matk.{short}"], attr)))
        return out

    def install(self, extra=()):
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in self.targets(extra)}
        owners = [m for n, m in sorted(sys.modules.items())
                  if n == "matk" or n.startswith("matk.")]
        for short, cls_name, _ in METHODS:
            owners.append(getattr(sys.modules[f"matk.{short}"], cls_name))
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(owner, attr, hit[1])
                    self._patches.append((owner, attr, val))
        self.main = threading.get_ident()
        self.stacks.setdefault(self.main, [])
        self.on = True

    def uninstall(self):
        self.on = False
        for owner, attr, val in reversed(self._patches):
            setattr(owner, attr, val)
        self._patches.clear()

    # -- jobs ---------------------------------------------------------------

    def start_job(self, job_id):
        self.job = job_id
        self._job_results = set()

    def end_job(self):
        self.counters["cochains.reduced_cohomology.distinct"] += len(self._job_results)
        self._job_results = set()
        self.job = None

    # -- spans ----------------------------------------------------------------

    def _hooks(self, name):
        """(before, after) callbacks that maintain the per-layer counters."""
        counters = self.counters
        active = self.active
        short, _, fn = name.partition(".")
        before = after = None
        if short == "exactalg" and fn in MATRIX_FUNCS:
            def before(args, kwargs, parent):
                if fn == "solve_affine" and parent is not None and parent[0] == ENUMERATE:
                    counters[f"{ENUMERATE}.stage_solves"] += 1
                if parent is None or not parent[0].startswith("exactalg."):
                    entries, nonzeros = _dense_counts(args[0] if args else None)
                    counters["exactalg.entries_in"] += entries
                    counters["exactalg.nonzeros_in"] += nonzeros
        elif name == "cochains.delta_matrix":
            # ReducedCohomology keeps built matrices in ``_delta`` by degree; a
            # call finding no entry there assembles one (a miss)
            def before(args, kwargs, parent):
                cache = getattr(args[0], "_delta", None)
                p = args[1] if len(args) > 1 else kwargs.get("p")
                if cache is None or p not in cache:
                    counters["cochains.delta_matrix.misses"] += 1
        elif name == "cochains.class_key":
            def before(args, kwargs, parent):
                if active[ENUMERATE]:
                    counters[f"{ENUMERATE}.leaves"] += 1
        elif name == "cochains.reduced_cohomology":
            results = self

            def before(args, kwargs, parent):
                if parent is not None and parent[0] == "hochster.hochster_decompose":
                    counters["hochster.hochster_decompose.subsets"] += 1

            def after(args, result):
                results._job_results.add(id(result))
        elif name == "hochster.moment_angle_cw_oracle":
            def after(args, result):
                K = args[0]
                m = len(K.vertices)
                faces = getattr(type(K).faces, "__wrapped__", type(K).faces)  # no span
                counters["hochster.moment_angle_cw_oracle.cells"] += sum(
                    len(faces(K, p)) << (m - p - 1) for p in range(-1, K.dim + 1))
        elif name == ENUMERATE:
            def after(args, result):
                counters[f"{ENUMERATE}.distinct_classes"] += (
                    getattr(result, "distinct_class_count", None) or 0)
        return before, after

    def _wrap(self, name, fn):
        tracer = self
        perf = time.perf_counter
        get_ident = threading.get_ident
        stacks = self.stacks
        stat = self.stats[name]
        active = self.active
        spans = self.spans
        ids = self.ids
        before, after = self._hooks(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = stacks.get(get_ident())
            if stack is None:
                stack = stacks.setdefault(get_ident(), [])
            parent = stack[-1] if stack else None
            cross = False
            if parent is None and stack is not stacks[tracer.main] and stacks[tracer.main]:
                parent = stacks[tracer.main][-1]
                cross = True
            if before is not None:
                h0 = perf()
                before(args, kwargs, parent)
                if parent is not None and not cross:
                    parent[2] += perf() - h0  # bookkeeping is not the parent's work
            sid = next(ids)
            frame = [name, 0.0, 0.0, sid, None]
            stack.append(frame)
            active[name] += 1
            start = frame[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                active[name] -= 1
                dur = end - start
                covered = frame[2]
                if frame[4]:
                    covered += _union(frame[4])
                stat[0] += 1
                stat[1] += dur - covered
                if cross:
                    if parent[4] is None:
                        parent[4] = []
                    parent[4].append((start, end))
                elif parent is not None:
                    parent[2] += dur
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, start - tracer.epoch, end - tracer.epoch,
                                  parent[3] if parent is not None else None, tracer.job))
                else:
                    tracer.dropped += 1
            if after is not None:
                h0 = perf()
                after(args, result)
                if parent is not None and not cross:
                    parent[2] += perf() - h0
            return result

        setattr(traced, MARK, True)
        return traced

    # -- output ---------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "spans": [list(s) for s in self.spans],
            "dropped": self.dropped,
        }

    def merge(self, snap: dict, job_id):
        """Fold a child process's snapshot into this tracer."""
        for k, (calls, self_s) in snap["stats"].items():
            st = self.stats[k]
            st[0] += calls
            st[1] += self_s
        for k, v in snap["counters"].items():
            self.counters[k] += v
        new_id = {}
        for sid, name, start, end, parent, _ in snap["spans"]:
            new_id[sid] = next(self.ids)
            if len(self.spans) < SPAN_CAP:
                self.spans.append((new_id[sid], name, start, end, new_id.get(parent), job_id))
            else:
                self.dropped += 1
        self.dropped += snap["dropped"]

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": round(start, 7),
                                     "end": round(end, 7), "parent": parent,
                                     "job": job}) + "\n")
